(** Blocking client for the [hlpowerd] protocol — used by the CLI
    [client] subcommand, the bench load generator, the serving tests,
    and (as its pooled transport) the cluster head's forwarder. *)

(** Where a daemon listens. *)
module Addr : sig
  type t = Unix_path of string | Tcp of string * int

  (** [of_string s]: [host:port] (with a numeric port) parses as TCP,
      anything else is a Unix-domain socket path. *)
  val of_string : string -> t

  val to_string : t -> string

  (** [dial addr] opens a connected stream socket.
      @raise Unix.Unix_error when nobody is listening. *)
  val dial : t -> Unix.file_descr
end

type t

(** [connect path] connects to the daemon's Unix-domain socket.
    @raise Unix.Unix_error when nobody is listening. *)
val connect : ?max_frame:int -> string -> t

(** [connect_addr addr] connects to a daemon at any {!Addr.t}. *)
val connect_addr : ?max_frame:int -> Addr.t -> t

(** [exchange c frame] writes one raw frame and blocks for one raw
    reply line.  [timeout_s], when given, bounds each socket operation
    from now on ([0.] = block forever).  [Error] is an EOF or an
    oversized reply.
    @raise Unix.Unix_error or [Sys_error] on a socket failure. *)
val exchange : ?timeout_s:float -> t -> string -> (string, string) result

(** [request c req] sends [req] and blocks for one reply.  [Error] is a
    transport- or decode-level failure (connection closed, bad frame) —
    protocol-level errors come back as [Ok] replies with an [Error]
    payload.  Note replies are matched by arrival order: interleave
    {!send}/{!recv} yourself for pipelining. *)
val request : t -> Protocol.request -> (Protocol.reply, string) result

(** [request_retry c req] is {!request} plus bounded
    retry-with-backoff across transport failures: [ECONNREFUSED] /
    [EPIPE] / reset on send, or EOF before the reply arrives — the
    symptoms of a daemon restart.  Between attempts the connection is
    re-established from the address given at connect time.  Backoff
    doubles from [backoff_ms] (default 50 ms, capped at 2 s) for up to
    [attempts] tries (default 4).

    Only use this for idempotent requests: a retried frame may execute
    twice when the failure struck after the daemon accepted it but
    before the reply was written.  [bind]/[flow]/[explore]/[lint] are
    pure queries and safe; [session_edit] is not. *)
val request_retry :
  ?attempts:int ->
  ?backoff_ms:int ->
  t ->
  Protocol.request ->
  (Protocol.reply, string) result

val send : t -> Protocol.request -> unit

(** [send_raw c line] writes an arbitrary frame (tests). *)
val send_raw : t -> string -> unit

val recv : t -> (Protocol.reply, string) result

val close : t -> unit
