module Addr = struct
  type t = Unix_path of string | Tcp of string * int

  let of_string s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when host <> "" && not (String.contains host '/') ->
            Tcp (host, p)
        | _ -> Unix_path s)
    | None -> Unix_path s

  let to_string = function
    | Unix_path p -> p
    | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

  let dial addr =
    let domain, sockaddr =
      match addr with
      | Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
      | Tcp (host, port) ->
          let inet =
            try Unix.inet_addr_of_string host
            with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          (Unix.PF_INET, Unix.ADDR_INET (inet, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd sockaddr
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    fd
end

type t = {
  mutable fd : Unix.file_descr;
  mutable reader : Protocol.reader;
  mutable dead : bool;
      (* [fd] has been closed and not replaced: the stored descriptor
         number may already belong to another thread's socket, so it
         must not be read, written, or closed again until a reconnect
         installs a fresh one. *)
  addr : Addr.t;
  max_frame : int option;
}

let connect_addr ?max_frame addr =
  let fd = Addr.dial addr in
  { fd; reader = Protocol.reader_of_fd ?max_frame fd; dead = false; addr;
    max_frame }

let connect ?max_frame path = connect_addr ?max_frame (Addr.Unix_path path)

let send c req = Protocol.write_frame c.fd (Protocol.encode_request req)
let send_raw c line = Protocol.write_frame c.fd line

let closed_msg = "connection closed by the daemon"

let read_line c =
  match Protocol.read_frame c.reader with
  | `Frame line -> Ok line
  | `Eof -> Error closed_msg
  | `Too_large n -> Error (Printf.sprintf "oversized reply frame (%d bytes)" n)

let recv c = Result.bind (read_line c) Protocol.decode_reply

let exchange ?timeout_s c frame =
  (match timeout_s with
  | Some s -> (
      try
        Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO s;
        Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO s
      with Unix.Unix_error _ -> ())
  | None -> ());
  send_raw c frame;
  read_line c

let request c req =
  Result.bind (exchange c (Protocol.encode_request req)) Protocol.decode_reply

let close c =
  if not c.dead then begin
    c.dead <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let reconnect c =
  close c;
  match Addr.dial c.addr with
  | fd ->
      c.fd <- fd;
      c.reader <- Protocol.reader_of_fd ?max_frame:c.max_frame fd;
      c.dead <- false
  | exception
      Unix.Unix_error
        ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET), _, _) ->
      (* Nothing listening (yet): [c] stays dead and the caller's
         backoff loop decides whether to try again. *)
      ()

(* The transport failures a daemon restart produces, in order of where
   they strike: connect refused, send into a dead peer (EPIPE/reset),
   EOF instead of a reply.  Anything else — protocol errors, oversized
   frames — is not a restart symptom and propagates immediately. *)
let transport_failed f =
  match f () with
  | Ok _ as ok -> `Done ok
  | Error msg -> if msg = closed_msg then `Transport msg else `Done (Error msg)
  | exception
      Unix.Unix_error
        (( Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT
         | Unix.ENOTCONN | Unix.EBADF ),
         name,
         _) ->
      (* EBADF is not a restart symptom per se, but a socket closed out
         from under us deserves a reconnect, not a crash. *)
      `Transport (Printf.sprintf "%s: %s" name "connection lost")

let request_retry ?(attempts = 4) ?(backoff_ms = 50) c req =
  let attempts = max 1 attempts in
  let rec go n backoff last_err =
    if n >= attempts then
      Error
        (Printf.sprintf "request failed after %d attempt(s): %s" attempts
           last_err)
    else begin
      if n > 0 then begin
        Thread.delay (float_of_int backoff /. 1000.);
        reconnect c
      end;
      if c.dead then
        (* The last reconnect failed (daemon still down): the stored fd
           is stale, so don't touch it — just keep backing off. *)
        go (n + 1)
          (min 2000 (backoff * 2))
          "reconnect failed: nothing listening at the daemon address"
      else
        match transport_failed (fun () -> request c req) with
        | `Done r -> r
        | `Transport msg -> go (n + 1) (min 2000 (backoff * 2)) msg
    end
  in
  go 0 backoff_ms "unreachable"
