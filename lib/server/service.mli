(** The serving core shared by the [hlpowerd] worker ({!Server}) and
    the cluster head ([Hlp_cluster.Head]).

    The core owns the daemon lifecycle: the listening sockets (a
    Unix-domain socket, optionally a loopback TCP port), the self-pipe
    that wakes the accept loop on {!shutdown} or [SIGTERM]/[SIGINT],
    one reader thread per connection, the frame loop, uptime and the
    draining flag, the [/metrics] endpoint, and the drain sequence.  A
    role plugs in as a {!handler}: what to do with a decoded request,
    what its [stats] look like, and how to finish its own work on
    drain.

    The frame loop answers, for every role alike:
    - an oversized frame with [frame_too_large] (S012), and keeps
      reading;
    - an undecodable frame with its decoder error and S-code;
    - [stats] and [cluster_stats] inline on the connection thread, even
      while draining (that is what makes [stats] a health probe);
    - any other request after {!shutdown} with [draining].
    Everything else goes to {!handler.dispatch}.  A connection whose
    writer was poisoned by a torn reply is closed.

    Drain, run by {!run} once {!shutdown} fires: close the listeners
    and remove the socket file; run {!handler.drain} (the role finishes
    the work it admitted — connections still read, so late frames get
    [draining] replies); shut down and join every connection; stop
    [/metrics]; write telemetry ([HLP_TELEMETRY]); return.

    Telemetry counters are named by the role's prefix:
    [<prefix>connections], [frames], [frames_too_large],
    [frames_invalid], [replies_unwritable], [conns_poisoned] and
    [replies_dropped]. *)

(** A client connection.  Refcounted: the reader thread holds one
    reference for the connection's lifetime and anyone that will reply
    later (a scheduled job) holds another via {!retain} until
    {!release}, so the fd stays open — and its number cannot be
    recycled — while a reply may still be written to it. *)
type conn

val retain : conn -> unit
val release : conn -> unit

(** [send conn reply] writes one reply frame; a client that left or a
    torn stream is counted, never raised. *)
val send : conn -> Protocol.reply -> unit

(** [send_line conn line] is {!send} for an already-encoded reply. *)
val send_line : conn -> string -> unit

type handler = {
  banner : string;  (** appended to the "listening on" log line *)
  stats : unit -> Hlp_util.Json.t;  (** the [stats] reply body *)
  cluster_stats : unit -> Hlp_util.Json.t;
      (** the [cluster_stats] reply body *)
  gauges : unit -> Hlp_util.Prometheus.metric list;
      (** the role's point-in-time [/metrics] gauges *)
  dispatch : conn -> raw:string -> Protocol.request -> unit;
      (** every other request while serving; [raw] is the frame as
          received *)
  drain : unit -> unit;
      (** finish every admitted request and flush the role's state *)
}

type t

(** [create ~name ~noun ~prefix ~max_frame socket_path] binds and
    listens, and ignores [SIGPIPE] (a client that disconnects mid-reply
    must not kill the process).  [name] prefixes log lines
    (["hlpowerd"]), [noun] names the process in messages (["daemon"]),
    [prefix] names the telemetry counters (["server."]).  A socket file
    left behind by a dead process is reclaimed.
    @raise Unix.Unix_error when binding fails, with [EADDRINUSE] when a
    live process accepts on [socket_path]. *)
val create :
  name:string ->
  noun:string ->
  prefix:string ->
  ?tcp_port:int ->
  ?metrics_port:int ->
  max_frame:int ->
  string ->
  t

(** [run t handler] serves until {!shutdown}, then drains and returns.
    Call it at most once. *)
val run : t -> handler -> unit

(** [shutdown t] triggers the drain from any thread or from a signal
    handler; returns immediately ({!run} performs the drain). *)
val shutdown : t -> unit

(** [install_signal_handlers t] routes [SIGTERM] and [SIGINT] to
    {!shutdown}. *)
val install_signal_handlers : t -> unit

val draining : t -> bool

(** Seconds since {!create}, on the raw monotonic clock (physical
    elapsed time even when a test installs a fake timeline). *)
val uptime : t -> float

(** [draining_reply t ~id] is the [draining] refusal for request [id]. *)
val draining_reply : t -> id:Hlp_util.Json.t -> Protocol.reply

(** Every telemetry counter, as the [telemetry] object of a [stats]
    reply. *)
val telemetry_json : unit -> Hlp_util.Json.t

(** [socket_alive path] is true when something accepts connections on
    the Unix-domain socket [path]. *)
val socket_alive : string -> bool
