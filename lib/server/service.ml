module Json = Hlp_util.Json
module Telemetry = Hlp_util.Telemetry
module Clock = Hlp_util.Clock
module Prom = Hlp_util.Prometheus

(* Replies from concurrently completing jobs interleave on one socket;
   the writer serialises frames and poisons the stream on a torn write
   (see {!Protocol.write_framed}).  [refs] keeps the fd open while
   anyone may still write to it. *)
type conn = {
  fd : Unix.file_descr;
  writer : Protocol.writer;
  prefix : string;  (* the role's telemetry prefix *)
  rmu : Mutex.t;  (* guards [refs] *)
  mutable refs : int;
}

(* One per accepted connection, registered in [t.conns] before the
   reader thread starts so drain can see every live connection; [th] is
   filled in right after [Thread.create] returns. *)
type conn_entry = { conn : conn; mutable th : Thread.t option }

type handler = {
  banner : string;
  stats : unit -> Json.t;
  cluster_stats : unit -> Json.t;
  gauges : unit -> Prom.metric list;
  dispatch : conn -> raw:string -> Protocol.request -> unit;
  drain : unit -> unit;
}

type t = {
  name : string;
  noun : string;
  prefix : string;
  socket_path : string;
  tcp_port : int option;
  metrics_port : int option;
  max_frame : int;
  listeners : Unix.file_descr list;
  wake_r : Unix.file_descr;  (* self-pipe: signal handler -> accept loop *)
  wake_w : Unix.file_descr;
  stop : bool Atomic.t;
  started_at : float;
  conn_mu : Mutex.t;
  mutable conns : conn_entry list;
}

let count t what = Telemetry.count (t.prefix ^ what) 1

let socket_alive path =
  match Client.Addr.dial (Client.Addr.Unix_path path) with
  | fd ->
      Unix.close fd;
      true
  | exception Unix.Unix_error _ -> false

let listen_unix path =
  (* A stale socket file from a dead process would make bind fail; only
     remove it when nothing is accepting on it. *)
  (match Unix.stat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      if socket_alive path then
        raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path))
      else Unix.unlink path
  | _ -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let create ~name ~noun ~prefix ?tcp_port ?metrics_port ~max_frame
    socket_path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listeners =
    listen_unix socket_path
    :: (match tcp_port with Some port -> [ listen_tcp port ] | None -> [])
  in
  let wake_r, wake_w = Unix.pipe () in
  {
    name;
    noun;
    prefix;
    socket_path;
    tcp_port;
    metrics_port;
    max_frame;
    listeners;
    wake_r;
    wake_w;
    stop = Atomic.make false;
    started_at = Clock.monotonic ();
    conn_mu = Mutex.create ();
    conns = [];
  }

let shutdown t =
  if not (Atomic.exchange t.stop true) then
    (* Wake the accept loop.  A single byte suffices; EAGAIN/EPIPE can
       only mean shutdown already raced ahead of us. *)
    try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let handle _ = shutdown t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handle);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handle)

let draining t = Atomic.get t.stop
let uptime t = Clock.monotonic () -. t.started_at

let telemetry_json () =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Telemetry.counters ()))

let draining_reply t ~id =
  Protocol.error_reply ~id Protocol.Draining
    "%s is draining; connect again after restart" t.noun

(* --- connections --- *)

let retain conn =
  Mutex.lock conn.rmu;
  conn.refs <- conn.refs + 1;
  Mutex.unlock conn.rmu

let release conn =
  Mutex.lock conn.rmu;
  conn.refs <- conn.refs - 1;
  let close = conn.refs = 0 in
  Mutex.unlock conn.rmu;
  if close then try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* A clean write failure (no bytes left) means the client left — the
   reply is simply dropped, which is the only "dropped reply" the drain
   guarantee permits (there is no one left to read it).  A torn write
   poisons the connection instead: the writer shuts the stream down at
   the tear so no later frame can be spliced onto the torn one's tail,
   and every subsequent reply on that connection is dropped (counted
   separately — they are collateral of the tear, not independent
   failures). *)
let send_line (conn : conn) line =
  let count what = Telemetry.count (conn.prefix ^ what) 1 in
  match Protocol.write_framed conn.writer line with
  | `Ok -> ()
  | `Error -> count "replies_unwritable"
  | `Poisoned ->
      count "replies_unwritable";
      count "conns_poisoned"
  | `Dropped -> count "replies_dropped"

let send conn reply = send_line conn (Protocol.encode_reply reply)

let inline_result conn ~id ~op result =
  send conn
    {
      Protocol.reply_id = id;
      payload = Protocol.Result { op; result; telemetry = []; elapsed_ms = 0. };
    }

let serve_conn t h entry =
  let conn = entry.conn in
  let reader = Protocol.reader_of_fd ~max_frame:t.max_frame conn.fd in
  let rec loop () =
    (* A poisoned stream can never carry another reply, so reading
       further requests would only burn work on answers the client
       cannot receive; close instead. *)
    if Protocol.writer_poisoned conn.writer then ()
    else
      match Protocol.read_frame reader with
      | `Eof -> ()
      | `Too_large n ->
          count t "frames_too_large";
          send conn
            (Protocol.error_reply
               ~diagnostics:
                 [
                   Protocol.Diagnostic.error "S012" (Line 1)
                     "frame of %d bytes exceeds the %d-byte limit and was \
                      discarded unread"
                     n t.max_frame;
                 ]
               ~id:Json.Null Protocol.Frame_too_large
               "frame of %d bytes exceeds the %d-byte limit" n t.max_frame);
          loop ()
      | `Frame line ->
          count t "frames";
          (match Protocol.decode_request line with
          | Ok { Protocol.op = Protocol.Stats; id; _ } ->
              inline_result conn ~id ~op:"stats" (h.stats ())
          | Ok { Protocol.op = Protocol.Cluster_stats; id; _ } ->
              inline_result conn ~id ~op:"cluster_stats" (h.cluster_stats ())
          | Ok req when draining t ->
              send conn (draining_reply t ~id:req.Protocol.id)
          | Ok req -> h.dispatch conn ~raw:line req
          | Error { Protocol.err_code; err_id; err_diagnostics } ->
              count t "frames_invalid";
              send conn
                (Protocol.error_reply ~diagnostics:err_diagnostics ~id:err_id
                   err_code "invalid request frame"));
          loop ()
  in
  (try loop () with Unix.Unix_error _ | Sys_error _ -> ());
  (* Deregister before dropping the reader's reference: once released,
     the fd may close (and its number be recycled) as soon as the last
     in-flight job replies, and drain must never Unix.shutdown a
     recycled descriptor it finds in [t.conns]. *)
  Mutex.lock t.conn_mu;
  t.conns <- List.filter (fun e -> e != entry) t.conns;
  Mutex.unlock t.conn_mu;
  release conn

let accept t h lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      count t "connections";
      let conn =
        {
          fd;
          writer = Protocol.writer_of_fd fd;
          prefix = t.prefix;
          rmu = Mutex.create ();
          refs = 1 (* the reader thread's reference *);
        }
      in
      let entry = { conn; th = None } in
      Mutex.lock t.conn_mu;
      t.conns <- entry :: t.conns;
      Mutex.unlock t.conn_mu;
      let th = Thread.create (fun () -> serve_conn t h entry) () in
      Mutex.lock t.conn_mu;
      entry.th <- Some th;
      Mutex.unlock t.conn_mu

let rec accept_loop t h =
  if not (draining t) then
    match Unix.select (t.wake_r :: t.listeners) [] [] (-1.) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t h
    | readable, _, _ ->
        if not (List.mem t.wake_r readable || draining t) then begin
          List.iter
            (fun lfd -> if List.mem lfd readable then accept t h lfd)
            t.listeners;
          accept_loop t h
        end

(* The /metrics exposition: every telemetry counter as a Prometheus
   counter, plus the point-in-time gauges counters cannot carry.
   Rendered fresh at scrape time. *)
let metrics_body t h () =
  Prom.render
    (Prom.gauge
       ~help:(Printf.sprintf "Seconds since the %s started." t.noun)
       "hlp_uptime_seconds" (uptime t)
    :: Prom.gauge ~help:"1 while draining, 0 while serving." "hlp_draining"
         (if draining t then 1. else 0.)
    :: (h.gauges () @ Prom.of_counters (Telemetry.counters ())))

let run t h =
  Logs.info (fun m ->
      m "%s: listening on %s%s%s" t.name t.socket_path
        (match t.tcp_port with
        | Some p -> Printf.sprintf " and 127.0.0.1:%d" p
        | None -> "")
        h.banner);
  let metrics =
    Option.map
      (fun port ->
        let m = Metrics.start ~port (metrics_body t h) in
        Logs.info (fun l ->
            l "%s: /metrics on 127.0.0.1:%d" t.name (Metrics.port m));
        m)
      t.metrics_port
  in
  accept_loop t h;
  Logs.info (fun m -> m "%s: draining" t.name);
  (* 1. Stop accepting new connections. *)
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ());
  (* 2. The role finishes what it admitted.  Connections are still
        read meanwhile: [stats] answers, new work gets [draining]. *)
  h.drain ();
  (* 3. Release the connections: shutdown unblocks reader threads
        stuck in read, then join them.  Only live connections are still
        registered — each reader deregisters itself on exit — and a
        registered conn's fd is provably open (its reader reference is
        still held), so no recycled fd number can be shut down here. *)
  Mutex.lock t.conn_mu;
  let conns = t.conns in
  Mutex.unlock t.conn_mu;
  List.iter
    (fun { conn; _ } ->
      try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ -> ())
    conns;
  List.iter
    (fun { th; _ } -> match th with Some th -> Thread.join th | None -> ())
    conns;
  Option.iter Metrics.stop metrics;
  Telemetry.write_if_requested ();
  (try
     Unix.close t.wake_r;
     Unix.close t.wake_w
   with Unix.Unix_error _ -> ());
  Logs.info (fun m -> m "%s: drained, exiting" t.name)
