module Json = Hlp_util.Json
module Telemetry = Hlp_util.Telemetry
module Clock = Hlp_util.Clock

type config = {
  socket_path : string;
  tcp_port : int option;
  workers : int;
  queue_capacity : int;
  default_deadline_ms : int option;
  max_frame : int;
  sa_cache_dir : string option;
  metrics_port : int option;
}

let default_config =
  {
    socket_path = "/tmp/hlpowerd.sock";
    tcp_port = None;
    workers = Hlp_util.Pool.jobs ();
    queue_capacity = 64;
    default_deadline_ms = None;
    max_frame = Protocol.default_max_frame;
    sa_cache_dir = None;
    metrics_port = None;
  }

(* Raised by the deadline checkpoint between pipeline phases. *)
exception Expired

type t = {
  cfg : config;
  svc : Service.t;
  router : Router.t;
  scheduler : Scheduler.t;
}

let config t = t.cfg

let create ?(config = default_config) () =
  let svc =
    Service.create ~name:"hlpowerd" ~noun:"daemon" ~prefix:"server."
      ?tcp_port:config.tcp_port ?metrics_port:config.metrics_port
      ~max_frame:config.max_frame config.socket_path
  in
  {
    cfg = config;
    svc;
    router = Router.create ?sa_cache_dir:config.sa_cache_dir ();
    scheduler =
      Scheduler.create ~workers:config.workers
        ~capacity:config.queue_capacity ();
  }

let shutdown t = Service.shutdown t.svc
let install_signal_handlers t = Service.install_signal_handlers t.svc

let stats_json t : Json.t =
  let s = Scheduler.stats t.scheduler in
  Json.Obj
    [
      ("uptime_s", Json.Float (Service.uptime t.svc));
      ("draining", Json.Bool (Service.draining t.svc));
      ( "scheduler",
        Json.Obj
          [
            ("workers", Json.Int s.Scheduler.workers);
            ("capacity", Json.Int s.Scheduler.capacity);
            ("queued", Json.Int s.Scheduler.queued);
            ("running", Json.Int s.Scheduler.running);
            ("accepted", Json.Int s.Scheduler.accepted);
            ("completed", Json.Int s.Scheduler.completed);
            ("rejected", Json.Int s.Scheduler.rejected);
          ] );
      ("sa_tables", Router.sa_stats_json t.router);
      ("sessions", Router.session_stats_json t.router);
      ("telemetry", Service.telemetry_json ());
    ]

(* Scheduler occupancy for /metrics (the core adds uptime, draining and
   every telemetry counter). *)
let gauges t () =
  let module Prom = Hlp_util.Prometheus in
  let s = Scheduler.stats t.scheduler in
  let n = float_of_int in
  [
    Prom.gauge ~help:"Worker domains in the scheduler pool."
      "hlp_scheduler_workers" (n s.Scheduler.workers);
    Prom.gauge ~help:"Bounded queue capacity." "hlp_scheduler_capacity"
      (n s.Scheduler.capacity);
    Prom.gauge ~help:"Jobs waiting in the queue right now."
      "hlp_scheduler_queued" (n s.Scheduler.queued);
    Prom.gauge ~help:"Jobs executing right now." "hlp_scheduler_running"
      (n s.Scheduler.running);
    Prom.counter ~help:"Jobs ever admitted." "hlp_scheduler_accepted"
      (n s.Scheduler.accepted);
    Prom.counter ~help:"Jobs finished." "hlp_scheduler_completed"
      (n s.Scheduler.completed);
    Prom.counter ~help:"Overloaded rejections." "hlp_scheduler_rejected"
      (n s.Scheduler.rejected);
  ]

(* Deadlines live on {!Clock.now}'s timeline: monotonic by default, so
   an NTP step or a sysadmin's [date -s] can neither expire every
   in-flight request at once nor extend them for hours — and
   injectable, so tests can prove exactly that. *)
let now () = Clock.now ()

(* Execute one request on a worker domain: scoped telemetry, deadline
   checkpoints, structured failure containment. *)
let run_request t conn (req : Protocol.request) ~deadline =
  let checkpoint _phase =
    match deadline with
    | Some d when now () > d -> raise Expired
    | _ -> ()
  in
  let t0 = now () in
  let send = Service.send conn in
  match
    Telemetry.with_scope (fun () ->
        checkpoint "start";
        Router.handle t.router ~checkpoint req.Protocol.op)
  with
  | Ok result, telemetry ->
      Telemetry.count "server.requests_ok" 1;
      send
        {
          Protocol.reply_id = req.Protocol.id;
          payload =
            Protocol.Result
              {
                op = Protocol.op_name req.Protocol.op;
                result;
                telemetry;
                elapsed_ms = (now () -. t0) *. 1000.;
              };
        }
  | Error diagnostics, _ ->
      Telemetry.count "server.requests_rejected" 1;
      send
        (Protocol.error_reply ~diagnostics ~id:req.Protocol.id
           Protocol.Bad_request "request failed validation or execution")
  | exception Expired ->
      Telemetry.count "server.requests_expired" 1;
      send
        (Protocol.error_reply ~id:req.Protocol.id Protocol.Deadline_exceeded
           "deadline expired after %.0f ms" ((now () -. t0) *. 1000.))
  | exception e ->
      Telemetry.count "server.requests_failed" 1;
      send
        (Protocol.error_reply ~id:req.Protocol.id Protocol.Internal "%s"
           (Printexc.to_string e))

(* Hand one request to the scheduler.  The job holds a reference on the
   connection until its reply is sent, so a client EOF cannot close
   (and let the kernel recycle) an fd the job will later write to. *)
let dispatch t conn ~raw:_ (req : Protocol.request) =
  let deadline =
    match (req.Protocol.deadline_ms, t.cfg.default_deadline_ms) with
    | Some ms, _ | None, Some ms -> Some (now () +. (float_of_int ms /. 1000.))
    | None, None -> None
  in
  Service.retain conn;
  let job () =
    Fun.protect
      ~finally:(fun () -> Service.release conn)
      (fun () -> run_request t conn req ~deadline)
  in
  match Scheduler.submit t.scheduler job with
  | `Accepted -> ()
  | `Overloaded s ->
      Service.release conn;
      Telemetry.count "server.requests_overloaded" 1;
      (* Report the load observed by the rejection itself (the snapshot
         rides on the verdict): re-reading stats here could show a queue
         that has since drained next to an "overloaded" verdict — a
         torn pair. *)
      Service.send conn
        (Protocol.error_reply ~id:req.Protocol.id Protocol.Overloaded
           "queue full (%d queued, %d running, capacity %d); retry later"
           s.Scheduler.queued s.Scheduler.running s.Scheduler.capacity)
  | `Draining ->
      Service.release conn;
      Service.send conn (Service.draining_reply t.svc ~id:req.Protocol.id)

(* Finish every admitted request (each writes its own reply before the
   scheduler counts it complete), then flush warm state.  Open sessions
   are discharged first: accepted session work has already completed,
   so nothing can race the table reset, and a client that reconnects
   after restart gets a clean S013 instead of a stale id silently
   resolving. *)
let drain t () =
  Scheduler.drain t.scheduler;
  let dropped = Router.drain_sessions t.router in
  if dropped > 0 then
    Logs.info (fun m -> m "drain: closed %d open session(s)" dropped);
  Router.persist t.router

let run t =
  Service.run t.svc
    {
      Service.banner =
        Printf.sprintf " (%d workers, queue %d)" t.cfg.workers
          t.cfg.queue_capacity;
      stats = (fun () -> stats_json t);
      (* A standalone worker answers for itself; a cluster head
         aggregates its shards' replies to this op. *)
      cluster_stats =
        (fun () ->
          Json.Obj [ ("role", Json.String "worker"); ("stats", stats_json t) ]);
      gauges = gauges t;
      dispatch = dispatch t;
      drain = drain t;
    }
