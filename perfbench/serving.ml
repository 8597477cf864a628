(* The serving workloads: serve-bind, head-bind and session-edit, each
   a closed loop over one or two connections to a fresh hlpowerd (or
   cluster head) started from the built CLI. *)

open Common
module P = Hlp_server.Protocol
module Json = Hlp_server.Json
module Router = Hlp_server.Router
module Cdfg = Hlp_cdfg.Cdfg
module Delta = Hlp_cdfg.Delta
module B = Hlp_cdfg.Benchmarks
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module RB = Hlp_core.Reg_binding
module H = Hlp_core.Hlpower
module L = Hlp_core.Lopass
module ST = Hlp_core.Sa_table
module Rng = Hlp_util.Rng

let nproc = Domain.recommended_domain_count ()

(* --- connections --- *)

type conn = { fd : Unix.file_descr; reader : P.reader }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX path);
    { fd; reader = P.reader_of_fd fd }
  with e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let roundtrip c frame =
  P.write_frame c.fd frame;
  match P.read_frame c.reader with
  | `Frame line -> line
  | `Too_large n -> failwith (Printf.sprintf "reply of %d bytes" n)
  | `Eof -> failwith "connection closed"

let request_json c op =
  match P.decode_reply (roundtrip c (P.encode_request { P.id = Json.Int 0; deadline_ms = None; op })) with
  | Ok { P.payload = P.Result { result; _ }; _ } -> result
  | _ -> failwith ("no result for " ^ P.op_name op)

(* --- daemons --- *)

type target = Direct | Head

type daemon = { pid : int; sock : string; target : target }

(* Paths stay relative to the checkout root (every process runs there),
   which keeps socket paths far below the 108-byte limit. *)
let start ~cli ~work ~workers target =
  let dir = fresh_dir work "d" in
  let sock = Filename.concat dir "s" and cache = Filename.concat dir "sa" in
  mkdir_p cache;
  let mode =
    match target with
    | Direct -> [ "--workers"; string_of_int workers ]
    | Head -> [ "--head"; "--spawn-workers"; "2"; "--workers"; string_of_int workers ]
  in
  let argv =
    Array.of_list ([ cli; "serve"; "--socket"; sock; "--sa-cache"; cache ] @ mode)
  in
  let pid =
    spawn ~env:(child_env [ "TMPDIR=" ^ dir ]) ~log:(Filename.concat dir "log") argv
  in
  let deadline = now () +. 60. in
  let rec wait () =
    match connect sock with
    | c -> close c
    | exception Unix.Unix_error _ ->
        if not (alive pid) then failwith "daemon exited during start-up"
        else if now () > deadline then failwith "daemon did not come up"
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ();
  { pid; sock; target }

(* Every process serving requests: the daemon, or the head and its
   workers. *)
let serving_pids d = d.pid :: (match d.target with Direct -> [] | Head -> children d.pid)

type snap = {
  completed : int;
  queue_wait_ms : int;
  sa_misses : int;
  sa_entries : int;
  shard_requests : int list;
  failovers : int;
  forward_errors : int;
}

let snapshot d =
  let c = connect d.sock in
  let r = Fun.protect ~finally:(fun () -> close c) (fun () -> request_json c P.Cluster_stats) in
  let get path j =
    List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
  in
  let int path j = Option.value ~default:0 (Option.bind (get path j) Json.to_int) in
  let workers, head =
    match d.target with
    | Direct -> (Option.to_list (get [ "stats" ] r), None)
    | Head -> (
        match get [ "shards" ] r with
        | Some (Json.Obj shards) ->
            ( List.filter_map (fun (_, s) -> get [ "stats" ] s) shards,
              get [ "head" ] r )
        | _ -> ([], get [ "head" ] r))
  in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 workers in
  let tables w = Option.value ~default:[] (Option.bind (get [ "sa_tables" ] w) Json.to_list) in
  let sum_tables key w = List.fold_left (fun acc t -> acc + int [ key ] t) 0 (tables w) in
  {
    completed = sum (int [ "scheduler"; "completed" ]);
    queue_wait_ms = sum (int [ "telemetry"; "scheduler.queue_wait_ms" ]);
    sa_misses = sum (sum_tables "misses");
    sa_entries = sum (sum_tables "entries");
    shard_requests =
      (match Option.bind head (get [ "shards" ]) with
      | Some (Json.Obj shards) -> List.map (fun (_, s) -> int [ "requests" ] s) shards
      | _ -> []);
    failovers = (match head with Some h -> int [ "telemetry"; "cluster.failovers" ] h | None -> 0);
    forward_errors =
      (match head with Some h -> int [ "telemetry"; "cluster.forward_errors" ] h | None -> 0);
  }

(* --- one request's outcome --- *)

type sample = {
  key : int;  (** index of the golden this reply is checked against *)
  t0 : float;  (** frame about to be written *)
  t1 : float;  (** reply frame read *)
  t2 : float;  (** reply decoded *)
  elapsed_ms : float;  (** the daemon's own handling time *)
  bytes : int;
  ok : bool;
  timed : bool;  (** an op of the workload (session opens/closes are not) *)
  counters : (string * int) list;
  reply : P.reply option;
}

let latency s = s.t2 -. s.t0

(* Send one frame, decode the reply and check its result with [check]. *)
let exchange c ~key ~timed ~check frame =
  let t0 = now () in
  match roundtrip c frame with
  | exception (Failure _ | Unix.Unix_error _) ->
      let t = now () in
      { key; t0; t1 = t; t2 = t; elapsed_ms = 0.; bytes = 0; ok = false; timed;
        counters = []; reply = None }
  | line ->
      let t1 = now () in
      let decoded = P.decode_reply line in
      let t2 = now () in
      let elapsed_ms, counters, ok, reply =
        match decoded with
        | Ok ({ P.payload = P.Result { result; telemetry; elapsed_ms; _ }; _ } as r) ->
            (elapsed_ms, telemetry, check result, Some r)
        | Ok r -> (0., [], false, Some r)
        | Error _ -> (0., [], false, None)
      in
      { key; t0; t1; t2; elapsed_ms; bytes = String.length line; ok; timed; counters; reply }

(* Canonical text of a JSON value: parse-and-print makes daemon replies
   and in-process goldens comparable byte for byte. *)
let canonical j =
  match Json.parse (Json.to_string j) with Ok v -> Json.to_string v | Error _ -> "?"

(* Runs [body conn] on one thread per connection and gathers the
   samples. *)
let on_connections n d body =
  let results = Array.make n [] in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            let c = connect d.sock in
            Fun.protect ~finally:(fun () -> close c) (fun () -> results.(i) <- body c))
          ())
  in
  List.iter Thread.join threads;
  List.concat (Array.to_list results)

(* --- workload definitions --- *)

(* A workload is its request stream plus the closed loop that drives
   it.  [window ~until] sends whole passes over the stream until the
   deadline has passed at a pass boundary, so every window holds the
   same mix; [~until:neg_infinity] is exactly one pass (the warm-up
   replay). *)
type workload = {
  target : target;
  workers : int;  (** worker domains per daemon process *)
  connections : int;
  describe : (string * string) list;
  window : daemon -> until:float -> sample list;
  (* Per-key in-process layer timings, measured after the window:
     (key, [(layer, seconds)]), the layers laid out in blocking-path
     order around the daemon's handler. *)
  replay_layers : sample list -> (int * (string * float) list) list;
}

(* - stateless binds (serve-bind, head-bind) - *)

let benches = [ "pr"; "wang"; "honda"; "mcm" ]
let widths = [ 8; 12; 16 ]
let bind_binders = [ ("lopass", 1.0); ("hlpower", 0.5); ("hlpower", 1.0) ]
let copies = 4

let combos =
  Array.of_list
    (List.concat_map
       (fun bench ->
         List.concat_map
           (fun width ->
             List.map
               (fun (binder, alpha) -> { P.default_bind_params with P.bench; binder; alpha; width })
               bind_binders)
           widths)
       benches)

(* The in-process goldens' SA cache, reused (warm, from disk) by the
   traced run's layer replays. *)
let golden_dir work =
  let d = Filename.concat work "golden" in
  mkdir_p d;
  d

let bind_workload ~work ~rng ~workers ~connections target =
  let golden = Router.create ~sa_cache_dir:(golden_dir work) () in
  let goldens =
    Array.map
      (fun p ->
        match Router.handle golden ~checkpoint:ignore (P.Bind p) with
        | Ok j -> canonical j
        | Error _ -> failwith "golden bind failed")
      combos
  in
  Router.persist golden;
  (* Every combination [copies] times, in seeded order. *)
  let keys = Array.concat (List.init copies (fun _ -> Array.init (Array.length combos) Fun.id)) in
  Rng.shuffle rng keys;
  let frames =
    Array.mapi
      (fun i k -> P.encode_request { P.id = Json.Int i; deadline_ms = None; op = P.Bind combos.(k) })
      keys
  in
  let n = Array.length frames in
  (* Both connections draw from one cursor; the request that would
     start a new pass after the deadline ends the window instead. *)
  let window d ~until =
    let mu = Mutex.create () and cursor = ref 0 and stopped = ref false in
    let next () =
      Mutex.lock mu;
      let i = !cursor in
      if not !stopped then
        if i > 0 && i mod n = 0 && now () >= until then stopped := true
        else incr cursor;
      let stop = !stopped in
      Mutex.unlock mu;
      if stop then None else Some i
    in
    on_connections connections d (fun c ->
        let acc = ref [] in
        let rec go () =
          match next () with
          | None -> ()
          | Some i ->
              let key = keys.(i mod n) in
              acc :=
                exchange c ~key ~timed:true
                  ~check:(fun r -> canonical r = goldens.(key))
                  frames.(i mod n)
                :: !acc;
              go ()
        in
        go ();
        !acc)
  in
  let tables = Hashtbl.create 3 in
  let table width =
    match Hashtbl.find_opt tables width with
    | Some t -> t
    | None ->
        let t = ST.create_persistent ~width ~k:4 ~dir:(golden_dir work) () in
        Hashtbl.replace tables width t;
        t
  in
  let replay_layers samples =
    let reply_of = Hashtbl.create 64 in
    List.iter
      (fun s -> match s.reply with Some r -> Hashtbl.replace reply_of s.key r | None -> ())
      samples;
    let med f = median (List.init 5 (fun _ -> let t0 = now () in f (); now () -. t0)) in
    List.filter_map
      (fun key ->
        match Hashtbl.find_opt reply_of key with
        | None -> None
        | Some reply ->
            let p = combos.(key) in
            let frame = P.encode_request { P.id = Json.Int 0; deadline_ms = None; op = P.Bind p } in
            let prepare () =
              let prof = B.find p.P.bench in
              let sched = Schedule.list_schedule (B.generate prof) ~resources:(B.resources prof) in
              (prof, sched, RB.bind (Lifetime.analyze sched))
            in
            let prof, sched, regs = prepare () in
            let bind_layer, bind =
              if p.P.binder = "lopass" then
                ("lopass.bind", fun () -> ignore (L.bind ~regs ~resources:(B.resources prof) sched))
              else
                ( "hlpower.bind",
                  fun () ->
                    let sa = table p.P.width in
                    let params = H.calibrate ~alpha:p.P.alpha sa in
                    ignore
                      (H.bind ~params ~sa_table:sa ~regs
                         ~resources:(fun cls -> max 1 (Schedule.max_density sched cls))
                         sched) )
            in
            Some
              ( key,
                [
                  ("protocol.decode", med (fun () -> ignore (P.decode_request frame)));
                  ("router.prepare", med (fun () -> ignore (prepare ())));
                  (bind_layer, med bind);
                  ("protocol.encode", med (fun () -> ignore (P.encode_reply reply)));
                ] ))
      (List.init (Array.length combos) Fun.id)
  in
  {
    target;
    workers;
    connections;
    describe =
      [ ("stream", Printf.sprintf "%d bind requests (%d combinations x %d)" n (Array.length combos) copies) ];
    window;
    replay_layers;
  }

(* - incremental sessions (session-edit) - *)

let session_width = 8
let edits_per_session = 40

type script = {
  s_bench : string;
  s_open : P.op;
  s_deltas : P.session_delta array;
  s_keys : int array;  (** golden key of the open, then of each edit *)
}

(* Each session repeats this edit pattern: A adds an op, T toggles
   alpha between 0.5 and 1.0, R removes the latest added op, which
   returns to a graph seen before.  Per unit, the two R's after the
   second pair of adds revisit a cached reply and the rest bind; the
   graph keeps one more op per unit.  The pattern, and so the mix of
   reply-cache hits and real binds, is the same for every seed. *)
let edit_pattern = [| `A; `A; `T; `R; `A; `A; `R; `R |]

(* The seeded part: each add's operands, drawn over the current
   graph's inputs and ops, with op kinds in a fixed rotation.  Returns
   each delta with the graph and alpha it leaves. *)
let gen_edits rng cdfg0 =
  let g = ref cdfg0 and alpha = ref 0.5 and added = ref [] and adds = ref 0 in
  let operand () =
    let ni = Cdfg.num_inputs !g and no = Cdfg.num_ops !g in
    let k = Rng.int rng (ni + no) in
    if k < ni then Cdfg.Input k else Cdfg.Op (k - ni)
  in
  let ok = function Ok g -> g | Error m -> failwith ("invalid generated edit: " ^ m) in
  List.init edits_per_session (fun i ->
      let delta =
        match edit_pattern.(i mod Array.length edit_pattern) with
        | `T ->
            alpha := if !alpha = 0.5 then 1.0 else 0.5;
            P.D_set_alpha !alpha
        | `R ->
            let id = List.hd !added in
            g := ok (Delta.apply !g (Delta.Remove_op id));
            added := List.tl !added;
            P.D_remove_op id
        | `A ->
            let kind = [| Cdfg.Add; Cdfg.Mult; Cdfg.Sub |].(!adds mod 3) in
            incr adds;
            let left = operand () and right = operand () in
            added := Cdfg.num_ops !g :: !added;
            g := ok (Delta.apply !g (Delta.Add_op { kind; left; right; output = true }));
            P.D_add_op { d_kind = kind; d_left = left; d_right = right; d_output = true }
      in
      (delta, !g, !alpha))

let session_workload ~work ~rng ~workers =
  let golden = Router.create ~sa_cache_dir:(golden_dir work) () in
  let goldens = ref [] and count = ref 0 in
  (* A from-scratch bind of [graph]: a fresh session on it, closed
     again at once. *)
  let scratch_bind graph alpha =
    let op =
      P.Session_open
        { P.default_session_open_params with so_graph = Some graph; so_alpha = alpha; so_width = session_width }
    in
    match Router.handle golden ~checkpoint:ignore op with
    | Ok r ->
        (match Option.bind (Json.member "session" r) Json.to_string_opt with
        | Some id -> ignore (Router.handle golden ~checkpoint:ignore (P.Session_close { sc_session = id }))
        | None -> ());
        let key = !count in
        incr count;
        goldens := canonical (Option.value ~default:Json.Null (Json.member "bind" r)) :: !goldens;
        key
    | Error _ -> failwith "golden session bind failed"
  in
  let scripts =
    Array.of_list
      (List.concat_map
         (fun bench ->
           List.init 2 (fun _ ->
               let cdfg = B.generate (B.find bench) in
               let edits = gen_edits rng cdfg in
               let open_key = scratch_bind cdfg 0.5 in
               {
                 s_bench = bench;
                 s_open =
                   P.Session_open { P.default_session_open_params with so_bench = bench; so_width = session_width };
                 s_deltas = Array.of_list (List.map (fun (d, _, _) -> d) edits);
                 s_keys = Array.of_list (open_key :: List.map (fun (_, g, a) -> scratch_bind g a) edits);
               }))
         benches)
  in
  Router.persist golden;
  let goldens = Array.of_list (List.rev !goldens) in
  let bind_of r = canonical (Option.value ~default:Json.Null (Json.member "bind" r)) in
  let frame op = P.encode_request { P.id = Json.Int 1; deadline_ms = None; op } in
  (* One session: open, every edit, close. *)
  let run_script c sc =
    let opened =
      exchange c ~key:sc.s_keys.(0) ~timed:false
        ~check:(fun r -> bind_of r = goldens.(sc.s_keys.(0)))
        (frame sc.s_open)
    in
    let sid =
      Option.bind opened.reply (fun r ->
          match r.P.payload with
          | P.Result { result; _ } -> Option.bind (Json.member "session" result) Json.to_string_opt
          | P.Error _ -> None)
    in
    let sid = Option.value ~default:"none" sid in
    let edits =
      List.mapi
        (fun i delta ->
          let key = sc.s_keys.(i + 1) in
          exchange c ~key ~timed:true ~check:(fun r -> bind_of r = goldens.(key))
            (frame (P.Session_edit { se_session = sid; se_delta = delta })))
        (Array.to_list sc.s_deltas)
    in
    let closed =
      exchange c ~key:(-1) ~timed:false ~check:(fun _ -> true)
        (frame (P.Session_close { sc_session = sid }))
    in
    (opened :: edits) @ [ closed ]
  in
  (* One pass is every script in order; the window runs whole passes
     until the deadline. *)
  let window d ~until =
    on_connections 1 d (fun c ->
        let rec passes acc =
          let acc = List.concat_map (run_script c) (Array.to_list scripts) @ acc in
          if now () < until then passes acc else acc
        in
        passes [])
  in
  (* In-process replay of each script's edit path through the public
     functions the router composes: Delta.apply + Schedule.patch_* and
     register binding ("router.prepare"), then the memoized bind
     ("hlpower.bind") unless the reply came from the reply cache. *)
  let replay_layers samples =
    let cached = Hashtbl.create 512 and reply_of = Hashtbl.create 512 in
    List.iter
      (fun s ->
        match s.reply with
        | Some ({ P.payload = P.Result { result; _ }; _ } as r) ->
            Hashtbl.replace reply_of s.key r;
            Hashtbl.replace cached s.key (Json.member "cached" result = Some (Json.Bool true))
        | _ -> ())
      samples;
    let sa = ST.create_persistent ~width:session_width ~k:4 ~dir:(golden_dir work) () in
    List.concat_map
      (fun sc ->
        let g = ref (B.generate (B.find sc.s_bench)) in
        let sched = ref (Schedule.asap !g) and alpha = ref 0.5 in
        let state = H.create_state () in
        let bind_now regs sched =
          let params = H.calibrate ~alpha:!alpha sa in
          H.bind ~state ~params ~sa_table:sa ~regs
            ~resources:(fun cls -> max 1 (Schedule.max_density sched cls))
            sched
        in
        (* The open's bind, which seeds the session's memos. *)
        ignore (bind_now (RB.bind (Lifetime.analyze !sched)) !sched);
        List.filter_map Fun.id
          (Array.to_list
             (Array.mapi
                (fun i delta ->
                  let key = sc.s_keys.(i + 1) in
                  let timed f = let t0 = now () in let r = f () in (r, now () -. t0) in
                  let hit = Option.value ~default:false (Hashtbl.find_opt cached key) in
                  let regs, prep =
                    timed (fun () ->
                        (match delta with
                        | P.D_add_op { d_kind; d_left; d_right; d_output } -> (
                            match Delta.apply !g (Delta.Add_op { kind = d_kind; left = d_left; right = d_right; output = d_output }) with
                            | Ok g' ->
                                sched := Schedule.patch_append !sched g';
                                g := g'
                            | Error _ -> ())
                        | P.D_remove_op id -> (
                            match Delta.apply !g (Delta.Remove_op id) with
                            | Ok g' ->
                                sched := Schedule.patch_remove !sched g' ~removed:id;
                                g := g'
                            | Error _ -> ())
                        | P.D_set_alpha a -> alpha := a
                        | P.D_set_resource _ -> ());
                        if hit then None else Some (RB.bind (Lifetime.analyze !sched)))
                  in
                  let bind =
                    match regs with
                    | None -> 0.
                    | Some regs -> snd (timed (fun () -> bind_now regs !sched))
                  in
                  Option.map
                    (fun reply ->
                      let f = frame (P.Session_edit { se_session = "s-1"; se_delta = delta }) in
                      let t0 = now () in
                      ignore (P.decode_request f);
                      let dec = now () -. t0 in
                      let t0 = now () in
                      ignore (P.encode_reply reply);
                      let enc = now () -. t0 in
                      ( key,
                        [ ("protocol.decode", dec); ("router.prepare", prep) ]
                        @ (if hit then [] else [ ("hlpower.bind", bind) ])
                        @ [ ("protocol.encode", enc) ] ))
                    (Hashtbl.find_opt reply_of key))
                sc.s_deltas)))
      (Array.to_list scripts)
  in
  {
    target = Direct;
    workers;
    connections = 1;
    describe =
      [ ("stream", Printf.sprintf "%d sessions x (open + %d edits + close), width %d"
                     (Array.length scripts) edits_per_session session_width) ];
    window;
    replay_layers;
  }

(* --- the run --- *)

let sum_counter name samples =
  List.fold_left
    (fun acc s -> acc + Option.value ~default:0 (List.assoc_opt name s.counters))
    0 samples

(* Per-layer spans for the traced requests: the client's own timing
   (root and reply decode), the daemon's handler time from the reply,
   the scheduler's mean queue wait, and the in-process replays of each
   layer, laid out in blocking-path order. *)
let add_spans ~queue_wait ~layers samples =
  List.iteri
    (fun op s ->
      let root = Trace.add ~op ~parent:0 "request" ~start:s.t0 ~dur:(latency s) in
      ignore (Trace.add ~op ~parent:root "client.decode" ~start:s.t1 ~dur:(s.t2 -. s.t1));
      let l = Option.value ~default:[] (List.assoc_opt s.key layers) in
      let get name = Option.value ~default:0. (List.assoc_opt name l) in
      let cursor = ref s.t0 in
      let place ?(src = "replay") ~parent name dur =
        let id = Trace.add ~src ~op ~parent name ~start:!cursor ~dur in
        cursor := !cursor +. dur;
        id
      in
      ignore (place ~parent:root "protocol.decode" (get "protocol.decode"));
      ignore (place ~src:"stats" ~parent:root "scheduler.queue_wait" queue_wait);
      let handle_start = !cursor in
      let handle = place ~src:"reply" ~parent:root "router.handle" (s.elapsed_ms /. 1000.) in
      let after = !cursor in
      cursor := handle_start;
      List.iter
        (fun (name, dur) ->
          if name <> "protocol.decode" && name <> "protocol.encode" then ignore (place ~parent:handle name dur))
        l;
      cursor := after;
      ignore (place ~parent:root "protocol.encode" (get "protocol.encode")))
    samples

(* One measured window of whole passes on a warm daemon, with the
   host's slowdown factor over it (see Speed). *)
type sub = { samples : sample list; elapsed : float; cpu_s : float; speed : float }

(* One segment: a fresh daemon on an empty cache directory and one
   replay of the stream (the cold SA-table fill) make up the set-up;
   then [subs] windows of whole passes on the warm daemon.  A traced
   segment replays the warm stream once more first (the cold replay's
   extra time is the fill) and runs one untraced window and one whose
   samples feed the spans. *)
type segment = {
  setup_s : float;
  setup_speed : float;
  fill_s : float;
  warm : sample list;
  subs : sub list;
  traced : sample list;
  rss : float;
  s0 : snap;
  s1 : snap;
}

let segment ~cli ~work ~started w ~window_s ~subs ~trace =
  let f0 = if trace then 1. else Speed.factor () in
  let t0 = now () in
  let d = start ~cli ~work ~workers:w.workers w.target in
  started := d :: !started;
  let warm = w.window d ~until:neg_infinity in
  let setup_s = now () -. t0 in
  let fill_s =
    if trace then begin
      let t0 = now () in
      ignore (w.window d ~until:neg_infinity);
      setup_s -. (now () -. t0)
    end
    else 0.
  in
  let pids = serving_pids d in
  let cpu () = List.fold_left (fun acc p -> acc +. cpu_seconds p) 0. pids in
  let sub_s = window_s /. float_of_int (if trace then 2 else subs) in
  let measure () =
    let cpu0 = cpu () and w0 = now () in
    let samples = w.window d ~until:(w0 +. sub_s) in
    { samples; elapsed = now () -. w0; cpu_s = cpu () -. cpu0; speed = 1. }
  in
  let s0 = snapshot d in
  (* The host's speed is probed between windows; a window's factor is
     the mean of the probes on either side of it, the set-up's that of
     the probes before the daemon started and after the warm-up. *)
  let rec windows k f0 acc =
    if k = 0 then List.rev acc
    else
      let u = measure () in
      let f1 = Speed.factor () in
      windows (k - 1) f1 ({ u with speed = (f0 +. f1) /. 2. } :: acc)
  in
  let setup_speed, subs, traced =
    if trace then
      let first = measure () in
      (1., [ first ], (measure ()).samples)
    else
      let f = Speed.factor () in
      ((f0 +. f) /. 2., windows subs f [], [])
  in
  let s1 = snapshot d in
  let rss = List.fold_left (fun acc p -> acc +. peak_rss_mb p) 0. pids in
  stop d.pid;
  { setup_s; setup_speed; fill_s; warm; subs; traced; rss; s0; s1 }

let timed_ops samples = List.filter (fun s -> s.timed) samples

let run ~cli ~work ~rng ~seconds ~trace name =
  (* serve-bind runs the daemon's default of one worker domain per
     core under two connections.  session-edit and head-bind keep one
     compute domain per process and one caller: on a shared two-core
     host, two domains in one daemon, or four busy processes, made their
     throughput swing by 1.4-2x between runs. *)
  let w =
    match name with
    | "serve-bind" -> bind_workload ~work ~rng ~workers:nproc ~connections:2 Direct
    | "head-bind" -> bind_workload ~work ~rng ~workers:1 ~connections:1 Head
    | _ -> session_workload ~work ~rng ~workers:1
  in
  let started = ref [] in
  Fun.protect ~finally:(fun () -> List.iter (fun d -> stop d.pid) !started) @@ fun () ->
  (* Untraced runs measure three segments, each on its own daemon, of
     six windows each, and report the median over the windows (set-up
     and RSS: over the segments): a slow stretch of the shared host
     spoils a window or two, not the run. *)
  let segs =
    if trace then [ segment ~cli ~work ~started w ~window_s:seconds ~subs:1 ~trace ]
    else List.init 3 (fun _ -> segment ~cli ~work ~started w ~window_s:(seconds /. 3.) ~subs:6 ~trace)
  in
  let all f = List.concat_map f segs in
  let subs = all (fun g -> g.subs) in
  let samples = List.concat_map (fun u -> u.samples) subs @ all (fun g -> g.traced) in
  let ops = timed_ops samples in
  let count = List.length ops in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let window_misses = List.fold_left (fun acc g -> acc + g.s1.sa_misses - g.s0.sa_misses) 0 segs in
  let warm_failed = List.length (List.filter (fun s -> not s.ok) (all (fun g -> g.warm))) in
  let failovers = List.fold_left (fun acc g -> acc + g.s1.failovers) 0 segs
  and forward_errors = List.fold_left (fun acc g -> acc + g.s1.forward_errors) 0 segs in
  let problems =
    (if window_misses > 0 then [ Printf.sprintf "%d SA-table misses in the window" window_misses ] else [])
    @ (if warm_failed > 0 then [ Printf.sprintf "%d warm-up replies did not match" warm_failed ] else [])
    @
    if failovers > 0 || forward_errors > 0 then
      [ Printf.sprintf "head: %d failovers, %d forward errors" failovers forward_errors ]
    else []
  in
  let conditions =
    w.describe
    @ [
        ("connections", string_of_int w.connections);
        ( "daemon_workers",
          match w.target with
          | Direct -> string_of_int w.workers
          | Head -> Printf.sprintf "head + 2 workers x %d domain" w.workers );
        ("cache", "fresh empty dir per daemon; warm-up replay before each window");
        ("segments", string_of_int (List.length segs));
        ( "per_window",
          String.concat " "
            (List.map
               (fun u ->
                 Printf.sprintf "%.1f/s"
                   (float_of_int (List.length (timed_ops u.samples)) /. u.elapsed))
               subs) );
        ( "setup_per_segment",
          String.concat " " (List.map (fun g -> Printf.sprintf "%.3fs" g.setup_s) segs) );
        ("ops", string_of_int count);
        ("requests", string_of_int (List.length samples));
      ]
  in
  if not trace then
    let per_seg f = median (List.map f segs) and per_sub f = median (List.map f subs) in
    let ops u = float_of_int (max 1 (List.length (timed_ops u.samples))) in
    let sub_latency p u = percentile p (List.map (fun s -> 1000. *. latency s) (timed_ops u.samples)) in
    let figures =
      [
        figure "setup_s" "s" (per_seg (fun g -> g.setup_s)) (per_seg (fun g -> g.setup_s /. g.setup_speed));
        figure "throughput_ops_s" "1/s"
          (per_sub (fun u -> ops u /. u.elapsed))
          (per_sub (fun u -> ops u /. u.elapsed *. u.speed));
        figure "latency_p50_ms" "ms" (per_sub (sub_latency 50.)) (per_sub (fun u -> sub_latency 50. u /. u.speed));
        figure "latency_p90_ms" "ms" (per_sub (sub_latency 90.)) (per_sub (fun u -> sub_latency 90. u /. u.speed));
        figure "cpu_ms_per_op" "ms"
          (per_sub (fun u -> 1000. *. u.cpu_s /. ops u))
          (per_sub (fun u -> 1000. *. u.cpu_s /. ops u /. u.speed));
      ]
    in
    {
      attempted = max 1 (List.length samples);
      failed;
      problems;
      e2e = List.map snd figures @ [ ("peak_rss_mb", per_seg (fun g -> g.rss), "MB") ];
      layers = [];
      conditions =
        conditions
        @ [
            ( "speed_factor",
              String.concat " "
                (List.map (fun g -> Printf.sprintf "%.3f" g.setup_speed) segs
                @ [ "(set-ups);" ]
                @ List.map (fun u -> Printf.sprintf "%.3f" u.speed) subs
                @ [ "(windows)" ]) );
            as_measured figures;
          ];
    }
  else begin
    let g = List.hd segs in
    let traced_ops = timed_ops g.traced in
    let untraced_p50 =
      median (List.map (fun s -> 1000. *. latency s) (timed_ops (List.hd g.subs).samples))
    in
    let completed = g.s1.completed - g.s0.completed in
    let queue_wait_ms = ratio (g.s1.queue_wait_ms - g.s0.queue_wait_ms) completed in
    let layers = w.replay_layers traced_ops in
    Trace.enabled := true;
    add_spans ~queue_wait:(queue_wait_ms /. 1000.) ~layers traced_ops;
    Trace.enabled := false;
    let by_layer = Trace.self_by_layer () in
    let ms n = Trace.layer_ms by_layer n in
    let p50_traced, explained = Trace.accounting () in
    let wire = mean (List.map (fun s -> (1000. *. latency s) -. s.elapsed_ms) traced_ops) in
    let warm_ops = timed_ops g.warm in
    let hits k = sum_counter ("hlpower.memo_" ^ k ^ "_hits") warm_ops
    and misses k = sum_counter ("hlpower.memo_" ^ k ^ "_misses") warm_ops in
    let shard_deltas = List.map2 ( - ) g.s1.shard_requests g.s0.shard_requests in
    let shard_total = List.fold_left ( + ) 0 shard_deltas in
    {
      attempted = max 1 (List.length samples);
      failed;
      problems;
      e2e = [];
      layers =
        [
          ("protocol.decode_us", 1000. *. ms "protocol.decode");
          ("protocol.encode_us", 1000. *. ms "protocol.encode");
          ("protocol.reply_bytes", mean (List.map (fun s -> float_of_int s.bytes) traced_ops));
          ((match w.target with Direct -> "server.transport_ms" | Head -> "head.relay_ms"), wire);
          ("scheduler.queue_wait_ms", queue_wait_ms);
          ("router.handle_ms", median (List.map (fun s -> s.elapsed_ms) traced_ops));
          ("router.prepare_ms", ms "router.prepare");
          ( "router.session_reply_hit_ratio",
            ratio (sum_counter "router.session_reply_hits" warm_ops) (List.length warm_ops) );
          ("hlpower.memo_weight_hit_ratio", ratio (hits "weight") (hits "weight" + misses "weight"));
          ("hlpower.memo_class_hit_ratio", ratio (hits "class") (hits "class" + misses "class"));
          ("hlpower.bind_ms", ms "hlpower.bind");
          ("hlpower.iterations", float_of_int (sum_counter "hlpower.iterations" warm_ops));
          ("lopass.bind_ms", ms "lopass.bind");
          ("sa_table.fill_s", g.fill_s);
          ("sa_table.entries", float_of_int g.s0.sa_entries);
          ("sa_table.window_misses", float_of_int window_misses);
          ( "ring.max_shard_share",
            if shard_total = 0 then 0.
            else float_of_int (List.fold_left max 0 shard_deltas) /. float_of_int shard_total );
          ("head.failovers", float_of_int failovers);
          ("head.forward_errors", float_of_int forward_errors);
          ("trace.latency_p50_ms", p50_traced);
          ("trace.residual_frac", 1. -. (explained /. p50_traced));
          ("trace.overhead_frac", (p50_traced /. untraced_p50) -. 1.);
        ];
      conditions;
    }
  end
