(* In-memory span recorder for the traced run.

   A span is one timed call into a layer, recorded from the benchmark's
   own code: name, start, end, parent span and the op (request) it
   belongs to.  [src] says where the duration came from: "client" for
   a call timed here, "reply" for a duration the daemon reported
   ([elapsed_ms]), "replay" for a layer call re-run in process on the
   same input after the window, and "stats" for a per-request mean
   taken from the daemon's counters.  Nothing is recorded unless
   [enabled] is set; spans are written out once, when the run ends. *)

type span = {
  id : int;
  op : int;
  name : string;
  parent : int;  (** 0 for a root *)
  start : float;
  stop : float;
  src : string;
}

let enabled = ref false
let mu = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0

let fresh_id () =
  Mutex.lock mu;
  incr next_id;
  let id = !next_id in
  Mutex.unlock mu;
  id

let push span =
  Mutex.lock mu;
  spans := span :: !spans;
  Mutex.unlock mu

(* [add ~op ~parent name ~start ~dur] records a span of known duration
   (seconds) and returns its id; [0] when tracing is off. *)
let add ?(src = "client") ~op ~parent name ~start ~dur =
  if not !enabled then 0
  else begin
    let id = fresh_id () in
    push { id; op; name; parent; start; stop = start +. dur; src };
    id
  end

(* [time ~op ~parent name f] runs [f] inside a span named [name]; the
   span id is passed to [f] so it can parent nested calls. *)
let time ~op ~parent name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let start = Common.now () in
    let r = f id in
    push { id; op; name; parent; start; stop = Common.now (); src = "client" };
    r
  end

let all () = List.rev !spans

(* Self time of every span: its duration minus the union of its
   children's intervals, clipped to its own. *)
let self_times () =
  let all = all () in
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) all;
  List.map
    (fun s ->
      let cs =
        List.sort (fun a b -> compare a.start b.start) (Hashtbl.find_all kids s.id)
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) c ->
            let lo = Float.max reach (Float.max c.start s.start)
            and hi = Float.min c.stop s.stop in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach lo))
          (0., s.start) cs
      in
      (s, s.stop -. s.start -. covered))
    all

(* Per-op self time of each layer, summed over the op's spans of that
   name: [(name, [(op, seconds); ...])]. *)
let self_by_layer () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let per_op =
        match Hashtbl.find_opt tbl s.name with
        | Some t -> t
        | None ->
            let t = Hashtbl.create 256 in
            Hashtbl.replace tbl s.name t;
            t
      in
      Hashtbl.replace per_op s.op
        (self +. Option.value ~default:0. (Hashtbl.find_opt per_op s.op)))
    (self_times ());
  Hashtbl.fold
    (fun name per_op acc ->
      (name, Hashtbl.fold (fun op v l -> (op, v) :: l) per_op []) :: acc)
    tbl []

(* Mean self time in milliseconds of layer [name] over the ops that
   entered it; 0 when no op did. *)
let layer_ms by_layer name =
  match List.assoc_opt name by_layer with
  | None -> 0.
  | Some l -> 1000. *. Common.mean (List.map snd l)

(* Accounting of the blocking path: per root op, the sum of the self
   times of every non-root span against the root's duration.  Returns
   (p50 of root durations, p50 of explained time), both in ms. *)
let accounting () =
  let selfs = self_times () in
  let explained = Hashtbl.create 1024 in
  List.iter
    (fun (s, self) ->
      if s.parent <> 0 then
        Hashtbl.replace explained s.op
          (self +. Option.value ~default:0. (Hashtbl.find_opt explained s.op)))
    selfs;
  let roots = List.filter (fun (s, _) -> s.parent = 0) selfs in
  let total = List.map (fun (s, _) -> 1000. *. (s.stop -. s.start)) roots in
  let expl =
    List.map
      (fun (s, _) ->
        1000. *. Option.value ~default:0. (Hashtbl.find_opt explained s.op))
      roots
  in
  (Common.median total, Common.median expl)

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\": %d, \"op\": %d, \"name\": \"%s\", \"parent\": %d, \
             \"start\": %.9f, \"end\": %.9f, \"src\": \"%s\"}\n"
            s.id s.op s.name s.parent s.start s.stop s.src)
        (all ()))
