(* The name rides along with the atomic so a bump can be mirrored into
   the active per-request scope without any registry lookup. *)
type counter = { c_name : string; c_val : int Atomic.t }

(* One mutex guards the registries and the timer/span stores.  Counter
   bumps themselves are lock-free; the lock is only taken to create a
   name, to record a (cold) timer/span, and to snapshot. *)
let mu = Mutex.create ()
let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64

type timer = { mutable calls : int; mutable seconds : float }

let timers_tbl : (string, timer) Hashtbl.t = Hashtbl.create 64

(* The span log is a fixed-capacity ring: a long-running daemon records
   one span per flow, and only the most recent ones are worth keeping.
   [span_next] counts every span ever recorded since the last reset;
   slot [i mod span_capacity] holds span number [i]. *)
let span_capacity = 4096
let span_log = Array.make span_capacity ("", 0., 0.)
let span_next = ref 0

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt counters_tbl name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_val = Atomic.make 0 } in
          Hashtbl.replace counters_tbl name c;
          c)

(* Per-request scopes.  A scope is a domain-local table of deltas: while
   one is active in the current domain every [add] lands both in the
   process-wide counter and in the scope, so a server worker running one
   request end-to-end can report exactly the counters that request moved
   without disturbing (or re-deriving them from) the global totals.
   Scopes never cross domains — work a request hands to other domains
   (e.g. an explore sweep's grid cells) is only visible in the
   process-wide counters. *)
type scope = (string, int ref) Hashtbl.t

let scope_key : scope option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let add c n =
  ignore (Atomic.fetch_and_add c.c_val n);
  match !(Domain.DLS.get scope_key) with
  | None -> ()
  | Some tbl -> (
      match Hashtbl.find_opt tbl c.c_name with
      | Some r -> r := !r + n
      | None -> Hashtbl.replace tbl c.c_name (ref n))

let incr c = add c 1
let count name n = add (counter name) n
let value c = Atomic.get c.c_val

let with_scope f =
  let cell = Domain.DLS.get scope_key in
  let saved = !cell in
  let tbl : scope = Hashtbl.create 16 in
  cell := Some tbl;
  let restore () = cell := saved in
  let result = try f () with e -> restore (); raise e in
  restore ();
  let deltas =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [] |> List.sort compare
  in
  (result, deltas)

let record_timer name dt =
  locked (fun () ->
      let t =
        match Hashtbl.find_opt timers_tbl name with
        | Some t -> t
        | None ->
            let t = { calls = 0; seconds = 0. } in
            Hashtbl.replace timers_tbl name t;
            t
      in
      t.calls <- t.calls + 1;
      t.seconds <- t.seconds +. dt)

let time name f =
  let t0 = Clock.monotonic () in
  Fun.protect
    ~finally:(fun () -> record_timer name (Clock.monotonic () -. t0))
    f

let span name f =
  let t0 = Clock.monotonic () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Clock.monotonic () -. t0 in
      record_timer name dt;
      locked (fun () ->
          span_log.(!span_next mod span_capacity) <- (name, t0, dt);
          span_next := !span_next + 1))
    f

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun k c acc -> (k, Atomic.get c.c_val) :: acc) counters_tbl [])
  |> List.sort compare

let timers () =
  locked (fun () ->
      Hashtbl.fold (fun k t acc -> (k, t.calls, t.seconds) :: acc) timers_tbl [])
  |> List.sort compare

let spans () =
  locked (fun () ->
      let n = min !span_next span_capacity in
      List.init n (fun i ->
          span_log.((!span_next - n + i) mod span_capacity)))

let reset () =
  locked (fun () ->
      Hashtbl.reset counters_tbl;
      Hashtbl.reset timers_tbl;
      span_next := 0)

let to_json () =
  let open Json in
  let timer (name, calls, s) =
    Obj [ ("name", String name); ("calls", Int calls); ("seconds", Float s) ]
  in
  let span (name, start, s) =
    Obj [ ("name", String name); ("start", Float start); ("seconds", Float s) ]
  in
  to_string
    (Obj
       [ ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) (counters ())));
         ("timers", List (List.map timer (timers ())));
         ("spans", List (List.map span (spans ()))) ])

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json () ^ "\n"))

let write_if_requested () =
  match Sys.getenv_opt "HLP_TELEMETRY" with
  | Some path when String.trim path <> "" -> (
      (* A bad diagnostics path must not turn a successful run into a
         failure. *)
      try write path
      with Sys_error msg ->
        Printf.eprintf "[telemetry] cannot write %s: %s\n%!" path msg)
  | _ -> ()
