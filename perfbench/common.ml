(* Shared helpers: clocks, order statistics, /proc readers, scratch
   directories and child-process bookkeeping. *)

let now = Hlp_util.Clock.monotonic

(* --- order statistics --- *)

(* Nearest-rank percentile of an unsorted sample; 0 on an empty one. *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* --- /proc --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [/proc] files report a length of 0, so read them to EOF. *)
let read_proc path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      Buffer.contents b)

(* Fields of /proc/<pid>/stat after the parenthesised command name. *)
let stat_fields pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let close = String.rindex s ')' in
  String.split_on_char ' '
    (String.trim (String.sub s (close + 2) (String.length s - close - 2)))

(* Linux reports utime/stime in USER_HZ ticks, which is 100 on every
   mainstream architecture. *)
let clock_ticks = 100.

(* User+system CPU seconds consumed so far by [pid] (all threads). *)
let cpu_seconds pid =
  match stat_fields pid with
  | _state :: _ppid :: rest ->
      (* utime and stime are fields 14 and 15 of the full line, i.e.
         the 10th and 11th after ppid here. *)
      let utime = float_of_string (List.nth rest 9)
      and stime = float_of_string (List.nth rest 10) in
      (utime +. stime) /. clock_ticks
  | _ -> 0.

let self_cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM) of [pid] in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
      | _ -> acc)
    0.
    (String.split_on_char '\n' status)

(* Direct children of [pid], found by scanning every process's ppid. *)
let children pid =
  Array.fold_left
    (fun acc entry ->
      match int_of_string_opt entry with
      | None -> acc
      | Some child -> (
          match stat_fields child with
          | _ :: ppid :: _ when int_of_string ppid = pid -> child :: acc
          | _ -> acc
          | exception _ -> acc))
    [] (Sys.readdir "/proc")
  |> List.sort compare

let loadavg () =
  match String.split_on_char ' ' (read_proc "/proc/loadavg") with
  | a :: b :: c :: _ -> Printf.sprintf "%s %s %s" a b c
  | _ -> "?"

(* --- scratch directories --- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A fresh, empty directory [base/name-<n>]. *)
let fresh_dir =
  let seq = ref 0 in
  fun base name ->
    incr seq;
    let d = Filename.concat base (Printf.sprintf "%s-%d" name !seq) in
    rm_rf d;
    mkdir_p d;
    d

(* --- child processes --- *)

(* Every process this benchmark spawned and has not yet reaped.  The
   exit path stops whatever is left here, so a failing run never leaves
   a daemon behind to load the next one. *)
let live : int list ref = ref []

let spawn ~env ~log argv =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close out)
      (fun () ->
        Unix.create_process_env argv.(0) argv env Unix.stdin out out)
  in
  live := pid :: !live;
  pid

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ ->
      live := List.filter (( <> ) pid) !live;
      false
  | exception Unix.Unix_error _ -> false

(* SIGTERM (a graceful drain), then SIGKILL after [grace] seconds;
   always reaps. *)
let stop ?(grace = 10.) pid =
  if List.mem pid !live then begin
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  while alive pid && now () < deadline do
    Unix.sleepf 0.01
  done;
  if alive pid then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    live := List.filter (( <> ) pid) !live
  end
  end

let stop_all () = List.iter (fun pid -> stop pid) !live

(* Child environment: the caller's, minus every HLP_ knob, plus
   [extra]; the benchmark passes the daemon its settings as flags. *)
let child_env extra =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 4 && String.sub kv 0 4 = "HLP_"))
       (Array.to_list (Unix.environment ()))
    @ extra)

(* --- one run's result --- *)

type outcome = {
  attempted : int;  (** ops sent in the measured window *)
  failed : int;  (** ops that errored or did not match their golden *)
  problems : string list;  (** run-level failures (e.g. window misses) *)
  e2e : (string * float * string) list;  (** name, value, unit *)
  layers : (string * float) list;  (** per-layer metrics; units from [layer_units] *)
  conditions : (string * string) list;
}

(* Every per-layer metric, in BENCHMARK.json order, with its unit.  A
   workload reports 0 for a layer it does not exercise. *)
let layer_units =
  [
    ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("protocol.reply_bytes", "bytes"); ("server.transport_ms", "ms");
    ("scheduler.queue_wait_ms", "ms"); ("router.handle_ms", "ms");
    ("router.prepare_ms", "ms"); ("router.session_reply_hit_ratio", "ratio");
    ("hlpower.memo_weight_hit_ratio", "ratio");
    ("hlpower.memo_class_hit_ratio", "ratio"); ("hlpower.bind_ms", "ms");
    ("hlpower.iterations", "count"); ("lopass.bind_ms", "ms");
    ("sa_table.fill_s", "s"); ("sa_table.entries", "count");
    ("sa_table.window_misses", "count"); ("elaborate_ms", "ms");
    ("mapper.map_ms", "ms"); ("mapper.luts", "count"); ("lint_ms", "ms");
    ("sim_ms", "ms"); ("sim.vectors_per_s", "1/s"); ("power_ms", "ms");
    ("telemetry.spans_retained", "count"); ("head.relay_ms", "ms");
    ("ring.max_shard_share", "ratio"); ("head.failovers", "count");
    ("head.forward_errors", "count"); ("trace.latency_p50_ms", "ms");
    ("trace.residual_frac", "ratio"); ("trace.overhead_frac", "ratio");
  ]

(* An end-to-end figure as measured and at the reference host speed
   (see Speed): the first goes into the conditions, the second is the
   metric. *)
let figure name unit raw scaled = ((name, raw), (name, scaled, unit))

let as_measured figures =
  ( "as_measured",
    String.concat " " (List.map (fun ((n, v), _) -> Printf.sprintf "%s=%.4f" n v) figures) )

(* Fill in every layer metric a workload did not measure with 0. *)
let complete_layers measured =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name measured), unit))
    layer_units
