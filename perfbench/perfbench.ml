(* perfbench — one run of one workload.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1
                   --cli PATH [--rev REV]

   Prints the run's conditions and metrics, then, as the last line, one
   JSON object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones.  Scratch files (cache dirs, sockets, daemon logs)
   live under .bench_run/ in the current directory and are removed on
   exit; the traced run's spans are kept in .bench_run/traces/.

   [perfbench.exe --speed-probe CPU] is the host-speed probe process the
   run starts for itself (see Speed). *)

open Common

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload flow-batch|serve-bind|session-edit|head-bind \
     --seed N --seconds S --trace 0|1 --cli PATH [--rev REV]";
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = Speed.flag then
    Speed.serve (int_of_string Sys.argv.(2));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let workload = arg "workload" in
  let seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") in
  let trace = arg "trace" = "1" in
  let cli = arg "cli" in
  let rev = Option.value ~default:"unknown" (Hashtbl.find_opt args "rev") in
  if not (List.mem workload [ "flow-batch"; "serve-bind"; "session-edit"; "head-bind" ]) then
    usage ();
  let work = Printf.sprintf ".bench_run/w%d" (Unix.getpid ()) in
  mkdir_p work;
  (* Registered first, so it runs last: after every SA table's own
     exit-time flush. *)
  at_exit (fun () ->
      stop_all ();
      rm_rf work);
  let on_signal _ = exit 1 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let rng = Hlp_util.Rng.create (Printf.sprintf "perfbench/%s/%d" workload seed) in
  let load_start = loadavg () in
  let o =
    match workload with
    | "flow-batch" ->
        Flow_batch.run ~work ~rng ~seconds ~trace ~golden_path:"BENCH_pr10.json"
    | w -> Serving.run ~cli ~work ~rng ~seconds ~trace w
  in
  let conditions =
    [
      ("workload", workload); ("seed", string_of_int seed);
      ("seconds", Printf.sprintf "%g" seconds);
      ("trace", if trace then "1" else "0"); ("rev", rev);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("HLP_JOBS", Option.value ~default:"unset" (Sys.getenv_opt "HLP_JOBS"));
      ("loadavg_start", load_start); ("loadavg_end", loadavg ());
    ]
    @ o.conditions
    @ [ ("error_frac", Printf.sprintf "%g" (ratio o.failed o.attempted)) ]
  in
  List.iter (fun (k, v) -> Printf.printf "# %s: %s\n" k v) conditions;
  List.iter (fun p -> Printf.printf "# FAILED: %s\n" p) o.problems;
  let metrics =
    if trace then complete_layers o.layers else o.e2e
  in
  List.iter (fun (n, v, u) -> Printf.printf "%-34s %14.4f %s\n" n v u) metrics;
  if trace then begin
    let dir = ".bench_run/traces" in
    mkdir_p dir;
    let path = Printf.sprintf "%s/%s-seed%d.jsonl" dir workload seed in
    Trace.write path;
    Printf.printf "# spans: %s\n" path
  end;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0 && o.problems = [])
    o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number v) u)
          metrics))
