(* flow-batch: the paper's Sec. 6 pipeline in process, one domain, one
   caller.  An op is one design: prepare (generate, schedule, register
   binding), bind, then Flow.run at width 16 with 150 vectors. *)

open Common
module B = Hlp_cdfg.Benchmarks
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module RB = Hlp_core.Reg_binding
module H = Hlp_core.Hlpower
module L = Hlp_core.Lopass
module ST = Hlp_core.Sa_table
module Binding = Hlp_core.Binding
module Flow = Hlp_rtl.Flow
module Json = Hlp_server.Json

let width = 16
let vectors = 150
let config = { Flow.default_config with Flow.width; vectors }

type binder = Lopass | Hlp of float

(* The binder labels of BENCH_pr10.json's [designs] rows. *)
let binder_tag = function
  | Lopass -> "lopass"
  | Hlp a -> Printf.sprintf "hlp-a%.1f" a

type design = {
  bench : string;
  variant : int;
  binder : binder;
  vec_seed : string;  (** the simulation's input-vector seed *)
}

let design_name d =
  Printf.sprintf "%s-v%d-%s" d.bench d.variant (binder_tag d.binder)

let binders = [| Lopass; Hlp 1.0; Hlp 0.5 |]
let config_of d = { config with Flow.seed = d.vec_seed }

(* The stream: BENCH_pr10.json's 12 designs (pr, wang, honda, mcm at
   variant 0 under all three binders, the file's vector seed) plus dir
   at variant 1 under the same three binders, simulated on seeded input
   vectors, in seeded order.  The designs are the same for every seed,
   so the work per pass, the cold SA-table fill and the latency
   percentiles do not move with it: with 15 designs the median falls
   inside the honda/mcm group and p90 inside the dir group rather than
   on a gap between groups.  chem and steam are left out: their
   1.2-2.3 s flows set latency_p90_ms and moved it by up to 64% between
   runs with the shared host's speed. *)
let stream rng =
  let design bench variant vec_seed binder = { bench; variant; binder; vec_seed } in
  let fixed =
    List.concat_map
      (fun bench -> List.map (design bench 0 config.Flow.seed) (Array.to_list binders))
      [ "pr"; "wang"; "honda"; "mcm" ]
  in
  let dir =
    List.map
      (fun binder ->
        design "dir" 1 (Printf.sprintf "perfbench-dir-%d" (Hlp_util.Rng.int rng 1_000_000)) binder)
      (Array.to_list binders)
  in
  let a = Array.of_list (fixed @ dir) in
  Hlp_util.Rng.shuffle rng a;
  Array.to_list a

let prepare d =
  let p = B.find d.bench in
  let cdfg = B.generate ~variant:d.variant p in
  let schedule = Schedule.list_schedule cdfg ~resources:(B.resources p) in
  (p, schedule, RB.bind (Lifetime.analyze schedule))

(* The bench harness's binding recipe: LOPASS under the Table 2
   constraint, HLPower against the schedule's density. *)
let bind sa d (p, schedule, regs) =
  match d.binder with
  | Lopass -> (L.bind ~regs ~resources:(B.resources p) schedule, 0)
  | Hlp alpha ->
      let params = H.calibrate ~alpha sa in
      let r =
        H.bind ~params ~sa_table:sa ~regs
          ~resources:(fun cls -> max 1 (Schedule.max_density schedule cls))
          schedule
      in
      (r.H.binding, r.H.iterations)

let run_op sa d =
  let b, _ = bind sa d (prepare d) in
  Flow.run ~config:(config_of d) ~design:(design_name d) b

(* Cold fill: a new table in an empty cache directory, filled by
   binding every HLPower design of the stream. *)
let setup ~dir stream =
  let t0 = now () in
  let sa = ST.create_persistent ~width ~k:4 ~dir () in
  List.iter
    (fun d -> if d.binder <> Lopass then ignore (bind sa d (prepare d)))
    stream;
  let dt = now () -. t0 in
  ST.persist sa;
  (sa, dt)

(* --- output checks --- *)

(* BENCH_pr10.json's rows, keyed (bench, binder label).  Its figures
   are variant-0 reports printed with %.17g, so they compare
   bit-exactly. *)
let load_golden path =
  match Json.parse (read_file path) with
  | Error (_, m) -> failwith (path ^ ": " ^ m)
  | Ok j ->
      let rows = Option.value ~default:[] (Option.bind (Json.member "designs" j) Json.to_list) in
      List.filter_map
        (fun row ->
          let str k = Option.bind (Json.member k row) Json.to_string_opt in
          match (str "bench", str "binder") with
          | Some b, Some bi -> Some ((b, bi), row)
          | _ -> None)
        rows

let matches_golden row (r : Flow.report) =
  let num k = Option.bind (Json.member k row) Json.to_float in
  let eq k v = num k = Some v in
  eq "power_mw" r.Flow.dynamic_power_mw
  && eq "clock_ns" r.Flow.clock_period_ns
  && eq "luts" (float_of_int r.Flow.luts)
  && eq "largest_mux" (float_of_int r.Flow.largest_mux)
  && eq "mux_length" (float_of_int r.Flow.mux_length)
  && eq "toggle_mhz" r.Flow.toggle_rate_mhz

(* Checks every report: BENCH_pr10 designs against the file, every
   design against its own first report (runs must be deterministic).
   Returns the number of failed reports and how many matched the file. *)
let check ~golden reports =
  let first = Hashtbl.create 16 in
  let file_matched = ref 0 in
  let failed =
    List.fold_left
      (fun failed (d, r) ->
        match r with
        | None -> failed + 1
        | Some r ->
            let text = Flow.json_of_report r in
            let same_as_first =
              match Hashtbl.find_opt first d with
              | Some t -> t = text
              | None ->
                  Hashtbl.replace first d text;
                  true
            in
            let file_ok =
              if d.variant <> 0 then true
              else
                match List.assoc_opt (d.bench, binder_tag d.binder) golden with
                | Some row ->
                    let ok = matches_golden row r in
                    if ok then incr file_matched;
                    ok
                | None -> false
            in
            if same_as_first && file_ok then failed else failed + 1)
      0 reports
  in
  (failed, !file_matched)

(* --- the traced op: Flow.run's stages through their public functions --- *)

let lint ~design (elab : Hlp_rtl.Elaborate.t) mapping =
  let module D = Hlp_lint.Diagnostic in
  let nl = elab.Hlp_rtl.Elaborate.netlist in
  let ds = Hlp_lint.Rules_netlist.check nl in
  let ds =
    if D.errors ds = [] then ds @ Hlp_lint.Rules_netlist.check_blif_roundtrip nl
    else ds
  in
  let ds = ds @ Hlp_lint.Rules_mapped.check ~k:config.Flow.k mapping in
  if D.errors ds <> [] then failwith ("lint failed on " ^ design)

let traced_op sa ~op d =
  let module M = Hlp_mapper.Mapper in
  let module E = Hlp_rtl.Elaborate in
  Trace.time ~op ~parent:0 "op" @@ fun root ->
  let prep = Trace.time ~op ~parent:root "router.prepare" (fun _ -> prepare d) in
  let layer = match d.binder with Lopass -> "lopass.bind" | Hlp _ -> "hlpower.bind" in
  let binding, iterations =
    Trace.time ~op ~parent:root layer (fun _ -> bind sa d prep)
  in
  let design = design_name d in
  Trace.time ~op ~parent:root "flow" @@ fun flow ->
  let elab =
    Trace.time ~op ~parent:flow "elaborate" (fun _ ->
        let dp = Hlp_rtl.Datapath.build ~width:config.Flow.width binding in
        Hlp_rtl.Datapath.validate dp;
        E.elaborate dp)
  in
  let mapping =
    Trace.time ~op ~parent:flow "mapper.map" (fun _ ->
        M.map ~objective:config.Flow.objective elab.E.netlist ~k:config.Flow.k)
  in
  Trace.time ~op ~parent:flow "lint" (fun _ -> lint ~design elab mapping);
  let network = mapping.M.lut_network in
  let sim =
    Trace.time ~op ~parent:flow "sim" (fun _ ->
        Hlp_rtl.Sim.run
          ~config:
            {
              Hlp_rtl.Sim.vectors = config.Flow.vectors;
              seed = d.vec_seed;
              check = config.Flow.check;
              engine = config.Flow.engine;
            }
          elab ~network)
  in
  let power =
    Trace.time ~op ~parent:flow "power" (fun _ ->
        Hlp_rtl.Power.analyze config.Flow.model ~network ~sim)
  in
  let mux = Binding.mux_stats binding in
  ( {
      Flow.design;
      dynamic_power_mw = power.Hlp_rtl.Power.dynamic_power_mw;
      clock_period_ns = power.Hlp_rtl.Power.clock_period_ns;
      luts = mapping.M.lut_count;
      largest_mux = mux.Binding.largest_mux;
      mux_length = mux.Binding.mux_length;
      toggle_rate_mhz = power.Hlp_rtl.Power.toggle_rate_mhz;
      mux;
      est_total_sa = mapping.M.total_sa;
      est_glitch_sa = mapping.M.glitch_sa;
      sim_glitch_fraction = power.Hlp_rtl.Power.sim_glitch_fraction;
      cycles = sim.Hlp_rtl.Sim.cycles;
      depth = mapping.M.depth;
      static = None;
    },
    iterations )

(* --- the run --- *)

let window_misses = function
  | 0 -> []
  | n -> [ Printf.sprintf "%d SA-table misses in the window" n ]

let timed_pass sa stream =
  List.map
    (fun d ->
      let t0 = now () in
      let r = try Some (run_op sa d) with Failure _ -> None in
      (d, r, now () -. t0))
    stream

let run ~work ~rng ~seconds ~trace ~golden_path =
  let golden = load_golden golden_path in
  let stream = stream rng in
  let n = List.length stream in
  let conditions =
    [
      ("designs_per_pass", string_of_int n);
      ("width", string_of_int width); ("vectors", string_of_int vectors);
      ("connections", "1 (in process)"); ("daemon_workers", "none");
      ("cache", "fresh empty dir per setup; window warm");
    ]
  in
  if not trace then begin
    (* Three segments, each a cold set-up then whole passes for a third
       of the window.  The run keeps to one CPU, whose speed is probed
       between ops; an op's factor is the mean of the probes on either
       side of it. *)
    let cpu = Speed.pin_self () in
    let factor () = Speed.factor ~cpu () in
    let segment () =
      let f0 = factor () in
      let sa, setup_s = setup ~dir:(fresh_dir work "sa") stream in
      let miss0 = ST.misses sa in
      let t0 = now () in
      let op d =
        let f = factor () in
        let c0 = self_cpu_seconds () in
        let (d, r, dt) = List.hd (timed_pass sa [ d ]) in
        (d, r, dt, self_cpu_seconds () -. c0, f)
      in
      let rec passes acc =
        let acc = List.rev_append (List.map op stream) acc in
        if now () -. t0 < seconds /. 3. then passes acc else List.rev acc
      in
      let ops = passes [] in
      let f_end = factor () in
      let afters = List.tl (List.map (fun (_, _, _, _, f) -> f) ops) @ [ f_end ] in
      let ops =
        List.map2 (fun (d, r, dt, cpu, f) f' -> (d, r, dt, cpu, (f +. f') /. 2.)) ops afters
      in
      let setup_speed = (f0 +. (match ops with (_, _, _, _, f) :: _ -> f | [] -> f_end)) /. 2. in
      (setup_s, setup_speed, ops, ST.misses sa - miss0)
    in
    let segs = List.init 3 (fun _ -> segment ()) in
    let ops = List.concat_map (fun (_, _, ops, _) -> ops) segs in
    let misses = List.fold_left (fun acc (_, _, _, m) -> acc + m) 0 segs in
    let failed, file_matched =
      check ~golden (List.map (fun (d, r, _, _, _) -> (d, r)) ops)
    in
    let count = List.length ops in
    let sum f = List.fold_left (fun acc o -> acc +. f o) 0. ops in
    (* A window holds only one or two passes, so the latency percentiles
       are taken over every op of the run. *)
    let figures =
      [
        figure "setup_s" "s"
          (median (List.map (fun (s, _, _, _) -> s) segs))
          (median (List.map (fun (s, f, _, _) -> s /. f) segs));
        figure "throughput_ops_s" "1/s"
          (float_of_int count /. sum (fun (_, _, dt, _, _) -> dt))
          (float_of_int count /. sum (fun (_, _, dt, _, f) -> dt /. f));
        figure "latency_p50_ms" "ms"
          (percentile 50. (List.map (fun (_, _, dt, _, _) -> 1000. *. dt) ops))
          (percentile 50. (List.map (fun (_, _, dt, _, f) -> 1000. *. dt /. f) ops));
        figure "latency_p90_ms" "ms"
          (percentile 90. (List.map (fun (_, _, dt, _, _) -> 1000. *. dt) ops))
          (percentile 90. (List.map (fun (_, _, dt, _, f) -> 1000. *. dt /. f) ops));
        figure "cpu_ms_per_op" "ms"
          (1000. *. sum (fun (_, _, _, c, _) -> c) /. float_of_int count)
          (1000. *. sum (fun (_, _, _, c, f) -> c /. f) /. float_of_int count);
      ]
    in
    let speeds = List.map (fun (_, _, _, _, f) -> f) ops in
    {
      attempted = count;
      failed;
      problems = window_misses misses;
      e2e = List.map snd figures @ [ ("peak_rss_mb", peak_rss_mb (Unix.getpid ()), "MB") ];
      layers = [];
      conditions =
        conditions
        @ [
            ("segments", "3");
            ("pinned_cpu", string_of_int cpu);
            ( "setup_per_segment",
              String.concat " " (List.map (fun (s, _, _, _) -> Printf.sprintf "%.3fs" s) segs) );
            ("ops", string_of_int count);
            ("passes", string_of_int (count / n));
            ("latency_samples_beyond_p90", string_of_int (count - int_of_float (Float.ceil (0.9 *. float_of_int count))));
            ( "speed_factor",
              Printf.sprintf "set-ups %s; ops median %.3f, range %.3f-%.3f"
                (String.concat " " (List.map (fun (_, f, _, _) -> Printf.sprintf "%.3f" f) segs))
                (median speeds) (List.fold_left Float.min infinity speeds)
                (List.fold_left Float.max 0. speeds) );
            as_measured figures;
            ("bench_pr10_matched", string_of_int file_matched);
          ];
    }
  end
  else begin
    let sa, setup_s = setup ~dir:(fresh_dir work "sa") stream in
    (* The same binds again on the now-warm table: what the cold fill
       added to set-up is the difference. *)
    let t0 = now () in
    List.iter (fun d -> if d.binder <> Lopass then ignore (bind sa d (prepare d))) stream;
    let warm_binds = now () -. t0 in
    let entries = List.length (ST.entries sa) in
    let miss0 = ST.misses sa in
    (* Each design runs once through Flow.run and once traced,
       alternating which goes first, so the two p50s see the same host
       and heap and differ by the tracing overhead. *)
    let untraced_op d = timed_pass sa [ d ] |> List.hd in
    let traced_run op d =
      Trace.enabled := true;
      let t0 = now () in
      let r = try Some (traced_op sa ~op d) with Failure _ -> None in
      let dt = now () -. t0 in
      Trace.enabled := false;
      (d, r, dt)
    in
    let pairs =
      List.mapi
        (fun op d ->
          if op mod 2 = 0 then
            let u = untraced_op d in
            (u, traced_run op d)
          else
            let t = traced_run op d in
            (untraced_op d, t))
        stream
    in
    let untraced = List.map fst pairs and traced = List.map snd pairs in
    let misses = ST.misses sa - miss0 in
    let failed, file_matched =
      check ~golden
        (List.map (fun (d, r, _) -> (d, r)) untraced
        @ List.map (fun (d, r, _) -> (d, Option.map fst r)) traced)
    in
    let by_layer = Trace.self_by_layer () in
    let ms name = Trace.layer_ms by_layer name in
    let p50_untraced = median (List.map (fun (_, _, dt) -> 1000. *. dt) untraced)
    and p50_traced, explained = Trace.accounting () in
    let luts, iterations =
      List.fold_left
        (fun (l, i) (_, r, _) ->
          match r with
          | Some (rep, it) -> (l + rep.Flow.luts, i + it)
          | None -> (l, i))
        (0, 0) traced
    in
    let sim_ms = ms "sim" in
    {
      attempted = 2 * n;
      failed;
      problems = window_misses misses;
      e2e = [];
      layers =
        [
          ("router.prepare_ms", ms "router.prepare");
          ("hlpower.bind_ms", ms "hlpower.bind");
          ("hlpower.iterations", float_of_int iterations);
          ("lopass.bind_ms", ms "lopass.bind");
          ("sa_table.fill_s", setup_s -. warm_binds);
          ("sa_table.entries", float_of_int entries);
          ("sa_table.window_misses", float_of_int misses);
          ("elaborate_ms", ms "elaborate");
          ("mapper.map_ms", ms "mapper.map");
          ("mapper.luts", float_of_int luts);
          ("lint_ms", ms "lint");
          ("sim_ms", sim_ms);
          ("sim.vectors_per_s",
            if sim_ms > 0. then float_of_int vectors /. (sim_ms /. 1000.) else 0.);
          ("power_ms", ms "power");
          ("telemetry.spans_retained",
            float_of_int (List.length (Hlp_util.Telemetry.spans ())));
          ("trace.latency_p50_ms", p50_traced);
          ("trace.residual_frac", 1. -. (explained /. p50_traced));
          ("trace.overhead_frac", (p50_traced /. p50_untraced) -. 1.);
        ];
      conditions =
        conditions
        @ [ ("ops", Printf.sprintf "%d untraced + %d traced" n n);
            ("bench_pr10_matched", string_of_int file_matched) ];
    }
  end
