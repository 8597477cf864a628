(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (§6), plus the ablations called out in DESIGN.md.

   Environment knobs:
     HLP_VECTORS  random simulation vectors per design (default 150;
                  the paper uses 1000 — set HLP_VECTORS=1000 to match)
     HLP_WIDTH    datapath word width in bits (default 16)
     HLP_FAST     if set, restrict the flow tables to the four smaller
                  benchmarks (pr, wang, honda, mcm)
     HLP_JOBS     worker domains for the per-design loops (default:
                  all cores; 1 = sequential).  Every metric printed is
                  bit-identical whatever the value — only wall-clock
                  columns vary.
     HLP_STABLE   if set, suppress the non-deterministic output (wall
                  clock columns, bechamel timings) so two runs can be
                  diffed byte-for-byte
     HLP_SA_CACHE=dir  persistent SA-table cache directory: the table is
                  loaded from dir on startup (validated, falling back to
                  recompute) and written back atomically on exit, so a
                  warm run performs zero mapper invocations for table
                  fill
     HLP_BENCH_JSON=path.json  write the machine-readable benchmark
                  report (per-design Sec. 6 metrics, bind times,
                  SA-table hit rates, phase timings) on exit
     HLP_TELEMETRY=path.json  dump counters/timers/spans on exit
     HLP_LOADGEN=socket  skip the tables and instead drive a running
                  hlpowerd at the given Unix-socket path with concurrent
                  clients; reports throughput and latency percentiles.
                  Tuned by HLP_LOADGEN_CLIENTS (default 4),
                  HLP_LOADGEN_REQUESTS per client (default 25),
                  HLP_LOADGEN_OP (ping|bind|flow|stats, default bind) and
                  HLP_LOADGEN_BENCH (default pr)
     HLP_LOADGEN_EDITS=n  with HLP_LOADGEN: each client instead runs an
                  incremental-session edit stream (5 full binds for a
                  baseline, then session_open -> n one-op edits ->
                  session_close) and the run reports full-bind vs
                  incremental p50/p99; any protocol error exits 1
     HLP_SESSION_BENCH_EDITS  one-op edits per benchmark in the
                  in-process incremental-session section (default 40)
     HLP_CLUSTER  if 1, run the cluster-scaling section: an in-process
                  head over worker fleets of 1/2/4, a slot-bound and a
                  CPU-bound workload per fleet size, and a kill-a-worker
                  chaos run that must lose zero accepted requests; the
                  results land in the bench JSON as a "cluster"
                  section *)

module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module B = Hlp_cdfg.Benchmarks
module RB = Hlp_core.Reg_binding
module Bind = Hlp_core.Binding
module H = Hlp_core.Hlpower
module L = Hlp_core.Lopass
module ST = Hlp_core.Sa_table
module Flow = Hlp_rtl.Flow
module Stats = Hlp_util.Stats
module Pool = Hlp_util.Pool
module Telemetry = Hlp_util.Telemetry

let vectors =
  match Sys.getenv_opt "HLP_VECTORS" with
  | Some s -> int_of_string s
  | None -> 150

let width =
  match Sys.getenv_opt "HLP_WIDTH" with
  | Some s -> int_of_string s
  | None -> 16

let fast = Sys.getenv_opt "HLP_FAST" <> None
let stable = Sys.getenv_opt "HLP_STABLE" <> None

let variants =
  match Sys.getenv_opt "HLP_VARIANTS" with
  | Some s -> max 1 (int_of_string s)
  | None -> 2

let flow_profiles =
  if fast then List.map B.find [ "pr"; "wang"; "honda"; "mcm" ] else B.all

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* Shared per-benchmark preparation, with wall-clock binding times. *)
type prepared = {
  profile : B.profile;
  schedule : Schedule.t;
  regs : RB.t;
  lopass : Bind.t;
  hlp_a1 : Bind.t;
  hlp_a05 : Bind.t;
  hlp_seconds : float;
  iterations : int;
}

(* Honours HLP_SA_CACHE: entries are pure functions of (width, k, key),
   so a warm cache directory lets every run after the first skip the
   table-fill mapper invocations entirely. *)
let sa_table = ST.create_default ~width ~k:4 ()

let now () = Hlp_util.Clock.monotonic ()

(* Wall-clock columns are real measurements unless HLP_STABLE asks for
   byte-stable output (e.g. the CI determinism diff). *)
let shown_seconds s = if stable then 0. else s

let prepare ?(variant = 0) profile =
  let cdfg = B.generate ~variant profile in
  let resources = B.resources profile in
  let schedule = Schedule.list_schedule cdfg ~resources in
  let regs = RB.bind (Lifetime.analyze schedule) in
  let min_res cls = max 1 (Schedule.max_density schedule cls) in
  let lopass = L.bind ~regs ~resources schedule in
  let run_hlp alpha =
    let params = H.calibrate ~alpha sa_table in
    H.bind ~params ~sa_table ~regs ~resources:min_res schedule
  in
  let t0 = now () in
  let r05 = run_hlp 0.5 in
  let hlp_seconds = now () -. t0 in
  let r1 = run_hlp 1.0 in
  {
    profile;
    schedule;
    regs;
    lopass;
    hlp_a1 = r1.H.binding;
    hlp_a05 = r05.H.binding;
    hlp_seconds;
    iterations = r05.H.iterations;
  }

let prepared = lazy (Pool.parallel_map_list prepare B.all)

let find_prepared name =
  List.find (fun p -> p.profile.B.bench_name = name) (Lazy.force prepared)

(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1: Benchmark Profiles";
  Printf.printf "%-8s %5s %5s %6s %6s %11s %12s\n" "bench" "PIs" "POs"
    "adds" "mults" "edges(ours)" "edges(paper)";
  List.iter
    (fun p ->
      let g = B.generate p in
      Printf.printf "%-8s %5d %5d %6d %6d %11d %12d\n" p.B.bench_name
        (Cdfg.num_inputs g)
        (List.length (Cdfg.outputs g))
        (Cdfg.num_ops_of_class g Cdfg.Add_sub)
        (Cdfg.num_ops_of_class g Cdfg.Multiplier)
        (Cdfg.edge_count g) p.B.paper_edges)
    B.all

let table2 () =
  section "Table 2: Resource Constraints, Schedule Length, Registers, Runtime";
  Printf.printf "%-8s %4s %5s | %11s %12s | %10s %11s | %12s %6s\n" "bench"
    "Add" "Mult" "cycle(ours)" "cycle(paper)" "reg(ours)" "reg(paper)"
    "bind(s,ours)" "iters";
  List.iter
    (fun pr ->
      let p = pr.profile in
      Printf.printf "%-8s %4d %5d | %11d %12d | %10d %11d | %12.3f %6d\n"
        p.B.bench_name p.B.add_units p.B.mult_units
        pr.schedule.Schedule.num_csteps p.B.paper_cycles
        (RB.num_regs pr.regs) p.B.paper_regs
        (shown_seconds pr.hlp_seconds)
        pr.iterations)
    (Lazy.force prepared)

(* Full-flow reports, shared by Table 3 and Figure 3.  Each benchmark is
   evaluated on [variants] generated instances of its profile and the
   reports are averaged: individual instances carry a few percent of
   structural noise, the trends do not. *)
type avg_report = {
  power_mw : float;
  clk_ns : float;
  luts : float;
  largest : float;
  mux_len : float;
  toggle : float;
}

type flow_row = { bench : string; lop : avg_report; a1 : avg_report;
                  a05 : avg_report }

let average reports =
  let n = float_of_int (List.length reports) in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. reports /. n in
  {
    power_mw = sum (fun r -> r.Flow.dynamic_power_mw);
    clk_ns = sum (fun r -> r.Flow.clock_period_ns);
    luts = sum (fun r -> float_of_int r.Flow.luts);
    largest = sum (fun r -> float_of_int r.Flow.largest_mux);
    mux_len = sum (fun r -> float_of_int r.Flow.mux_length);
    toggle = sum (fun r -> r.Flow.toggle_rate_mhz);
  }

let flow_rows =
  lazy
    (let config = { Flow.default_config with Flow.vectors; width } in
     (* Flatten the (benchmark x variant) grid so the pool keeps every
        worker busy even when benchmark sizes are uneven; regroup by
        benchmark afterwards.  parallel_map returns results in task
        order, so the averages see the variants in the same order as the
        old sequential loop. *)
     let tasks =
       List.concat_map
         (fun (p : B.profile) ->
           List.init variants (fun variant -> (p, variant)))
         flow_profiles
     in
     let runs =
       Pool.parallel_map_list
         (fun ((p : B.profile), variant) ->
           Printf.eprintf "[flow] %s variant %d...\n%!" p.B.bench_name
             variant;
           let pr = prepare ~variant p in
           let run tag b = Flow.run ~config ~design:(p.B.bench_name ^ tag) b in
           ( p.B.bench_name,
             ( run "-lopass" pr.lopass,
               run "-hlp-a1" pr.hlp_a1,
               run "-hlp-a05" pr.hlp_a05 ) ))
         tasks
     in
     List.map
       (fun (p : B.profile) ->
         let mine =
           List.filter_map
             (fun (name, r) -> if name = p.B.bench_name then Some r else None)
             runs
         in
         {
           bench = p.B.bench_name;
           lop = average (List.map (fun (a, _, _) -> a) mine);
           a1 = average (List.map (fun (_, b, _) -> b) mine);
           a05 = average (List.map (fun (_, _, c) -> c) mine);
         })
       flow_profiles)

let pc a b = Stats.percent_change ~from:a ~to_:b

let table3 () =
  section
    (Printf.sprintf
       "Table 3: Power, Clock Period, LUTs and Multiplexers (LOPASS vs \
        HLPower alpha=0.5; %d-bit, %d vectors, %d instances/benchmark)"
       width vectors variants);
  Printf.printf "%-8s | %17s | %13s | %13s | %9s | %11s | %7s %7s %7s\n"
    "bench" "dyn power (mW)" "clk (ns)" "LUTs" "lrgstMUX" "MUX length"
    "dPow%" "dClk%" "dLUT%";
  let dps = ref [] and dclks = ref [] and dluts = ref [] in
  let dmux = ref [] and dlen = ref [] in
  List.iter
    (fun r ->
      let l = r.lop and h = r.a05 in
      let dp = pc l.power_mw h.power_mw in
      let dc = pc l.clk_ns h.clk_ns in
      let dl = pc l.luts h.luts in
      dps := dp :: !dps;
      dclks := dc :: !dclks;
      dluts := dl :: !dluts;
      dmux := (h.largest -. l.largest) :: !dmux;
      dlen := pc l.mux_len h.mux_len :: !dlen;
      Printf.printf
        "%-8s | %8.2f/%8.2f | %6.2f/%6.2f | %6.0f/%6.0f | %4.1f/%4.1f | \
         %5.0f/%5.0f | %+7.2f %+7.2f %+7.2f\n"
        r.bench l.power_mw h.power_mw l.clk_ns h.clk_ns l.luts h.luts
        l.largest h.largest l.mux_len h.mux_len dp dc dl)
    (Lazy.force flow_rows);
  Printf.printf
    "Average change: power %+.2f%%, clock %+.2f%%, LUTs %+.2f%%, largest \
     mux %+.1f, mux length %+.1f%%\n"
    (Stats.mean !dps) (Stats.mean !dclks) (Stats.mean !dluts)
    (Stats.mean !dmux) (Stats.mean !dlen);
  Printf.printf
    "Paper reports (avg): power -19.28%%, clock +0.58%%, LUTs -9.11%%, \
     largest mux -2.6, mux length -7.2%%\n"

let table4 () =
  section "Table 4: muxDiff mean/variance across allocated resources";
  Printf.printf "%-8s | %-13s | %-13s | %-13s | %7s\n" "bench" "LOPASS"
    "HLP alpha=1" "HLP alpha=0.5" "# muxes";
  let ml = ref [] and m1 = ref [] and m05 = ref [] in
  let vl = ref [] and v1 = ref [] and v05 = ref [] in
  List.iter
    (fun pr ->
      let st b = Bind.mux_stats b in
      let sl = st pr.lopass and s1 = st pr.hlp_a1 and s5 = st pr.hlp_a05 in
      ml := sl.Bind.fu_mux_diff_mean :: !ml;
      m1 := s1.Bind.fu_mux_diff_mean :: !m1;
      m05 := s5.Bind.fu_mux_diff_mean :: !m05;
      vl := sl.Bind.fu_mux_diff_var :: !vl;
      v1 := s1.Bind.fu_mux_diff_var :: !v1;
      v05 := s5.Bind.fu_mux_diff_var :: !v05;
      Printf.printf
        "%-8s | %5.2f / %5.2f | %5.2f / %5.2f | %5.2f / %5.2f | %7d\n"
        pr.profile.B.bench_name sl.Bind.fu_mux_diff_mean
        sl.Bind.fu_mux_diff_var s1.Bind.fu_mux_diff_mean
        s1.Bind.fu_mux_diff_var s5.Bind.fu_mux_diff_mean
        s5.Bind.fu_mux_diff_var s5.Bind.num_fu)
    (Lazy.force prepared);
  Printf.printf "%-8s | %5.2f / %5.2f | %5.2f / %5.2f | %5.2f / %5.2f |\n"
    "average" (Stats.mean !ml) (Stats.mean !vl) (Stats.mean !m1)
    (Stats.mean !v1) (Stats.mean !m05) (Stats.mean !v05);
  Printf.printf
    "Paper reports (avg): LOPASS 3.9/13.8, alpha=1 3.2/8.3, alpha=0.5 \
     2.6/6.2\n"

let figure3 () =
  section "Figure 3: Average Toggle Rate (millions of transitions / sec)";
  Printf.printf "%-8s %10s %12s %14s %9s\n" "bench" "LOPASS" "HLP a=1.0"
    "HLP a=0.5" "d(a=0.5)";
  let bar v = String.make (max 1 (int_of_float (Float.min 40. (v *. 2.)))) '#' in
  let deltas1 = ref [] and deltas05 = ref [] in
  List.iter
    (fun r ->
      let tl = r.lop.toggle in
      let t1 = r.a1.toggle in
      let t05 = r.a05.toggle in
      deltas1 := pc tl t1 :: !deltas1;
      deltas05 := pc tl t05 :: !deltas05;
      Printf.printf "%-8s %10.2f %12.2f %14.2f %+8.2f%%\n" r.bench tl t1 t05
        (pc tl t05);
      Printf.printf "  LOPASS  %s\n  a=1.0   %s\n  a=0.5   %s\n" (bar tl)
        (bar t1) (bar t05))
    (Lazy.force flow_rows);
  Printf.printf
    "Average toggle-rate change vs LOPASS: alpha=1.0 %+.2f%%, alpha=0.5 \
     %+.2f%%\n"
    (Stats.mean !deltas1) (Stats.mean !deltas05);
  Printf.printf "Paper reports (avg): alpha=1.0 -8.4%%, alpha=0.5 -21.9%%\n"

let alpha_sweep () =
  section "Alpha sweep (sec. 6.2 discussion): wang, alpha in {1 .. 0}";
  let pr = find_prepared "wang" in
  let min_res cls = max 1 (Schedule.max_density pr.schedule cls) in
  Printf.printf "%-6s %12s %10s %8s %10s %12s\n" "alpha" "muxDiff" "muxLen"
    "LUTs" "toggleM/s" "power(mW)";
  List.iter
    (fun alpha ->
      let params = H.calibrate ~alpha sa_table in
      let b =
        (H.bind ~params ~sa_table ~regs:pr.regs ~resources:min_res
           pr.schedule)
          .H.binding
      in
      let s = Bind.mux_stats b in
      let config =
        { Flow.default_config with Flow.vectors = min vectors 100; width }
      in
      let r = Flow.run ~config ~design:"wang-sweep" b in
      Printf.printf "%-6.2f %12.2f %10d %8d %10.2f %12.2f\n" alpha
        s.Bind.fu_mux_diff_mean s.Bind.mux_length r.Flow.luts
        r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw)
    [ 1.0; 0.75; 0.5; 0.25; 0.0 ]

let ablation_k () =
  section "Ablation: LUT size K (mapper substrate, partial datapath cells)";
  Printf.printf "%-18s %6s %8s %8s %8s\n" "cell" "K" "LUTs" "depth" "est SA";
  List.iter
    (fun (cls, l, r) ->
      List.iter
        (fun k ->
          let net =
            Hlp_netlist.Cell_library.partial_datapath
              ~fu:
                (match cls with
                | Cdfg.Add_sub -> Hlp_netlist.Cell_library.Adder
                | Cdfg.Multiplier -> Hlp_netlist.Cell_library.Multiplier)
              ~width ~left_inputs:l ~right_inputs:r ()
          in
          let m = Hlp_mapper.Mapper.map net ~k in
          Printf.printf "%-18s %6d %8d %8d %8.1f\n"
            (Printf.sprintf "%s(%d,%d)" (Cdfg.class_to_string cls) l r)
            k m.Hlp_mapper.Mapper.lut_count m.Hlp_mapper.Mapper.depth
            m.Hlp_mapper.Mapper.total_sa)
        [ 4; 6 ])
    [ (Cdfg.Add_sub, 4, 4); (Cdfg.Multiplier, 3, 2) ]

let ablation_table_vs_dynamic () =
  section "Ablation: precalculated SA table vs dynamic estimation (sec 5.2.2)";
  (* The paper notes table-driven lookup gives the same bindings as dynamic
     estimation, only faster.  Our Sa_table computes lazily with
     memoization, so "dynamic" = a fresh, cold table; bindings must
     coincide and the warm run must be faster. *)
  let pr = find_prepared "pr" in
  let min_res cls = max 1 (Schedule.max_density pr.schedule cls) in
  let bind_with table =
    let params = H.calibrate ~alpha:0.5 table in
    (H.bind ~params ~sa_table:table ~regs:pr.regs ~resources:min_res
       pr.schedule)
      .H.binding
  in
  let fresh = ST.create ~width ~k:4 () in
  let t0 = now () in
  let b_dynamic = bind_with fresh in
  let t_dynamic = now () -. t0 in
  let t1 = now () in
  let b_cached = bind_with sa_table (* warm *) in
  let t_cached = now () -. t1 in
  let groups b =
    List.map (fun f -> (f.Bind.fu_class, f.Bind.fu_ops)) b.Bind.fus
  in
  Printf.printf "identical bindings: %b\n"
    (List.sort compare (groups b_dynamic)
    = List.sort compare (groups b_cached));
  Printf.printf "cold (dynamic) %.3f s vs warm (table) %.3f s\n"
    (shown_seconds t_dynamic) (shown_seconds t_cached)

let ablation_objective () =
  section "Ablation: glitch-aware (Min_sa) vs conventional (Min_depth) \
           mapping";
  let pr = find_prepared "pr" in
  let base =
    { Flow.default_config with Flow.vectors = min vectors 100; width }
  in
  List.iter
    (fun (label, objective) ->
      let config = { base with Flow.objective } in
      let r = Flow.run ~config ~design:("pr-" ^ label) pr.hlp_a05 in
      Printf.printf
        "%-10s LUTs %5d depth %3d est SA %9.1f toggle %.2f M/s power %.2f \
         mW\n"
        label r.Flow.luts r.Flow.depth r.Flow.est_total_sa
        r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw)
    [
      ("min-sa", Hlp_mapper.Mapper.Min_sa);
      ("min-depth", Hlp_mapper.Mapper.Min_depth);
    ]

let ablation_multicycle () =
  section
    "Ablation: multi-cycle multiplier (sec 5.2.1, no Theorem-1 guarantee)";
  let latency = function Cdfg.Mult -> 2 | Cdfg.Add | Cdfg.Sub -> 1 in
  let p = B.find "pr" in
  let g = B.generate p in
  let resources = B.resources p in
  let schedule = Schedule.list_schedule ~latency g ~resources in
  let regs = RB.bind (Lifetime.analyze schedule) in
  match
    H.bind
      ~params:(H.calibrate ~alpha:0.5 sa_table)
      ~sa_table ~regs ~resources schedule
  with
  | r ->
      Printf.printf
        "pr with 2-cycle multiplier: schedule %d steps (vs %d \
         single-cycle), %d add-FU + %d mult-FU, %d promotions, valid: %b\n"
        schedule.Schedule.num_csteps
        (find_prepared "pr").schedule.Schedule.num_csteps
        (Bind.num_fus r.H.binding Cdfg.Add_sub)
        (Bind.num_fus r.H.binding Cdfg.Multiplier)
        r.H.promoted
        (try
           Bind.validate r.H.binding;
           true
         with Failure _ -> false)
  | exception Failure msg ->
      (* The paper makes no guarantee here (sec 5.2.1); report and move
         on. *)
      Printf.printf "pr with 2-cycle multiplier: binding failed (%s)\n" msg

let ablation_module_select () =
  section
    "Ablation: module selection (sec 7 future work): ripple vs \
     carry-select adders";
  (* Flow always elaborates ripple adders; here the datapath is built with
     the selected implementations and pushed through mapping + simulation
     directly. *)
  let pr = find_prepared "pr" in
  let evaluate tag impls =
    let dp = Hlp_rtl.Datapath.build ?adder_impls:impls ~width pr.hlp_a05 in
    let elab = Hlp_rtl.Elaborate.elaborate dp in
    let mapping = Hlp_mapper.Mapper.map elab.Hlp_rtl.Elaborate.netlist ~k:4 in
    let sim_config =
      { Hlp_rtl.Sim.default_config with Hlp_rtl.Sim.vectors = min vectors 100; seed = "ms" }
    in
    let sim =
      Hlp_rtl.Sim.run ~config:sim_config elab
        ~network:mapping.Hlp_mapper.Mapper.lut_network
    in
    let power =
      Hlp_rtl.Power.analyze Hlp_rtl.Power.default_model
        ~network:mapping.Hlp_mapper.Mapper.lut_network ~sim
    in
    Printf.printf
      "%-22s LUTs %5d, depth %3d, clk %6.2f ns, power %6.3f mW\n" tag
      mapping.Hlp_mapper.Mapper.lut_count mapping.Hlp_mapper.Mapper.depth
      power.Hlp_rtl.Power.clock_period_ns power.Hlp_rtl.Power.dynamic_power_mw
  in
  evaluate "pr all-ripple" None;
  let impls =
    Hlp_core.Module_select.choose ~width ~k:4
      ~objective:Hlp_core.Module_select.Min_delay pr.hlp_a05
  in
  evaluate "pr min-delay selection" (Some impls)

let ablation_port_assign () =
  section
    "Ablation: commutative port assignment [2] post-pass (both binders)";
  let config =
    { Flow.default_config with Flow.vectors = min vectors 100; width }
  in
  List.iter
    (fun name ->
      let pr = find_prepared name in
      List.iter
        (fun (tag, b) ->
          let show label b =
            let s = Bind.mux_stats b in
            let r = Flow.run ~config ~design:(name ^ "-" ^ label) b in
            Printf.printf
              "%-6s %-18s mux length %4d, muxDiff %.2f, toggle %6.2f \
               M/s, power %.3f mW\n"
              name label s.Bind.mux_length s.Bind.fu_mux_diff_mean
              r.Flow.toggle_rate_mhz r.Flow.dynamic_power_mw
          in
          show tag b;
          show (tag ^ "+portassign")
            (Hlp_core.Port_assign.optimize
               ~objective:Hlp_core.Port_assign.Min_inputs b))
        [ ("lopass", pr.lopass); ("hlpower", pr.hlp_a05) ])
    [ "pr"; "mcm" ]

(* ------------------------------------------------------------------ *)
(* Simulation engines: the scalar oracle vs the bit-parallel word
   engine, on the two workloads that pay for simulation — the
   SA-precompute sweep (monte-carlo measured SA of every
   (class, left, right) partial datapath the binder can request) and
   the post-bind glitch-accurate sweep of a full design.  The mapped
   networks are built once outside the timed region, so the rows time
   simulation and nothing else; result identity between the engines is
   asserted, not assumed. *)

type engine_speed = {
  workload : string;
  sim_vectors : int;  (* total vectors each engine simulated *)
  scalar_s : float;
  parallel_s : float;
  identical : bool;
}

let sa_measure_vectors = 1000
let sa_measure_inputs = 6

let sim_engine_rows =
  lazy
    ((* Workload 1: SA-precompute, the full symmetric key square. *)
     let keys = ref [] in
     List.iter
       (fun cls ->
         for l = 1 to sa_measure_inputs do
           for r = l to sa_measure_inputs do keys := (cls, l, r) :: !keys done
         done)
       Cdfg.all_classes;
     let nets =
       List.rev_map
         (fun (cls, l, r) -> ST.lut_network sa_table cls ~left:l ~right:r)
         !keys
     in
     let sweep engine () =
       List.map
         (fun net ->
           Hlp_activity.Switching.total net
             (Hlp_activity.Switching.monte_carlo ~engine ~seed:"sa-measure"
                ~vectors:sa_measure_vectors net))
         nets
     in
     ignore (sweep `Bit_parallel ());
     let t0 = now () in
     let sa_par = sweep `Bit_parallel () in
     let t_par = now () -. t0 in
     let t1 = now () in
     let sa_sca = sweep `Scalar () in
     let t_sca = now () -. t1 in
     let row_sa =
       {
         workload = "sa-precompute";
         sim_vectors = List.length nets * sa_measure_vectors;
         scalar_s = t_sca;
         parallel_s = t_par;
         identical = sa_par = sa_sca;
       }
     in
     (* Workload 2: post-bind glitch-accurate sweep of one design.  The
        golden-model check costs the same in either engine, so it is
        off here: the row times the engines, the differential test
        suite covers checking. *)
     let pr = find_prepared "pr" in
     let dp = Hlp_rtl.Datapath.build ~width pr.hlp_a05 in
     let elab = Hlp_rtl.Elaborate.elaborate dp in
     let mapping = Hlp_mapper.Mapper.map elab.Hlp_rtl.Elaborate.netlist ~k:4 in
     let network = mapping.Hlp_mapper.Mapper.lut_network in
     let config =
       { Hlp_rtl.Sim.default_config with Hlp_rtl.Sim.vectors; check = false }
     in
     ignore (Hlp_rtl.Sim.run_parallel ~config elab ~network);
     let t2 = now () in
     let r_par = Hlp_rtl.Sim.run_parallel ~config elab ~network in
     let t_par2 = now () -. t2 in
     let t3 = now () in
     let r_sca = Hlp_rtl.Sim.run_scalar ~config elab ~network in
     let t_sca2 = now () -. t3 in
     let row_sim =
       {
         workload = "post-bind-sweep";
         sim_vectors = vectors;
         scalar_s = t_sca2;
         parallel_s = t_par2;
         identical = r_par = r_sca;
       }
     in
     [ row_sa; row_sim ])

let rate v s = if stable || s <= 0. then 0. else float_of_int v /. s
let speedup_of r = if stable || r.parallel_s <= 0. then 0.
                   else r.scalar_s /. r.parallel_s

let sim_engines () =
  section
    (Printf.sprintf
       "Simulation engines: scalar oracle vs bit-parallel (%d lanes/word)"
       Hlp_util.Bits.lanes);
  Printf.printf "%-18s %9s %14s %14s %8s %10s\n" "workload" "vectors"
    "scalar vec/s" "parallel vec/s" "speedup" "identical";
  List.iter
    (fun r ->
      Printf.printf "%-18s %9d %14.0f %14.0f %7.1fx %10b\n" r.workload
        r.sim_vectors
        (rate r.sim_vectors r.scalar_s)
        (rate r.sim_vectors r.parallel_s)
        (speedup_of r) r.identical;
      if not r.identical then begin
        Printf.eprintf "[sim] engines diverged on %s\n%!" r.workload;
        exit 1
      end)
    (Lazy.force sim_engine_rows)

(* ------------------------------------------------------------------ *)
(* Static estimator vs bit-parallel simulation: the analyzer visits each
   LUT once, the simulator executes the schedule per vector, so the
   analyzer's accuracy has to be bought at a fraction of the cost to be
   worth anything.  Per Sec. 6 benchmark (hlpower alpha=0.5 binding),
   both estimators run on the same mapped network against the flow's
   own baseline — [Sim.run] at the paper's 1000-vector count, the sweep
   a `Sim bind actually pays for — and the rows are self-checking: the
   relative toggle error must stay inside [static_error_bound] on every
   benchmark, and the whole static sweep must be at least
   [static_speedup_floor]x faster than the whole simulated sweep.  (The
   speedup floor is asserted on the aggregate sweep, not per row: the
   smallest benchmarks finish in a couple of milliseconds, where timer
   noise swamps a per-row ratio; per-row speedups are still reported.) *)

let static_error_bound = 0.15
let static_speedup_floor = 100.

type static_row = {
  st_bench : string;
  st_cycles : int;
  st_sim_toggles : int;
  st_static_toggles : float;
  st_rel_error : float;
  st_sim_s : float;
  st_static_s : float;
}

(* Sequential on purpose: these rows are wall-clock measurements, and
   [Pool]'s threads would interleave under the runtime lock and charge
   one row's sim time to another row's clock. *)
let static_estimator_rows =
  lazy
    (List.map
       (fun pr ->
         let dp = Hlp_rtl.Datapath.build ~width pr.hlp_a05 in
         let elab = Hlp_rtl.Elaborate.elaborate dp in
         let mapping =
           Hlp_mapper.Mapper.map elab.Hlp_rtl.Elaborate.netlist ~k:4
         in
         let network = mapping.Hlp_mapper.Mapper.lut_network in
         let config =
           { Hlp_rtl.Sim.default_config with Hlp_rtl.Sim.check = false }
         in
         let t0 = now () in
         let sim = Hlp_rtl.Sim.run ~config elab ~network in
         let sim_s = now () -. t0 in
         (* The static pass is milliseconds; average a burst of reps so
            the row isn't one timer sample. *)
         let reps = 20 in
         ignore (Hlp_rtl.Static_model.analyze elab ~network);
         let t1 = now () in
         for _ = 2 to reps do
           ignore (Hlp_rtl.Static_model.analyze elab ~network)
         done;
         let an = Hlp_rtl.Static_model.analyze elab ~network in
         let static_s = (now () -. t1) /. float_of_int reps in
         let cycles = sim.Hlp_rtl.Sim.cycles in
         let static_toggles =
           Hlp_static.Analysis.total_toggles an *. float_of_int cycles
         in
         let sim_toggles = sim.Hlp_rtl.Sim.total_toggles in
         {
           st_bench = pr.profile.B.bench_name;
           st_cycles = cycles;
           st_sim_toggles = sim_toggles;
           st_static_toggles = static_toggles;
           st_rel_error =
             (static_toggles -. float_of_int sim_toggles)
             /. float_of_int sim_toggles;
           st_sim_s = sim_s;
           st_static_s = static_s;
         })
       (Lazy.force prepared))

let static_speedup r =
  if stable || r.st_static_s <= 0. then 0. else r.st_sim_s /. r.st_static_s

let static_sweep_speedup rows =
  let sim = List.fold_left (fun a r -> a +. r.st_sim_s) 0. rows in
  let st = List.fold_left (fun a r -> a +. r.st_static_s) 0. rows in
  if stable || st <= 0. then 0. else sim /. st

let static_estimator () =
  section
    (Printf.sprintf
       "Static estimator: simulation-free toggle estimate vs bit-parallel \
        sweep (%d vectors, gain %.3f)"
       Hlp_rtl.Sim.default_config.Hlp_rtl.Sim.vectors
       Hlp_static.Analysis.default_glitch_gain);
  Printf.printf "%-8s %10s %12s %12s %8s %10s %10s %8s\n" "bench" "cycles"
    "sim toggles" "static est" "err%" "sim (s)" "static (s)" "speedup";
  let failed = ref false in
  let rows = Lazy.force static_estimator_rows in
  List.iter
    (fun r ->
      Printf.printf "%-8s %10d %12d %12.0f %+7.2f %10.4f %10.6f %7.0fx\n"
        r.st_bench r.st_cycles r.st_sim_toggles r.st_static_toggles
        (100. *. r.st_rel_error) (shown_seconds r.st_sim_s)
        (shown_seconds r.st_static_s) (static_speedup r);
      if Float.abs r.st_rel_error > static_error_bound then begin
        Printf.eprintf "[static] %s: |%.1f%%| error exceeds the %.0f%% bound\n%!"
          r.st_bench (100. *. r.st_rel_error) (100. *. static_error_bound);
        failed := true
      end)
    rows;
  let sweep = static_sweep_speedup rows in
  Printf.printf "%-8s %66s %7.0fx\n" "sweep" "" sweep;
  if (not stable) && sweep < static_speedup_floor then begin
    Printf.eprintf "[static] sweep: %.0fx speedup under the %.0fx floor\n%!"
      sweep static_speedup_floor;
    failed := true
  end;
  if !failed then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure, timing the
   compute kernel that regenerates it. *)

let bechamel_section () =
  section "Bechamel micro-benchmarks (kernel timings)";
  let open Bechamel in
  let pr = find_prepared "wang" in
  let min_res cls = max 1 (Schedule.max_density pr.schedule cls) in
  let wang = B.find "wang" in
  let t_generate =
    Test.make ~name:"table1-generate-cdfg"
      (Staged.stage (fun () -> ignore (B.generate wang)))
  in
  let g = B.generate wang in
  let t_schedule =
    Test.make ~name:"table2-list-schedule"
      (Staged.stage (fun () ->
           ignore (Schedule.list_schedule g ~resources:(B.resources wang))))
  in
  let t_hlpower =
    Test.make ~name:"table3-hlpower-bind"
      (Staged.stage (fun () ->
           ignore
             (H.bind
                ~params:(H.calibrate ~alpha:0.5 sa_table)
                ~sa_table ~regs:pr.regs ~resources:min_res pr.schedule)))
  in
  let t_lopass =
    Test.make ~name:"table3-lopass-bind"
      (Staged.stage (fun () ->
           ignore
             (L.bind ~regs:pr.regs
                ~resources:(B.resources pr.profile)
                pr.schedule)))
  in
  let t_muxstats =
    Test.make ~name:"table4-mux-stats"
      (Staged.stage (fun () -> ignore (Bind.mux_stats pr.hlp_a05)))
  in
  let sa_net =
    Hlp_netlist.Cell_library.partial_datapath
      ~fu:Hlp_netlist.Cell_library.Adder ~width:8 ~left_inputs:3
      ~right_inputs:2 ()
  in
  let t_sa =
    Test.make ~name:"fig3-glitch-aware-mapping"
      (Staged.stage (fun () -> ignore (Hlp_mapper.Mapper.map sa_net ~k:4)))
  in
  let tests =
    [ t_generate; t_schedule; t_hlpower; t_lopass; t_muxstats; t_sa ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-30s %14.1f ns/run\n" name est
          | _ -> Printf.printf "%-30s (no estimate)\n" name)
        analyzed)
    tests

(* ------------------------------------------------------------------ *)
(* Incremental sessions (router round trips, in process): per benchmark,
   time a from-scratch HLPower bind of the session's ASAP schedule —
   fresh binder state every rep, exactly the work [session_open] does —
   against one-op [session_edit] round trips.  The edit stream
   alternates adding and removing the same op, so after the first
   add/remove pair every reply comes out of the session's memo layers;
   the headline ratio is full-bind p50 over incremental edit p50. *)

type session_row = {
  ss_bench : string;
  ss_edits : int;
  ss_full_p50 : float;
  ss_edit_p50 : float;
  ss_edit_p99 : float;
  ss_reply_hits : int;
  ss_weight_hits : int;
  ss_class_hits : int;
}

let pctile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

let session_bench_edits =
  match Sys.getenv_opt "HLP_SESSION_BENCH_EDITS" with
  | Some s -> max 4 (int_of_string s)
  | None -> 40

let session_rows =
  lazy
    (let module P = Hlp_server.Protocol in
     let module R = Hlp_server.Router in
     let module J = Hlp_util.Json in
     let router = R.create () in
     let ck _ = () in
     List.map
       (fun (profile : B.profile) ->
         let bench = profile.B.bench_name in
         let cdfg = B.generate profile in
         let schedule = Schedule.asap cdfg in
         let regs = RB.bind (Lifetime.analyze schedule) in
         let resources cls = max 1 (Schedule.max_density schedule cls) in
         let params = H.calibrate ~alpha:0.5 sa_table in
         let reps = 9 in
         let full =
           Array.init reps (fun _ ->
               let state = H.create_state () in
               let t0 = now () in
               ignore
                 (H.bind ~state ~params ~sa_table ~regs ~resources schedule);
               now () -. t0)
         in
         Array.sort compare full;
         let sid =
           match
             R.handle router ~checkpoint:ck
               (P.Session_open
                  {
                    P.default_session_open_params with
                    P.so_bench = bench;
                    so_width = width;
                  })
           with
           | Ok j -> (
               match J.member "session" j with
               | Some (J.String s) -> s
               | _ -> failwith "session bench: open reply has no id")
           | Error _ -> failwith ("session bench: open failed for " ^ bench)
         in
         let lat = Array.make session_bench_edits 0. in
         let added_id = Cdfg.num_ops cdfg in
         let (), scoped =
           Telemetry.with_scope (fun () ->
               for i = 0 to session_bench_edits - 1 do
                 let delta =
                   if i land 1 = 0 then
                     P.D_add_op
                       {
                         d_kind = Cdfg.Add;
                         d_left = Cdfg.Input 0;
                         d_right = Cdfg.Input 0;
                         d_output = true;
                       }
                   else P.D_remove_op added_id
                 in
                 let t0 = now () in
                 (match
                    R.handle router ~checkpoint:ck
                      (P.Session_edit { P.se_session = sid; se_delta = delta })
                  with
                 | Ok _ -> ()
                 | Error _ ->
                     failwith ("session bench: edit failed for " ^ bench));
                 lat.(i) <- now () -. t0
               done)
         in
         let scoped_count name =
           Option.value ~default:0 (List.assoc_opt name scoped)
         in
         let reply_hits =
           match
             R.handle router ~checkpoint:ck
               (P.Session_close { P.sc_session = sid })
           with
           | Ok j -> (
               match J.member "reply_cache_hits" j with
               | Some (J.Int n) -> n
               | _ -> 0)
           | Error _ -> 0
         in
         Array.sort compare lat;
         {
           ss_bench = bench;
           ss_edits = session_bench_edits;
           ss_full_p50 = pctile full 0.5;
           ss_edit_p50 = pctile lat 0.5;
           ss_edit_p99 = pctile lat 0.99;
           ss_reply_hits = reply_hits;
           ss_weight_hits = scoped_count "hlpower.memo_weight_hits";
           ss_class_hits = scoped_count "hlpower.memo_class_hits";
         })
       flow_profiles)

let session_bench () =
  section "Incremental sessions: one-op edit vs full re-bind";
  Printf.printf "%-8s %13s %13s %13s %8s %10s %10s\n" "bench" "full-p50(us)"
    "edit-p50(us)" "edit-p99(us)" "speedup" "reply-hit" "memo-hit";
  List.iter
    (fun r ->
      let speedup =
        if stable || r.ss_edit_p50 <= 0. then 0.
        else r.ss_full_p50 /. r.ss_edit_p50
      in
      Printf.printf "%-8s %13.1f %13.1f %13.1f %8.1f %10d %10d\n" r.ss_bench
        (1e6 *. shown_seconds r.ss_full_p50)
        (1e6 *. shown_seconds r.ss_edit_p50)
        (1e6 *. shown_seconds r.ss_edit_p99)
        speedup r.ss_reply_hits
        (r.ss_weight_hits + r.ss_class_hits))
    (Lazy.force session_rows)

(* ------------------------------------------------------------------ *)
(* Cluster scaling (HLP_CLUSTER=1): an in-process head over an
   in-process worker fleet — the same topology the cluster-smoke CI
   job drives across real process boundaries.  Two workloads per fleet
   size: [ping 15] holds a scheduler slot for 15 ms without burning
   CPU, so aggregate throughput scales with the worker count even on a
   single-core host; [bind] is the real CPU-bound binder and is
   recorded as-is (it can only scale with physical cores).  A chaos
   sub-run stops one worker mid-load and requires every request the
   generator sent to come back as a result: the head's failover plus
   the client's bounded retry must lose nothing. *)

type cluster_row = {
  cl_workers : int;
  cl_op : string;
  cl_clients : int;
  cl_total : int;
  cl_ok : int;
  cl_wall_s : float;
}

type cluster_chaos = {
  ch_workers : int;
  ch_sent : int;
  ch_ok : int;
  ch_killed : string;
}

let cluster_enabled =
  match Sys.getenv_opt "HLP_CLUSTER" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let cluster_rows : cluster_row list ref = ref []
let cluster_chaos_row : cluster_chaos option ref = ref None

let cluster_rps op n =
  match
    List.find_opt (fun r -> r.cl_op = op && r.cl_workers = n) !cluster_rows
  with
  | Some r when r.cl_wall_s > 0. -> float_of_int r.cl_total /. r.cl_wall_s
  | _ -> 0.

let cluster_section () =
  if cluster_enabled then begin
    let module P = Hlp_server.Protocol in
    let module J = Hlp_util.Json in
    let module S = Hlp_server.Server in
    let module C = Hlp_server.Client in
    let module Head = Hlp_cluster.Head in
    section "Cluster scaling (consistent-hash head over a worker fleet)";
    let sock_n = ref 0 in
    let fresh tag =
      incr sock_n;
      Printf.sprintf "/tmp/hlp_bench_cl_%s_%d_%d.sock" tag (Unix.getpid ())
        !sock_n
    in
    (* One scheduler slot per worker: the slot, not the CPU, is the
       resource the ping workload contends for. *)
    let start_worker name =
      let socket_path = fresh name in
      let config = { S.default_config with S.socket_path; workers = 1 } in
      let server = S.create ~config () in
      let runner = Thread.create (fun () -> S.run server) () in
      (name, socket_path, server, runner)
    in
    (* The chaos run stops a worker mid-load and teardown stops it
       again; key the guard by socket path, which is unique. *)
    let downed = Hashtbl.create 8 in
    let stop_worker (_, socket_path, server, runner) =
      if not (Hashtbl.mem downed socket_path) then begin
        Hashtbl.replace downed socket_path ();
        S.shutdown server;
        Thread.join runner;
        try Unix.unlink socket_path with Unix.Unix_error _ -> ()
      end
    in
    let with_fleet n f =
      let workers =
        List.init n (fun i -> start_worker (Printf.sprintf "w%d" i))
      in
      let head_socket = fresh "head" in
      let config =
        {
          Head.default_config with
          Head.socket_path = head_socket;
          backends =
            List.map
              (fun (name, sock, _, _) -> (name, C.Addr.Unix_path sock))
              workers;
          fail_threshold = 1;
          retry_attempts = 4;
          retry_backoff_ms = 10;
          forward_timeout_s = Some 60.;
        }
      in
      let head = Head.create ~config () in
      let runner = Thread.create (fun () -> Head.run head) () in
      Fun.protect
        ~finally:(fun () ->
          Head.shutdown head;
          Thread.join runner;
          List.iter stop_worker workers;
          try Unix.unlink head_socket with Unix.Unix_error _ -> ())
        (fun () -> f ~head_socket ~head ~workers)
    in
    (* Widths 2..7 spread the ring keys over the shards; ping is
       keyless and round-robins over the live fleet. *)
    let op_of kind i =
      match kind with
      | `Ping -> P.Ping 15
      | `Bind ->
          P.Bind
            {
              P.default_bind_params with
              P.bench = "pr";
              width = 2 + (i mod 6);
              vectors = 10;
            }
    in
    let run_load ~head_socket ~clients ~requests kind =
      let ok = Atomic.make 0 and errors = Atomic.make 0 in
      let body c_idx =
        let c = C.connect head_socket in
        Fun.protect
          ~finally:(fun () -> C.close c)
          (fun () ->
            for r = 0 to requests - 1 do
              let id = (c_idx * requests) + r in
              match
                C.request_retry ~attempts:5 ~backoff_ms:10 c
                  { P.id = J.Int id; deadline_ms = None; op = op_of kind id }
              with
              | Ok { P.payload = P.Result _; _ } -> Atomic.incr ok
              | Ok { P.payload = P.Error _; _ } | Error _ ->
                  Atomic.incr errors
            done)
      in
      let t0 = now () in
      let threads = List.init clients (fun i -> Thread.create body i) in
      List.iter Thread.join threads;
      (now () -. t0, Atomic.get ok, Atomic.get errors)
    in
    List.iter
      (fun n ->
        with_fleet n (fun ~head_socket ~head:_ ~workers:_ ->
            (* Warm the forwarder pool and the workers' SA tables out
               of band so the measured rows compare like with like. *)
            ignore (run_load ~head_socket ~clients:2 ~requests:6 `Bind);
            List.iter
              (fun (kind, name, clients, requests) ->
                let wall, ok, errors =
                  run_load ~head_socket ~clients ~requests kind
                in
                if errors > 0 then begin
                  Printf.eprintf
                    "cluster: %d error replies (%s, %d workers)\n%!" errors
                    name n;
                  exit 1
                end;
                let total = clients * requests in
                Printf.printf
                  "cluster: %d worker(s)  %-4s  %d clients x %2d  %6.2f s  \
                   %7.1f req/s\n\
                   %!"
                  n name clients requests wall
                  (float_of_int total /. wall);
                cluster_rows :=
                  !cluster_rows
                  @ [
                      {
                        cl_workers = n;
                        cl_op = name;
                        cl_clients = clients;
                        cl_total = total;
                        cl_ok = ok;
                        cl_wall_s = wall;
                      };
                    ])
              [ (`Ping, "ping", 8, 12); (`Bind, "bind", 4, 6) ]))
      [ 1; 2; 4 ];
    let lo = cluster_rps "ping" 1 and hi = cluster_rps "ping" 4 in
    if lo > 0. then
      Printf.printf "cluster: slot-bound scaling 1 -> 4 workers: %.2fx\n%!"
        (hi /. lo);
    (* Chaos: stop the first worker mid-load.  Zero lost accepted
       requests — every request the generator sent must come back as a
       result, via the head's failover and the client's retry. *)
    with_fleet 4 (fun ~head_socket ~head ~workers ->
        let clients = 6 and requests = 20 in
        let killed_name, _, _, _ = List.hd workers in
        let killer =
          Thread.create
            (fun () ->
              Thread.delay 0.4;
              stop_worker (List.hd workers);
              Head.force_health_round head)
            ()
        in
        let _, ok, errors = run_load ~head_socket ~clients ~requests `Bind in
        Thread.join killer;
        let sent = clients * requests in
        Printf.printf
          "cluster: chaos (killed %s of 4 mid-load): %d sent, %d ok, %d \
           lost\n\
           %!"
          killed_name sent ok (sent - ok);
        cluster_chaos_row :=
          Some
            { ch_workers = 4; ch_sent = sent; ch_ok = ok;
              ch_killed = killed_name };
        if errors > 0 || ok <> sent then begin
          Printf.eprintf "cluster: chaos lost %d accepted request(s)\n%!"
            (sent - ok);
          exit 1
        end)
  end

(* ------------------------------------------------------------------ *)
(* Machine-readable benchmark report (HLP_BENCH_JSON=path).  Json prints
   metric floats with %.17g, so a warm-cache run is textually equal to a
   cold one iff its Sec. 6 metrics are bit-identical; wall-clock fields
   go through [seconds] (shown_seconds), so HLP_STABLE zeroes them. *)

let bench_json ~total_seconds path =
  let open Hlp_util.Json in
  let seconds x = Float (shown_seconds x) in
  let rows f xs = List (List.map f xs) in
  (* Sec. 6 metrics: one entry per (benchmark, binder), averaged over
     the generated variants exactly as Tables 3 / Figure 3 print them. *)
  let flow = Lazy.force flow_rows in
  let design r (binder, (a : avg_report)) =
    Obj
      [ ("bench", String r.bench); ("binder", String binder);
        ("power_mw", Float a.power_mw); ("clock_ns", Float a.clk_ns);
        ("luts", Float a.luts); ("largest_mux", Float a.largest);
        ("mux_length", Float a.mux_len); ("toggle_mhz", Float a.toggle) ]
  in
  let designs =
    List.concat_map
      (fun r ->
        List.map (design r)
          [ ("lopass", r.lop); ("hlp-a1.0", r.a1); ("hlp-a0.5", r.a05) ])
      flow
  in
  (* Binder work per benchmark: wall clock (zeroed under HLP_STABLE) and
     the deterministic iteration count. *)
  let bind =
    rows
      (fun pr ->
        Obj
          [ ("bench", String pr.profile.B.bench_name);
            ("hlp_seconds", seconds pr.hlp_seconds);
            ("iterations", Int pr.iterations) ])
      (Lazy.force prepared)
  in
  (* Paper Sec. 6 averages (the Table 3 / Figure 3 bottom lines). *)
  let mean name f = (name, Float (Stats.mean (List.map f flow))) in
  let summary =
    Obj
      [ mean "avg_power_change_pct" (fun r -> pc r.lop.power_mw r.a05.power_mw);
        mean "avg_clock_change_pct" (fun r -> pc r.lop.clk_ns r.a05.clk_ns);
        mean "avg_lut_change_pct" (fun r -> pc r.lop.luts r.a05.luts);
        mean "avg_largest_mux_delta" (fun r -> r.a05.largest -. r.lop.largest);
        mean "avg_mux_length_change_pct" (fun r ->
            pc r.lop.mux_len r.a05.mux_len);
        mean "avg_toggle_change_a1_pct" (fun r -> pc r.lop.toggle r.a1.toggle);
        mean "avg_toggle_change_a05_pct" (fun r ->
            pc r.lop.toggle r.a05.toggle) ]
  in
  (* Hit rates of the shared SA table only: the table-vs-dynamic
     ablation deliberately runs a cold private table, which must not
     pollute the "warm run recomputed nothing" check. *)
  let sa = Obj (ST.stats_fields sa_table) in
  (* Engine comparison: vectors/sec are wall-clock derived, so they go
     to 0 under HLP_STABLE like every other timing; [identical] is the
     asserted scalar-vs-parallel result equality and stays real. *)
  let workload r =
    Obj
      [ ("name", String r.workload); ("vectors", Int r.sim_vectors);
        ("scalar_vectors_per_sec", Float (rate r.sim_vectors r.scalar_s));
        ("parallel_vectors_per_sec", Float (rate r.sim_vectors r.parallel_s));
        ("sim_vectors_per_sec_speedup", Float (speedup_of r));
        ("identical", Bool r.identical) ]
  in
  let workloads = rows workload (Lazy.force sim_engine_rows) in
  (* Static estimator differential: relative errors are deterministic
     (both estimators are seeded) and stay real under HLP_STABLE; only
     the timing-derived fields are zeroed. *)
  let static_rows = Lazy.force static_estimator_rows in
  let static_row r =
    Obj
      [ ("bench", String r.st_bench); ("cycles", Int r.st_cycles);
        ("sim_toggles", Int r.st_sim_toggles);
        ("static_toggles", Float r.st_static_toggles);
        ("rel_error", Float r.st_rel_error);
        ("sim_seconds", seconds r.st_sim_s);
        ("static_seconds", seconds r.st_static_s);
        ("speedup", Float (static_speedup r)) ]
  in
  (* Incremental sessions: hit counts are deterministic (pure functions
     of the edit stream); latency percentiles go to 0 under HLP_STABLE
     like every other timing. *)
  let srows = Lazy.force session_rows in
  let session r =
    Obj
      [ ("bench", String r.ss_bench); ("edits", Int r.ss_edits);
        ("full_bind_p50_s", seconds r.ss_full_p50);
        ("edit_p50_s", seconds r.ss_edit_p50);
        ("edit_p99_s", seconds r.ss_edit_p99);
        ("reply_cache_hits", Int r.ss_reply_hits);
        ("memo_weight_hits", Int r.ss_weight_hits);
        ("memo_class_hits", Int r.ss_class_hits) ]
  in
  let sessions = rows session srows in
  (* Cluster scaling (present only when HLP_CLUSTER=1 ran the
     section).  req/s values are wall-clock derived, so HLP_STABLE
     zeroes them like every other timing; the ok counts and the chaos
     lost count are deterministic. *)
  let cluster_row r =
    Obj
      [ ("workers", Int r.cl_workers); ("op", String r.cl_op);
        ("clients", Int r.cl_clients); ("requests", Int r.cl_total);
        ("ok", Int r.cl_ok); ("wall_s", seconds r.cl_wall_s);
        ( "req_per_s",
          seconds
            (if r.cl_wall_s > 0. then float_of_int r.cl_total /. r.cl_wall_s
             else 0.) ) ]
  in
  let chaos c =
    ( "chaos",
      Obj
        [ ("workers", Int c.ch_workers); ("sent", Int c.ch_sent);
          ("ok", Int c.ch_ok); ("lost", Int (c.ch_sent - c.ch_ok));
          ("killed", String c.ch_killed) ] )
  in
  let cluster =
    if !cluster_rows = [] then []
    else
      let lo = cluster_rps "ping" 1 and hi = cluster_rps "ping" 4 in
      [ ( "cluster",
          Obj
            ([ ("rows", rows cluster_row !cluster_rows);
               ( "ping_scaling_1_to_4",
                 seconds (if lo > 0. then hi /. lo else 0.) ) ]
            @ Option.to_list (Option.map chaos !cluster_chaos_row)) ) ]
  in
  (* Phase wall clock (elaborate / map / sim / power / bind, plus the
     per-design flow spans).  Call counts stay real in stable mode;
     only the seconds are zeroed.  The last, synthetic row is the
     median one-op session_edit latency across benchmarks, so the phase
     table carries the headline incremental number next to the
     full-flow stages. *)
  let phase (name, calls, s) =
    Obj [ ("name", String name); ("calls", Int calls); ("seconds", seconds s) ]
  in
  let edit_p50 =
    ( "edit_p50_us",
      List.fold_left (fun a r -> a + r.ss_edits) 0 srows,
      pctile
        (Array.of_list
           (List.sort compare (List.map (fun r -> r.ss_edit_p50) srows)))
        0.5 )
  in
  let phases = rows phase (Telemetry.timers () @ [ edit_p50 ]) in
  let doc =
    Obj
      ([ ("schema", String "hlp-bench-v1");
         ( "meta",
           Obj
             [ ("width", Int width); ("vectors", Int vectors);
               ("variants", Int variants); ("fast", Bool fast);
               ("stable", Bool stable); ("jobs", Int (Pool.jobs ()));
               ( "sim_engine",
                 String Hlp_rtl.Sim.(engine_name (resolve_engine Auto)) );
               ( "sa_cache",
                 Option.fold ~none:Null ~some:(fun p -> String p)
                   (ST.cache_file sa_table) );
               ("lib_fingerprint", String (ST.fingerprint ())) ] );
         ("designs", List designs); ("bind", bind); ("summary", summary);
         ("sa_table", sa);
         ( "sim",
           Obj [ ("lanes", Int Hlp_util.Bits.lanes); ("workloads", workloads) ]
         );
         ( "static_estimator",
           Obj
             [ ("glitch_gain", Float Hlp_static.Analysis.default_glitch_gain);
               ("error_bound", Float static_error_bound);
               ("speedup_floor", Float static_speedup_floor);
               ("sweep_speedup", seconds (static_sweep_speedup static_rows));
               ("rows", rows static_row static_rows) ] );
         ("sessions", sessions) ]
      @ cluster
      @ [ ("phases", phases); ("total_seconds", seconds total_seconds) ])
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string doc ^ "\n"))

let bench_json_if_requested ~total_seconds =
  match Sys.getenv_opt "HLP_BENCH_JSON" with
  | Some path when String.trim path <> "" -> (
      try
        bench_json ~total_seconds path;
        Printf.eprintf "[bench] wrote %s\n%!" path
      with Sys_error msg ->
        Printf.eprintf "[bench] cannot write %s: %s\n%!" path msg)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Concurrent load generator (HLP_LOADGEN=socket): each client thread
   holds its own connection and issues requests back to back; the
   aggregate exercises the daemon's queue, worker pool and warm SA
   tables under real contention. *)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1))

(* Edit-stream mode (HLP_LOADGEN_EDITS=n): each client measures full
   [bind] round trips for a baseline, then opens a session and streams n
   one-op edits through it before closing.  Reports full-bind vs
   incremental p50/p99 and the daemon-side reply-cache hit count; any
   protocol error fails the run. *)
let edits_loadgen socket ~clients ~edits ~bench =
  let module P = Hlp_server.Protocol in
  let module C = Hlp_server.Client in
  let module J = Hlp_util.Json in
  let full_reps = 5 in
  Printf.printf
    "loadgen-edits: %d clients x (%d binds + open + %d edits + close) on %s \
     against %s\n\
     %!"
    clients full_reps edits bench socket;
  let errors = Atomic.make 0 in
  let reply_hits = Atomic.make 0 in
  let full_lat = Array.make (clients * full_reps) 0. in
  let edit_lat = Array.make (clients * edits) 0. in
  (* The daemon's generator is pure, so the id the first add_op receives
     is knowable client-side: ops are appended at [num_ops]. *)
  let added_id = Hlp_cdfg.Cdfg.num_ops (B.generate (B.find bench)) in
  let client_body c_idx =
    let c = C.connect socket in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        let rid = ref 0 in
        let request op =
          incr rid;
          C.request c
            { P.id = J.Int ((c_idx * 1_000_000) + !rid); deadline_ms = None; op }
        in
        for r = 0 to full_reps - 1 do
          let t0 = now () in
          match request (P.Bind { P.default_bind_params with P.bench; width })
          with
          | Ok { P.payload = P.Result _; _ } ->
              full_lat.((c_idx * full_reps) + r) <- now () -. t0
          | Ok { P.payload = P.Error _; _ } | Error _ -> Atomic.incr errors
        done;
        match
          request
            (P.Session_open
               {
                 P.default_session_open_params with
                 P.so_bench = bench;
                 so_width = width;
               })
        with
        | Ok { P.payload = P.Result { result = j; _ }; _ } -> (
            let sid =
              match J.member "session" j with
              | Some (J.String s) -> s
              | _ -> ""
            in
            if sid = "" then Atomic.incr errors
            else begin
              for i = 0 to edits - 1 do
                let delta =
                  if i land 1 = 0 then
                    P.D_add_op
                      {
                        d_kind = Hlp_cdfg.Cdfg.Add;
                        d_left = Hlp_cdfg.Cdfg.Input 0;
                        d_right = Hlp_cdfg.Cdfg.Input 0;
                        d_output = true;
                      }
                  else P.D_remove_op added_id
                in
                let t0 = now () in
                match
                  request
                    (P.Session_edit { P.se_session = sid; se_delta = delta })
                with
                | Ok { P.payload = P.Result _; _ } ->
                    edit_lat.((c_idx * edits) + i) <- now () -. t0
                | Ok { P.payload = P.Error _; _ } | Error _ ->
                    Atomic.incr errors
              done;
              match request (P.Session_close { P.sc_session = sid }) with
              | Ok { P.payload = P.Result { result = j; _ }; _ } ->
                  (match J.member "reply_cache_hits" j with
                  | Some (J.Int n) -> ignore (Atomic.fetch_and_add reply_hits n)
                  | _ -> ())
              | Ok { P.payload = P.Error _; _ } | Error _ ->
                  Atomic.incr errors
            end)
        | Ok { P.payload = P.Error _; _ } | Error _ -> Atomic.incr errors)
  in
  let threads = List.init clients (fun i -> Thread.create client_body i) in
  List.iter Thread.join threads;
  Array.sort compare full_lat;
  Array.sort compare edit_lat;
  let full_p50 = percentile full_lat 0.50 in
  let edit_p50 = percentile edit_lat 0.50 in
  Printf.printf
    "loadgen-edits: full bind p50 %.2f ms, p99 %.2f ms | incremental edit \
     p50 %.1f us, p99 %.1f us\n"
    (1000. *. full_p50)
    (1000. *. percentile full_lat 0.99)
    (1e6 *. edit_p50)
    (1e6 *. percentile edit_lat 0.99);
  Printf.printf "loadgen-edits: speedup %.1fx, reply cache hits %d, errors %d\n"
    (if edit_p50 > 0. then full_p50 /. edit_p50 else 0.)
    (Atomic.get reply_hits) (Atomic.get errors);
  if Atomic.get errors > 0 then exit 1

let loadgen socket =
  let module P = Hlp_server.Protocol in
  let module C = Hlp_server.Client in
  let module J = Hlp_util.Json in
  let env name default =
    match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
  in
  let clients = max 1 (env "HLP_LOADGEN_CLIENTS" 4) in
  let requests = max 1 (env "HLP_LOADGEN_REQUESTS" 25) in
  let op_name =
    Option.value ~default:"bind" (Sys.getenv_opt "HLP_LOADGEN_OP")
  in
  let bench =
    Option.value ~default:"pr" (Sys.getenv_opt "HLP_LOADGEN_BENCH")
  in
  let op =
    match op_name with
    | "ping" -> P.Ping 0
    | "bind" -> P.Bind { P.default_bind_params with P.bench; width }
    | "flow" ->
        P.Flow
          { P.default_bind_params with P.bench; width; vectors = min vectors 50 }
    | "stats" -> P.Stats
    | other -> failwith ("HLP_LOADGEN_OP: unknown op " ^ other)
  in
  Printf.printf
    "loadgen: %d clients x %d %s requests (bench %s) against %s\n%!" clients
    requests op_name bench socket;
  let ok = Atomic.make 0 and errors = Atomic.make 0 in
  let latencies = Array.make (clients * requests) 0. in
  let client_body c_idx =
    let c = C.connect socket in
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        for r = 0 to requests - 1 do
          let t0 = now () in
          (* Bounded retry: every loadgen op is idempotent, so the run
             survives a worker restart (or, pointed at a head, a
             failover) instead of aborting on the first stale
             connection. *)
          match
            C.request_retry c
              { P.id = J.Int ((c_idx * requests) + r); deadline_ms = None; op }
          with
          | Ok { P.payload = P.Result _; _ } ->
              latencies.((c_idx * requests) + r) <- now () -. t0;
              Atomic.incr ok
          | Ok { P.payload = P.Error _; _ } | Error _ ->
              latencies.((c_idx * requests) + r) <- now () -. t0;
              Atomic.incr errors
        done)
  in
  let t0 = now () in
  let threads =
    List.init clients (fun i -> Thread.create client_body i)
  in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let total = Atomic.get ok + Atomic.get errors in
  Printf.printf "loadgen: %d ok, %d errors in %.2f s (%.1f req/s)\n"
    (Atomic.get ok) (Atomic.get errors) wall
    (float_of_int total /. wall);
  Printf.printf
    "loadgen: latency p50 %.1f ms, p90 %.1f ms, p99 %.1f ms, max %.1f ms\n"
    (1000. *. percentile sorted 0.50)
    (1000. *. percentile sorted 0.90)
    (1000. *. percentile sorted 0.99)
    (1000. *. sorted.(Array.length sorted - 1));
  if Atomic.get errors > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Chaos loadgen (HLP_LOADGEN_CHAOS=1): a time-bounded soak that mixes
   real work with adversity — random mid-request disconnects, torn
   request frames, tiny deadlines, hostile frames, and sustained
   queue-capacity pressure.  The daemon must answer every readable
   frame with a decodable reply, never say [internal], and (when
   HLP_LOADGEN_SERVER_PID points at it) end the run with exactly its
   quiescent fd set and a flat RSS. *)

let chaos_loadgen socket =
  let module P = Hlp_server.Protocol in
  let module J = Hlp_util.Json in
  let env name default =
    match Sys.getenv_opt name with Some s -> int_of_string s | None -> default
  in
  let clients = max 1 (env "HLP_LOADGEN_CLIENTS" 4) in
  let seconds = float_of_int (max 1 (env "HLP_LOADGEN_SECONDS" 30)) in
  let server_pid = Sys.getenv_opt "HLP_LOADGEN_SERVER_PID" in
  let fd_count pid =
    try Array.length (Sys.readdir (Printf.sprintf "/proc/%s/fd" pid))
    with Sys_error _ -> -1
  in
  let rss_bytes pid =
    try
      let ic = open_in (Printf.sprintf "/proc/%s/statm" pid) in
      let line = input_line ic in
      close_in ic;
      match String.split_on_char ' ' line with
      | _ :: resident :: _ -> int_of_string resident * 4096
      | _ -> 0
    with Sys_error _ | Failure _ | End_of_file -> 0
  in
  let seed = env "HLP_LOADGEN_SEED" 4242 in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf
    "chaos: %d clients for %.0f s against %s (seed %d)\n%!" clients seconds
    socket seed;
  let ok = Atomic.make 0 in
  let rejected = Atomic.make 0 in
  let disconnects = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let codes_mu = Mutex.create () in
  let codes : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let count_code c =
    Mutex.lock codes_mu;
    Hashtbl.replace codes c
      (1 + Option.value ~default:0 (Hashtbl.find_opt codes c));
    Mutex.unlock codes_mu
  in
  let fail_loud what =
    Atomic.incr failures;
    Printf.eprintf "chaos FAILURE: %s\n%!" what
  in
  let hostile_frames =
    [|
      "{\"op\": \"ping\", ";
      "[1, 2, 3]";
      "{\"id\": 1, \"op\": \"frobnicate\"}";
      "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
       \"alpha\": 1e999}}";
      "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
       \"model\": {\"vdd\": 5e-324}}}";
      "{\"id\": 1, \"op\": \"stats\", \"op\": \"stats\"}";
      "{\"id\": 1, \"op\": \"bind\", \"params\": {\"graph\": {\"inputs\": 1, \
       \"ops\": [{\"kind\": \"add\", \"left\": {\"op\": 0}, \"right\": \
       {\"input\": 0}}], \"outputs\": [{\"op\": 0}]}}}";
    |]
  in
  (* Warm round, then quiesce and capture the daemon's baseline fd set:
     after every client is gone, the fd table of a healthy daemon is
     exactly its listeners + self-pipe, so any end-of-run excess is a
     leak. *)
  let baseline_fds, baseline_rss =
    match server_pid with
    | None -> (-1, 0)
    | Some pid ->
        let fd = Hlp_server.Client.Addr.(dial (Unix_path socket)) in
        P.write_frame fd
          (P.encode_request
             { P.id = J.Int 0; deadline_ms = None; op = P.Ping 0 });
        ignore (P.read_frame (P.reader_of_fd fd));
        Unix.close fd;
        Thread.delay 0.3;
        (fd_count pid, rss_bytes pid)
  in
  let stop_at = now () +. seconds in
  let client_body c_idx =
    let rand = Random.State.make [| seed; c_idx |] in
    let ri n = Random.State.int rand n in
    let conn = ref None in
    let get_conn () =
      match !conn with
      | Some c -> c
      | None ->
          let fd = Hlp_server.Client.Addr.(dial (Unix_path socket)) in
          let c = (fd, P.reader_of_fd fd) in
          conn := Some c;
          c
    in
    let drop_conn () =
      (match !conn with
      | Some (fd, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ());
      conn := None
    in
    let encode_random_request () =
      let op =
        match ri 6 with
        | 0 | 1 -> P.Ping (ri 30)
        | 2 ->
            P.Bind
              { P.default_bind_params with P.bench = "pr"; width = 4;
                vectors = 20 }
        | 3 -> P.Stats
        | 4 ->
            P.Lint
              { P.lint_bench = Some "pr"; lint_binder = "hlpower";
                lint_width = 4 }
        | _ -> P.Ping 0
      in
      let deadline_ms = if ri 4 = 0 then Some (1 + ri 25) else None in
      P.encode_request { P.id = J.Int (ri 1_000_000); deadline_ms; op }
    in
    let read_reply ~frame =
      let _, reader = get_conn () in
      match P.read_frame reader with
      | exception (Unix.Unix_error _ | Sys_error _) -> drop_conn ()
      | `Eof | `Too_large _ -> drop_conn ()
      | `Frame reply -> (
          match P.decode_reply reply with
          | Error msg ->
              fail_loud
                (Printf.sprintf "undecodable reply for %s: %s"
                   (String.sub frame 0 (min 80 (String.length frame)))
                   msg)
          | Ok { P.payload = P.Result _; _ } -> Atomic.incr ok
          | Ok { P.payload = P.Error { code; _ }; _ } ->
              count_code (P.error_code_to_string code);
              if code = P.Internal then
                fail_loud ("internal error for frame " ^ frame)
              else Atomic.incr rejected)
    in
    while now () < stop_at do
      match ri 10 with
      | 0 ->
          (* mid-request disconnect: send, never read, vanish *)
          let fd, _ = get_conn () in
          (try P.write_frame fd (encode_random_request ())
           with Unix.Unix_error _ | Sys_error _ -> ());
          drop_conn ();
          Atomic.incr disconnects
      | 1 ->
          (* torn request frame: a prefix with no newline, then EOF *)
          let fd, _ = get_conn () in
          let line = encode_random_request () in
          let n = 1 + ri (String.length line - 1) in
          (try
             ignore (Unix.write_substring fd line 0 n)
           with Unix.Unix_error _ | Sys_error _ -> ());
          drop_conn ();
          Atomic.incr disconnects
      | 2 ->
          (* hostile frame; the reply must still be structured *)
          let frame = hostile_frames.(ri (Array.length hostile_frames)) in
          let fd, _ = get_conn () in
          (try
             P.write_frame fd frame;
             read_reply ~frame
           with Unix.Unix_error _ | Sys_error _ -> drop_conn ())
      | 3 ->
          (* burst: sustained queue pressure in one write, then read
             every reply back *)
          let burst = 4 + ri 8 in
          let frames = List.init burst (fun _ -> encode_random_request ()) in
          let fd, _ = get_conn () in
          (try
             List.iter (fun f -> P.write_frame fd f) frames;
             List.iter (fun f -> read_reply ~frame:f) frames
           with Unix.Unix_error _ | Sys_error _ -> drop_conn ())
      | _ -> (
          let frame = encode_random_request () in
          let fd, _ = get_conn () in
          try
            P.write_frame fd frame;
            read_reply ~frame
          with Unix.Unix_error _ | Sys_error _ -> drop_conn ())
    done;
    drop_conn ()
  in
  let threads = List.init clients (fun i -> Thread.create client_body i) in
  List.iter Thread.join threads;
  (* Quiesce, then hold the daemon to its baseline: zero leaked fds,
     flat RSS. *)
  (match server_pid with
  | None -> ()
  | Some pid ->
      Thread.delay 0.5;
      let end_fds = fd_count pid and end_rss = rss_bytes pid in
      Printf.printf "chaos: daemon fds %d -> %d, rss %.1f MiB -> %.1f MiB\n%!"
        baseline_fds end_fds
        (float_of_int baseline_rss /. 1048576.)
        (float_of_int end_rss /. 1048576.);
      if baseline_fds >= 0 && end_fds > baseline_fds then
        fail_loud
          (Printf.sprintf "fd leak: %d fds at baseline, %d after soak"
             baseline_fds end_fds);
      if end_rss - baseline_rss > 64 * 1024 * 1024 then
        fail_loud
          (Printf.sprintf "RSS grew %d MiB over the soak"
             ((end_rss - baseline_rss) / 1048576)));
  Printf.printf "chaos: %d ok, %d rejected, %d disconnects injected\n"
    (Atomic.get ok) (Atomic.get rejected) (Atomic.get disconnects);
  Mutex.lock codes_mu;
  Hashtbl.iter (fun c n -> Printf.printf "chaos:   %-18s %d\n" c n) codes;
  Mutex.unlock codes_mu;
  if Atomic.get failures > 0 then begin
    Printf.eprintf "chaos: %d failures\n%!" (Atomic.get failures);
    exit 1
  end;
  Printf.printf "chaos: clean soak\n%!"

let () =
  match Sys.getenv_opt "HLP_LOADGEN" with
  | Some socket when String.trim socket <> "" ->
      (match Sys.getenv_opt "HLP_LOADGEN_CHAOS" with
      | Some ("1" | "true" | "yes") -> chaos_loadgen socket
      | _ -> (
          match Sys.getenv_opt "HLP_LOADGEN_EDITS" with
          | Some s when String.trim s <> "" ->
              let env name default =
                match Sys.getenv_opt name with
                | Some v -> int_of_string v
                | None -> default
              in
              edits_loadgen socket
                ~clients:(max 1 (env "HLP_LOADGEN_CLIENTS" 4))
                ~edits:(max 1 (int_of_string s))
                ~bench:
                  (Option.value ~default:"pr"
                     (Sys.getenv_opt "HLP_LOADGEN_BENCH"))
          | _ -> loadgen socket));
      exit 0
  | _ -> ()

let () =
  Printf.printf "HLPower evaluation harness (width=%d bits, vectors=%d%s)\n"
    width vectors
    (if fast then ", fast subset" else "");
  Printf.eprintf "[pool] %d worker(s)\n%!" (Pool.jobs ());
  let t0 = now () in
  table1 ();
  table2 ();
  table4 ();
  table3 ();
  figure3 ();
  alpha_sweep ();
  ablation_k ();
  ablation_table_vs_dynamic ();
  ablation_objective ();
  ablation_multicycle ();
  ablation_port_assign ();
  ablation_module_select ();
  sim_engines ();
  static_estimator ();
  session_bench ();
  cluster_section ();
  (* Bechamel numbers are wall-clock by nature; skip them entirely in
     byte-stable mode. *)
  if not stable then bechamel_section ();
  let total_seconds = now () -. t0 in
  Printf.eprintf "[bench] total wall clock %.1f s\n%!" total_seconds;
  bench_json_if_requested ~total_seconds;
  (* Flush the SA table to the cache directory now rather than at_exit,
     so the hit-rate section above and the persisted file agree. *)
  ST.persist sa_table;
  Telemetry.write_if_requested ();
  Printf.printf "\ndone.\n"
