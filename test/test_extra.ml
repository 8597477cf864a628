(* Second-round coverage: calibration, SA-table precompute, the multi-cycle
   fallback path, stats helpers, timed-waveform accessors, and edge cases
   that the first-round suites did not pin down. *)

module Tt = Hlp_netlist.Truth_table
module Nl = Hlp_netlist.Netlist
module Cl = Hlp_netlist.Cell_library
module Sw = Hlp_activity.Switching
module Timed = Hlp_activity.Timed
module Mapper = Hlp_mapper.Mapper
module Cdfg = Hlp_cdfg.Cdfg
module Schedule = Hlp_cdfg.Schedule
module Lifetime = Hlp_cdfg.Lifetime
module Benchmarks = Hlp_cdfg.Benchmarks
module Reg_binding = Hlp_core.Reg_binding
module Binding = Hlp_core.Binding
module Sa_table = Hlp_core.Sa_table
module Hlpower = Hlp_core.Hlpower
module Stats = Hlp_util.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- stats --- *)

(* A full 30-bit word draws [Rng.int rng (1 lsl 30)], one past what
   [Random.State.int] accepts (the simulator's vectors at width 30). *)
let test_rng_wide_bound () =
  let rng = Hlp_util.Rng.create "wide" in
  List.iter
    (fun bound ->
      let v = Hlp_util.Rng.int rng bound in
      Alcotest.(check bool)
        (Printf.sprintf "draw below %d in range" bound)
        true
        (v >= 0 && v < bound))
    [ 1 lsl 29; 1 lsl 30; 1 lsl 40 ]

let test_stats () =
  check_float "mean" 2. (Stats.mean [ 1.; 2.; 3. ]);
  check_float "mean empty" 0. (Stats.mean []);
  check_float "variance" (2. /. 3.) (Stats.variance [ 1.; 2.; 3. ]);
  check_float "variance singleton" 0. (Stats.variance [ 5. ]);
  check_float "pct" 50. (Stats.percent_change ~from:2. ~to_:3.);
  check_float "pct zero base" 0. (Stats.percent_change ~from:0. ~to_:3.);
  check_float "geo mean" 2. (Stats.geo_mean [ 1.; 4. ]);
  check_float "clamp low" 0. (Stats.clamp ~lo:0. ~hi:1. (-3.));
  check_float "clamp high" 1. (Stats.clamp ~lo:0. ~hi:1. 3.)

(* --- calibration --- *)

let sa_table = Sa_table.create ~width:4 ~k:4 ()

let test_calibrate () =
  let p = Hlpower.calibrate sa_table in
  check_float "alpha default" 0.5 p.Hlpower.alpha;
  let ba = p.Hlpower.beta Cdfg.Add_sub in
  let bm = p.Hlpower.beta Cdfg.Multiplier in
  check_bool "betas positive" true (ba > 0. && bm > 0.);
  check_bool "mult beta larger" true (bm > ba);
  let p9 = Hlpower.calibrate ~alpha:0.9 sa_table in
  check_float "alpha override" 0.9 p9.Hlpower.alpha

let test_paper_beta () =
  check_float "paper add" 30. (Hlpower.paper_beta Cdfg.Add_sub);
  check_float "paper mult" 1000. (Hlpower.paper_beta Cdfg.Multiplier)

(* --- sa table precompute --- *)

let test_precompute_covers_combinations () =
  let t = Sa_table.create ~width:2 ~k:4 () in
  Sa_table.precompute t ~max_inputs:3;
  let entries = Sa_table.entries t in
  (* At least the (1,1), (1,2), (2,2), (1,3), (1,4)... sorted combos for
     both classes. *)
  check_bool "has add 1 1" true
    (List.exists (fun (c, l, r, _) -> c = Cdfg.Add_sub && l = 1 && r = 1)
       entries);
  check_bool "has mult 2 3" true
    (List.exists
       (fun (c, l, r, _) -> c = Cdfg.Multiplier && l = 2 && r = 3)
       entries);
  check_bool "all sa positive" true
    (List.for_all (fun (_, _, _, sa) -> sa > 0.) entries)

(* --- multi-cycle fallback (the regression from the bench run) --- *)

let test_multicycle_pr_binds () =
  let latency = function Cdfg.Mult -> 2 | Cdfg.Add | Cdfg.Sub -> 1 in
  let p = Benchmarks.find "pr" in
  let g = Benchmarks.generate p in
  let resources = Benchmarks.resources p in
  let schedule = Schedule.list_schedule ~latency g ~resources in
  let regs = Reg_binding.bind (Lifetime.analyze schedule) in
  let r =
    Hlpower.bind
      ~params:(Hlpower.calibrate ~alpha:0.5 sa_table)
      ~sa_table ~regs ~resources schedule
  in
  Binding.validate r.Hlpower.binding;
  List.iter
    (fun cls ->
      check_bool "constraint met" true
        (Binding.num_fus r.Hlpower.binding cls <= resources cls))
    Cdfg.all_classes

let prop_multicycle_random =
  QCheck.Test.make ~name:"multicycle binding on random firs" ~count:20
    QCheck.(pair (int_range 2 8) (int_range 1 3))
    (fun (taps, units) ->
      let latency = function Cdfg.Mult -> 2 | Cdfg.Add | Cdfg.Sub -> 1 in
      let g = Benchmarks.fir ~taps in
      let resources = fun _ -> units in
      let schedule = Schedule.list_schedule ~latency g ~resources in
      let regs = Reg_binding.bind (Lifetime.analyze schedule) in
      match
        Hlpower.bind
          ~params:(Hlpower.calibrate ~alpha:0.5 sa_table)
          ~sa_table ~regs ~resources schedule
      with
      | r ->
          Binding.validate r.Hlpower.binding;
          List.for_all
            (fun cls ->
              Binding.num_fus r.Hlpower.binding cls <= resources cls)
            Cdfg.all_classes
      | exception Failure _ ->
          (* The paper gives no guarantee for multi-cycle resources; a
             clean refusal is acceptable, a crash or invalid binding is
             not. *)
          true)

(* --- timed waveform accessors --- *)

let test_waveform_accessors () =
  let w = Timed.input_waveform Sw.default_input in
  check_int "input arrival" 0 (Timed.arrival w);
  check_float "input activity" 0.5 (Timed.total_activity w);
  check_float "input functional" 0.5 (Timed.functional_activity w);
  check_float "input glitch" 0. (Timed.glitch_activity w);
  check_float "prob" 0.5 (Timed.prob w);
  let made = Timed.make ~prob:0.3 ~steps:[ (2, 0.1); (1, 0.2); (3, 0.) ] in
  (match Timed.steps made with
  | [ (1, a); (2, b) ] ->
      check_float "sorted steps" 0.2 a;
      check_float "second" 0.1 b
  | _ -> Alcotest.fail "steps should be sorted, zero-activity dropped");
  check_int "arrival is max step" 2 (Timed.arrival made)

(* --- mapper with quiet inputs --- *)

let test_mapper_quiet_inputs () =
  (* Inputs that never switch produce a zero-SA mapping. *)
  let b = Nl.create_builder ~name:"quiet" in
  let x = Nl.add_input b "x" in
  let y = Nl.add_input b "y" in
  let g = Cl.and2 b x y in
  Nl.mark_output b "z" g;
  let t = Nl.freeze b in
  let quiet _ = Sw.signal ~prob:0.5 ~activity:0. in
  let m = Mapper.map ~input:quiet t ~k:4 in
  check_float "no switching anywhere" 0. m.Mapper.total_sa

(* --- schedule of_csteps + validate --- *)

let test_of_csteps_validates () =
  let g = Benchmarks.fir ~taps:2 in
  (* fir2: ops = [mult;mult;add].  A bad schedule: add before mults. *)
  let s = Schedule.of_csteps g ~cstep:[| 1; 1; 0 |] in
  check_bool "invalid schedule rejected" true
    (try
       Schedule.validate s ~resources:None;
       false
     with Failure _ -> true);
  let ok = Schedule.of_csteps g ~cstep:[| 0; 0; 1 |] in
  Schedule.validate ok ~resources:None

let test_live_at () =
  let s = Benchmarks.fig1 () in
  let lt = Lifetime.analyze s in
  let live0 = Lifetime.live_at lt 0 in
  (* All six inputs are live at step 0. *)
  check_bool "inputs live at 0" true
    (List.length
       (List.filter
          (function Lifetime.V_input _ -> true | _ -> false)
          live0)
    = 6)

(* --- reg binding accessors --- *)

let test_vars_of_reg_partition () =
  let s = Benchmarks.fig1 () in
  let lt = Lifetime.analyze s in
  let regs = Reg_binding.bind lt in
  let total =
    List.init (Reg_binding.num_regs regs) (fun r ->
        List.length (Reg_binding.vars_of_reg regs r))
    |> List.fold_left ( + ) 0
  in
  check_int "every variable in exactly one register"
    (List.length (Lifetime.intervals lt))
    total

(* --- vhdl lint negative cases --- *)

let test_vhdl_lint_rejects_unbalanced () =
  check_bool "unbalanced process" true
    (try
       Hlp_rtl.Vhdl.lint
         "entity x architecture rtl rising_edge(clk) process ( end \
          architecture rtl;";
       false
     with Failure _ -> true)

(* --- benchmark variants --- *)

let test_variants_differ () =
  let p = Benchmarks.find "pr" in
  let a = Benchmarks.generate ~variant:0 p in
  let b = Benchmarks.generate ~variant:1 p in
  check_bool "same profile" true
    (Cdfg.num_ops a = Cdfg.num_ops b
    && Cdfg.num_inputs a = Cdfg.num_inputs b);
  check_bool "different structure" true (Cdfg.ops a <> Cdfg.ops b)

let test_depth_capped () =
  (* Generated graphs must schedule within a small factor of the paper's
     cycle counts (the depth cap at work). *)
  List.iter
    (fun p ->
      let g = Benchmarks.generate p in
      check_bool
        (Printf.sprintf "%s depth below cap" p.Benchmarks.bench_name)
        true
        (Cdfg.depth g <= max 8 (p.Benchmarks.paper_cycles + 4)))
    Benchmarks.all

let suite =
  [
    Alcotest.test_case "stats helpers" `Quick test_stats;
    Alcotest.test_case "rng draws a 30-bit word" `Quick test_rng_wide_bound;
    Alcotest.test_case "hlpower calibrate" `Quick test_calibrate;
    Alcotest.test_case "paper beta constants" `Quick test_paper_beta;
    Alcotest.test_case "sa precompute coverage" `Quick
      test_precompute_covers_combinations;
    Alcotest.test_case "multicycle pr binds (fallback)" `Quick
      test_multicycle_pr_binds;
    Alcotest.test_case "waveform accessors" `Quick test_waveform_accessors;
    Alcotest.test_case "mapper with quiet inputs" `Quick
      test_mapper_quiet_inputs;
    Alcotest.test_case "of_csteps validation" `Quick test_of_csteps_validates;
    Alcotest.test_case "live_at" `Quick test_live_at;
    Alcotest.test_case "vars_of_reg partition" `Quick
      test_vars_of_reg_partition;
    Alcotest.test_case "vhdl lint rejects unbalanced" `Quick
      test_vhdl_lint_rejects_unbalanced;
    Alcotest.test_case "benchmark variants differ" `Quick test_variants_differ;
    Alcotest.test_case "generator depth cap" `Quick test_depth_capped;
    QCheck_alcotest.to_alcotest prop_multicycle_random;
  ]
