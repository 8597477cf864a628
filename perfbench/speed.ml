(* Host-speed probe.

   On a shared host the speed of this benchmark's work moves with the
   other tenants' use of caches and memory: a fixed CPU-bound loop was
   measured swinging 1.7x between ten-second stretches on the 2-vCPU
   VM the benchmark was written on, and every timing of a run moved
   with it.  A non-allocating arithmetic loop barely sees that
   contention; allocation-heavy work like the program's does.

   So a separate small process runs a fixed reference computation —
   hash-table updates and a list sort, the kind of work the binders and
   the mapper do — whenever it is asked, while the workload is paused.
   Its time over [nominal] is the host's slowdown factor at that
   moment.  The end-to-end timings are reported divided by the factor
   of the interval they were measured in (rates multiplied by it): the
   figures the run would show at the reference speed.  The probe has
   its own process and heap, so the program's load and memory are not
   in its measurement, and the benchmark's code (including this probe)
   is the same on both sides of any comparison. *)

(* The reference computation's time, in seconds, at the reference
   speed; about its median on the host the benchmark was written on. *)
let nominal = 0.040

let reference () =
  for _ = 1 to 6 do
    let h = Hashtbl.create 16 in
    for i = 0 to 20_000 do
      Hashtbl.replace h (i * 13 mod 5003) [ i; i + 1 ]
    done;
    let l = List.init 20_000 (fun i -> i * 7919 mod 10_007) in
    ignore (Sys.opaque_identity (List.sort compare l))
  done

external allowed_cpus : unit -> int array = "perfbench_allowed_cpus"
external pin_to_cpu : int -> bool = "perfbench_pin_to_cpu"

(* The probe process's main loop, on CPU [cpu]: one reference run per
   line read on standard input, its duration written back; exits at end
   of input. *)
let serve cpu =
  ignore (pin_to_cpu cpu);
  (try
     while true do
       ignore (input_line stdin);
       let t0 = Common.now () in
       reference ();
       Printf.printf "%.9f\n%!" (Common.now () -. t0)
     done
   with End_of_file -> ());
  exit 0

let flag = "--speed-probe"

type probe = { ask : out_channel; answer : in_channel }

let start_probe cpu =
  let req_r, req_w = Unix.pipe ~cloexec:true ()
  and ans_r, ans_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; flag; string_of_int cpu |]
      req_r ans_w Unix.stderr
  in
  Unix.close req_r;
  Unix.close ans_w;
  Common.live := pid :: !Common.live;
  { ask = Unix.out_channel_of_descr req_w; answer = Unix.in_channel_of_descr ans_r }

(* One probe process per CPU, pinned to it and started on first use;
   the exit path stops them with the daemons.  Each CPU's speed moves on
   its own (on the 2-vCPU host the two were uncorrelated, each switching
   between a fast and a 1.7x slower state every few seconds), and the
   workload's processes run on any of them, so the probes run at once,
   one on each.  Unpinned, the pipe wake-up tends to put them all on the
   waker's CPU, where they slow each other down. *)
let probes =
  lazy (List.map (fun cpu -> (cpu, start_probe cpu)) (Array.to_list (allowed_cpus ())))

(* Pins this process to one CPU and returns it, for a single-threaded
   workload whose speed is that CPU's alone. *)
let pin_self () =
  let cpu = (allowed_cpus ()).(0) in
  ignore (pin_to_cpu cpu);
  cpu

(* The host's slowdown factor now: the mean over the CPUs (or on CPU
   [cpu] only) of one reference run's time, over [nominal]; above 1 on
   a slower host. *)
let factor ?cpu () =
  let ps =
    List.filter_map
      (fun (c, p) -> if cpu = None || cpu = Some c then Some p else None)
      (Lazy.force probes)
  in
  List.iter
    (fun p ->
      output_char p.ask '\n';
      flush p.ask)
    ps;
  Common.mean (List.map (fun p -> float_of_string (input_line p.answer)) ps) /. nominal
