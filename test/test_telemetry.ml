module T = Hlp_util.Telemetry
module Pool = Hlp_util.Pool
module Json = Hlp_util.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The telemetry store is process-global and other suites bump their own
   counters while running; these tests therefore only assert on names they
   create themselves, and on deltas. *)

let test_counter_basics () =
  let c = T.counter "test.basics" in
  let before = T.value c in
  T.incr c;
  T.add c 41;
  check_int "incr + add" (before + 42) (T.value c);
  check_bool "same handle for same name" true (T.counter "test.basics" == c);
  T.count "test.basics" 8;
  check_int "count by name" (before + 50) (T.value c)

let test_counter_concurrent () =
  let c = T.counter "test.concurrent" in
  let before = T.value c in
  Pool.parallel_iter ~jobs:4 (fun _ -> T.incr c) (Array.make 1000 ());
  check_int "1000 atomic bumps" (before + 1000) (T.value c)

let test_timers_accumulate () =
  let x = T.time "test.timer" (fun () -> 42) in
  check_int "passes result through" 42 x;
  ignore (T.time "test.timer" (fun () -> ()));
  let _, calls, seconds =
    List.find (fun (n, _, _) -> n = "test.timer") (T.timers ())
  in
  check_bool "two calls recorded" true (calls >= 2);
  check_bool "nonnegative duration" true (seconds >= 0.)

let test_timer_records_on_exception () =
  let before =
    match List.find_opt (fun (n, _, _) -> n = "test.raises") (T.timers ()) with
    | Some (_, calls, _) -> calls
    | None -> 0
  in
  (try T.time "test.raises" (fun () -> failwith "boom") with Failure _ -> ());
  let _, calls, _ =
    List.find (fun (n, _, _) -> n = "test.raises") (T.timers ())
  in
  check_int "call recorded despite raise" (before + 1) calls

let test_spans_recorded_in_order () =
  ignore (T.span "test.span.a" (fun () -> ()));
  ignore (T.span "test.span.b" (fun () -> ()));
  let names =
    List.filter_map
      (fun (n, _, _) ->
        if String.length n >= 10 && String.sub n 0 10 = "test.span." then
          Some n
        else None)
      (T.spans ())
  in
  check_bool "record order" true
    (names = [ "test.span.a"; "test.span.b" ]
    || (* earlier runs of this test in a retried suite *) List.length names > 2)

let test_span_log_bounded () =
  let cap = T.span_capacity in
  ignore (T.span "test.ring.first" (fun () -> ()));
  for _ = 2 to (10 * cap) - 1 do
    ignore (T.span "test.ring" (fun () -> ()))
  done;
  ignore (T.span "test.ring.last" (fun () -> ()));
  let spans = T.spans () in
  check_int "exactly the capacity retained" cap (List.length spans);
  let names = List.map (fun (n, _, _) -> n) spans in
  check_bool "newest last" true
    (List.nth names (cap - 1) = "test.ring.last");
  check_bool "oldest dropped" false (List.mem "test.ring.first" names);
  check_bool "only this test's spans remain" true
    (List.for_all (fun n -> n = "test.ring" || n = "test.ring.last") names);
  let starts = List.map (fun (_, s, _) -> s) spans in
  check_bool "record order (monotonic starts)" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < cap - 1) starts)
       (List.tl starts))

(* A counter name that needs every kind of escaping: quote, backslash,
   a C0 control and non-ASCII UTF-8. *)
let awkward = "test.json \"q\" \\ \x01 \xc3\xa9"

let test_json_roundtrip () =
  T.count awkward 3;
  ignore (T.time "test.json.timer" (fun () -> ()));
  ignore (T.span "test.json.span" (fun () -> ()));
  let text = T.to_json () in
  check_bool "one line" false (String.contains text '\n');
  match Json.parse text with
  | Error (pos, msg) ->
      Alcotest.failf "to_json is not JSON (byte %d: %s)" pos msg
  | Ok v ->
      let counters = Json.member "counters" v in
      check_bool "awkward counter name round-trips" true
        (Option.bind counters (Json.member awkward) = Some (Json.Int 3));
      let named field name =
        match Option.bind (Json.member field v) Json.to_list with
        | None -> None
        | Some rows ->
            List.find_opt
              (fun r -> Json.member "name" r = Some (Json.String name))
              rows
      in
      (match named "timers" "test.json.timer" with
      | None -> Alcotest.fail "timer row missing"
      | Some r ->
          check_bool "timer calls" true
            (Option.bind (Json.member "calls" r) Json.to_int <> None);
          check_bool "timer seconds" true
            (Option.bind (Json.member "seconds" r) Json.to_float <> None));
      match named "spans" "test.json.span" with
      | None -> Alcotest.fail "span row missing"
      | Some r ->
          check_bool "span start and seconds" true
            (Option.bind (Json.member "start" r) Json.to_float <> None
            && Option.bind (Json.member "seconds" r) Json.to_float <> None)

let test_write_and_env_knob () =
  let path = Filename.temp_file "hlp_telemetry" ".json" in
  T.write path;
  let text = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check_bool "dump is to_json plus a newline" true
    (String.length text > 10 && text.[String.length text - 1] = '\n');
  check_bool "dump parses" true (Result.is_ok (Json.parse text));
  (* write_if_requested honours HLP_TELEMETRY, and is a no-op when unset. *)
  let path2 = Filename.temp_file "hlp_telemetry" ".json" in
  Sys.remove path2;
  Unix.putenv "HLP_TELEMETRY" path2;
  T.write_if_requested ();
  check_bool "env-requested dump exists" true (Sys.file_exists path2);
  Sys.remove path2;
  Unix.putenv "HLP_TELEMETRY" "";
  T.write_if_requested ();
  check_bool "empty env is a no-op" true (not (Sys.file_exists path2))

let suite =
  [
    Alcotest.test_case "counter basics" `Quick test_counter_basics;
    Alcotest.test_case "counters are atomic across domains" `Quick
      test_counter_concurrent;
    Alcotest.test_case "timers accumulate" `Quick test_timers_accumulate;
    Alcotest.test_case "timer records on exception" `Quick
      test_timer_records_on_exception;
    Alcotest.test_case "spans recorded in order" `Quick
      test_spans_recorded_in_order;
    Alcotest.test_case "span log is a bounded ring" `Quick
      test_span_log_bounded;
    Alcotest.test_case "json shape" `Quick test_json_roundtrip;
    Alcotest.test_case "write + HLP_TELEMETRY knob" `Quick
      test_write_and_env_knob;
  ]
