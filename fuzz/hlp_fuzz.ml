(* hlp_fuzz: structured fuzzer for the hlpowerd service boundary.

   Two phases, same invariant — hostile input NEVER crashes the
   pipeline, and every rejection carries a structured S-rule
   diagnostic:

   1. Decode phase: [Protocol.decode_request] is hammered with
      (a) valid requests of all ten operations, drawn from the
          protocol's field specs ([Protocol.random_request]), which
          must round-trip,
      (b) byte-level mutations of valid frames,
      (c) structurally hostile inline graphs (at/over the admission
          limits, near-cyclic reference patterns, width mismatches,
          duplicate ids),
      (d) hostile numerics and power-model overrides (infinities,
          subnormals, out-of-range constants, duplicate keys, deep
          nesting).
      The decoder must return [Ok] or a diagnosed [Error]; an
      exception, or an [Error] with no S-code, is a fuzz failure.

   2. Wire phase: the same hostility over real sockets against an
      in-process server with >= 2 worker domains.  Every frame gets a
      decodable reply; [internal] errors are failures (hostile input
      must be *rejected*, not crash a worker); liveness pings
      interleave; a sampled subset of connections disconnect abruptly
      mid-exchange.  Bounded memory is asserted via /proc RSS.

   Knobs (all environment):
     HLP_FUZZ_RUNS    decode-phase case count (default 10000); the
                      wire phase runs runs/5 cases
     HLP_FUZZ_SEED    PRNG seed (default 1337) — a failure reproduces
                      by re-running with the printed seed
     HLP_FUZZ_CORPUS  directory for failing frames (default
                      _fuzz_corpus) *)

module Json = Hlp_util.Json
module P = Hlp_server.Protocol
module Server = Hlp_server.Server
module Client = Hlp_server.Client

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> default)
  | None -> default

let runs = max 1 (env_int "HLP_FUZZ_RUNS" 10_000)
let seed = env_int "HLP_FUZZ_SEED" 1337

let corpus_dir =
  Option.value ~default:"_fuzz_corpus" (Sys.getenv_opt "HLP_FUZZ_CORPUS")

let rand = Random.State.make [| seed |]

(* --- failure accounting ----------------------------------------------- *)

let failures = ref 0

let excerpt s =
  if String.length s <= 200 then s else String.sub s 0 197 ^ "..."

let fail_case ~phase ~what frame =
  incr failures;
  (try
     if not (Sys.file_exists corpus_dir) then Unix.mkdir corpus_dir 0o755;
     let path =
       Filename.concat corpus_dir
         (Printf.sprintf "case_%s_%04d.txt" phase !failures)
     in
     let oc = open_out path in
     Printf.fprintf oc "seed: %d\nphase: %s\nwhat: %s\nframe:\n%s\n" seed
       phase what frame;
     close_out oc
   with Sys_error _ | Unix.Unix_error _ -> ());
  Printf.eprintf "FUZZ FAILURE [%s] %s\n  frame: %s\n%!" phase what
    (excerpt frame)

(* Every rejection must speak the rule catalog's language. *)
let is_s_code c =
  String.length c = 4
  && c.[0] = 'S'
  && c.[1] = '0'
  && c.[2] >= '0'
  && c.[2] <= '9'
  && c.[3] >= '0'
  && c.[3] <= '9'

let check_diagnosed ~phase ~frame (ds : P.Diagnostic.t list) =
  if ds = [] then fail_case ~phase ~what:"rejection carries no diagnostics" frame
  else
    List.iter
      (fun (d : P.Diagnostic.t) ->
        if not (is_s_code d.P.Diagnostic.code) then
          fail_case ~phase
            ~what:
              (Printf.sprintf "diagnostic code %S is not an S-rule"
                 d.P.Diagnostic.code)
            frame)
      ds

(* --- hostile generators (raw frame text) ------------------------------ *)

let ri n = Random.State.int rand n

let mutate_bytes s =
  let edits = 1 + ri 4 in
  let s = ref s in
  for _ = 1 to edits do
    let n = String.length !s in
    if n > 0 then
      match ri 4 with
      | 0 ->
          let i = ri n in
          let b = Bytes.of_string !s in
          Bytes.set b i (Char.chr (ri 256));
          s := Bytes.to_string b
      | 1 ->
          let i = ri (n + 1) in
          s :=
            String.sub !s 0 i
            ^ String.make 1 (Char.chr (ri 256))
            ^ String.sub !s i (n - i)
      | 2 ->
          let i = ri n in
          s := String.sub !s 0 i ^ String.sub !s (i + 1) (n - i - 1)
      | _ -> s := String.sub !s 0 (ri (n + 1))
  done;
  !s

let hostile_number () =
  List.nth
    [ "1e999"; "-1e999"; "5e-324"; "-5e-324"; "1e308"; "-0.0";
      "123456789123456789123456789"; "0.1e-999" ]
    (ri 8)

let graph_frame body =
  Printf.sprintf "{\"id\": 1, \"op\": \"bind\", \"params\": {\"graph\": %s}}"
    body

(* Structurally hostile inline graphs: reference patterns that are
   almost-but-not-quite DAGs, sizes hugging the admission limits, and
   ambiguous duplicate ids. *)
let hostile_graph_frame ~big_ok =
  match ri (if big_ok then 7 else 6) with
  | 0 ->
      (* self reference *)
      graph_frame
        "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": {\"op\": 0}, \
         \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": 0}]}"
  | 1 ->
      (* forward (cyclic) reference at a random distance *)
      let n = 2 + ri 6 in
      let i = ri (n - 1) in
      let ops =
        String.concat ","
          (List.init n (fun j ->
               let target = if j = i then j + 1 + ri (n - j - 1) else max 0 (j - 1) in
               if j = 0 && j <> i then
                 "{\"kind\": \"add\", \"left\": {\"input\": 0}, \"right\": \
                  {\"input\": 0}}"
               else
                 Printf.sprintf
                   "{\"kind\": \"add\", \"left\": {\"op\": %d}, \"right\": \
                    {\"input\": 0}}"
                   target))
      in
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": %d}]}" ops
           (n - 1))
  | 2 ->
      (* out-of-range input / op indices, negative included *)
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 2, \"ops\": [{\"kind\": \"mult\", \"left\": \
            {\"input\": %d}, \"right\": {\"op\": %d}}], \"outputs\": \
            [{\"op\": 0}]}"
           (2 + ri 1000) (-1 - ri 5))
  | 3 ->
      (* over the declared-inputs limit *)
      graph_frame
        (Printf.sprintf
           "{\"inputs\": %d, \"ops\": [{\"kind\": \"add\", \"left\": \
            {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": \
            [{\"op\": 0}]}"
           (P.max_graph_inputs + 1 + ri 3))
  | 4 ->
      (* width mismatch riding a valid graph *)
      Printf.sprintf
        "{\"id\": 1, \"op\": \"flow\", \"params\": {\"width\": %d, \
         \"graph\": {\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"left\": \
         {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": [{\"op\": \
         0}]}}}"
        (List.nth [ 0; -1; P.max_width + 1; 64; 1000 ] (ri 5))
  | 5 ->
      (* duplicate ids inside an op object *)
      graph_frame
        "{\"inputs\": 1, \"ops\": [{\"kind\": \"add\", \"kind\": \"mult\", \
         \"left\": {\"input\": 0}, \"right\": {\"input\": 0}}], \"outputs\": \
         [{\"op\": 0}]}"
  | _ ->
      (* one op over the admission cap (big: ~100 KB of JSON) *)
      let ops =
        String.concat ","
          (List.init (P.max_graph_ops + 1) (fun _ -> "{\"x\": 0}"))
      in
      graph_frame
        (Printf.sprintf
           "{\"inputs\": 1, \"ops\": [%s], \"outputs\": [{\"op\": 0}]}" ops)

let hostile_numeric_frame () =
  match ri 6 with
  | 0 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
         \"alpha\": %s}}"
        (hostile_number ())
  | 1 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"flow\", \"params\": {\"bench\": \"pr\", \
         \"model\": {\"%s\": %s}}}"
        (List.nth
           [ "vdd"; "c_base_f"; "c_fanout_f"; "t_lut_ns"; "t_route_ns";
             "t_seq_ns"; "bogus" ]
           (ri 7))
        (hostile_number ())
  | 2 ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"explore\", \"params\": {\"bench\": \"pr\", \
         \"alphas\": [0.5, %s]}}"
        (hostile_number ())
  | 3 ->
      (* duplicate keys at a random level *)
      List.nth
        [
          "{\"id\": 1, \"op\": \"stats\", \"op\": \"ping\"}";
          "{\"id\": 1, \"id\": 2, \"op\": \"stats\"}";
          "{\"id\": 1, \"op\": \"bind\", \"params\": {\"bench\": \"pr\", \
           \"bench\": \"wang\"}}";
        ]
        (ri 3)
  | 4 ->
      (* nesting bomb around the depth cap *)
      let d = Json.default_max_depth - 4 + ri 16 in
      "{\"id\": 1, \"op\": \"ping\", \"params\": "
      ^ String.concat "" (List.init d (fun _ -> "["))
      ^ "0"
      ^ String.concat "" (List.init d (fun _ -> "]"))
      ^ "}"
  | _ ->
      Printf.sprintf
        "{\"id\": 1, \"op\": \"ping\", \"deadline_ms\": %s}"
        (hostile_number ())

(* --- phase 1: decode fuzz --------------------------------------------- *)

let check_decode ~phase frame =
  match P.decode_request frame with
  | Ok _ -> ()
  | Error e -> check_diagnosed ~phase ~frame e.P.err_diagnostics
  | exception e ->
      fail_case ~phase
        ~what:("decode_request raised " ^ Printexc.to_string e)
        frame

let decode_phase () =
  Printf.eprintf "hlp_fuzz: decode phase, %d cases (seed %d)\n%!" runs seed;
  let ops = Hashtbl.create 16 in
  for case = 1 to runs do
    (match ri 10 with
    | 0 | 1 | 2 ->
        (* valid request: decodes, and round-trips exactly *)
        let req = P.random_request rand in
        Hashtbl.replace ops (P.op_name req.P.op) ();
        let line = P.encode_request req in
        (match P.decode_request line with
        | Ok req' ->
            if req <> req' then
              fail_case ~phase:"decode" ~what:"round trip not identical" line
        | Error e ->
            fail_case ~phase:"decode"
              ~what:
                ("valid request rejected: "
                ^ String.concat "; "
                    (List.map
                       (fun (d : P.Diagnostic.t) -> d.P.Diagnostic.message)
                       e.P.err_diagnostics))
              line
        | exception e ->
            fail_case ~phase:"decode"
              ~what:("decode_request raised " ^ Printexc.to_string e)
              line)
    | 3 | 4 | 5 ->
        (* byte-level mutation of a valid frame *)
        check_decode ~phase:"decode"
          (mutate_bytes (P.encode_request (P.random_request rand)))
    | 6 | 7 ->
        check_decode ~phase:"decode"
          (hostile_graph_frame ~big_ok:(case mod 997 = 0))
    | _ -> check_decode ~phase:"decode" (hostile_numeric_frame ()));
    if case mod 2000 = 0 then
      Printf.eprintf "hlp_fuzz: decode %d/%d (%d failures)\n%!" case runs
        !failures
  done;
  let ops = List.sort compare (List.of_seq (Hashtbl.to_seq_keys ops)) in
  Printf.eprintf "hlp_fuzz: valid requests covered %d ops: %s\n%!"
    (List.length ops) (String.concat ", " ops)

(* --- phase 2: wire fuzz ----------------------------------------------- *)

let rss_bytes () =
  try
    let ic = open_in "/proc/self/statm" in
    let line = input_line ic in
    close_in ic;
    match String.split_on_char ' ' line with
    | _ :: resident :: _ -> int_of_string resident * 4096
    | _ -> 0
  with Sys_error _ | Failure _ | End_of_file -> 0

let strip_newlines s = String.map (fun c -> if c = '\n' then ' ' else c) s

let wire_phase () =
  let wire_runs = max 200 (runs / 5) in
  let socket_path =
    Printf.sprintf "/tmp/hlp_fuzz_%d.sock" (Unix.getpid ())
  in
  (* HLP_JOBS governs the worker count exactly as it does the daemon;
     the issue's contract is "S-coded rejections under HLP_JOBS>1", so
     never run with a single worker. *)
  let workers = max 2 (Hlp_util.Pool.jobs ()) in
  let config =
    {
      Server.default_config with
      Server.socket_path;
      workers;
      queue_capacity = 16;
      max_frame = 4096;
    }
  in
  Printf.eprintf "hlp_fuzz: wire phase, %d cases, %d workers\n%!" wire_runs
    workers;
  let server = Server.create ~config () in
  let runner = Thread.create (fun () -> Server.run server) () in
  let connect () =
    let fd = Client.Addr.dial (Client.Addr.Unix_path socket_path) in
    (fd, P.reader_of_fd fd)
  in
  let nclients = 4 in
  let clients = Array.init nclients (fun _ -> connect ()) in
  let close_client i =
    let fd, _ = clients.(i) in
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let exchange frame ~liveness =
    let i = ri nclients in
    let fd, reader = clients.(i) in
    match
      P.write_frame fd frame;
      P.read_frame reader
    with
    | exception (Unix.Unix_error _ | Sys_error _) ->
        (* The server may legitimately have dropped this connection
           (e.g. after an oversized flood); reconnect and carry on —
           but the *server* dying is caught by the liveness pings. *)
        close_client i;
        clients.(i) <- connect ()
    | `Eof | `Too_large _ ->
        close_client i;
        clients.(i) <- connect ()
    | `Frame reply -> (
        match P.decode_reply reply with
        | Error msg ->
            fail_case ~phase:"wire"
              ~what:("reply does not decode: " ^ msg)
              (frame ^ "\n-> " ^ reply)
        | Ok { P.payload = P.Result _; _ } ->
            if liveness then () (* expected *)
        | Ok { P.payload = P.Error { code; diagnostics; _ }; _ } -> (
            if liveness then
              fail_case ~phase:"wire" ~what:"liveness ping rejected"
                (frame ^ "\n-> " ^ reply)
            else
              match code with
              | P.Internal ->
                  fail_case ~phase:"wire"
                    ~what:"hostile input crashed a worker (internal)"
                    (frame ^ "\n-> " ^ reply)
              | P.Parse_error | P.Unknown_op | P.Bad_request
              | P.Frame_too_large ->
                  check_diagnosed ~phase:"wire" ~frame diagnostics
              | P.Overloaded | P.Deadline_exceeded | P.Draining
              | P.Unavailable ->
                  ()))
  in
  let ping_line =
    P.encode_request { P.id = Json.Int 0; deadline_ms = None; op = P.Ping 0 }
  in
  let rss_mark = ref 0 in
  for case = 1 to wire_runs do
    (match ri 20 with
    | 0 ->
        (* abrupt disconnect mid-exchange: send, never read, vanish *)
        let i = ri nclients in
        let fd, _ = clients.(i) in
        (try P.write_frame fd (strip_newlines (hostile_numeric_frame ()))
         with Unix.Unix_error _ | Sys_error _ -> ());
        close_client i;
        clients.(i) <- connect ()
    | 1 ->
        (* oversized frame: must come back frame_too_large, diagnosed *)
        exchange (String.make (4096 + ri 8192) 'a') ~liveness:false
    | 2 | 3 | 4 | 5 ->
        exchange
          (strip_newlines
             (mutate_bytes (P.encode_request (P.random_request rand))))
          ~liveness:false
    | 6 | 7 | 8 ->
        exchange (strip_newlines (hostile_graph_frame ~big_ok:false))
          ~liveness:false
    | 9 | 10 | 11 ->
        exchange (strip_newlines (hostile_numeric_frame ())) ~liveness:false
    | _ ->
        (* cheap valid requests keep real work flowing through the
           worker domains between the hostile ones *)
        exchange ping_line ~liveness:true);
    if case mod 100 = 0 then exchange ping_line ~liveness:true;
    if case = wire_runs / 10 then begin
      Gc.compact ();
      rss_mark := rss_bytes ()
    end;
    if case mod 1000 = 0 then
      Printf.eprintf "hlp_fuzz: wire %d/%d (%d failures)\n%!" case wire_runs
        !failures
  done;
  Gc.compact ();
  let rss_end = rss_bytes () in
  if !rss_mark > 0 && rss_end - !rss_mark > 128 * 1024 * 1024 then
    fail_case ~phase:"wire"
      ~what:
        (Printf.sprintf "RSS grew %d MiB during the wire phase"
           ((rss_end - !rss_mark) / 1024 / 1024))
      "(memory bound)";
  Array.iteri (fun i _ -> close_client i) clients;
  Server.shutdown server;
  Thread.join runner;
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ())

let () =
  decode_phase ();
  wire_phase ();
  if !failures > 0 then begin
    Printf.eprintf
      "hlp_fuzz: %d FAILURES (seed %d, corpus in %s)\n%!" !failures seed
      corpus_dir;
    exit 1
  end
  else Printf.eprintf "hlp_fuzz: all cases passed (seed %d)\n%!" seed
