module Diagnostic = Hlp_lint.Diagnostic
module Cdfg = Hlp_cdfg.Cdfg
module Sim = Hlp_rtl.Sim
module Power = Hlp_rtl.Power

type bind_params = {
  bench : string;
  binder : string;
  alpha : float;
  width : int;
  vectors : int;
  port_assign : bool;
  engine : string;
  estimator : string;
  graph : Cdfg.t option;
  model : Power.model option;
}

(* Defaults mirror the CLI bind command's option defaults. *)
let default_bind_params =
  {
    bench = "";
    binder = "hlpower";
    alpha = 0.5;
    width = 8;
    vectors = 100;
    port_assign = false;
    engine = "auto";
    estimator = "sim";
    graph = None;
    model = None;
  }

(* A float parameter the pipeline can actually compute with.  JSON
   cannot spell NaN, but it can spell [1e999] (parses to infinity) and
   [5e-324] (a subnormal whose reciprocal overflows) — both poison any
   downstream 1/x or accumulation, so they are rejected at the parse
   boundary rather than deep in the estimator. *)
let usable_number f =
  Float.is_finite f && Float.classify_float f <> Float.FP_subnormal

(* Inline-graph admission limits, enforced before any per-element
   validation so an oversized request costs O(1) work past the size
   check itself.  The caps are far above every committed benchmark
   (honda, the largest, has 105 ops) yet small enough that the worst
   admitted graph schedules and binds in well under a deadline. *)
let max_graph_ops = 4096
let max_graph_inputs = 256
let max_graph_outputs = 256
let max_width = 30

type explore_params = {
  ex_bench : string;
  ex_width : int;
  ex_vectors : int;
  ex_adds : int list;
  ex_mults : int list;
  ex_alphas : float list;
}

(* Grid defaults mirror Hlp_hls.Explore.default_config; width/vectors
   mirror the CLI explore command. *)
let default_explore_params =
  {
    ex_bench = "";
    ex_width = 8;
    ex_vectors = 100;
    ex_adds = [ 1; 2; 4 ];
    ex_mults = [ 1; 2; 4 ];
    ex_alphas = [ 1.0; 0.5 ];
  }

type lint_params = {
  lint_bench : string option;
  lint_binder : string;
  lint_width : int;
}

let default_lint_params =
  { lint_bench = None; lint_binder = "both"; lint_width = 8 }

(* Session ids are short server-generated tokens; the length cap keeps a
   hostile client from using the echo as a storage amplifier. *)
let max_session_id_len = 64

(* The SA table's LUT arity is caller-visible for sessions (K<2 cannot
   map the calibration datapath — the reachable S016 case); the ceiling
   matches the largest LUT any supported device family offers. *)
let max_session_k = 8

type session_delta =
  | D_add_op of {
      d_kind : Cdfg.op_kind;
      d_left : Cdfg.operand;
      d_right : Cdfg.operand;
      d_output : bool;
    }
  | D_remove_op of int
  | D_set_resource of Cdfg.fu_class * int
  | D_set_alpha of float

type session_open_params = {
  so_bench : string;
  so_graph : Cdfg.t option;
  so_binder : string;
  so_alpha : float;
  so_width : int;
  so_k : int;
  so_res_add : int option;
  so_res_mult : int option;
}

let default_session_open_params =
  {
    so_bench = "";
    so_graph = None;
    so_binder = "hlpower";
    so_alpha = 0.5;
    so_width = 8;
    so_k = 4;
    so_res_add = None;
    so_res_mult = None;
  }

type session_edit_params = { se_session : string; se_delta : session_delta }
type session_close_params = { sc_session : string }

type op =
  | Ping of int
  | Bind of bind_params
  | Flow of bind_params
  | Explore of explore_params
  | Lint of lint_params
  | Session_open of session_open_params
  | Session_edit of session_edit_params
  | Session_close of session_close_params
  | Stats
  | Cluster_stats

let op_name = function
  | Ping _ -> "ping"
  | Bind _ -> "bind"
  | Flow _ -> "flow"
  | Explore _ -> "explore"
  | Lint _ -> "lint"
  | Session_open _ -> "session_open"
  | Session_edit _ -> "session_edit"
  | Session_close _ -> "session_close"
  | Stats -> "stats"
  | Cluster_stats -> "cluster_stats"

type request = { id : Json.t; deadline_ms : int option; op : op }

type error_code =
  | Parse_error
  | Unknown_op
  | Bad_request
  | Frame_too_large
  | Overloaded
  | Deadline_exceeded
  | Draining
  | Unavailable
  | Internal

let error_code_to_string = function
  | Parse_error -> "parse_error"
  | Unknown_op -> "unknown_op"
  | Bad_request -> "bad_request"
  | Frame_too_large -> "frame_too_large"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Draining -> "draining"
  | Unavailable -> "unavailable"
  | Internal -> "internal"

let error_code_of_string = function
  | "parse_error" -> Some Parse_error
  | "unknown_op" -> Some Unknown_op
  | "bad_request" -> Some Bad_request
  | "frame_too_large" -> Some Frame_too_large
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "draining" -> Some Draining
  | "unavailable" -> Some Unavailable
  | "internal" -> Some Internal
  | _ -> None

type payload =
  | Result of {
      op : string;
      result : Json.t;
      telemetry : (string * int) list;
      elapsed_ms : float;
    }
  | Error of {
      code : error_code;
      message : string;
      diagnostics : Diagnostic.t list;
    }

type reply = { reply_id : Json.t; payload : payload }

let error_reply ?(diagnostics = []) ~id code fmt =
  Printf.ksprintf
    (fun message ->
      { reply_id = id; payload = Error { code; message; diagnostics } })
    fmt

(* --- encoding --- *)

let json_of_loc : Diagnostic.loc -> Json.t = function
  | Op i -> Obj [ ("kind", String "op"); ("index", Int i) ]
  | Fu i -> Obj [ ("kind", String "fu"); ("index", Int i) ]
  | Reg i -> Obj [ ("kind", String "reg"); ("index", Int i) ]
  | Step i -> Obj [ ("kind", String "step"); ("index", Int i) ]
  | Node i -> Obj [ ("kind", String "node"); ("index", Int i) ]
  | Net s -> Obj [ ("kind", String "net"); ("name", String s) ]
  | Line i -> Obj [ ("kind", String "line"); ("index", Int i) ]
  | Design -> Obj [ ("kind", String "design") ]

let json_of_diagnostic (d : Diagnostic.t) : Json.t =
  Obj
    [
      ("code", String d.code);
      ( "severity",
        String
          (match d.severity with Error -> "error" | Warning -> "warning") );
      ("loc", json_of_loc d.loc);
      ("message", String d.message);
    ]

let json_of_operand : Cdfg.operand -> Json.t = function
  | Cdfg.Input k -> Obj [ ("input", Int k) ]
  | Cdfg.Op j -> Obj [ ("op", Int j) ]

let json_of_graph (g : Cdfg.t) : Json.t =
  Obj
    [
      ("name", String (Cdfg.name g));
      ("inputs", Int (Cdfg.num_inputs g));
      ( "ops",
        List
          (Array.to_list
             (Array.map
                (fun (o : Cdfg.op) ->
                  Json.Obj
                    [
                      ("kind", Json.String (Cdfg.kind_to_string o.kind));
                      ("left", json_of_operand o.left);
                      ("right", json_of_operand o.right);
                    ])
                (Cdfg.ops g))) );
      ("outputs", List (List.map json_of_operand (Cdfg.outputs g)));
    ]

let json_of_model (m : Power.model) : Json.t =
  Obj
    [
      ("vdd", Float m.vdd);
      ("c_base_f", Float m.c_base_f);
      ("c_fanout_f", Float m.c_fanout_f);
      ("t_lut_ns", Float m.t_lut_ns);
      ("t_route_ns", Float m.t_route_ns);
      ("t_seq_ns", Float m.t_seq_ns);
    ]

let json_of_bind_params p : Json.t =
  Json.Obj
    ([
       ("bench", Json.String p.bench);
       ("binder", Json.String p.binder);
       ("alpha", Json.Float p.alpha);
       ("width", Json.Int p.width);
       ("vectors", Json.Int p.vectors);
       ("port_assign", Json.Bool p.port_assign);
       ("engine", Json.String p.engine);
       ("estimator", Json.String p.estimator);
     ]
    @ (match p.graph with
      | None -> []
      | Some g -> [ ("graph", json_of_graph g) ])
    @
    match p.model with
    | None -> []
    | Some m -> [ ("model", json_of_model m) ])

let json_of_delta : session_delta -> Json.t = function
  | D_add_op { d_kind; d_left; d_right; d_output } ->
      Obj
        [
          ("kind", String "add_op");
          ("op_kind", String (Cdfg.kind_to_string d_kind));
          ("left", json_of_operand d_left);
          ("right", json_of_operand d_right);
          ("output", Bool d_output);
        ]
  | D_remove_op id -> Obj [ ("kind", String "remove_op"); ("id", Int id) ]
  | D_set_resource (cls, n) ->
      Obj
        [
          ("kind", String "set_resource");
          ("class", String (Cdfg.class_to_string cls));
          ("units", Int n);
        ]
  | D_set_alpha a -> Obj [ ("kind", String "set_alpha"); ("alpha", Float a) ]

let json_of_session_open_params p : Json.t =
  Json.Obj
    ([
       ("bench", Json.String p.so_bench);
       ("binder", Json.String p.so_binder);
       ("alpha", Json.Float p.so_alpha);
       ("width", Json.Int p.so_width);
       ("k", Json.Int p.so_k);
     ]
    @ (match p.so_graph with
      | None -> []
      | Some g -> [ ("graph", json_of_graph g) ])
    @
    match (p.so_res_add, p.so_res_mult) with
    | None, None -> []
    | a, m ->
        let f name = function
          | None -> []
          | Some n -> [ (name, Json.Int n) ]
        in
        [ ("resources", Json.Obj (f "add" a @ f "mult" m)) ])

let json_of_op op : (string * Json.t) list =
  let params : Json.t option =
    match op with
    | Ping ms -> Some (Obj [ ("sleep_ms", Int ms) ])
    | Bind p | Flow p -> Some (json_of_bind_params p)
    | Session_open p -> Some (json_of_session_open_params p)
    | Session_edit p ->
        Some
          (Obj
             [
               ("session", String p.se_session);
               ("delta", json_of_delta p.se_delta);
             ])
    | Session_close p -> Some (Obj [ ("session", String p.sc_session) ])
    | Explore p ->
        Some
          (Obj
             [
               ("bench", String p.ex_bench);
               ("width", Int p.ex_width);
               ("vectors", Int p.ex_vectors);
               ("adds", List (List.map (fun i -> Json.Int i) p.ex_adds));
               ("mults", List (List.map (fun i -> Json.Int i) p.ex_mults));
               ("alphas", List (List.map (fun a -> Json.Float a) p.ex_alphas));
             ])
    | Lint p ->
        Some
          (Obj
             [
               ( "bench",
                 match p.lint_bench with None -> Null | Some b -> String b );
               ("binder", String p.lint_binder);
               ("width", Int p.lint_width);
             ])
    | Stats | Cluster_stats -> None
  in
  ("op", Json.String (op_name op))
  :: (match params with None -> [] | Some p -> [ ("params", p) ])

let encode_request r =
  Json.to_string
    (Obj
       ((match r.id with Json.Null -> [] | id -> [ ("id", id) ])
       @ (match r.deadline_ms with
         | None -> []
         | Some ms -> [ ("deadline_ms", Json.Int ms) ])
       @ json_of_op r.op))

let encode_reply r =
  let fields =
    match r.payload with
    | Result { op; result; telemetry; elapsed_ms } ->
        [
          ("status", Json.String "ok");
          ("op", Json.String op);
          ("result", result);
          ( "telemetry",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) telemetry) );
          ("elapsed_ms", Json.Float elapsed_ms);
        ]
    | Error { code; message; diagnostics } ->
        [
          ("status", Json.String "error");
          ( "error",
            Json.Obj
              [
                ("code", Json.String (error_code_to_string code));
                ("message", Json.String message);
                ( "diagnostics",
                  Json.List (List.map json_of_diagnostic diagnostics) );
              ] );
        ]
  in
  Json.to_string
    (Obj
       ((match r.reply_id with Json.Null -> [] | id -> [ ("id", id) ])
       @ fields))

(* --- decoding --- *)

(* Request validation collects one S00x diagnostic per offense instead
   of dying on the first, mirroring how the lint subsystem reports. *)

let excerpt line =
  if String.length line <= 120 then line else String.sub line 0 117 ^ "..."

type decode_error = {
  err_code : error_code;
  err_id : Json.t;
  err_diagnostics : Diagnostic.t list;
}

(* Inline-graph admission.  An untrusted graph is validated in three
   strictly ordered stages so that hostile input never reaches CDFG
   construction: (1) size limits against the raw JSON (S007) — an
   over-limit graph is rejected before any per-element work; (2)
   per-element shape and reference checks (S003 for malformed elements,
   S008 for self/forward/cyclic references and out-of-range indices,
   each located at the offending op); (3) [Cdfg.create], whose
   [Invalid_argument] is caught as a final S008 backstop.  Cycles are
   detected for free: ops are identified by list position and an operand
   may only name a {e smaller} op id, so any cycle necessarily contains
   a forward or self reference. *)
let decode_graph ~add v =
  let ok = ref true in
  let bad code loc fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        add (Diagnostic.error code loc "%s" m))
      fmt
  in
  match v with
  | Json.Obj _ -> (
      let name =
        match Option.bind (Json.member "name" v) Json.to_string_opt with
        | Some n when n <> "" -> n
        | _ -> "inline"
      in
      let num_inputs =
        match Option.bind (Json.member "inputs" v) Json.to_int with
        | Some n when n >= 0 && n <= max_graph_inputs -> n
        | Some n when n > max_graph_inputs ->
            bad "S007" Design
              "inline graph declares %d inputs; the limit is %d" n
              max_graph_inputs;
            0
        | Some _ ->
            bad "S003" Design "graph field \"inputs\" must be non-negative";
            0
        | None ->
            bad "S003" Design
              "graph field \"inputs\" must be a non-negative integer";
            0
      in
      let ops_json =
        match Option.bind (Json.member "ops" v) Json.to_list with
        | Some l -> l
        | None ->
            bad "S003" Design "graph field \"ops\" must be a list";
            []
      in
      let outs_json =
        match Option.bind (Json.member "outputs" v) Json.to_list with
        | Some l -> l
        | None ->
            bad "S003" Design "graph field \"outputs\" must be a list";
            []
      in
      let num_ops = List.length ops_json in
      if num_ops > max_graph_ops then
        bad "S007" Design "inline graph has %d ops; the limit is %d" num_ops
          max_graph_ops;
      if List.length outs_json > max_graph_outputs then
        bad "S007" Design "inline graph has %d outputs; the limit is %d"
          (List.length outs_json) max_graph_outputs;
      if !ok && num_ops = 0 then
        bad "S003" Design "inline graph must contain at least one op";
      if !ok && outs_json = [] then
        bad "S003" Design "inline graph must name at least one output";
      if not !ok then None
      else begin
        (* [bound] is the number of ops an operand may reference: the
           op's own index while decoding ops (no self/forward edges),
           [num_ops] for primary outputs. *)
        let operand ~loc ~bound ov =
          match (Json.member "input" ov, Json.member "op" ov) with
          | Some iv, None -> (
              match Json.to_int iv with
              | Some k when k >= 0 && k < num_inputs -> Some (Cdfg.Input k)
              | Some k ->
                  bad "S008" loc
                    "operand reads input %d, but the graph declares %d \
                     inputs"
                    k num_inputs;
                  None
              | None ->
                  bad "S003" loc "operand field \"input\" must be an integer";
                  None)
          | None, Some jv -> (
              match Json.to_int jv with
              | Some j when j >= 0 && j < bound -> Some (Cdfg.Op j)
              | Some j when j >= bound && j < num_ops ->
                  bad "S008" loc
                    "operand reads op %d before it is defined — ops must \
                     be in dependency order, so cyclic graphs are \
                     rejected here"
                    j;
                  None
              | Some j ->
                  bad "S008" loc
                    "operand reads op %d, but the graph has %d ops" j
                    num_ops;
                  None
              | None ->
                  bad "S003" loc "operand field \"op\" must be an integer";
                  None)
          | _ ->
              bad "S003" loc
                "operand must be exactly one of {\"input\": k} or {\"op\": \
                 j}";
              None
        in
        let ops =
          List.mapi
            (fun i ov ->
              let loc = Diagnostic.Op i in
              let kind =
                match
                  Option.bind (Json.member "kind" ov) Json.to_string_opt
                with
                | Some "add" -> Some Cdfg.Add
                | Some "sub" -> Some Cdfg.Sub
                | Some "mult" -> Some Cdfg.Mult
                | Some other ->
                    bad "S003" loc
                      "op kind %S is not \"add\", \"sub\" or \"mult\"" other;
                    None
                | None ->
                    bad "S003" loc "op is missing a string \"kind\" field";
                    None
              in
              let field name =
                match Json.member name ov with
                | Some (Json.Obj _ as o) -> operand ~loc ~bound:i o
                | _ ->
                    bad "S003" loc "op is missing operand object %S" name;
                    None
              in
              match (kind, field "left", field "right") with
              | Some kind, Some left, Some right ->
                  Some { Cdfg.id = i; kind; left; right }
              | _ -> None)
            ops_json
        in
        let outputs =
          List.map
            (fun ov ->
              match ov with
              | Json.Obj _ -> operand ~loc:Design ~bound:num_ops ov
              | _ ->
                  bad "S003" Design
                    "graph output must be an operand object";
                  None)
            outs_json
        in
        if not !ok then None
        else
          let ops = List.filter_map Fun.id ops in
          let outputs = List.filter_map Fun.id outputs in
          match Cdfg.create ~name ~num_inputs ~ops ~outputs with
          | cdfg -> Some cdfg
          | exception Invalid_argument msg ->
              bad "S008" Design "%s" msg;
              None
      end)
  | _ ->
      bad "S003" Design "parameter \"graph\" must be an object";
      None

(* Power-model override admission.  Every field is a physical constant
   the estimator divides by or accumulates over millions of events, so
   a hostile value (NaN via 1e999-0-style tricks is unspellable in
   JSON, but infinity, subnormals and non-positive capacitances are
   not) must die here, not as a NaN power figure three layers down.
   [vdd] and [c_base_f] must be strictly positive (both are divisors /
   sole factors); per-unit adders may be zero but not negative.

   Each field also has a generous physical ceiling: a *finite* 1e308
   volt supply passes every NaN/infinity test yet overflows vdd^2
   downstream into an [inf] that the report printer would emit as
   unparseable JSON (found by hlp_fuzz).  The caps are orders of
   magnitude above any real silicon (100 V supply, 1 mF per net, 1 s
   per LUT level), so they bound every downstream product without
   constraining legitimate calibration. *)
let model_fields =
  [
    ("vdd", (`Positive, 100.));
    ("c_base_f", (`Positive, 1e-3));
    ("c_fanout_f", (`Non_negative, 1e-3));
    ("t_lut_ns", (`Non_negative, 1e9));
    ("t_route_ns", (`Non_negative, 1e9));
    ("t_seq_ns", (`Non_negative, 1e9));
  ]

let decode_model ~add v =
  match v with
  | Json.Obj kvs ->
      let ok = ref true in
      let bad code fmt =
        Printf.ksprintf
          (fun m ->
            ok := false;
            add (Diagnostic.error code Diagnostic.Design "%s" m))
          fmt
      in
      List.iter
        (fun (k, _) ->
          if not (List.mem_assoc k model_fields) then
            bad "S003" "unknown model field %S" k)
        kvs;
      let field name current =
        let kind, ceiling = List.assoc name model_fields in
        match Json.member name v with
        | None | Some Json.Null -> current
        | Some jv -> (
            match Json.to_float jv with
            | None ->
                bad "S003" "model field %S must be a number" name;
                current
            | Some f ->
                if not (usable_number f) then (
                  bad "S011"
                    "model field %S is not a usable number (infinite, NaN \
                     or subnormal): %s"
                    name (Json.to_string jv);
                  current)
                else if kind = `Positive && f <= 0. then (
                  bad "S011" "model field %S must be strictly positive" name;
                  current)
                else if f < 0. then (
                  bad "S011" "model field %S must be non-negative" name;
                  current)
                else if f > ceiling then (
                  bad "S011"
                    "model field %S is out of physical range (max %g)" name
                    ceiling;
                  current)
                else f)
      in
      let d = Power.default_model in
      let m =
        {
          Power.vdd = field "vdd" d.Power.vdd;
          c_base_f = field "c_base_f" d.Power.c_base_f;
          c_fanout_f = field "c_fanout_f" d.Power.c_fanout_f;
          t_lut_ns = field "t_lut_ns" d.Power.t_lut_ns;
          t_route_ns = field "t_route_ns" d.Power.t_route_ns;
          t_seq_ns = field "t_seq_ns" d.Power.t_seq_ns;
        }
      in
      if !ok then Some m else None
  | _ ->
      add
        (Diagnostic.error "S003" Diagnostic.Design
           "parameter \"model\" must be an object");
      None

(* [Json.member] silently returns the first binding of a duplicated
   key, so {"alpha":0.1,"alpha":99} would validate one value and — were
   a different reader to pick the last binding — execute another.
   Reject the ambiguity outright, everywhere in the frame. *)
let rec check_duplicate_keys ~add path (v : Json.t) =
  match v with
  | Json.Obj kvs ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (k, v') ->
          if Hashtbl.mem seen k then
            add
              (Diagnostic.error "S010" Diagnostic.Design
                 "duplicate key %S in %s" k path)
          else Hashtbl.add seen k ();
          check_duplicate_keys ~add (path ^ "." ^ k) v')
        kvs
  | Json.List vs ->
      List.iteri
        (fun i v' ->
          check_duplicate_keys ~add (Printf.sprintf "%s[%d]" path i) v')
        vs
  | _ -> ()

let decode_request line =
  match Json.parse line with
  | Error (pos, msg) ->
      (* Exhausting the parser's nesting budget is a resource-limit
         rejection (S012), not a syntax error: the frame may be
         perfectly well-formed JSON, just hostile to a recursive
         reader. *)
      let code = if Json.is_depth_error msg then "S012" else "S001" in
      Stdlib.Error
        {
          err_code = Parse_error;
          err_id = Json.Null;
          err_diagnostics =
            [
              Diagnostic.error code (Line 1)
                "malformed frame (byte %d: %s): %s" pos msg (excerpt line);
            ];
        }
  | Ok ((Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
        | Json.String _ | Json.List _ | Json.Raw _) as json) ->
      Stdlib.Error
        {
          err_code = Parse_error;
          err_id = Json.Null;
          err_diagnostics =
            [
              Diagnostic.error "S001" (Line 1)
                "frame is not a JSON object: %s"
                (excerpt (Json.to_string json));
            ];
        }
  | Ok (Json.Obj _ as json) -> (
      let problems = ref [] in
      let add_problem diag = problems := diag :: !problems in
      let problem fmt =
        Printf.ksprintf
          (fun m ->
            problems :=
              Diagnostic.error "S003" Design "%s" m :: !problems)
          fmt
      in
      check_duplicate_keys ~add:add_problem "request" json;
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let params =
        Option.value ~default:(Json.Obj []) (Json.member "params" json)
      in
      let field name conv ~default =
        match Json.member name params with
        | None | Some Json.Null -> default
        | Some v -> (
            match conv v with
            | Some v -> v
            | None ->
                problem "parameter %S has an invalid value: %s" name
                  (Json.to_string v);
                default)
      in
      let pos_int name ~default =
        let v = field name Json.to_int ~default in
        if v > 0 then v
        else (
          problem "parameter %S must be positive" name;
          default)
      in
      let check_alpha a =
        if not (usable_number a) then
          add_problem
            (Diagnostic.error "S009" Design
               "parameter \"alpha\" is not a usable number (infinite, NaN \
                or subnormal)")
        else if not (a >= 0. && a <= 1.) then
          problem "parameter \"alpha\" must be within [0, 1]"
      in
      (* Whether a "graph" was given, and its decoding ([None] when
         absent or invalid). *)
      let graph_param () =
        match Json.member "graph" params with
        | None | Some Json.Null -> (false, None)
        | Some v -> (true, decode_graph ~add:add_problem v)
      in
      (* The checks [bind]/[flow] and [session_open] share, in this
         order: bench/graph exclusivity, binder, alpha, width cap. *)
      let check_design ~graph_given ~bench ~binder ~alpha ~width =
        if graph_given then begin
          if bench <> "" then
            problem
              "parameters \"bench\" and \"graph\" are mutually exclusive"
        end
        else if bench = "" then
          problem "parameter \"bench\" or \"graph\" is required";
        if not (binder = "hlpower" || binder = "lopass") then
          problem "parameter \"binder\" must be \"hlpower\" or \"lopass\"";
        check_alpha alpha;
        if width > max_width then
          problem "parameter \"width\" must be within 1..%d (got %d)"
            max_width width
      in
      let bind_params () =
        let d = default_bind_params in
        let graph_given, graph = graph_param () in
        let model =
          match Json.member "model" params with
          | None | Some Json.Null -> None
          | Some v -> decode_model ~add:add_problem v
        in
        let engine =
          let s = field "engine" Json.to_string_opt ~default:d.engine in
          match Sim.engine_of_string s with
          | Some e -> Sim.engine_name e
          | None ->
              problem
                "parameter \"engine\" must be \"auto\", \"scalar\" or \
                 \"parallel\"";
              d.engine
        in
        let estimator =
          let s = field "estimator" Json.to_string_opt ~default:d.estimator in
          match Hlp_rtl.Power.estimator_of_string s with
          | Some e -> Hlp_rtl.Power.estimator_name e
          | None ->
              problem
                "parameter \"estimator\" must be \"sim\", \"static\" or \
                 \"both\"";
              d.estimator
        in
        let p =
          {
            bench = field "bench" Json.to_string_opt ~default:d.bench;
            binder = field "binder" Json.to_string_opt ~default:d.binder;
            alpha = field "alpha" Json.to_float ~default:d.alpha;
            width = pos_int "width" ~default:d.width;
            vectors = pos_int "vectors" ~default:d.vectors;
            port_assign = field "port_assign" Json.to_bool ~default:false;
            engine;
            estimator;
            graph;
            model;
          }
        in
        check_design ~graph_given ~bench:p.bench ~binder:p.binder
          ~alpha:p.alpha ~width:p.width;
        p
      in
      let int_list name ~default =
        field name
          (fun v ->
            Option.bind (Json.to_list v) (fun vs ->
                let is = List.filter_map Json.to_int vs in
                if List.length is = List.length vs && is <> [] then Some is
                else None))
          ~default
      in
      let session_id () =
        let s = field "session" Json.to_string_opt ~default:"" in
        if s = "" then problem "parameter \"session\" is required"
        else if String.length s > max_session_id_len then
          problem "parameter \"session\" exceeds %d characters"
            max_session_id_len;
        s
      in
      let session_open_params () =
        let d = default_session_open_params in
        let graph_given, graph = graph_param () in
        let res_add, res_mult =
          match Json.member "resources" params with
          | None | Some Json.Null -> (None, None)
          | Some (Json.Obj kvs as r) ->
              List.iter
                (fun (k, _) ->
                  if k <> "add" && k <> "mult" then
                    problem "unknown resources field %S" k)
                kvs;
              let f name =
                match Json.member name r with
                | None | Some Json.Null -> None
                | Some v -> (
                    match Json.to_int v with
                    | Some n when n >= 1 -> Some n
                    | _ ->
                        problem
                          "resources field %S must be a positive integer"
                          name;
                        None)
              in
              (f "add", f "mult")
          | Some _ ->
              problem "parameter \"resources\" must be an object";
              (None, None)
        in
        let p =
          {
            so_bench = field "bench" Json.to_string_opt ~default:d.so_bench;
            so_binder =
              field "binder" Json.to_string_opt ~default:d.so_binder;
            so_alpha = field "alpha" Json.to_float ~default:d.so_alpha;
            so_width = pos_int "width" ~default:d.so_width;
            so_k = pos_int "k" ~default:d.so_k;
            so_graph = graph;
            so_res_add = res_add;
            so_res_mult = res_mult;
          }
        in
        check_design ~graph_given ~bench:p.so_bench ~binder:p.so_binder
          ~alpha:p.so_alpha ~width:p.so_width;
        if p.so_k > max_session_k then
          problem "parameter \"k\" must be within 1..%d (got %d)"
            max_session_k p.so_k;
        p
      in
      (* Delta shapes are validated here; references are checked against
         the session's current graph by the router (S014), which this
         decoder cannot see. *)
      let session_delta () =
        match Json.member "delta" params with
        | None | Some Json.Null ->
            problem "parameter \"delta\" is required";
            None
        | Some (Json.Obj _ as dv) -> (
            let operand name =
              match Json.member name dv with
              | Some (Json.Obj _ as ov) -> (
                  match (Json.member "input" ov, Json.member "op" ov) with
                  | Some iv, None -> (
                      match Json.to_int iv with
                      | Some k when k >= 0 -> Some (Cdfg.Input k)
                      | _ ->
                          problem
                            "delta operand field \"input\" must be a \
                             non-negative integer";
                          None)
                  | None, Some jv -> (
                      match Json.to_int jv with
                      | Some j when j >= 0 -> Some (Cdfg.Op j)
                      | _ ->
                          problem
                            "delta operand field \"op\" must be a \
                             non-negative integer";
                          None)
                  | _ ->
                      problem
                        "delta operand must be exactly one of {\"input\": \
                         k} or {\"op\": j}";
                      None)
              | _ ->
                  problem "add_op delta is missing operand object %S" name;
                  None
            in
            match Option.bind (Json.member "kind" dv) Json.to_string_opt with
            | Some "add_op" -> (
                let kind =
                  match
                    Option.bind (Json.member "op_kind" dv) Json.to_string_opt
                  with
                  | Some "add" -> Some Cdfg.Add
                  | Some "sub" -> Some Cdfg.Sub
                  | Some "mult" -> Some Cdfg.Mult
                  | Some other ->
                      problem
                        "delta op_kind %S is not \"add\", \"sub\" or \
                         \"mult\""
                        other;
                      None
                  | None ->
                      problem
                        "add_op delta is missing a string \"op_kind\" field";
                      None
                in
                let output =
                  match Json.member "output" dv with
                  | None | Some Json.Null -> false
                  | Some v -> (
                      match Json.to_bool v with
                      | Some b -> b
                      | None ->
                          problem
                            "delta field \"output\" must be a boolean";
                          false)
                in
                match (kind, operand "left", operand "right") with
                | Some k, Some l, Some r ->
                    Some
                      (D_add_op
                         {
                           d_kind = k;
                           d_left = l;
                           d_right = r;
                           d_output = output;
                         })
                | _ -> None)
            | Some "remove_op" -> (
                match Option.bind (Json.member "id" dv) Json.to_int with
                | Some id when id >= 0 -> Some (D_remove_op id)
                | _ ->
                    problem
                      "remove_op delta requires a non-negative integer \
                       \"id\"";
                    None)
            | Some "set_resource" -> (
                let cls =
                  match
                    Option.bind (Json.member "class" dv) Json.to_string_opt
                  with
                  | Some "add" -> Some Cdfg.Add_sub
                  | Some "mult" -> Some Cdfg.Multiplier
                  | _ ->
                      problem
                        "set_resource delta requires \"class\" of \"add\" \
                         or \"mult\"";
                      None
                in
                match (cls, Option.bind (Json.member "units" dv) Json.to_int)
                with
                | Some c, Some n when n >= 1 -> Some (D_set_resource (c, n))
                | Some _, _ ->
                    problem
                      "set_resource delta requires a positive integer \
                       \"units\"";
                    None
                | None, _ -> None)
            | Some "set_alpha" -> (
                match Option.bind (Json.member "alpha" dv) Json.to_float with
                | Some a when usable_number a && a >= 0. && a <= 1. ->
                    Some (D_set_alpha a)
                | Some a when not (usable_number a) ->
                    add_problem
                      (Diagnostic.error "S009" Design
                         "delta field \"alpha\" is not a usable number \
                          (infinite, NaN or subnormal)");
                    None
                | _ ->
                    problem
                      "set_alpha delta requires \"alpha\" within [0, 1]";
                    None)
            | Some other ->
                problem "unknown delta kind %S" other;
                None
            | None ->
                problem "delta is missing a string \"kind\" field";
                None)
        | Some _ ->
            problem "parameter \"delta\" must be an object";
            None
      in
      let op =
        match Json.member "op" json with
        | Some (Json.String "ping") ->
            Some (Ping (max 0 (field "sleep_ms" Json.to_int ~default:0)))
        | Some (Json.String "bind") -> Some (Bind (bind_params ()))
        | Some (Json.String "flow") -> Some (Flow (bind_params ()))
        | Some (Json.String "explore") ->
            let d = default_explore_params in
            let p =
              {
                ex_bench = field "bench" Json.to_string_opt ~default:"";
                ex_width = pos_int "width" ~default:d.ex_width;
                ex_vectors = pos_int "vectors" ~default:d.ex_vectors;
                ex_adds = int_list "adds" ~default:d.ex_adds;
                ex_mults = int_list "mults" ~default:d.ex_mults;
                ex_alphas =
                  field "alphas"
                    (fun v ->
                      Option.bind (Json.to_list v) (fun vs ->
                          let fs = List.filter_map Json.to_float vs in
                          if List.length fs = List.length vs && fs <> []
                          then Some fs
                          else None))
                    ~default:d.ex_alphas;
              }
            in
            if p.ex_bench = "" then problem "parameter \"bench\" is required";
            List.iter
              (fun a ->
                if not (usable_number a) then
                  add_problem
                    (Diagnostic.error "S009" Design
                       "parameter \"alphas\" contains a value that is not a \
                        usable number (infinite, NaN or subnormal)"))
              p.ex_alphas;
            Some (Explore p)
        | Some (Json.String "lint") ->
            let d = default_lint_params in
            let p =
              {
                lint_bench =
                  field "bench"
                    (fun v -> Option.map Option.some (Json.to_string_opt v))
                    ~default:None;
                lint_binder =
                  field "binder" Json.to_string_opt ~default:d.lint_binder;
                lint_width = pos_int "width" ~default:d.lint_width;
              }
            in
            if
              not
                (List.mem p.lint_binder [ "hlpower"; "lopass"; "both" ])
            then
              problem
                "parameter \"binder\" must be \"hlpower\", \"lopass\" or \
                 \"both\"";
            Some (Lint p)
        | Some (Json.String "session_open") ->
            Some (Session_open (session_open_params ()))
        | Some (Json.String "session_edit") ->
            let se_session = session_id () in
            let se_delta =
              (* [None] always comes with a recorded problem, so the
                 placeholder below never survives to execution — the
                 request is rejected as [Bad_request]. *)
              Option.value ~default:(D_remove_op 0) (session_delta ())
            in
            Some (Session_edit { se_session; se_delta })
        | Some (Json.String "session_close") ->
            Some (Session_close { sc_session = session_id () })
        | Some (Json.String "stats") -> Some Stats
        | Some (Json.String "cluster_stats") -> Some Cluster_stats
        | Some (Json.String other) ->
            problems :=
              [ Diagnostic.error "S002" Design "unknown op %S" other ];
            None
        | Some _ | None ->
            problems :=
              [
                Diagnostic.error "S002" Design
                  "missing or non-string \"op\" field";
              ];
            None
      in
      let deadline_ms =
        match Json.member "deadline_ms" json with
        | None | Some Json.Null -> None
        | Some v -> (
            match Json.to_int v with
            | Some ms when ms >= 0 -> Some ms
            | _ ->
                problem "field \"deadline_ms\" must be a non-negative integer";
                None)
      in
      match (op, !problems) with
      | Some op, [] -> Ok { id; deadline_ms; op }
      | None, ds ->
          Stdlib.Error
            {
              err_code = Unknown_op;
              err_id = id;
              err_diagnostics = List.rev ds;
            }
      | Some _, ds ->
          Stdlib.Error
            {
              err_code = Bad_request;
              err_id = id;
              err_diagnostics = List.rev ds;
            })

let loc_of_json (v : Json.t) : Diagnostic.loc option =
  let index () = Option.bind (Json.member "index" v) Json.to_int in
  match Option.bind (Json.member "kind" v) Json.to_string_opt with
  | Some "op" -> Option.map (fun i -> Diagnostic.Op i) (index ())
  | Some "fu" -> Option.map (fun i -> Diagnostic.Fu i) (index ())
  | Some "reg" -> Option.map (fun i -> Diagnostic.Reg i) (index ())
  | Some "step" -> Option.map (fun i -> Diagnostic.Step i) (index ())
  | Some "node" -> Option.map (fun i -> Diagnostic.Node i) (index ())
  | Some "line" -> Option.map (fun i -> Diagnostic.Line i) (index ())
  | Some "net" ->
      Option.map
        (fun n -> Diagnostic.Net n)
        (Option.bind (Json.member "name" v) Json.to_string_opt)
  | Some "design" -> Some Diagnostic.Design
  | _ -> None

let diagnostic_of_json (v : Json.t) : Diagnostic.t option =
  let str name = Option.bind (Json.member name v) Json.to_string_opt in
  match (str "code", str "severity", str "message") with
  | Some code, Some sev, Some message ->
      let severity =
        if sev = "warning" then Diagnostic.Warning else Diagnostic.Error
      in
      let loc =
        Option.value ~default:Diagnostic.Design
          (Option.bind (Json.member "loc" v) loc_of_json)
      in
      Some { Diagnostic.code; severity; loc; message }
  | _ -> None

let decode_reply line =
  match Json.parse line with
  | Error (pos, msg) -> Stdlib.Error (Printf.sprintf "byte %d: %s" pos msg)
  | Ok json -> (
      let reply_id = Option.value ~default:Json.Null (Json.member "id" json) in
      match Option.bind (Json.member "status" json) Json.to_string_opt with
      | Some "ok" -> (
          match
            ( Option.bind (Json.member "op" json) Json.to_string_opt,
              Json.member "result" json )
          with
          | Some op, Some result ->
              let telemetry =
                match Json.member "telemetry" json with
                | Some (Json.Obj kvs) ->
                    List.filter_map
                      (fun (k, v) ->
                        Option.map (fun i -> (k, i)) (Json.to_int v))
                      kvs
                | _ -> []
              in
              let elapsed_ms =
                Option.value ~default:0.
                  (Option.bind (Json.member "elapsed_ms" json) Json.to_float)
              in
              Ok
                {
                  reply_id;
                  payload = Result { op; result; telemetry; elapsed_ms };
                }
          | _ -> Stdlib.Error "ok reply missing \"op\" or \"result\"")
      | Some "error" -> (
          match Json.member "error" json with
          | Some err -> (
              let str name =
                Option.bind (Json.member name err) Json.to_string_opt
              in
              match Option.bind (str "code") error_code_of_string with
              | Some code ->
                  let diagnostics =
                    match Json.member "diagnostics" err with
                    | Some (Json.List ds) ->
                        List.filter_map diagnostic_of_json ds
                    | _ -> []
                  in
                  Ok
                    {
                      reply_id;
                      payload =
                        Error
                          {
                            code;
                            message = Option.value ~default:"" (str "message");
                            diagnostics;
                          };
                    }
              | None ->
                  Stdlib.Error "error reply carries an unknown \"code\"")
          | None -> Stdlib.Error "error reply missing \"error\" object")
      | _ -> Stdlib.Error "reply missing \"status\"")

(* --- framing --- *)

let default_max_frame = 1 lsl 20

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  chunk : Bytes.t;
  mutable chunk_len : int;  (* valid bytes in [chunk] *)
  mutable chunk_pos : int;  (* consumed bytes in [chunk] *)
  buf : Buffer.t;  (* current partial frame, capped at [max_frame] *)
  mutable overflow : int;  (* bytes discarded of an oversized frame *)
}

let reader_of_fd ?(max_frame = default_max_frame) fd =
  {
    fd;
    max_frame;
    chunk = Bytes.create 65536;
    chunk_len = 0;
    chunk_pos = 0;
    buf = Buffer.create 512;
    overflow = 0;
  }

let refill r =
  r.chunk_pos <- 0;
  r.chunk_len <-
    (try Unix.read r.fd r.chunk 0 (Bytes.length r.chunk)
     with Unix.Unix_error (Unix.ECONNRESET, _, _) -> 0);
  r.chunk_len > 0

let read_frame r =
  let rec loop () =
    if r.chunk_pos >= r.chunk_len then
      if refill r then loop ()
      else if r.overflow > 0 then (
        (* Oversized frame truncated by EOF.  Count and discard the
           buffered prefix too, as the newline path does — otherwise the
           next call would hand that prefix back as a spurious frame. *)
        let n = r.overflow + Buffer.length r.buf in
        r.overflow <- 0;
        Buffer.clear r.buf;
        `Too_large n)
      else if Buffer.length r.buf > 0 then (
        let line = Buffer.contents r.buf in
        Buffer.clear r.buf;
        `Frame line)
      else `Eof
    else
      let c = Bytes.get r.chunk r.chunk_pos in
      r.chunk_pos <- r.chunk_pos + 1;
      if c = '\n' then
        if r.overflow > 0 then (
          let n = r.overflow + Buffer.length r.buf in
          r.overflow <- 0;
          Buffer.clear r.buf;
          `Too_large n)
        else (
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          `Frame line)
      else (
        if r.overflow > 0 then r.overflow <- r.overflow + 1
        else if Buffer.length r.buf >= r.max_frame then (
          (* Stop buffering: from here on the frame is only counted, so
             an arbitrarily long line costs O(max_frame) memory. *)
          r.overflow <- 1)
        else Buffer.add_char r.buf c;
        loop ())
  in
  loop ()

(* [Unix.write] raises EINTR instead of retrying; a SIGTERM landing
   mid-drain used to abort a frame halfway through the loop.  Retrying
   EINTR here means a signal can no longer tear a frame on its own —
   only a real write error can. *)
let rec write_chunk fd data off len =
  match Unix.write fd data off len with
  | n -> n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_chunk fd data off len

let write_frame fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  let written = ref 0 in
  while !written < len do
    written := !written + write_chunk fd data !written (len - !written)
  done

type writer = {
  wfd : Unix.file_descr;
  wmu : Mutex.t;
  mutable poisoned : bool;
}

let writer_of_fd fd = { wfd = fd; wmu = Mutex.create (); poisoned = false }
let writer_poisoned w = w.poisoned

(* A newline-delimited stream has no frame boundaries other than the
   bytes themselves, so a frame that fails after a partial write leaves
   the peer mid-line: every subsequent frame would be parsed as the
   tail of the torn one.  Once that happens the only sound move is to
   poison the connection — shut down the write side so the peer sees
   EOF at the tear — and drop all later frames.  A failure with zero
   bytes written leaves the stream intact and is reported as [`Error]:
   the caller may drop that one reply without corrupting the next. *)
let write_framed w line =
  Mutex.lock w.wmu;
  let result =
    if w.poisoned then `Dropped
    else begin
      let data = Bytes.of_string (line ^ "\n") in
      let len = Bytes.length data in
      let written = ref 0 in
      match
        while !written < len do
          written := !written + write_chunk w.wfd data !written (len - !written)
        done
      with
      | () -> `Ok
      | exception Unix.Unix_error _ ->
          if !written = 0 then `Error
          else begin
            w.poisoned <- true;
            (try Unix.shutdown w.wfd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            `Poisoned
          end
    end
  in
  Mutex.unlock w.wmu;
  result
