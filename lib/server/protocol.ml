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
  { bench = ""; binder = "hlpower"; alpha = 0.5; width = 8; vectors = 100;
    port_assign = false; engine = "auto"; estimator = "sim"; graph = None;
    model = None }

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
  { ex_bench = ""; ex_width = 8; ex_vectors = 100; ex_adds = [ 1; 2; 4 ];
    ex_mults = [ 1; 2; 4 ]; ex_alphas = [ 1.0; 0.5 ] }

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
  { so_bench = ""; so_graph = None; so_binder = "hlpower"; so_alpha = 0.5;
    so_width = 8; so_k = 4; so_res_add = None; so_res_mult = None }

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

let error_codes =
  [ (Parse_error, "parse_error"); (Unknown_op, "unknown_op");
    (Bad_request, "bad_request"); (Frame_too_large, "frame_too_large");
    (Overloaded, "overloaded"); (Deadline_exceeded, "deadline_exceeded");
    (Draining, "draining"); (Unavailable, "unavailable");
    (Internal, "internal") ]

let error_code_to_string c = List.assoc c error_codes

let error_code_of_string s =
  List.find_map (fun (c, n) -> if n = s then Some c else None) error_codes

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

(* --- diagnostics on the wire --- *)

(* Wire kinds of the index-carrying locations; [Net] and [Design] are
   the two that carry no index. *)
let indexed_locs : (string * (int -> Diagnostic.loc)) list =
  [ ("op", fun i -> Op i); ("fu", fun i -> Fu i); ("reg", fun i -> Reg i);
    ("step", fun i -> Step i); ("node", fun i -> Node i);
    ("line", fun i -> Line i) ]

let json_of_loc : Diagnostic.loc -> Json.t = function
  | Net s -> Obj [ ("kind", String "net"); ("name", String s) ]
  | Design -> Obj [ ("kind", String "design") ]
  | (Op i | Fu i | Reg i | Step i | Node i | Line i) as loc ->
      let kind, _ = List.find (fun (_, mk) -> mk i = loc) indexed_locs in
      Obj [ ("kind", String kind); ("index", Int i) ]

let loc_of_json (v : Json.t) : Diagnostic.loc option =
  match Option.bind (Json.member "kind" v) Json.to_string_opt with
  | Some "net" ->
      Option.map
        (fun n -> Diagnostic.Net n)
        (Option.bind (Json.member "name" v) Json.to_string_opt)
  | Some "design" -> Some Diagnostic.Design
  | Some kind ->
      Option.bind (List.assoc_opt kind indexed_locs) (fun mk ->
          Option.map mk (Option.bind (Json.member "index" v) Json.to_int))
  | None -> None

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

(* --- request schema combinators --- *)

(* A parameter record is declared once, as field specs in wire order;
   [Schema.seal] derives its decoder, its encoder and a sampler of
   valid values from that one declaration. *)
module Schema = struct
  type sink = Diagnostic.t -> unit
  type 'a sample = Random.State.t -> 'a

  let problem ?(code = "S003") (sink : sink) fmt =
    Printf.ksprintf (fun m -> sink (Diagnostic.error code Design "%s" m)) fmt

  (* [problem], then reject the value. *)
  let reject ?code sink fmt =
    Printf.ksprintf (fun m -> problem ?code sink "%s" m; None) fmt

  let member name obj =
    match Json.member name obj with None | Some Json.Null -> None | v -> v

  let int_in lo hi rs = lo + Random.State.int rs (hi - lo + 1)
  let one_of xs rs = List.nth xs (Random.State.int rs (List.length xs))
  let option_of s rs = if Random.State.bool rs then Some (s rs) else None
  let list_of ~max s rs = List.init (int_in 1 max rs) (fun _ -> s rs)

  let printable ~min ~max rs =
    String.init (int_in min max rs) (fun _ -> Char.chr (int_in 32 126 rs))

  (* A JSON wire type; [of_json] is [None] for a value of another type. *)
  type 'a ty = { of_json : Json.t -> 'a option; to_json : 'a -> Json.t }

  let int = { of_json = Json.to_int; to_json = (fun i -> Json.Int i) }
  let float = { of_json = Json.to_float; to_json = (fun f -> Json.Float f) }
  let bool = { of_json = Json.to_bool; to_json = (fun b -> Json.Bool b) }
  let string = { of_json = Json.to_string_opt; to_json = (fun s -> String s) }

  (* [None] travels as [null]. *)
  let nullable t =
    { of_json = (fun v -> Option.map Option.some (t.of_json v));
      to_json = (function None -> Json.Null | Some v -> t.to_json v) }

  let nonempty_list t =
    let all vs =
      let xs = List.filter_map t.of_json vs in
      if xs <> [] && List.length xs = List.length vs then Some xs else None
    in
    { of_json = (fun v -> Option.bind (Json.to_list v) all);
      to_json = (fun xs -> Json.List (List.map t.to_json xs)) }

  (* The check on a decoded value — canonicalize it, or report and
     reject it — and a sampler of values that pass. *)
  type 'a range = {
    check : sink -> string -> 'a -> 'a option;
    draw : 'a sample;
  }

  let any draw = { check = (fun _ _ v -> Some v); draw }

  let positive ?(max = max_int) ?sample_max () =
    let check sink name v =
      if v <= 0 then reject sink "parameter %S must be positive" name
      else if v > max then
        reject sink "parameter %S must be within 1..%d (got %d)" name max v
      else Some v
    in
    { check; draw = int_in 1 (Option.value sample_max ~default:(min max 64)) }

  let fraction =
    let check sink name a =
      if not (usable_number a) then
        reject ~code:"S009" sink
          "parameter %S is not a usable number (infinite, NaN or subnormal)"
          name
      else if not (a >= 0. && a <= 1.) then
        reject sink "parameter %S must be within [0, 1]" name
      else Some a
    in
    { check; draw = (fun rs -> Random.State.float rs 1.0) }

  let usable_each =
    let check sink name xs =
      List.iter
        (fun x ->
          if not (usable_number x) then
            problem ~code:"S009" sink
              "parameter %S contains a value that is not a usable number \
               (infinite, NaN or subnormal)"
              name)
        xs;
      Some xs
    in
    { check; draw = list_of ~max:3 fraction.draw }

  (* [parse] maps a wire string, aliases included, to its canonical
     name; the message lists the canonical [names]. *)
  let enum ?parse names =
    let parse =
      Option.value parse ~default:(fun s ->
          if List.mem s names then Some s else None)
    in
    let alternatives =
      match List.rev_map (Printf.sprintf "%S") names with
      | last :: rest -> String.concat ", " (List.rev rest) ^ " or " ^ last
      | [] -> ""
    in
    let check sink name s =
      match parse s with
      | Some c -> Some c
      | None -> reject sink "parameter %S must be %s" name alternatives
    in
    { check; draw = one_of names }

  let required ?(max_len = max_int) draw =
    let check sink name s =
      if s = "" then reject sink "parameter %S is required" name
      else if String.length s > max_len then
        reject sink "parameter %S exceeds %d characters" name max_len
      else Some s
    in
    { check; draw }

  type ('r, 'a) field = {
    name : string;
    decode : sink -> Json.t option -> 'a;  (* [None]: absent or null *)
    encode : 'a -> Json.t option;  (* [None]: omitted *)
    sample : 'a sample;
    get : 'r -> 'a;
  }

  (* Absent or null takes the default; a value of the wrong type is
     reported and takes the default too; the range check then runs on
     the resulting value. *)
  let field name ty ~default range get =
    let decode sink v =
      let v =
        match v with
        | None -> default
        | Some j -> (
            match ty.of_json j with
            | Some v -> v
            | None ->
                problem sink "parameter %S has an invalid value: %s" name
                  (Json.to_string j);
                default)
      in
      Option.value ~default (range.check sink name v)
    in
    let encode v = Some (ty.to_json v) in
    { name; decode; encode; sample = range.draw; get }

  (* A structured parameter whose hand-written [decode] reports its own
     diagnostics; absent or null is [None], which is omitted. *)
  let optional name ~decode ~encode ~sample get =
    { name; decode = (fun sink v -> Option.bind v (decode sink));
      encode = Option.map encode; sample = option_of sample; get }

  (* A fully custom field: its decoder sees the absent case too. *)
  let custom name ~decode ~encode ~sample get =
    { name; decode; encode = (fun v -> Some (encode v)); sample; get }

  (* Reports a non-object and every key outside [keys]. *)
  let closed_object sink name ~keys = function
    | Json.Obj kvs ->
        List.iter
          (fun (k, _) ->
            if not (List.mem k keys) then
              problem sink "unknown %s field %S" name k)
          kvs;
        true
    | _ ->
        problem sink "parameter %S must be an object" name;
        false

  (* A record under construction: the constructor ['k] still awaits
     the fields not yet added.  Each [|+] decodes (and samples) the
     earlier fields first, so diagnostics follow the declaration. *)
  type ('r, 'k) fields = {
    f_decode : sink -> Json.t -> 'k;
    f_encode : ('r -> (string * Json.t) option) list;  (* reversed *)
    f_sample : 'k sample;
  }

  let obj k =
    { f_decode = (fun _ _ -> k); f_encode = []; f_sample = (fun _ -> k) }

  let ( |+ ) b f =
    let f_decode sink params =
      let k = b.f_decode sink params in
      k (f.decode sink (member f.name params))
    in
    let encode r = Option.map (fun v -> (f.name, v)) (f.encode (f.get r)) in
    let f_sample rs =
      let k = b.f_sample rs in
      k (f.sample rs)
    in
    { f_decode; f_encode = encode :: b.f_encode; f_sample }

  type 'r record = {
    r_decode : sink -> Json.t -> 'r;
    r_encode : 'r -> (string * Json.t) list;
    r_sample : 'r sample;
  }

  (* [post params r] is the record's cross-field check, run once after
     every field has decoded; it returns S003 messages.  Fields are
     sampled independently, so the sampler redraws until it passes. *)
  let seal ?(post = fun _ _ -> []) b =
    let encoders = List.rev b.f_encode in
    let r_encode r = List.filter_map (fun e -> e r) encoders in
    let r_decode sink params =
      let r = b.f_decode sink params in
      List.iter (problem sink "%s") (post params r);
      r
    in
    let rec r_sample rs =
      let r = b.f_sample rs in
      if post (Json.Obj (r_encode r)) r = [] then r else r_sample rs
    in
    { r_decode; r_encode; r_sample }
end

(* --- custom codecs: inline graph, power model, resources, delta --- *)

let op_kinds = Cdfg.[ Add; Sub; Mult ]

let kind_of_string s =
  List.find_opt (fun k -> Cdfg.kind_to_string k = s) op_kinds

let json_of_operand : Cdfg.operand -> Json.t = function
  | Cdfg.Input k -> Obj [ ("input", Int k) ]
  | Cdfg.Op j -> Obj [ ("op", Int j) ]

let json_of_graph (g : Cdfg.t) : Json.t =
  let op (o : Cdfg.op) : Json.t =
    Obj [ ("kind", String (Cdfg.kind_to_string o.kind));
          ("left", json_of_operand o.left); ("right", json_of_operand o.right) ]
  in
  Obj [ ("name", String (Cdfg.name g)); ("inputs", Int (Cdfg.num_inputs g));
        ("ops", List (Array.to_list (Array.map op (Cdfg.ops g))));
        ("outputs", List (List.map json_of_operand (Cdfg.outputs g))) ]

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
let decode_graph sink v =
  let ok = ref true in
  let bad code loc fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        sink (Diagnostic.error code loc "%s" m))
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
                | None ->
                    bad "S003" loc "op is missing a string \"kind\" field";
                    None
                | Some s ->
                    let k = kind_of_string s in
                    if k = None then
                      bad "S003" loc
                        "op kind %S is not \"add\", \"sub\" or \"mult\"" s;
                    k
              in
              let field name =
                match Json.member name ov with
                | Some (Json.Obj _ as o) -> operand ~loc ~bound:i o
                | _ ->
                    bad "S003" loc "op is missing operand object %S" name;
                    None
              in
              let left = field "left" in
              let right = field "right" in
              match (kind, left, right) with
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

let sample_graph rs =
  let open Schema in
  let num_inputs = int_in 1 4 rs in
  let operand bound rs =
    if bound = 0 || Random.State.bool rs then
      Cdfg.Input (int_in 0 (num_inputs - 1) rs)
    else Cdfg.Op (int_in 0 (bound - 1) rs)
  in
  let op id =
    let kind = one_of op_kinds rs in
    let left = operand id rs in
    { Cdfg.id; kind; left; right = operand id rs }
  in
  let ops = List.init (int_in 1 12 rs) op in
  let outputs = list_of ~max:3 (operand (List.length ops)) rs in
  Cdfg.create ~name:"random" ~num_inputs ~ops ~outputs

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
   constraining legitimate calibration.  The table drives both decode
   and encode, in this order. *)
let model_fields =
  Power.
    [
      ("vdd", `Positive, 100., fun m -> m.vdd);
      ("c_base_f", `Positive, 1e-3, fun m -> m.c_base_f);
      ("c_fanout_f", `Non_negative, 1e-3, fun m -> m.c_fanout_f);
      ("t_lut_ns", `Non_negative, 1e9, fun m -> m.t_lut_ns);
      ("t_route_ns", `Non_negative, 1e9, fun m -> m.t_route_ns);
      ("t_seq_ns", `Non_negative, 1e9, fun m -> m.t_seq_ns);
    ]

let decode_model sink v =
  let keys = List.map (fun (k, _, _, _) -> k) model_fields in
  let ok = ref (Schema.closed_object sink "model" ~keys v) in
  let bad code fmt =
    Printf.ksprintf
      (fun m ->
        ok := false;
        Schema.problem ~code sink "%s" m)
      fmt
  in
  let field (name, kind, ceiling, get) =
    let current = get Power.default_model in
    match Schema.member name v with
    | None -> current
    | Some jv -> (
        match Json.to_float jv with
        | None ->
            bad "S003" "model field %S must be a number" name;
            current
        | Some f ->
            if not (usable_number f) then (
              bad "S011"
                "model field %S is not a usable number (infinite, NaN or \
                 subnormal): %s"
                name (Json.to_string jv);
              current)
            else if kind = `Positive && f <= 0. then (
              bad "S011" "model field %S must be strictly positive" name;
              current)
            else if f < 0. then (
              bad "S011" "model field %S must be non-negative" name;
              current)
            else if f > ceiling then (
              bad "S011" "model field %S is out of physical range (max %g)"
                name ceiling;
              current)
            else f)
  in
  if not !ok then None
  else
    match List.map field model_fields with
    | [ vdd; c_base_f; c_fanout_f; t_lut_ns; t_route_ns; t_seq_ns ] when !ok ->
        Some { Power.vdd; c_base_f; c_fanout_f; t_lut_ns; t_route_ns; t_seq_ns }
    | _ -> None

let json_of_model m =
  let field (k, _, _, get) = (k, Json.Float (get m)) in
  Json.Obj (List.map field model_fields)

let sample_model rs =
  let vdd = 0.8 +. Random.State.float rs 2.5 in
  let c_base_f = 1e-16 +. Random.State.float rs 1e-13 in
  { Power.default_model with Power.vdd; c_base_f }

(* Session resource bounds: a closed object of optional positive unit
   counts per FU class. *)
let decode_resources sink v =
  let units name =
    match Schema.member name v with
    | None -> None
    | Some u -> (
        match Json.to_int u with
        | Some n when n >= 1 -> Some n
        | _ ->
            Schema.reject sink "resources field %S must be a positive integer"
              name)
  in
  if not (Schema.closed_object sink "resources" ~keys:[ "add"; "mult" ] v)
  then None
  else
    let add = units "add" in
    Some (add, units "mult")

let json_of_resources (add, mult) =
  let f name = Option.map (fun n -> (name, Json.Int n)) in
  Json.Obj (List.filter_map Fun.id [ f "add" add; f "mult" mult ])

let sample_resources rs =
  let add = Schema.(option_of (int_in 1 4)) rs in
  (add, Schema.(option_of (int_in 1 4)) rs)

let json_of_delta : session_delta -> Json.t = function
  | D_add_op { d_kind; d_left; d_right; d_output } ->
      Obj [ ("kind", String "add_op");
            ("op_kind", String (Cdfg.kind_to_string d_kind));
            ("left", json_of_operand d_left);
            ("right", json_of_operand d_right);
            ("output", Bool d_output) ]
  | D_remove_op id -> Obj [ ("kind", String "remove_op"); ("id", Int id) ]
  | D_set_resource (cls, n) ->
      Obj [ ("kind", String "set_resource");
            ("class", String (Cdfg.class_to_string cls)); ("units", Int n) ]
  | D_set_alpha a -> Obj [ ("kind", String "set_alpha"); ("alpha", Float a) ]

(* Delta shapes are validated here; references are checked against the
   session's current graph by the router (S014), which this decoder
   cannot see.  A rejected delta decodes to a placeholder that never
   survives to execution: its diagnostic rejects the request. *)
let decode_delta sink v =
  let problem fmt = Schema.reject sink fmt in
  let delta dv =
    let str name = Option.bind (Json.member name dv) Json.to_string_opt in
    let int name = Option.bind (Json.member name dv) Json.to_int in
    let operand name =
      match Json.member name dv with
      | Some (Json.Obj _ as ov) -> (
          match (Json.member "input" ov, Json.member "op" ov) with
          | Some iv, None -> (
              match Json.to_int iv with
              | Some k when k >= 0 -> Some (Cdfg.Input k)
              | _ ->
                  problem
                    "delta operand field \"input\" must be a non-negative \
                     integer")
          | None, Some jv -> (
              match Json.to_int jv with
              | Some j when j >= 0 -> Some (Cdfg.Op j)
              | _ ->
                  problem
                    "delta operand field \"op\" must be a non-negative \
                     integer")
          | _ ->
              problem
                "delta operand must be exactly one of {\"input\": k} or \
                 {\"op\": j}")
      | _ -> problem "add_op delta is missing operand object %S" name
    in
    match str "kind" with
    | Some "add_op" -> (
        let kind =
          match str "op_kind" with
          | None -> problem "add_op delta is missing a string \"op_kind\" field"
          | Some s when kind_of_string s = None ->
              problem "delta op_kind %S is not \"add\", \"sub\" or \"mult\"" s
          | Some s -> kind_of_string s
        in
        let left = operand "left" in
        let right = operand "right" in
        let output =
          match Schema.member "output" dv with
          | None -> Some false
          | Some o when Json.to_bool o = None ->
              problem "delta field \"output\" must be a boolean"
          | Some o -> Json.to_bool o
        in
        match (kind, left, right, output) with
        | Some d_kind, Some d_left, Some d_right, Some d_output ->
            Some (D_add_op { d_kind; d_left; d_right; d_output })
        | _ -> None)
    | Some "remove_op" -> (
        match int "id" with
        | Some id when id >= 0 -> Some (D_remove_op id)
        | _ -> problem "remove_op delta requires a non-negative integer \"id\"")
    | Some "set_resource" -> (
        let cls = str "class" in
        match
          ( List.find_opt
              (fun c -> Some (Cdfg.class_to_string c) = cls)
              Cdfg.all_classes,
            int "units" )
        with
        | Some c, Some n when n >= 1 -> Some (D_set_resource (c, n))
        | Some _, _ ->
            problem "set_resource delta requires a positive integer \"units\""
        | None, _ ->
            problem
              "set_resource delta requires \"class\" of \"add\" or \"mult\"")
    | Some "set_alpha" -> (
        match Option.bind (Json.member "alpha" dv) Json.to_float with
        | Some a when not (usable_number a) ->
            Schema.reject ~code:"S009" sink
              "delta field \"alpha\" is not a usable number (infinite, NaN \
               or subnormal)"
        | Some a when a >= 0. && a <= 1. -> Some (D_set_alpha a)
        | _ -> problem "set_alpha delta requires \"alpha\" within [0, 1]")
    | Some other -> problem "unknown delta kind %S" other
    | None -> problem "delta is missing a string \"kind\" field"
  in
  Option.value ~default:(D_remove_op 0)
    (match v with
    | None -> problem "parameter \"delta\" is required"
    | Some (Json.Obj _ as dv) -> delta dv
    | Some _ -> problem "parameter \"delta\" must be an object")

let sample_delta rs =
  let open Schema in
  let operand rs =
    if Random.State.bool rs then Cdfg.Input (int_in 0 7 rs)
    else Cdfg.Op (int_in 0 63 rs)
  in
  match Random.State.int rs 4 with
  | 0 ->
      let d_kind = one_of op_kinds rs in
      let d_left = operand rs in
      let d_right = operand rs in
      D_add_op { d_kind; d_left; d_right; d_output = Random.State.bool rs }
  | 1 -> D_remove_op (int_in 0 63 rs)
  | 2 ->
      let cls = one_of Cdfg.all_classes rs in
      D_set_resource (cls, int_in 1 4 rs)
  | _ -> D_set_alpha (fraction.draw rs)

(* --- the request schema: one field spec per parameter, in wire order --- *)

(* Named benchmarks the sampler draws; "nope" exercises the router's
   unknown-benchmark rejection. *)
let bench_names = [ "pr"; "wang"; "honda"; "mcm"; "nope" ]

(* [bind], [flow] and [session_open] name their design by exactly one
   of a benchmark and an inline graph; a given but invalid graph still
   counts as given. *)
let design_check bench params =
  match (Schema.member "graph" params, bench) with
  | Some _, b when b <> "" ->
      [ "parameters \"bench\" and \"graph\" are mutually exclusive" ]
  | None, "" -> [ "parameter \"bench\" or \"graph\" is required" ]
  | _ -> []

let bench = Schema.(any (one_of ("" :: bench_names)))
let binder = Schema.enum [ "hlpower"; "lopass" ]
let width = Schema.positive ~max:max_width ()

(* Explore and lint do not cap their width; only the sampler keeps to
   the widths bind accepts. *)
let any_width = Schema.positive ~sample_max:max_width ()

let engine =
  Schema.enum
    ~parse:(fun s -> Option.map Sim.engine_name (Sim.engine_of_string s))
    (List.map Sim.engine_name Sim.[ Auto; Scalar; Bit_parallel ])

let estimator =
  Schema.enum
    ~parse:(fun s ->
      Option.map Power.estimator_name (Power.estimator_of_string s))
    (List.map Power.estimator_name [ `Sim; `Static; `Both ])

let session_id =
  Schema.(required ~max_len:max_session_id_len (printable ~min:1 ~max:12))

let graph get =
  Schema.optional "graph" ~decode:decode_graph ~encode:json_of_graph
    ~sample:sample_graph get

let bind_spec =
  let d = default_bind_params in
  Schema.(
    obj (fun bench binder alpha width vectors port_assign engine estimator
             graph model ->
        { bench; binder; alpha; width; vectors; port_assign; engine;
          estimator; graph; model })
    |+ field "bench" string ~default:d.bench bench (fun p -> p.bench)
    |+ field "binder" string ~default:d.binder binder (fun p -> p.binder)
    |+ field "alpha" float ~default:d.alpha fraction (fun p -> p.alpha)
    |+ field "width" int ~default:d.width width (fun p -> p.width)
    |+ field "vectors" int ~default:d.vectors (positive ()) (fun p -> p.vectors)
    |+ field "port_assign" bool ~default:d.port_assign (any Random.State.bool)
         (fun p -> p.port_assign)
    |+ field "engine" string ~default:d.engine engine (fun p -> p.engine)
    |+ field "estimator" string ~default:d.estimator estimator (fun p ->
           p.estimator)
    |+ graph (fun p -> p.graph)
    |+ optional "model" ~decode:decode_model ~encode:json_of_model
         ~sample:sample_model (fun p -> p.model)
    |> seal ~post:(fun params p -> design_check p.bench params))

let explore_spec =
  let d = default_explore_params in
  let units = Schema.(any (list_of ~max:3 (int_in 1 4))) in
  Schema.(
    obj (fun ex_bench ex_width ex_vectors ex_adds ex_mults ex_alphas ->
        { ex_bench; ex_width; ex_vectors; ex_adds; ex_mults; ex_alphas })
    |+ field "bench" string ~default:d.ex_bench (required (one_of bench_names))
         (fun p -> p.ex_bench)
    |+ field "width" int ~default:d.ex_width any_width (fun p -> p.ex_width)
    |+ field "vectors" int ~default:d.ex_vectors (positive ()) (fun p ->
           p.ex_vectors)
    |+ field "adds" (nonempty_list int) ~default:d.ex_adds units (fun p ->
           p.ex_adds)
    |+ field "mults" (nonempty_list int) ~default:d.ex_mults units (fun p ->
           p.ex_mults)
    |+ field "alphas" (nonempty_list float) ~default:d.ex_alphas usable_each
         (fun p -> p.ex_alphas)
    |> seal)

let lint_spec =
  let d = default_lint_params in
  Schema.(
    obj (fun lint_bench lint_binder lint_width ->
        { lint_bench; lint_binder; lint_width })
    |+ field "bench" (nullable string) ~default:d.lint_bench
         (any (option_of (one_of bench_names))) (fun p -> p.lint_bench)
    |+ field "binder" string ~default:d.lint_binder
         (enum [ "hlpower"; "lopass"; "both" ]) (fun p -> p.lint_binder)
    |+ field "width" int ~default:d.lint_width any_width (fun p -> p.lint_width)
    |> seal)

let session_open_spec =
  let d = default_session_open_params in
  Schema.(
    obj (fun so_bench so_binder so_alpha so_width so_k so_graph res ->
        let so_res_add, so_res_mult = Option.value res ~default:(None, None) in
        { so_bench; so_graph; so_binder; so_alpha; so_width; so_k;
          so_res_add; so_res_mult })
    |+ field "bench" string ~default:d.so_bench bench (fun p -> p.so_bench)
    |+ field "binder" string ~default:d.so_binder binder (fun p -> p.so_binder)
    |+ field "alpha" float ~default:d.so_alpha fraction (fun p -> p.so_alpha)
    |+ field "width" int ~default:d.so_width width (fun p -> p.so_width)
    |+ field "k" int ~default:d.so_k (positive ~max:max_session_k ()) (fun p ->
           p.so_k)
    |+ graph (fun p -> p.so_graph)
    |+ optional "resources" ~decode:decode_resources ~encode:json_of_resources
         ~sample:sample_resources (fun p ->
           match (p.so_res_add, p.so_res_mult) with
           | None, None -> None
           | r -> Some r)
    |> seal ~post:(fun params p -> design_check p.so_bench params))

let session_edit_spec =
  Schema.(
    obj (fun se_session se_delta -> { se_session; se_delta })
    |+ field "session" string ~default:"" session_id (fun p -> p.se_session)
    |+ custom "delta" ~decode:decode_delta ~encode:json_of_delta
         ~sample:sample_delta (fun p -> p.se_delta)
    |> seal)

let session_close_spec =
  Schema.(
    obj (fun sc_session -> { sc_session })
    |+ field "session" string ~default:"" session_id (fun p -> p.sc_session)
    |> seal)

(* A negative sleep is clamped to zero rather than rejected. *)
let ping_spec =
  let clamp = { Schema.check = (fun _ _ ms -> Some (max 0 ms));
                draw = Schema.int_in 0 5 } in
  Schema.(obj Fun.id |+ field "sleep_ms" int ~default:0 clamp Fun.id |> seal)

let no_params = Schema.(seal (obj ()))

(* One case per operation: its wire name, its parameter record, and the
   constructor both ways.  The decoder, the encoder, [op_name] and the
   sampler all dispatch through this table. *)
type case =
  | Case : {
      name : string;
      spec : 'p Schema.record;
      inj : 'p -> op;
      prj : op -> 'p option;
    }
      -> case

let cases =
  let case name spec inj prj = Case { name; spec; inj; prj } in
  [ case "ping" ping_spec (fun x -> Ping x)
      (function Ping x -> Some x | _ -> None);
    case "bind" bind_spec (fun x -> Bind x)
      (function Bind x -> Some x | _ -> None);
    case "flow" bind_spec (fun x -> Flow x)
      (function Flow x -> Some x | _ -> None);
    case "explore" explore_spec (fun x -> Explore x)
      (function Explore x -> Some x | _ -> None);
    case "lint" lint_spec (fun x -> Lint x)
      (function Lint x -> Some x | _ -> None);
    case "session_open" session_open_spec (fun x -> Session_open x)
      (function Session_open x -> Some x | _ -> None);
    case "session_edit" session_edit_spec (fun x -> Session_edit x)
      (function Session_edit x -> Some x | _ -> None);
    case "session_close" session_close_spec (fun x -> Session_close x)
      (function Session_close x -> Some x | _ -> None);
    case "stats" no_params (fun () -> Stats)
      (function Stats -> Some () | _ -> None);
    case "cluster_stats" no_params (fun () -> Cluster_stats)
      (function Cluster_stats -> Some () | _ -> None) ]

let op_name op =
  match List.find (fun (Case c) -> Option.is_some (c.prj op)) cases with
  | Case c -> c.name

(* --- requests --- *)

let encode_request r =
  let encode (Case c) =
    Option.map (fun p -> (c.name, c.spec.r_encode p)) (c.prj r.op)
  in
  let name, params = Option.get (List.find_map encode cases) in
  Json.to_string
    (Obj
       ((match r.id with Json.Null -> [] | id -> [ ("id", id) ])
       @ (match r.deadline_ms with
         | None -> []
         | Some ms -> [ ("deadline_ms", Json.Int ms) ])
       @ (("op", Json.String name)
         :: (if params = [] then [] else [ ("params", Json.Obj params) ]))))

let random_request rs =
  let open Schema in
  let op = match one_of cases rs with Case c -> c.inj (c.spec.r_sample rs) in
  let deadline_ms = option_of (int_in 0 60_000) rs in
  let id =
    match Random.State.int rs 3 with
    | 0 -> Json.Int (int_in 0 1_000_000 rs)
    | 1 -> Json.String (printable ~min:0 ~max:12 rs)
    | _ -> Json.Null
  in
  { id; deadline_ms; op }

let excerpt line =
  if String.length line <= 120 then line else String.sub line 0 117 ^ "..."

type decode_error = {
  err_code : error_code;
  err_id : Json.t;
  err_diagnostics : Diagnostic.t list;
}

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

let parse_error code fmt =
  Printf.ksprintf
    (fun m ->
      let err_diagnostics = [ Diagnostic.error code (Line 1) "%s" m ] in
      Stdlib.Error
        { err_code = Parse_error; err_id = Json.Null; err_diagnostics })
    fmt

(* Request validation collects one S00x diagnostic per offense instead
   of dying on the first, mirroring how the lint subsystem reports. *)
let decode_request line =
  match Json.parse line with
  | Error (pos, msg) ->
      (* Exhausting the parser's nesting budget is a resource-limit
         rejection (S012), not a syntax error: the frame may be
         perfectly well-formed JSON, just hostile to a recursive
         reader. *)
      parse_error
        (if Json.is_depth_error msg then "S012" else "S001")
        "malformed frame (byte %d: %s): %s" pos msg (excerpt line)
  | Ok ((Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
        | Json.String _ | Json.List _ | Json.Raw _) as json) ->
      parse_error "S001" "frame is not a JSON object: %s"
        (excerpt (Json.to_string json))
  | Ok (Json.Obj _ as json) -> (
      let problems = ref [] in
      let sink d = problems := d :: !problems in
      let unknown_op fmt =
        Printf.ksprintf
          (fun m -> problems := [ Diagnostic.error "S002" Design "%s" m ])
          fmt
      in
      check_duplicate_keys ~add:sink "request" json;
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let params =
        Option.value ~default:(Json.Obj []) (Json.member "params" json)
      in
      let op =
        match Json.member "op" json with
        | Some (Json.String name) -> (
            match List.find_opt (fun (Case c) -> c.name = name) cases with
            | Some (Case c) -> Some (c.inj (c.spec.r_decode sink params))
            | None ->
                unknown_op "unknown op %S" name;
                None)
        | Some _ | None ->
            unknown_op "missing or non-string \"op\" field";
            None
      in
      let deadline_ms =
        match Schema.member "deadline_ms" json with
        | None -> None
        | Some v -> (
            match Json.to_int v with
            | Some ms when ms >= 0 -> Some ms
            | _ ->
                Schema.reject sink
                  "field \"deadline_ms\" must be a non-negative integer")
      in
      let reject err_code =
        Stdlib.Error
          { err_code; err_id = id; err_diagnostics = List.rev !problems }
      in
      match op with
      | Some op when !problems = [] -> Ok { id; deadline_ms; op }
      | Some _ -> reject Bad_request
      | None -> reject Unknown_op)

(* --- replies --- *)

let encode_reply r =
  let fields : (string * Json.t) list =
    match r.payload with
    | Result { op; result; telemetry; elapsed_ms } ->
        let telemetry = List.map (fun (k, v) -> (k, Json.Int v)) telemetry in
        [ ("status", String "ok"); ("op", String op); ("result", result);
          ("telemetry", Obj telemetry); ("elapsed_ms", Float elapsed_ms) ]
    | Error { code; message; diagnostics } ->
        let diagnostics = List.map json_of_diagnostic diagnostics in
        [ ("status", String "error");
          ( "error",
            Obj [ ("code", String (error_code_to_string code));
                  ("message", String message);
                  ("diagnostics", List diagnostics) ] ) ]
  in
  let id = match r.reply_id with Json.Null -> [] | id -> [ ("id", id) ] in
  Json.to_string (Obj (id @ fields))

let str name v = Option.bind (Json.member name v) Json.to_string_opt
let counter (k, v) = Option.map (fun i -> (k, i)) (Json.to_int v)

let diagnostic_of_json (v : Json.t) : Diagnostic.t option =
  match (str "code" v, str "severity" v, str "message" v) with
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
      let reply payload = Ok { reply_id; payload } in
      match str "status" json with
      | Some "ok" -> (
          match (str "op" json, Json.member "result" json) with
          | Some op, Some result ->
              let telemetry =
                match Json.member "telemetry" json with
                | Some (Json.Obj kvs) -> List.filter_map counter kvs
                | _ -> []
              in
              let elapsed_ms =
                Option.value ~default:0.
                  (Option.bind (Json.member "elapsed_ms" json) Json.to_float)
              in
              reply (Result { op; result; telemetry; elapsed_ms })
          | _ -> Stdlib.Error "ok reply missing \"op\" or \"result\"")
      | Some "error" -> (
          match Json.member "error" json with
          | None -> Stdlib.Error "error reply missing \"error\" object"
          | Some err -> (
              match Option.bind (str "code" err) error_code_of_string with
              | None -> Stdlib.Error "error reply carries an unknown \"code\""
              | Some code ->
                  let diagnostics =
                    match Json.member "diagnostics" err with
                    | Some (Json.List ds) ->
                        List.filter_map diagnostic_of_json ds
                    | _ -> []
                  in
                  let message = Option.value ~default:"" (str "message" err) in
                  reply (Error { code; message; diagnostics })))
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

(* Writes [line] and its terminator, counting progress in [written].
   [Unix.write] raises EINTR instead of retrying; a SIGTERM landing
   mid-drain used to abort a frame halfway through the loop.  Retrying
   EINTR here means a signal can no longer tear a frame on its own —
   only a real write error can. *)
let write_all ?(written = ref 0) fd line =
  let data = Bytes.of_string (line ^ "\n") in
  let len = Bytes.length data in
  while !written < len do
    match Unix.write fd data !written (len - !written) with
    | n -> written := !written + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let write_frame fd line = write_all fd line

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
    else
      let written = ref 0 in
      match write_all ~written w.wfd line with
      | () -> `Ok
      | exception Unix.Unix_error _ ->
          if !written = 0 then `Error
          else begin
            w.poisoned <- true;
            (try Unix.shutdown w.wfd Unix.SHUTDOWN_SEND
             with Unix.Unix_error _ -> ());
            `Poisoned
          end
  in
  Mutex.unlock w.wmu;
  result
