module Json = Hlp_util.Json

type severity = Error | Warning

type loc =
  | Op of int
  | Fu of int
  | Reg of int
  | Step of int
  | Node of int
  | Net of string
  | Line of int
  | Design

type t = {
  code : string;
  severity : severity;
  loc : loc;
  message : string;
}

let make severity code loc fmt =
  Printf.ksprintf (fun message -> { code; severity; loc; message }) fmt

let error code loc fmt = make Error code loc fmt
let warning code loc fmt = make Warning code loc fmt
let is_error d = d.severity = Error
let errors ds = List.filter is_error ds
let codes ds = List.sort_uniq Stdlib.compare (List.map (fun d -> d.code) ds)
let has_code code ds = List.exists (fun d -> d.code = code) ds

let loc_rank = function
  | Design -> (0, 0, "")
  | Op i -> (1, i, "")
  | Fu i -> (2, i, "")
  | Reg i -> (3, i, "")
  | Step i -> (4, i, "")
  | Node i -> (5, i, "")
  | Net s -> (6, 0, s)
  | Line i -> (7, i, "")

let compare a b =
  let sev = function Error -> 0 | Warning -> 1 in
  let c = Stdlib.compare (sev a.severity) (sev b.severity) in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.code b.code in
    if c <> 0 then c else Stdlib.compare (loc_rank a.loc) (loc_rank b.loc)

let severity_name = function Error -> "error" | Warning -> "warning"

let pp_loc fmt = function
  | Op i -> Format.fprintf fmt "op %d" i
  | Fu i -> Format.fprintf fmt "fu %d" i
  | Reg i -> Format.fprintf fmt "reg %d" i
  | Step i -> Format.fprintf fmt "step %d" i
  | Node i -> Format.fprintf fmt "node %d" i
  | Net s -> Format.fprintf fmt "net %s" s
  | Line i -> Format.fprintf fmt "line %d" i
  | Design -> Format.fprintf fmt "design"

let pp fmt d =
  Format.fprintf fmt "%s[%s] %a: %s" (severity_name d.severity) d.code pp_loc
    d.loc d.message

let to_string d = Format.asprintf "%a" pp d

(* --- JSON codec (lint reports and the daemon's error replies) --- *)

(* Wire kinds of the index-carrying locations; [Net] and [Design] are
   the two that carry no index. *)
let indexed_locs : (string * (int -> loc)) list =
  [ ("op", fun i -> Op i); ("fu", fun i -> Fu i); ("reg", fun i -> Reg i);
    ("step", fun i -> Step i); ("node", fun i -> Node i);
    ("line", fun i -> Line i) ]

let json_of_loc : loc -> Json.t = function
  | Net s -> Obj [ ("kind", String "net"); ("name", String s) ]
  | Design -> Obj [ ("kind", String "design") ]
  | (Op i | Fu i | Reg i | Step i | Node i | Line i) as loc ->
      let kind, _ = List.find (fun (_, mk) -> mk i = loc) indexed_locs in
      Obj [ ("kind", String kind); ("index", Int i) ]

let str name v = Option.bind (Json.member name v) Json.to_string_opt

let loc_of_json v =
  match str "kind" v with
  | Some "net" -> Option.map (fun n -> Net n) (str "name" v)
  | Some "design" -> Some Design
  | Some kind ->
      Option.bind (List.assoc_opt kind indexed_locs) (fun mk ->
          Option.map mk (Option.bind (Json.member "index" v) Json.to_int))
  | None -> None

let to_json d : Json.t =
  Obj
    [
      ("code", String d.code);
      ("severity", String (severity_name d.severity));
      ("loc", json_of_loc d.loc);
      ("message", String d.message);
    ]

let of_json v =
  match (str "code" v, str "severity" v, str "message" v) with
  | Some code, Some sev, Some message ->
      let severity = if sev = "warning" then Warning else Error in
      let loc =
        Option.value ~default:Design
          (Option.bind (Json.member "loc" v) loc_of_json)
      in
      Some { code; severity; loc; message }
  | _ -> None
