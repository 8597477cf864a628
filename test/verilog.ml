(* Test-only: the module-selection tests emit and lint Verilog. *)

module Netlist = Hlp_netlist.Netlist
module Truth_table = Hlp_netlist.Truth_table

let sanitize s =
  let ok c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  let s = String.map (fun c -> if ok c then c else '_') s in
  if s = "" || (s.[0] >= '0' && s.[0] <= '9') then "n_" ^ s else s

let net_name t id =
  if Netlist.is_input t id then sanitize (Netlist.node t id).Netlist.name
  else Printf.sprintf "n%d" id

(* Sum-of-products expression of a node's truth table over its fanin net
   names; constants and single-minterm covers stay compact. *)
let sop_expr t (node : Netlist.node) =
  let arity = Truth_table.arity node.Netlist.func in
  if arity = 0 then
    (if Truth_table.eval node.Netlist.func 0 then "1'b1" else "1'b0")
  else begin
    let fanin i = net_name t node.Netlist.fanins.(i) in
    let terms = ref [] in
    for m = (1 lsl arity) - 1 downto 0 do
      if Truth_table.eval node.Netlist.func m then begin
        let lits =
          List.init arity (fun i ->
              if m land (1 lsl i) <> 0 then fanin i else "~" ^ fanin i)
        in
        terms := ("(" ^ String.concat " & " lits ^ ")") :: !terms
      end
    done;
    match !terms with
    | [] -> "1'b0"
    | ts when List.length ts = 1 lsl arity -> "1'b1"
    | ts -> String.concat " | " ts
  end

let to_string t =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let inputs =
    Array.to_list (Array.map (net_name t) (Netlist.inputs t))
  in
  let outputs = List.map (fun (n, _) -> sanitize n) (Netlist.outputs t) in
  pr "// Generated by HLPower (netlist -> structural Verilog)\n";
  pr "module %s (\n" (sanitize (Netlist.name t));
  pr "%s\n);\n"
    (String.concat ",\n"
       (List.map (Printf.sprintf "  input wire %s") inputs
       @ List.map (Printf.sprintf "  output wire %s") outputs));
  Array.iter
    (fun id ->
      if not (Netlist.is_input t id) then
        pr "  wire %s;\n" (net_name t id))
    (Netlist.topo_order t);
  Array.iter
    (fun id ->
      if not (Netlist.is_input t id) then begin
        let node = Netlist.node t id in
        pr "  assign %s = %s;\n" (net_name t id) (sop_expr t node)
      end)
    (Netlist.topo_order t);
  List.iter
    (fun (name, id) ->
      pr "  assign %s = %s;\n" (sanitize name) (net_name t id))
    (Netlist.outputs t);
  pr "endmodule\n";
  Buffer.contents buf

let output_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let count text sub =
  let n = String.length sub in
  let rec go from acc =
    if from + n > String.length text then acc
    else if String.sub text from n = sub then go (from + 1) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let lint text =
  if count text "module " <> count text "endmodule" then
    failwith "Verilog.lint: unbalanced module/endmodule";
  if count text "output wire" = 0 then
    failwith "Verilog.lint: no outputs declared";
  (* Every declared output must be assigned. *)
  let rec collect_outputs acc = function
    | [] -> acc
    | line :: rest ->
        let line = String.trim line in
        let prefix = "output wire " in
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then begin
          let rest_line =
            String.sub line (String.length prefix)
              (String.length line - String.length prefix)
          in
          let name =
            match String.index_opt rest_line ',' with
            | Some i -> String.sub rest_line 0 i
            | None -> rest_line
          in
          collect_outputs (String.trim name :: acc) rest
        end
        else collect_outputs acc rest
  in
  let outs = collect_outputs [] (String.split_on_char '\n' text) in
  List.iter
    (fun o ->
      if count text ("assign " ^ o ^ " =") = 0 then
        failwith ("Verilog.lint: output never assigned: " ^ o))
    outs
