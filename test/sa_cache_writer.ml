(* Child process for the SA-cache merge test: opens the persistent
   table in the directory given as argv.(1), computes one entry, and
   exits, leaving the write to the table's at-exit persist. *)

let () =
  let t = Hlp_core.Sa_table.create_persistent ~width:2 ~k:4 ~dir:Sys.argv.(1) () in
  ignore (Hlp_core.Sa_table.lookup t Hlp_cdfg.Cdfg.Add_sub ~left:2 ~right:2)
