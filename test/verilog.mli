(** Structural Verilog emission for combinational netlists.

    The BLIF sibling for tool interoperability: every logic node becomes
    an [assign] of its sum-of-products (or a LUT-style conditional for
    wide functions), so the emitted module is synthesizable structural
    Verilog-2001 with the same ports as the netlist.  Like {!Blif}, the
    output is write-only in this repo (no Verilog simulator in the sealed
    environment); {!lint} plus the shared-netlist construction guard it.
    Only the module-selection tests use it, so it lives with them. *)

(** [to_string t] renders the netlist as a Verilog module. *)
val to_string : Hlp_netlist.Netlist.t -> string

(** [output_file t path] writes [to_string t] to [path]. *)
val output_file : Hlp_netlist.Netlist.t -> string -> unit

(** [lint text] checks structural well-formedness (module/endmodule
    balance, every output assigned); @raise Failure on violation. *)
val lint : string -> unit
