(* Kept as an alias so existing [Hlp_server.Json] references resolve;
   the module lives in [Hlp_util.Json]. *)
include Hlp_util.Json
