module Client = Hlp_server.Client
module Telemetry = Hlp_util.Telemetry

type t = {
  mu : Mutex.t;
  max_frame : int option;
  idle : (string, Client.t list) Hashtbl.t;
  max_idle : int;  (* per address *)
}

let create ?max_frame () =
  { mu = Mutex.create (); max_frame; idle = Hashtbl.create 8; max_idle = 8 }

let pop_idle t key =
  Mutex.lock t.mu;
  let r =
    match Hashtbl.find_opt t.idle key with
    | Some (c :: rest) ->
        Hashtbl.replace t.idle key rest;
        Some c
    | _ -> None
  in
  Mutex.unlock t.mu;
  r

let push_idle t key c =
  Mutex.lock t.mu;
  let cur = Option.value ~default:[] (Hashtbl.find_opt t.idle key) in
  let keep = List.length cur < t.max_idle in
  if keep then Hashtbl.replace t.idle key (c :: cur);
  Mutex.unlock t.mu;
  if not keep then Client.close c

(* One attempt on one concrete connection.  Pooled sockets keep their
   options between requests, so "no timeout" is set explicitly (0. =
   blocking): a connection last used by a 2 s health ping would
   otherwise time out a long bind. *)
let attempt ?timeout_s c frame =
  match
    Client.exchange ~timeout_s:(Option.value ~default:0. timeout_s) c frame
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error msg -> Error msg

let request_raw ?timeout_s ?(retry_stale = true) t addr frame =
  let key = Client.Addr.to_string addr in
  let fresh_attempt () =
    match Client.connect_addr ?max_frame:t.max_frame addr with
    | exception Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "connect: %s" (Unix.error_message e))
    | c -> (
        match attempt ?timeout_s c frame with
        | Ok line ->
            (* A bypassing dial is closed, not pooled: one per session
               op would keep up to [max_idle] idle sockets per shard. *)
            if retry_stale then push_idle t key c else Client.close c;
            Ok line
        | Error _ as e ->
            Client.close c;
            e)
  in
  if not retry_stale then
    (* Non-idempotent frames ride a fresh dial: a pooled socket that
       dies mid-request cannot be told apart from a worker that already
       executed the frame, and re-sending would replay it.  One dial,
       one send — any failure goes straight back to the caller. *)
    fresh_attempt ()
  else
    match pop_idle t key with
    | None -> fresh_attempt ()
    | Some c -> (
        match attempt ?timeout_s c frame with
        | Ok line ->
            push_idle t key c;
            Ok line
        | Error _ ->
            (* The pooled socket may just be stale (worker restarted
               between requests); one fresh dial decides whether the
               worker is actually gone. *)
            Client.close c;
            Telemetry.count "cluster.pool_stale" 1;
            fresh_attempt ())

let invalidate t addr =
  let key = Client.Addr.to_string addr in
  Mutex.lock t.mu;
  let conns = Option.value ~default:[] (Hashtbl.find_opt t.idle key) in
  Hashtbl.remove t.idle key;
  Mutex.unlock t.mu;
  List.iter Client.close conns

let close_all t =
  Mutex.lock t.mu;
  let all = Hashtbl.fold (fun _ cs acc -> cs @ acc) t.idle [] in
  Hashtbl.reset t.idle;
  Mutex.unlock t.mu;
  List.iter Client.close all
