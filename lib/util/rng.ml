type t = Random.State.t

(* Hash a string seed into the integer array [Random.State.make] expects.
   [Hashtbl.hash] only covers 30 bits, so mix the seed with distinct salts. *)
let state_of_string seed =
  let salt i = Hashtbl.hash (string_of_int i ^ "#" ^ seed) in
  Random.State.make (Array.init 8 salt)

let create seed = state_of_string seed

let split t label =
  let tag = Random.State.bits t in
  state_of_string (Printf.sprintf "%d/%s" tag label)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  Random.State.full_int t bound

let float t bound = Random.State.float t bound
let bool t = Random.State.bool t
let bits64 t = Random.State.bits64 t

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
