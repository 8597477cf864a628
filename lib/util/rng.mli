(** Deterministic, seedable pseudo-random number generation.

    Every stochastic component of the library (benchmark generation, random
    input vectors, tie-breaking) draws from an explicit [Rng.t] so that runs
    are reproducible.  A fresh generator is derived from a string seed, and
    independent substreams can be split off without correlating results. *)

type t

(** [create seed] makes a generator whose stream is a pure function of
    [seed]. *)
val create : string -> t

(** [split t label] derives an independent generator; the same [t] and
    [label] always yield the same substream. *)
val split : t -> string -> t

(** [int t bound] draws uniformly from [0, bound). [bound] must be > 0
    and may be any positive [int] (a 30-bit word's [2^30] included);
    below [2^30] the stream equals [Random.State.int]'s. *)
val int : t -> int -> int

(** [float t bound] draws uniformly from [0, bound). *)
val float : t -> float -> float

(** [bool t] draws a fair coin flip. *)
val bool : t -> bool

(** [bits64 t] draws 64 uniformly random bits. *)
val bits64 : t -> int64

(** [pick t arr] draws a uniformly random element of [arr].
    @raise Invalid_argument if [arr] is empty. *)
val pick : t -> 'a array -> 'a

(** [shuffle t arr] permutes [arr] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
