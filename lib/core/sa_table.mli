(** Precalculated switching-activity table (§5.2.2), with a persistent
    on-disk cache.

    Pricing an edge of the HLPower bipartite graph requires the estimated
    SA of the partial datapath "two input muxes + functional unit" that
    the merge would create (Fig. 2).  Because the same (FU class, left mux
    size, right mux size) combination recurs constantly, the paper
    precalculates SA for all combinations, stores them in a text file, and
    reads them into a hash table at startup; the authors verified this
    gives the same bindings as dynamic estimation, only faster.

    This module reproduces that mechanism: {!lookup} computes on first use
    — elaborating the partial datapath with {!Hlp_netlist.Cell_library},
    mapping it onto K-LUTs with {!Hlp_mapper.Mapper} and summing the
    glitch-aware effective SA (Eq. 3) — memoizes, and can round-trip the
    table through a versioned text-file representation.

    {2 Persistence}

    Entries are pure functions of [(width, k, key)] given the cell library
    and the mapper, so they are reusable across processes.
    {!create_persistent} keys a cache directory by
    [(format version, width, k, cell-library fingerprint)]: it loads the
    matching file on creation (recovering — by recomputing — from corrupt,
    truncated, or stale files, never loading a wrong value) and writes the
    table back atomically (temp file + rename) at process exit.  A
    fingerprint is a digest of the elaborated BLIF and mapped results of
    two tiny library cells, so any cell-library or mapper change
    invalidates old tables by construction.  {!create_default} selects
    persistence via the [HLP_SA_CACHE] environment variable.

    On-disk format (version {!format_version}):
    {v
    # sa_table v2 width=<w> k=<k> lib=<hex digest>
    <class> <left> <right> <sa>      (* left <= right, sa as %h *)
    v}
    Floats are C99 hex literals ([%h]), which round-trip bit-exactly:
    a reloaded table produces the same Eq. 4 weights — and therefore the
    same binding — as the run that wrote it.

    {2 Concurrency}

    The cache is safe to share between domains: lookups take a mutex only
    around the hash-table access, and the (expensive) partial-datapath
    mapping runs outside it.  Two domains racing on the same cold key may
    both compute it, but entries are pure functions of the key so they
    store identical values — results never depend on the interleaving.
    {!precompute} fills the table with {!Hlp_util.Pool.parallel_iter}. *)

type t

(** Raised by {!load} (and mirrored by the recovery path of
    {!create_persistent}) on malformed table files: 1-based line number
    of the offending construct plus a message, like
    {!Hlp_netlist.Blif.parse}. *)
exception Parse_error of int * string

(** Version tag of the on-disk format; files with any other version are
    rejected (structured error / silent recompute). *)
val format_version : int

(** [create ~width ~k ()] makes an empty in-memory table for datapaths of
    the given word [width] mapped to [k]-input LUTs (defaults: 8-bit,
    K = 4 as on Cyclone II). *)
val create : ?width:int -> ?k:int -> unit -> t

(** [create_persistent ~dir ()] is {!create} backed by the cache
    directory [dir]: load-on-create from
    [dir/sa-v<version>-w<width>-k<k>-<fingerprint>.table] when present
    and valid, atomic write-on-exit (and on explicit {!persist}) of any
    new entries.  A corrupt, truncated, or stale file is reported on
    stderr, counted in the [sa_table.cache_recoveries] telemetry
    counter, and recomputed from scratch — never loaded.  An unwritable
    directory degrades to in-memory operation with a warning; the cache
    is an accelerator, not a correctness dependency. *)
val create_persistent : ?width:int -> ?k:int -> dir:string -> unit -> t

(** [create_default ()] is {!create_persistent} with the directory named
    by the [HLP_SA_CACHE] environment variable when set and non-empty,
    else plain {!create}. *)
val create_default : ?width:int -> ?k:int -> unit -> t

(** Name of the environment variable consulted by {!create_default}
    (["HLP_SA_CACHE"]). *)
val cache_env : string

(** [persist t] writes the table to its cache file now, if [t] is
    persistent and has entries not yet on disk.  The write merges: under
    a lock file next to the cache file it re-reads the file, writes the
    union of its rows and [t]'s to a temp file and renames it over the
    cache file, so tables sharing a path — in one process or several —
    never lose each other's rows.  Also runs automatically at process
    exit.  No-op for in-memory tables. *)
val persist : t -> unit

(** [cache_file t] is the cache file path backing [t], if persistent. *)
val cache_file : t -> string option

(** [fingerprint ()] is the hex digest identifying the current cell
    library + mapper behaviour (part of the cache key and the file
    header). *)
val fingerprint : unit -> string

val width : t -> int
val k : t -> int

(** [hits t] / [misses t] count cache hits and misses over the table's
    lifetime (a miss is counted even when a racing domain fills the entry
    first).  Also mirrored into the process-wide telemetry counters
    [sa_table.hits] / [sa_table.misses]. *)
val hits : t -> int

val misses : t -> int

(** [disk_hits t] counts the subset of {!hits} served by entries that
    were loaded from the persistent cache — i.e. lookups that would have
    been mapper invocations in a cold process.  Mirrored into the
    [sa_table.disk_hits] telemetry counter. *)
val disk_hits : t -> int

(** [disk_entries t] is the number of entries that came from disk. *)
val disk_entries : t -> int

(** [stats_fields t] is the table's counters as JSON object members, in
    the order every report prints them: [entries], [hits], [misses],
    [disk_hits], [disk_entries]. *)
val stats_fields : t -> (string * Hlp_util.Json.t) list

(** [lookup t cls ~left ~right] is the estimated effective SA of the
    partial datapath for FU class [cls] with mux sizes [left] and [right]
    (size 1 = direct wire).  Symmetric in [left]/[right] for multipliers
    and adders alike (the cell is structurally symmetric up to the port
    order, and the estimate is cached under the sorted key).
    @raise Invalid_argument on non-positive sizes.
    @raise Failure if the cached or computed SA is not strictly positive
    and finite — a corrupted value would otherwise become an infinite
    Eq. 4 weight that silently dominates the matching. *)
val lookup : t -> Hlp_cdfg.Cdfg.fu_class -> left:int -> right:int -> float

(** [precompute t ~max_inputs] fills the table for the full symmetric
    square [1 <= left <= right <= max_inputs] — "all FU & MUX
    combinations" of Algorithm 1 line 3, where [max_inputs] bounds the
    largest mux any binding could create (at most one source register
    per merged op and port).  After [precompute], every binder lookup
    with both sizes within [max_inputs] is a hit.  Entries are computed
    in parallel across the {!Hlp_util.Pool} worker count. *)
val precompute : t -> max_inputs:int -> unit

(** [lut_network t cls ~left ~right] is the technology-mapped LUT
    network of the partial datapath behind one table entry — the
    network both the analytic estimate ({!lookup}) and the measured
    sweep ({!measured_sa}) evaluate.  Exposed so a harness can build
    the networks once and time only the simulation.
    @raise Invalid_argument on non-positive sizes. *)
val lut_network :
  t ->
  Hlp_cdfg.Cdfg.fu_class ->
  left:int ->
  right:int ->
  Hlp_netlist.Netlist.t

(** [measured_sa t cls ~left ~right] is the {e measured} counterpart of
    a {!lookup} entry: elaborate and map the same partial datapath, then
    drive the LUT network with [vectors] random vectors
    ({!Hlp_activity.Switching.monte_carlo}) and sum the sampled per-node
    activity.  [engine] picks the evaluation engine ([`Bit_parallel] by
    default; [`Scalar] is the oracle — both are bit-identical).  Never
    reads or writes the cache: the binder's analytic entries are
    unaffected.  This is the SA-precompute workload the bench harness
    times under both engines. *)
val measured_sa :
  ?engine:[ `Scalar | `Bit_parallel ] ->
  ?vectors:int ->
  ?seed:string ->
  t ->
  Hlp_cdfg.Cdfg.fu_class ->
  left:int ->
  right:int ->
  float

(** [measure_all t ~max_inputs] runs {!measured_sa} over the same
    symmetric key square as {!precompute} and returns the
    [(key, measured sa)] rows in key-enumeration order. *)
val measure_all :
  ?engine:[ `Scalar | `Bit_parallel ] ->
  ?vectors:int ->
  ?seed:string ->
  t ->
  max_inputs:int ->
  ((Hlp_cdfg.Cdfg.fu_class * int * int) * float) list

(** [entries t] lists the memoized [(class, left, right, sa)] rows. *)
val entries : t -> (Hlp_cdfg.Cdfg.fu_class * int * int * float) list

(** [save t path] / [load path] write / read the versioned text-file
    format directly (the persistent cache uses the same representation).
    [load] restores width/k from the header and validates the version,
    fingerprint, key ordering and SA positivity of every row.
    @raise Parse_error (with the 1-based line number) on malformed,
    stale, or out-of-range content. *)
val save : t -> string -> unit

val load : string -> t

(** [load_result path] is {!load} with the {!Parse_error} case reified
    as [Error (line, msg)]. *)
val load_result : string -> (t, int * string) result
