(** Trace-driven two-level set-associative LRU cache simulator
    (write-allocate, write-back).

    Geometry is normalized at construction: [line_bytes] and the set
    count are rounded down to powers of two (one
    {!Daisy_support.Diag} warning per distinct geometry), so the hot
    path indexes sets with a mask and lines with a shift. *)

type stats = {
  mutable accesses : float;
  mutable misses : float;
  mutable evicts : float;
  mutable writebacks : float;
}

val zero_stats : unit -> stats
val copy_stats : stats -> stats
val sub_stats : stats -> stats -> stats

type t

val create : Config.t -> t

val l1_line_shift : t -> int
(** log2 of the (normalized) L1 line size; line = [addr lsr shift]. *)

val clock : t -> int
(** Total level accesses so far (the LRU clock). *)

val access : t -> addr:int -> write:bool -> unit
(** One memory access through the hierarchy. *)

val access_line : t -> line:int -> write:bool -> unit
(** Same, line-addressed: [access t ~addr] is
    [access_line t ~line:(addr lsr l1_line_shift t)]. The fused replay
    precomputes line addresses and bumps them by per-iteration strides. *)

val l1_replay_advance :
  t ->
  addrs:int array ->
  deltas:int array ->
  writes:bool array ->
  memoable:bool array ->
  n:int ->
  mline:int array ->
  mslot:int array ->
  mep:int array ->
  unit
(** One fused replay iteration: the [n] accesses [addrs.(i)]/[writes.(i)]
    in order, bit-identical to [n] {!access} calls, each address advanced
    by [deltas.(i)] afterwards. [mline]/[mslot]/[mep] (caller-owned, all
    length >= [n], [mep] initialized to -1) memoize each touch's L1 slot,
    validated by line equality plus the line's per-set eviction epoch — a
    valid memo entry proves residency, so the access charges the hit
    without a tag scan. Set epochs bump on every eviction and flush,
    which is exactly the set of events that can displace a valid line.
    Touches with [memoable.(i)] false bypass the memo entirely (neither
    consulted nor re-armed) — the caller asserts their line changes every
    iteration (|delta| >= line size), so a memo entry armed last
    iteration can never match. *)

val l1_probe : t -> lines:int array -> n:int -> slots:int array -> bool
(** Pure residency probe: true iff every [lines.(0..n-1)] currently hits
    in L1, filling [slots.(0..n-1)] with the L1 slot of each line. No
    statistics, clock or LRU side effects. *)

val l1_probe_memo :
  t ->
  lines:int array ->
  n:int ->
  slots:int array ->
  mline:int array ->
  mslot:int array ->
  mep:int array ->
  bool
(** {!l1_probe} consulting (and re-arming) the caller's per-touch slot
    memo: memo-valid touches prove residency without a tag scan, and
    scanned hits record their slots back into the memo. *)

val l1_hit_run : t -> slots:int array -> writes:bool array -> k:int -> n:int -> unit
(** Retire [n] iterations of a [k]-touch all-L1-hit pattern in O(k),
    bit-identical to n*k generic hits (see the implementation for the
    stamp/clock argument). Caller must have proved residency of all [k]
    lines with {!l1_probe} immediately before. *)

val flush_l1 : t -> unit
val flush_l2 : t -> unit
(** Reset one level's tag state, keep statistics. *)

val l1_stats : t -> stats
val l2_stats : t -> stats
