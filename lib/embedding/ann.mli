(** Sub-linear nearest-neighbour index over performance embeddings.

    An exact bucket k-d tree with best-bin-first bounded search, with
    one contract: {!query} returns {e exactly} the same top-k (distances
    and order) as [Embedding.nearest_by] run over the indexed vectors,
    for every database and every query. Ties
    resolve by {!Embedding.compare_key} and then by entry index, which
    coincides with the scan's arrival order. Coordinates are finite:
    {!build} refuses anything else.

    An index exists only in memory, built from the vectors it answers
    for; nothing is persisted (docs/performance.md, "Why there is no
    index file"). *)

type t

val build : dim:int -> float array array -> t
(** [build ~dim vectors] — index [vectors] (entry [i] keeps index [i] in
    query results). Deterministic: the same vectors produce the same
    tree. Raises [Invalid_argument] if any vector's length differs from
    [dim] or any coordinate is not finite. *)

val box_lb : float array -> float array -> float array -> float
(** [box_lb q lo hi] — Euclidean distance from [q] to the axis-aligned
    box [[lo, hi]]: a lower bound on [Embedding.distance q v] for every
    [v] inside the box, when all coordinates are finite. *)

val query : t -> k:int -> float array -> (float * int) list
(** [query t ~k q] — the [k] entries nearest to [q] as
    [(distance, entry index)], nearest first: exactly
    [Embedding.nearest_by]'s distances and order over the indexed
    vectors. Thread-safe: parallel queries may share [t]. *)

val n : t -> int
val dim : t -> int

val describe : t -> string
(** One-line human-readable summary, e.g. ["kd, 1500 entries, 42 leaves"]. *)
