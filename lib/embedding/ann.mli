(** Sub-linear nearest-neighbour index over performance embeddings.

    An exact bucket k-d tree with best-bin-first bounded search, with
    one contract: {!query} returns {e exactly} the same top-k (distances
    and order) as [Embedding.nearest_by] run over the indexed vectors,
    for every database and every query. Ties
    resolve by {!Embedding.compare_key} and then by entry index, which
    coincides with the scan's arrival order. Coordinates are finite:
    {!build} refuses anything else, and a page carrying a non-finite
    coordinate is {!Corrupt}.

    Indexes persist in a versioned [DAISYANN 1] file (FNV-1a-64
    checksums, atomic writes, content fingerprint for staleness) with a
    paged loader: {!load} never materialises the entries; leaf pages are
    fetched and checksum-verified on demand. A file whose header names
    any index structure other than [kd] is refused by {!load}.
    Fault-injection labels:
    ["ann_build"] (per page during {!save}) and ["ann_query"] (at
    {!query} entry). *)

type t

exception Corrupt of string
(** A file-backed page (or section) failed its checksum or could not be
    parsed, or the ["ann_query"] fault point fired. Callers fall back to
    the linear scan. *)

val page_cap : int
(** Leaf capacity of the k-d tree. *)

val build : fingerprint:string -> dim:int -> float array array -> t
(** [build ~fingerprint ~dim vectors] — index [vectors] (entry [i] keeps
    index [i] in query results) in memory. [fingerprint] identifies the
    database contents the index was built from; {!load} refuses an index
    whose stored fingerprint differs. Deterministic: the same vectors
    produce a bit-identical index (and index file). Raises
    [Invalid_argument] if any vector's length differs from [dim] or any
    coordinate is not finite. *)

val box_lb : float array -> float array -> float array -> float
(** [box_lb q lo hi] — Euclidean distance from [q] to the axis-aligned
    box [[lo, hi]]: a lower bound on [Embedding.distance q v] for every
    [v] inside the box, when all coordinates are finite. *)

val query : t -> k:int -> float array -> (float * int) list
(** [query t ~k q] — the [k] entries nearest to [q] as
    [(distance, entry index)], nearest first: exactly
    [Embedding.nearest_by]'s distances and order over the indexed
    vectors. Raises {!Corrupt} on page corruption (file-backed indexes)
    or an injected ["ann_query"] fault. Thread-safe: parallel queries
    may share [t]. *)

val save : t -> string -> unit
(** Write the [DAISYANN 1] file atomically (write-temp, fsync, rename):
    a crash mid-write — including the per-page ["ann_build"] fault
    point — leaves any previous index file intact. *)

val load : path:string -> fingerprint:string -> (t, string) result
(** [load ~path ~fingerprint] — open a saved index, reading only the
    header, tree and page table; pages load lazily at query time.
    [Error reason] on a missing/unreadable file, version mismatch, an
    index structure other than [kd] (the reason names it),
    header/tree/table corruption, or a stored fingerprint differing from
    [fingerprint] (the staleness rule: fingerprint of the current
    database contents). *)

val n : t -> int
val dim : t -> int
val fingerprint : t -> string

val pages : t -> int
(** Number of leaf pages. *)

val describe : t -> string
(** One-line human-readable summary, e.g. ["kd, 1500 entries, 42 pages"]. *)

val verify : path:string -> fingerprint:string -> (string, string) result
(** [verify ~path ~fingerprint] — deep integrity check: {!load}, then
    fetch and checksum-verify every page (corruption {!load} alone would
    only surface lazily, mid-query). [Ok description] when the whole
    file is intact; [Error reason] otherwise. The sharded warm store's
    scrubber runs this over every shard sidecar. *)
