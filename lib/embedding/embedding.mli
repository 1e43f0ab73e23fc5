(** Performance embeddings: fixed-length, iterator-rename-invariant feature
    vectors of loop nests. The transfer-tuning database matches nests by
    Euclidean distance between these vectors (paper §4, after Trümper et
    al., ICS'23). *)

type t = float array

val dim : int
(** Length of every embedding vector. *)

val of_node : Daisy_loopir.Ir.node -> t

val distance : t -> t -> float
(** Euclidean distance. *)

val box_lb : t -> t -> t -> float
(** [box_lb q lo hi] — Euclidean distance from [q] to the axis-aligned
    box [[lo, hi]]: a lower bound on [distance q v] for every [v] inside
    the box, when all coordinates are finite. *)

val compare_key : float * t -> float * t -> int
(** Total order on [(distance, embedding)] ranking keys: distance first,
    then the embedding lexicographically. The shared tie-break contract
    of every top-k path ({!nearest_by} and the database's best-bin-first
    search over its parts): entries at equal distance rank by their
    embedding coordinates, making results independent of database order;
    only bit-equal embeddings fall back to arrival order, which every
    part preserves. *)

val nearest_by : embed:('a -> t) -> int -> 'a list -> t -> (float * 'a) list
(** [nearest_by ~embed k entries q] — the [k] entries closest to [q],
    nearest first, comparing [embed entry] against [q]. O(n*k) bounded
    insertion (no full sort, no intermediate pair list). Ranked by
    {!compare_key}, so the result is the same for any permutation of
    [entries]; only entries with bit-equal embeddings keep their
    arrival order (earlier first, like a stable full sort). *)

val nearest : int -> (t * 'a) list -> t -> (float * 'a) list
(** [nearest k db q] — the [k] entries closest to [q], nearest first.
    [nearest_by] over pre-paired entries. *)

val pp : t Fmt.t
