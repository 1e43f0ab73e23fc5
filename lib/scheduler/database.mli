(** The transfer-tuning database: performance embeddings paired with
    optimization recipes, seeded from normalized A variants and queried by
    Euclidean distance (paper §4). *)

type entry = {
  source : string;  (** benchmark/nest label *)
  embedding : Daisy_embedding.Embedding.t;
  recipe : Daisy_transforms.Recipe.t;
  canon_hash : int;  (** canonical structure hash of the normalized nest *)
  cost_ms : float;  (** predicted runtime of the recipe; [nan] = unknown *)
}

type t

val create : unit -> t

val of_entries : entry list -> t
(** A database holding exactly [entries] (same order as {!entries}
    returns them). *)

val size : t -> int

val add :
  ?cost_ms:float ->
  t ->
  source:string ->
  nest:Daisy_loopir.Ir.loop ->
  recipe:Daisy_transforms.Recipe.t ->
  unit
(** Add an entry. Content-keyed dedup: if an entry with the same
    canonical structure hash {e and} recipe string already exists, the
    one with the better (lower) [cost_ms] is kept — in the incumbent's
    position, so entry order is independent of duplicate arrivals and
    replays are idempotent. An omitted [cost_ms] ([nan]) always loses to
    a known cost; ties keep the incumbent. *)

val entries : t -> entry list
(** All entries, most recently added first. *)

val merge : into:t -> t -> unit
(** [merge ~into src] appends [src]'s entries to [into] as if [src]'s adds
    had been replayed on [into] in order (for parallel shard seeding).
    Deduplicates like {!add}: merging the same shard twice — or
    replaying a WAL whose records were already compacted in — leaves
    [into] bit-identical to merging it once. Linear in the two sizes:
    each entry's {!dedup_key} is formatted once. *)

val dedup_key : entry -> string
(** The content key {!add}/{!merge} deduplicate on: canonical structure
    hash + recipe string. *)

val better_cost : float -> float -> bool
(** [better_cost a b] — the dedup tie-break: is cost [a] strictly better
    than cost [b]? ([nan] never beats anything; anything beats [nan].) *)

val query : t -> k:int -> Daisy_loopir.Ir.loop -> (float * entry) list
(** The [k] nearest entries in embedding space, closest first. Runs
    {!query_parts} over the index's parts when one is attached (see
    {!build_index} or {!of_parts}), as a linear scan otherwise — with
    bit-identical results either way (exact top-k agreement, tie order
    included). *)

val query_embedding : t -> k:int -> Daisy_embedding.Embedding.t -> (float * entry) list
(** {!query} for a pre-computed query embedding. *)

val fingerprint : t -> string
(** FNV-1a-64 fingerprint of the database contents (every entry's
    serialized body, in order) — the warm store's hot-reload and
    segment-integrity rule. Survives a {!save}/{!load} round-trip.
    Computed once and kept until the next {!add}/{!merge}. *)

val bounds : t -> (float array * float array) option
(** The bounding box [(lo, hi)] of the entries' embeddings, [None] when
    empty; memoized like {!fingerprint} (shared arrays: do not mutate). *)

val part_cap : int
(** Entries per part of an index (512); also the sharded store's default
    shard cap. *)

val split_entries :
  entry array -> (int * float * entry array * entry array) option
(** The median split: [Some (d, thr, left, right)] splits on the
    dimension [d] of widest spread at its median coordinate [thr],
    advanced past a run of minimum values so both sides are non-empty.
    [left] holds the entries whose coordinate is [< thr] and [right] the
    rest, each in input order, so bit-equal embeddings share a side.
    [None] for fewer than two entries or zero spread on every
    dimension. *)

val build_index : t -> unit
(** Split the current entries, in list order, with {!split_entries}
    until each part holds at most {!part_cap} entries (or cannot split),
    and attach the parts as an in-memory index. The index is a pure
    accelerator: {!query} results do not change. It is never written to
    disk, and any later {!add}/{!merge} detaches it. Raises
    [Invalid_argument] on a non-finite embedding coordinate. *)

val of_parts : t list -> t
(** [of_parts parts] — an ordinary database holding the entries of
    [parts], concatenated in order, with [parts] attached as its index:
    {!query} runs {!query_parts} over them. The parts must meet
    {!query_parts}'s contract (finite coordinates, bit-equal embeddings
    in one part, each part in arrival order); then every answer equals
    the scan of the concatenation. Costs one pass over the entries. The
    parts are shared, never mutated: a later {!add}/{!merge} on the
    result changes its own entries and detaches the index. How the
    sharded warm store publishes an immutable snapshot of its shard
    views ({!Shardstore.as_database}). *)

val index_parts : t -> int
(** Parts of the attached index ({!build_index} or {!of_parts}); [0]
    when none is attached. *)

val query_parts :
  t list -> k:int -> Daisy_embedding.Embedding.t -> (float * entry) list
(** [query_parts parts ~k q] — the exact top-k over [parts],
    best-bin-first: the non-empty parts in
    increasing order of {!Daisy_embedding.Embedding.box_lb} to their
    bounding box ({!bounds}), each visited part scanned for its own
    top-k and the answers merged under [Embedding.nearest_by], stopping
    at the first bound strictly greater than the current k-th best
    distance. The result equals the scan of all the parts' entries,
    distances and order, provided coordinates are finite, bit-equal
    embeddings share a part, and each part keeps arrival order. The
    parts must be unindexed. Each visit counts in {!visits}. *)

val visits : unit -> int
(** Process-wide count of parts {!query_parts} has visited and scanned:
    index parts and shard views alike. *)

val reset_visits : unit -> unit

val exact_matches : t -> Daisy_loopir.Ir.loop -> entry list
(** Entries whose normalized structure is identical — exact transfer
    hits. *)

val exact_matches_hash : t -> int -> entry list
(** {!exact_matches} for a pre-computed canonical structure hash. *)

val entry_to_lines : entry -> string list
(** The {!entry_lines}-line body framing used by {!save}, exposed so
    other persistent stores (e.g. the bench harness's shard checkpoints,
    the sharded warm store's WAL) can embed entries in their own
    records. Inverse of {!entry_of_lines}. *)

val entry_of_lines : string list -> (entry, string) result
(** Parse the body lines produced by {!entry_to_lines} (no checksum
    framing). Also accepts the legacy 4-line body (no cost column);
    such entries parse with an unknown ([nan]) cost. A non-finite
    embedding coordinate is an [Error "non-finite embedding value"]. *)

val entry_lines : int
(** Body lines per entry as {!entry_to_lines} writes them (currently
    5: source, hash, cost, embedding, recipe). *)

val save : t -> string -> unit
(** [save db path] — write the versioned on-disk format: a
    ["DAISYDB 1"] header, then one checksummed block per entry
    (embeddings printed with [%h], so floats round-trip exactly). A
    {!load} of the result reproduces the entry list — and therefore
    every {!query}/{!exact_matches} result — bit for bit. The file is
    replaced atomically (write-temp, fsync, rename), so a crash
    mid-save — including one injected at the per-entry ["db_save"]
    [Daisy_support.Fault] point — leaves any previous database intact.
    The format is documented in docs/robustness.md. *)

val load : string -> t * string list
(** [load path] — read a database written by {!save}. Corrupt entries
    (bad checksum, malformed field, non-finite embedding coordinate,
    truncated block) are skipped
    individually, each contributing a warning string; the surviving
    entries load in file order. Raises [Daisy_support.Diag.Error] only
    for whole-file problems: unreadable file, bad magic, or unsupported
    version. Every entry passes through the ["db_load"]
    [Daisy_support.Fault] injection point. *)

val pp : t Fmt.t
