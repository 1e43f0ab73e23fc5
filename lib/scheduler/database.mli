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

type backend = {
  b_size : unit -> int;
  b_entries : unit -> entry list;
  b_query :
    k:int -> Daisy_embedding.Embedding.t -> (float * entry) list;
  b_exact : int -> entry list;
  b_fingerprint : unit -> string;
}
(** A pluggable read path: {!of_backend} builds a read-only database
    handle whose {!size}/{!entries}/{!query}/{!exact_matches}/
    {!fingerprint} delegate to these functions — how the sharded warm
    store ({!Shardstore}) serves through the ordinary [~db] interface
    without materialising a monolithic entry list. *)

type t

val create : unit -> t

val of_entries : entry list -> t
(** A database holding exactly [entries] (same order as {!entries}
    returns them). *)

val of_backend : backend -> t
(** A read-only handle delegating to [backend]. Mutations ([add],
    [merge]) and index management raise [Invalid_argument]. *)

val is_backed : t -> bool

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
    [into] bit-identical to merging it once. *)

val dedup_key : entry -> string
(** The content key {!add}/{!merge} deduplicate on: canonical structure
    hash + recipe string. *)

val better_cost : float -> float -> bool
(** [better_cost a b] — the dedup tie-break: is cost [a] strictly better
    than cost [b]? ([nan] never beats anything; anything beats [nan].) *)

val query : t -> k:int -> Daisy_loopir.Ir.loop -> (float * entry) list
(** The [k] nearest entries in embedding space, closest first. Runs
    through the ANN index when one is attached (see {!build_index} /
    {!load_index}), as a linear scan otherwise — with bit-identical
    results either way (exact top-k agreement, tie order included). *)

val query_embedding : t -> k:int -> Daisy_embedding.Embedding.t -> (float * entry) list
(** {!query} for a pre-computed query embedding. *)

val fingerprint : t -> string
(** FNV-1a-64 fingerprint of the database contents (every entry's
    serialized body, in order) — the staleness rule for persisted ANN
    indexes. Survives a {!save}/{!load} round-trip. Computed once and
    kept until the next {!add}/{!merge}. *)

val bounds : t -> (float array * float array) option
(** The bounding box [(lo, hi)] of the entries' embeddings, [None] when
    empty; memoized like {!fingerprint} (shared arrays: do not mutate).
    Raises [Invalid_argument] on a backed handle. *)

val build_index : t -> unit
(** Build and attach an in-memory ANN index (the bucket k-d tree of
    {!Daisy_embedding.Ann}) over the current entries. The index is a
    pure accelerator: {!query} results do not change.
    Any later {!add}/{!merge} detaches it. *)

val save_index : t -> string -> unit
(** Persist the attached index atomically ([DAISYANN 1] format).
    Raises [Invalid_argument] if no index is attached. *)

val load_index : t -> string -> (string, string) result
(** [load_index db path] — attach a persisted index (paged: entry
    vectors load lazily per query). [Ok description] on success;
    [Error reason] when the file is missing, corrupt, a different
    version, stale ({!fingerprint} mismatch), or names an index
    structure other than the k-d tree; the queries then scan, and
    {!rebuild_index} replaces the file. A page corruption
    discovered later, mid-query, is also safe: the query falls back to
    the linear scan with one warning (see {!index_fallbacks}). *)

val rebuild_index : t -> string -> string
(** Build a fresh index, persist it at the given path, attach it, and
    return its description. *)

val has_index : t -> bool
val detach_index : t -> unit

val index_description : t -> string option
(** Description of the attached index, if any. *)

val index_fallbacks : unit -> int
(** Process-wide count of queries that hit a corrupt index and fell
    back to the linear scan. *)

val reset_index_fallbacks : unit -> unit

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
