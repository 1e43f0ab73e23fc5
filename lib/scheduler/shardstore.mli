(** Crash-consistent, self-healing sharded warm store for the
    transfer-tuning database.

    A store is a directory: a checksummed [DAISYMAN 1] manifest binding
    immutable per-shard DAISYDB segments plus a checksummed write-ahead
    log for appends. Entries partition by embedding region through a
    tree of {!Database.split_entries} median splits, so every embedding
    routes to exactly one shard and the cross-shard top-k merge is
    bit-identical to the monolithic scan (the
    {!Daisy_embedding.Embedding.compare_key} contract). Shards carry no
    index: a query scans the shards it visits.

    Durability: segments are immutable; appends only touch the WAL
    (per-record FNV-1a-64 checksums, fsync, torn-tail-tolerant replay);
    {!compact} and {!scrub} write new-generation segments first and
    commit them with one atomic manifest rename, which also advances
    the manifest's [consumed] WAL offset past every folded record — the
    WAL file itself is only ever appended to (see {!trim_wal}). Every
    crash point — the ["shard_wal"], ["shard_compact"] and
    ["shard_scrub"] {!Daisy_support.Fault} labels — leaves a store that
    opens cleanly and answers bit-identically to the pre- or
    post-operation state; any WAL over-replay is absorbed by
    {!Database.merge}'s content-keyed dedup.

    Corruption containment: a shard failing its checksums or
    fingerprint is quarantined — the store keeps serving the remaining
    shards (surviving entries of the bad one answer by scan), emits one
    throttled ["shard_quarantine"] warning, counts the event, and
    {!scrub} repairs the shard from survivors + WAL when possible.

    Writer discipline: at most one process appends at a time, and at
    most one process compacts/scrubs/trims at a time — but because
    compaction never rewrites the WAL, the appender and the maintainer
    may be {e different} processes (a seeder appending under a
    compacting daemon is safe). Any number of readers may {!refresh}
    concurrently. See docs/robustness.md, "Sharded warm store". *)

type t

val default_shard_cap : int
(** Compaction splits a shard past this many entries:
    {!Database.part_cap} (512). *)

val is_store_dir : string -> bool
(** Does [path] name a store directory (has a [MANIFEST])? *)

val create : ?shard_cap:int -> ?overwrite:bool -> string -> Database.t -> t
(** [create dir db] — partition [db]'s entries into a fresh store at
    [dir] (created if missing): per-shard segments, a manifest, an empty
    WAL. Refuses to replace an existing store unless
    [overwrite]; raises [Invalid_argument] if an embedding has a
    non-finite coordinate. *)

val open_ : ?shard_cap:int -> string -> t
(** Open an existing store: verify and parse the manifest, load every
    segment (quarantining corrupt ones), collect orphaned generation
    files and the [shard-*.db.ann] index files older stores kept beside
    their segments, replay the WAL (dropping and truncating a torn
    tail). Raises
    [Daisy_support.Diag.Error] only for a missing/corrupt manifest —
    segment corruption degrades, never fails the open. *)

val dir : t -> string

val append : t -> Database.entry list -> unit
(** Durably append entries: one checksummed WAL record each (fsync
    before return), routed to their shards' pending sets. Committed
    segments are not touched. The ["shard_wal"] fault point fires
    mid-record; a crash there leaves every earlier record durable and
    the torn record dropped on replay. Raises [Invalid_argument],
    before writing anything, if an embedding has a non-finite
    coordinate. *)

val compact : ?now:float -> t -> int
(** Fold pending WAL entries into their shards — {e only} the affected
    shards are rewritten (a new-generation segment each), splitting any
    shard past [shard_cap]. The manifest rename is the
    commit point (["shard_compact"] fault label; crash before = pre-
    state, after = post-state modulo idempotent WAL re-replay); it
    advances the [consumed] boundary rather than touching the WAL file,
    so a concurrent appender in another process loses nothing. Returns
    the number of shards rewritten (0 = nothing to fold). [now] stamps
    the manifest's last-compaction time. A failed compaction re-raises
    after bringing the handle back to the store on disk, as {!refresh}
    does: loaded shards the manifest still names are kept, the rest are
    reloaded, and the WAL is replayed. *)

val trim_wal : t -> int
(** Drop the consumed (already-folded) WAL prefix; returns the bytes
    reclaimed. Call only at a single-writer moment (daemon startup, end
    of a seeding run): records appended by {e another} process during
    the trim would be lost. Crash-safe at every point. *)

type scrub_report = {
  sr_shards : int;
  sr_corrupt : int;  (** segments that failed verification *)
  sr_repaired : int;
  sr_entries_lost : int;  (** manifest count minus recovered entries *)
}

val scrub : ?repair:bool -> ?now:float -> t -> scrub_report
(** Walk every shard verifying segment checksums + fingerprint. A bad
    segment is quarantined and — with [repair], the default — rewritten
    from the in-memory state (survivors + WAL replay) under the
    ["shard_scrub"] fault label. A failed scrub heals the handle like a
    failed {!compact}. *)

val refresh : t -> [ `Unchanged | `Changed of int * int ]
(** Follow an external writer: re-read the manifest and WAL.
    [`Changed (swapped, appended)] — [swapped] shards were reloaded
    from disk (unchanged shards are reused by (file, fingerprint)
    identity: per-shard hot reload), [appended] new WAL records
    replayed. *)

val fingerprint : t -> string
(** Logical content fingerprint (sorted entry bodies): invariant under
    partitioning, compaction and splits — the hot-reload staleness
    rule. *)

val as_database : t -> Database.t
(** An immutable snapshot of the store: {!Database.of_parts} over the
    shard views (committed + pending entries), so its top-k is the
    cross-shard search — bit-identical (distances and order) to the
    scan of its entries — and each visited shard counts in
    {!Database.visits}. Later appends, refreshes and compactions do not
    reach a snapshot already taken, and a merge into the snapshot does
    not reach the store. Costs one pass over the entries: [Store]
    takes one per published reload, never one per query. *)

type stats = {
  st_shards : int;
  st_entries : int;
  st_wal_depth : int;  (** pending (un-compacted) WAL entries *)
  st_quarantined : int;
  st_gen : int;
  st_compacted : float;  (** unix seconds; [nan] = never *)
  st_scrubbed : float;
}

val stats : t -> stats
val wal_depth : t -> int

val quarantines : unit -> int
(** Process-wide count of shard quarantine events. *)

val reset_quarantines : unit -> unit
