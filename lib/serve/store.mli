(** The daemon's warm store: a snapshot of the transfer-tuning database
    with fingerprint-checked atomic hot reload. See docs/serving.md,
    "Hot reload". *)

type snapshot = {
  db : Daisy_scheduler.Database.t;
  fingerprint : string;
      (** {!Daisy_scheduler.Database.fingerprint} for a file,
          {!Daisy_scheduler.Shardstore.fingerprint} for a directory *)
}

type t

val create : ?path:string -> unit -> t
(** [create ~path ()] loads the database at [path] (raising
    [Daisy_support.Diag.Error] on whole-file problems — the daemon
    fails fast at boot) and indexes its entries in memory
    ({!Daisy_scheduler.Database.build_index}); a [path ^ ".ann"] file
    beside it is neither read nor touched. A reload that swaps in new
    contents indexes them afresh.
    When [path] is a sharded store directory
    ({!Daisy_scheduler.Shardstore.is_store_dir}) the snapshot is
    {!Daisy_scheduler.Shardstore.as_database}, one index part per shard,
    with per-shard hot reload and quarantine-degraded corruption
    handling. Without [path], an empty store (requests are served from
    baselines only). *)

val snapshot : t -> snapshot
(** The current snapshot. Every snapshot is immutable once returned:
    in-flight requests keep serving from it across a concurrent reload,
    refresh, compaction or scrub, so one request never mixes two states
    of the store. *)

val db : t -> Daisy_scheduler.Database.t
val fingerprint : t -> string
val reloads : t -> int
val failed_reloads : t -> int

val sharded : t -> Daisy_scheduler.Shardstore.t option
(** The backing shard store, when [path] named a store directory — the
    daemon's background compactor and scrubber drive maintenance
    through this handle. *)

val shard_stats : t -> Daisy_scheduler.Shardstore.stats option
val shard_swaps : t -> int
(** Total shards swapped in across all refreshes (0 for a monolithic
    store) — the per-shard hot-reload counter. *)

val reload_if_changed :
  ?force:bool -> t -> [ `Reloaded of string | `Unchanged | `Failed of string ]
(** Cheap [stat] pre-check (skipped with [force]), then re-read the file
    or {!Daisy_scheduler.Shardstore.refresh} the directory, and publish a
    new snapshot only when the content fingerprint changed. A failed
    reload — file unreadable, bad magic, injected ["serve_reload"] fault
    — keeps the previous snapshot and returns [`Failed]: a hot reload
    can never take a serving daemon down. *)
