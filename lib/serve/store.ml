(** The warm store: the transfer-tuning database a running daemon serves
    from, with crash-safe hot reload.

    Two sources, one snapshot shape. A monolithic file: an offline
    [daisyc seed --db-out] job rewrites it atomically
    (write-temp/fsync/rename) and a reload reads the whole file, indexed
    in memory ([Database.build_index]). A sharded store directory
    ({!Daisy_scheduler.Shardstore.is_store_dir}): reloads happen at
    {e manifest granularity} — {!Shardstore.refresh} swaps only the
    shards whose segments changed and replays new WAL records, so a
    seeder appending a handful of entries never forces a full re-read —
    and the snapshot is {!Shardstore.as_database}, whose index parts are
    the shard views.

    Either way the daemon detects updates with a cheap [stat] pre-check
    and reports [`Reloaded] only when the {e content fingerprint}
    actually changed — a rewrite (or compaction) of identical contents
    is [`Unchanged], so downstream caches keyed on the fingerprint stay
    valid. A published snapshot is immutable: a request keeps the one it
    started with across any reload. A failed reload — unreadable file,
    bad magic, injected ["serve_reload"] fault — keeps the previous
    snapshot serving and warns (throttled per-label). *)

module Database = Daisy_scheduler.Database
module Shardstore = Daisy_scheduler.Shardstore
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault

type snapshot = { db : Database.t; fingerprint : string }

(* What backs the store: a single atomically-rewritten database file,
   or a sharded store directory followed at manifest granularity. *)
type source = Mono of string | Shard of Shardstore.t

type t = {
  source : source option;
  lock : Mutex.t;
  mutable current : snapshot;
  mutable last_stat : (float * int) option;  (** (mtime, size) pre-check *)
  mutable reloads : int;
  mutable failed_reloads : int;
  mutable shard_swaps : int;  (** shards reloaded across all refreshes *)
}

let empty_snapshot () = { db = Database.create (); fingerprint = "empty" }

let stat_of path =
  match Unix.stat path with
  | { Unix.st_mtime; st_size; _ } -> Some (st_mtime, st_size)
  | exception Unix.Unix_error (_, _, _) -> None

(* The pre-check. For a sharded store, one stat each on the manifest and
   the WAL, folded into the same (mtime, size) shape — appends grow the
   WAL, compaction/scrub/trim rewrite the manifest. Only an
   optimisation: {!Shardstore.refresh} re-verifies by checksum. *)
let source_stat = function
  | Mono path -> stat_of path
  | Shard st -> (
      let dir = Shardstore.dir st in
      match
        ( stat_of (Filename.concat dir "MANIFEST"),
          stat_of (Filename.concat dir "wal.log") )
      with
      | Some (mt, sz), Some (mt', sz') -> Some (Float.max mt mt', sz + sz')
      | (Some _ as s), None | None, (Some _ as s) -> s
      | None, None -> None)

let source_path = function Mono path -> path | Shard st -> Shardstore.dir st

(* The source's contents as they are now: their fingerprint, and the
   snapshot that publishes them. A file's per-entry corruption is
   tolerated by [Database.load] (warned, throttled), and its entries are
   indexed in memory only for a snapshot that is published. *)
let contents = function
  | Mono path ->
      let db, warnings = Database.load path in
      List.iter
        (fun w -> Diag.warn_throttled ~label:"serve_db_load" "%s" w)
        warnings;
      ( Database.fingerprint db,
        fun () ->
          Database.build_index db;
          db )
  | Shard st -> (Shardstore.fingerprint st, fun () -> Shardstore.as_database st)

(* Follow the source: [None] when it certainly did not change. *)
let read_source t source =
  match source with
  | Mono _ -> Some (contents source)
  | Shard st -> (
      match Shardstore.refresh st with
      | `Unchanged -> None
      | `Changed (swapped, _appended) ->
          t.shard_swaps <- t.shard_swaps + swapped;
          Some (contents source))

let create ?path () : t =
  let source =
    Option.map
      (fun p ->
        Fault.inject "serve_reload";
        if Shardstore.is_store_dir p then Shard (Shardstore.open_ p) else Mono p)
      path
  in
  let current =
    match source with
    | None -> empty_snapshot ()
    | Some source ->
        let fingerprint, publish = contents source in
        { db = publish (); fingerprint }
  in
  let last_stat = Option.bind source source_stat in
  {
    source;
    lock = Mutex.create ();
    current;
    last_stat;
    reloads = 0;
    failed_reloads = 0;
    shard_swaps = 0;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let snapshot t = locked t (fun () -> t.current)
let db t = (snapshot t).db
let fingerprint t = (snapshot t).fingerprint
let reloads t = locked t (fun () -> t.reloads)
let failed_reloads t = locked t (fun () -> t.failed_reloads)
let shard_swaps t = locked t (fun () -> t.shard_swaps)

let sharded t : Shardstore.t option =
  match t.source with Some (Shard st) -> Some st | _ -> None

let shard_stats t : Shardstore.stats option =
  Option.map Shardstore.stats (sharded t)

let reload_if_changed ?(force = false) t :
    [ `Reloaded of string | `Unchanged | `Failed of string ] =
  match t.source with
  | None -> `Unchanged
  | Some source ->
      locked t (fun () ->
          let pre = source_stat source in
          if (not force) && pre <> None && pre = t.last_stat then `Unchanged
          else
            match
              Fault.inject "serve_reload";
              read_source t source
            with
            | exception e ->
                t.failed_reloads <- t.failed_reloads + 1;
                let reason = Printexc.to_string e in
                Diag.warn_throttled ~label:"serve_reload"
                  "warm-store reload of %s failed (%s); keeping the previous \
                   snapshot"
                  (source_path source) reason;
                `Failed reason
            | None ->
                t.last_stat <- pre;
                `Unchanged
            | Some (fingerprint, publish) ->
                t.last_stat <- pre;
                (* a compaction or rewrite of identical content changes
                   files, not the served content *)
                if String.equal fingerprint t.current.fingerprint then
                  `Unchanged
                else begin
                  t.current <- { db = publish (); fingerprint };
                  t.reloads <- t.reloads + 1;
                  `Reloaded fingerprint
                end)
