(** The warm store: the transfer-tuning database a running daemon serves
    from, with crash-safe hot reload.

    Two backings. A monolithic file: an offline [daisyc seed --db-out]
    job rewrites it atomically (write-temp/fsync/rename) and a reload
    republishes the whole snapshot, indexed in memory
    ([Database.build_index]). A sharded store directory
    ({!Daisy_scheduler.Shardstore.is_store_dir}): reloads happen at
    {e manifest granularity} — {!Shardstore.refresh} swaps only the
    shards whose segments changed and replays new WAL records, so a
    seeder appending a handful of entries never forces a full re-read.

    Either way the daemon detects updates with a cheap [stat] pre-check
    and reports [`Reloaded] only when the {e content fingerprint}
    actually changed — a rewrite (or compaction) of identical contents
    is [`Unchanged], so downstream caches keyed on the fingerprint stay
    valid. A failed reload — unreadable file, bad magic, injected
    ["serve_reload"] fault — keeps the previous snapshot serving and
    warns (throttled per-label). *)

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

(* Load a database file into a fresh snapshot: the ["serve_reload"]
   fault point fires before the read, and per-entry corruption is
   tolerated by [Database.load] (warned, throttled). Callers index the
   entries in memory ([Database.build_index]) only for a snapshot they
   publish: a reload of unchanged contents is discarded. *)
let load_snapshot path : snapshot =
  Fault.inject "serve_reload";
  let db, warnings = Database.load path in
  List.iter
    (fun w -> Diag.warn_throttled ~label:"serve_db_load" "%s" w)
    warnings;
  { db; fingerprint = Database.fingerprint db }

let stat_of path =
  match Unix.stat path with
  | { Unix.st_mtime; st_size; _ } -> Some (st_mtime, st_size)
  | exception Unix.Unix_error (_, _, _) -> None

(* Pre-check for a sharded store: one stat each on the manifest and the
   WAL, folded into the same (mtime, size) shape — appends grow the WAL,
   compaction/scrub/trim rewrite the manifest. Only an optimisation:
   {!Shardstore.refresh} re-verifies by checksum. *)
let shard_stat dir =
  match
    ( stat_of (Filename.concat dir "MANIFEST"),
      stat_of (Filename.concat dir "wal.log") )
  with
  | Some (mt, sz), Some (mt', sz') -> Some (Float.max mt mt', sz + sz')
  | (Some _ as s), None | None, (Some _ as s) -> s
  | None, None -> None

(* The sharded snapshot's [db] is a read-only handle {e through} the
   shard store ({!Shardstore.as_database}): per-shard hot reload swaps
   segments underneath it instead of republishing a whole database, so
   a request in flight across a refresh reads both states. *)
let shard_snapshot st =
  { db = Shardstore.as_database st; fingerprint = Shardstore.fingerprint st }

let create ?path () : t =
  let source, current, last_stat =
    match path with
    | None -> (None, empty_snapshot (), None)
    | Some p when Shardstore.is_store_dir p ->
        Fault.inject "serve_reload";
        let st = Shardstore.open_ p in
        (Some (Shard st), shard_snapshot st, shard_stat p)
    | Some p ->
        let snap = load_snapshot p in
        Database.build_index snap.db;
        (Some (Mono p), snap, stat_of p)
  in
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
  match t.source with
  | Some (Shard st) -> Some (Shardstore.stats st)
  | _ -> None

let reload_if_changed ?(force = false) t :
    [ `Reloaded of string | `Unchanged | `Failed of string ] =
  match t.source with
  | None -> `Unchanged
  | Some (Shard st) ->
      locked t (fun () ->
          let pre = shard_stat (Shardstore.dir st) in
          if (not force) && pre <> None && pre = t.last_stat then `Unchanged
          else
            match
              Fault.inject "serve_reload";
              Shardstore.refresh st
            with
            | `Unchanged ->
                t.last_stat <- pre;
                `Unchanged
            | `Changed (swapped, _appended) ->
                t.last_stat <- shard_stat (Shardstore.dir st);
                t.shard_swaps <- t.shard_swaps + swapped;
                let snap = shard_snapshot st in
                if String.equal snap.fingerprint t.current.fingerprint then
                  (* compaction/split of identical content: the shard
                     files changed but the served content didn't *)
                  `Unchanged
                else begin
                  t.current <- snap;
                  t.reloads <- t.reloads + 1;
                  `Reloaded snap.fingerprint
                end
            | exception e ->
                t.failed_reloads <- t.failed_reloads + 1;
                let reason = Printexc.to_string e in
                Diag.warn_throttled ~label:"serve_reload"
                  "warm-store refresh of %s failed (%s); keeping the previous \
                   snapshot"
                  (Shardstore.dir st) reason;
                `Failed reason)
  | Some (Mono path) ->
      locked t (fun () ->
          let st = stat_of path in
          if (not force) && st <> None && st = t.last_stat then `Unchanged
          else
            match load_snapshot path with
            | snap ->
                t.last_stat <- st;
                if String.equal snap.fingerprint t.current.fingerprint then
                  `Unchanged
                else begin
                  Database.build_index snap.db;
                  t.current <- snap;
                  t.reloads <- t.reloads + 1;
                  `Reloaded snap.fingerprint
                end
            | exception e ->
                t.failed_reloads <- t.failed_reloads + 1;
                let reason = Printexc.to_string e in
                Diag.warn_throttled ~label:"serve_reload"
                  "warm-store reload of %s failed (%s); keeping the previous \
                   snapshot"
                  path reason;
                `Failed reason)
