(** The self-healing sharded warm store.

    A store is a directory:

    {v
    MANIFEST              DAISYMAN 1: checksummed shard map + routing tree
    wal.log               DAISYWAL 1: checksummed append records
    shard-<id>-g<G>.db    immutable DAISYDB segment (generation G)
    v}

    Shards carry no index: a query visits shards best-bin-first by
    their bounding boxes and scans each visited shard's entries
    ({!Database.query_parts}, the search an indexed database runs over
    its parts).

    Entries partition by embedding region: a tree of
    {!Database.split_entries} median splits (the split an indexed
    database uses) routes every embedding to exactly one leaf shard, so
    bit-equal embeddings always share a shard and the cross-shard top-k
    merge needs no tie-break beyond
    {!Daisy_embedding.Embedding.compare_key}.

    Durability contract (see docs/robustness.md, "Sharded warm store"):

    - {e Segments are immutable.} {!append} only writes WAL records
      (FNV-1a-64 per-record checksum, fsync before return); committed
      shard files are never rewritten in place.
    - {e The manifest is the commit point.} {!compact} and {!scrub}
      write new-generation segments {e first}, then replace the
      manifest via {!Daisy_support.Checkpoint.atomic_write}; a crash on
      either side of the rename leaves the store bit-identical to the
      pre- or post-operation state. The WAL is replaced with an empty
      file {e after} the manifest rename — a crash between the two
      over-replays records into shards that already contain them, which
      {!Database.merge}'s content-keyed dedup absorbs.
    - {e Torn tails are tolerated.} Replay stops at the first
      incomplete record; {!open_} truncates the tear so later appends
      stay parseable (single-writer discipline: at most one process
      appends/compacts; readers {!refresh} concurrently).
    - {e Corruption is contained.} A segment that fails its checksums
      or fingerprint is quarantined: the store keeps serving the other
      shards (plus whatever entries survived, by scan), emits one
      throttled ["shard_quarantine"] warning, and counts the event;
      {!scrub} repairs the shard from the in-memory state (survivors +
      WAL replay) when possible.

    Fault labels: ["shard_wal"] (mid-record, per WAL append),
    ["shard_compact"] (per new segment + manifest rename),
    ["shard_scrub"] (per repair segment + manifest rename). *)

module Util = Daisy_support.Util
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault
module Checkpoint = Daisy_support.Checkpoint
module Embedding = Daisy_embedding.Embedding

let manifest_name = "MANIFEST"
let wal_name = "wal.log"
let man_magic = "DAISYMAN 1"
let wal_magic = "DAISYWAL 1"
let wal_header = wal_magic ^ "\n"
let default_shard_cap = Database.part_cap

let quarantine_count = Atomic.make 0
let quarantines () = Atomic.get quarantine_count
let reset_quarantines () = Atomic.set quarantine_count 0

(* ------------------------------------------------------------------ *)
(* Routing tree *)

type tree =
  | Leaf of int
  | Split of { sdim : int; thr : float; left : tree; right : tree }

let rec route (tr : tree) (e : Embedding.t) : int =
  match tr with
  | Leaf id -> id
  | Split { sdim; thr; left; right } ->
      if sdim < Array.length e && e.(sdim) >= thr then route right e
      else route left e

let rec tree_leaves = function
  | Leaf id -> [ id ]
  | Split { left; right; _ } -> tree_leaves left @ tree_leaves right

let rec replace_leaf (tr : tree) (id : int) (sub : tree) : tree =
  match tr with
  | Leaf i when i = id -> sub
  | Leaf _ -> tr
  | Split s ->
      Split
        {
          s with
          left = replace_leaf s.left id sub;
          right = replace_leaf s.right id sub;
        }

let rec tree_to_lines = function
  | Leaf id -> [ Printf.sprintf "leaf %d" id ]
  | Split { sdim; thr; left; right } ->
      Printf.sprintf "split %d %h" sdim thr
      :: (tree_to_lines left @ tree_to_lines right)

let tree_of_lines (lines : string list) : (tree * string list) option =
  let rec go = function
    | [] -> None
    | l :: rest -> (
        match String.split_on_char ' ' l with
        | [ "leaf"; id ] ->
            Option.map (fun id -> (Leaf id, rest)) (int_of_string_opt id)
        | [ "split"; d; thr ] -> (
            match (int_of_string_opt d, float_of_string_opt thr) with
            | Some sdim, Some thr ->
                Option.bind (go rest) (fun (left, rest) ->
                    Option.map
                      (fun (right, rest) ->
                        (Split { sdim; thr; left; right }, rest))
                      (go rest))
            | _ -> None)
        | _ -> None)
  in
  go lines

(* Partition chronological entries into leaf shards of at most [cap]
   entries (oversized leaves only under zero spread), assigning fresh
   leaf ids from [next_id]; each leaf's entries come back as a database
   (most recent first). *)
let rec build_partition ~cap (next_id : int ref)
    (es : Database.entry array) : tree * (int * Database.t) list =
  let leaf () =
    let id = !next_id in
    incr next_id;
    (Leaf id, [ (id, Database.of_entries (List.rev (Array.to_list es))) ])
  in
  if Array.length es <= cap then leaf ()
  else
    match Database.split_entries es with
    | None -> leaf ()
    | Some (sdim, thr, l, r) ->
        let left, ls = build_partition ~cap next_id l in
        let right, rs = build_partition ~cap next_id r in
        (Split { sdim; thr; left; right }, ls @ rs)

(* ------------------------------------------------------------------ *)
(* Store state *)

type shard = {
  sid : int;
  file : string;  (** segment basename *)
  fp : string;  (** segment content fingerprint per manifest *)
  declared : int;  (** entry count per manifest *)
  db : Database.t;  (** committed entries (immutable segment) *)
  mutable pending : Database.entry list;  (** WAL entries, chronological *)
  mutable view : Database.t;
      (** committed + pending, merge-deduped; [== db] when no pending *)
  mutable quarantined : bool;
}

type t = {
  dir : string;
  shard_cap : int;
  lock : Mutex.t;
  mutable gen : int;
  mutable next_id : int;
  mutable tree : tree;
  mutable shards : shard list;  (** sorted by [sid] *)
  mutable compacted : float;  (** unix seconds; [nan] = never *)
  mutable scrubbed : float;
  mutable man_ck : string;  (** manifest body checksum (refresh identity) *)
  mutable consumed : int;
      (** WAL byte offset up to which records are folded into segments
          (or re-held past it); persisted in the manifest *)
  mutable wal_size : int;  (** replayed-through WAL offset (bytes) *)
  mutable wal_torn : bool;  (** an append died mid-record on this handle *)
}

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let dir t = t.dir
let ( // ) = Filename.concat
let man_path t = t.dir // manifest_name
let wal_path t = t.dir // wal_name

let seg_name ~sid ~gen = Printf.sprintf "shard-%03d-g%d.db" sid gen

let is_store_dir (path : string) : bool =
  Sys.file_exists path
  && Sys.is_directory path
  && Sys.file_exists (path // manifest_name)

let rebuild_view (sh : shard) : unit =
  match sh.pending with
  | [] -> sh.view <- sh.db
  | pend ->
      let v = Database.of_entries (Database.entries sh.db) in
      Database.merge ~into:v (Database.of_entries (List.rev pend));
      sh.view <- v

let new_shard ~sid ~file ~fp ~declared (db : Database.t) : shard =
  { sid; file; fp; declared; db; pending = []; view = db; quarantined = false }

let find_shard t (sid : int) : shard =
  match List.find_opt (fun sh -> sh.sid = sid) t.shards with
  | Some sh -> sh
  | None ->
      Diag.errorf "shardstore %s: routing tree references unknown shard %d"
        t.dir sid

(* Route chronological entries to their shards' pending lists, then
   rebuild each touched shard's view once, however many entries the
   batch brings it. Every batch takes this loop: WAL replay, append,
   and a refresh that finds the WAL grown. *)
let add_pending t (es : Database.entry list) : unit =
  let fresh = Hashtbl.create 16 in
  List.iter
    (fun (e : Database.entry) ->
      let sid = route t.tree e.embedding in
      Hashtbl.replace fresh sid
        (e :: Option.value ~default:[] (Hashtbl.find_opt fresh sid)))
    es;
  Hashtbl.iter
    (fun sid rev ->
      let sh = find_shard t sid in
      sh.pending <- sh.pending @ List.rev rev;
      rebuild_view sh)
    fresh

(* ------------------------------------------------------------------ *)
(* Manifest *)

let manifest_body t : string list =
  let tl = tree_to_lines t.tree in
  let ts v = if Float.is_nan v then "-" else Printf.sprintf "%h" v in
  [
    Printf.sprintf "gen %d" t.gen;
    Printf.sprintf "nextid %d" t.next_id;
    Printf.sprintf "consumed %d" t.consumed;
    Printf.sprintf "compacted %s" (ts t.compacted);
    Printf.sprintf "scrubbed %s" (ts t.scrubbed);
    Printf.sprintf "tree %d" (List.length tl);
  ]
  @ tl
  @ [ Printf.sprintf "shards %d" (List.length t.shards) ]
  @ List.map
      (fun sh ->
        (* the sixth column named a per-shard index file in older
           stores; writing "-" keeps the format DAISYMAN 1 *)
        Printf.sprintf "shard %d %d %s %s -" sh.sid sh.declared sh.fp sh.file)
      t.shards

let write_manifest ?fault_label t : unit =
  let body = manifest_body t in
  let ck = Util.fnv1a64 (String.concat "\n" body) in
  Checkpoint.atomic_write ?fault_label (man_path t) (fun oc ->
      output_string oc (man_magic ^ "\n");
      Printf.fprintf oc "checksum %s\n" ck;
      List.iter (fun l -> output_string oc (l ^ "\n")) body);
  t.man_ck <- ck

type man = {
  m_gen : int;
  m_next_id : int;
  m_consumed : int;
  m_compacted : float;
  m_scrubbed : float;
  m_tree : tree;
  m_shards : (int * int * string * string) list;  (** id, entries, fp, file *)
  m_ck : string;
}

let read_manifest (path : string) : man =
  let fail fmt = Printf.ksprintf (fun m -> Diag.errorf "%s: %s" path m) fmt in
  let lines =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> String.split_on_char '\n' s
    | exception Sys_error m -> Diag.errorf "%s" m
  in
  match lines with
  | magic :: ck_l :: body0 -> (
      if not (String.equal magic man_magic) then
        fail "not a daisy shard manifest (bad magic line %S)" magic;
      let body =
        match List.rev body0 with "" :: r -> List.rev r | _ -> body0
      in
      let ck =
        match String.split_on_char ' ' ck_l with
        | [ "checksum"; ck ] -> ck
        | _ -> fail "malformed checksum line %S" ck_l
      in
      if not (String.equal ck (Util.fnv1a64 (String.concat "\n" body))) then
        fail "manifest checksum mismatch (corrupt manifest)";
      let int_field name = function
        | l :: rest -> (
            match String.split_on_char ' ' l with
            | [ n; v ] when String.equal n name -> (
                match int_of_string_opt v with
                | Some v -> (v, rest)
                | None -> fail "malformed %s line %S" name l)
            | _ -> fail "expected '%s ...', got %S" name l)
        | [] -> fail "truncated manifest (missing %s)" name
      in
      let ts_field name = function
        | l :: rest -> (
            match String.split_on_char ' ' l with
            | [ n; "-" ] when String.equal n name -> (nan, rest)
            | [ n; v ] when String.equal n name -> (
                match float_of_string_opt v with
                | Some v -> (v, rest)
                | None -> fail "malformed %s line %S" name l)
            | _ -> fail "expected '%s ...', got %S" name l)
        | [] -> fail "truncated manifest (missing %s)" name
      in
      let m_gen, body = int_field "gen" body in
      let m_next_id, body = int_field "nextid" body in
      let m_consumed, body = int_field "consumed" body in
      let m_compacted, body = ts_field "compacted" body in
      let m_scrubbed, body = ts_field "scrubbed" body in
      let ntree, body = int_field "tree" body in
      if List.length body < ntree then fail "truncated tree section";
      let tree_lines = Util.take ntree body in
      let body = Util.drop ntree body in
      let m_tree =
        match tree_of_lines tree_lines with
        | Some (tr, []) -> tr
        | _ -> fail "malformed tree section"
      in
      let nshards, body = int_field "shards" body in
      if List.length body <> nshards then
        fail "shard section has %d lines, header says %d" (List.length body)
          nshards;
      let m_shards =
        List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "shard"; id; cnt; fp; file; _ ] -> (
                (* the sixth column named a per-shard index file in
                   older stores; it is ignored *)
                match (int_of_string_opt id, int_of_string_opt cnt) with
                | Some id, Some cnt -> (id, cnt, fp, file)
                | _ -> fail "malformed shard line %S" l)
            | _ -> fail "malformed shard line %S" l)
          body
      in
      List.iter
        (fun id ->
          if not (List.exists (fun (sid, _, _, _) -> sid = id) m_shards) then
            fail "routing tree references unknown shard %d" id)
        (tree_leaves m_tree);
      {
        m_gen;
        m_next_id;
        m_consumed;
        m_compacted;
        m_scrubbed;
        m_tree;
        m_shards;
        m_ck = ck;
      })
  | _ -> fail "truncated manifest"

(* ------------------------------------------------------------------ *)
(* WAL *)

let wal_record (e : Database.entry) : string =
  let lines = Database.entry_to_lines e in
  let ck = Util.fnv1a64 (String.concat "\n" lines) in
  Printf.sprintf "rec %s %d\n%send\n" ck (List.length lines)
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(* Parse records from [from] to the end of [s]. Returns the entries of
   every intact record, the byte offset after the last complete record
   (the good end — anything past it is a torn tail), per-record
   warnings, and whether a tail was torn. A complete record with a bad
   checksum or unparseable body is skipped with a warning (replay
   continues past it); an incomplete record stops the replay. *)
let parse_wal_records (s : string) (from : int) :
    Database.entry list * int * string list * bool =
  let len = String.length s in
  let entries = ref [] and warnings = ref [] in
  let pos = ref from and good = ref from and torn = ref false in
  let line_at p =
    if p >= len then None
    else
      match String.index_from_opt s p '\n' with
      | None -> None
      | Some nl -> Some (String.sub s p (nl - p), nl + 1)
  in
  while (not !torn) && !pos < len do
    let start = !pos in
    match line_at start with
    | None -> torn := true
    | Some (hdr, p1) -> (
        match String.split_on_char ' ' hdr with
        | [ "rec"; ck; nl_s ] -> (
            match int_of_string_opt nl_s with
            | Some nlines when nlines >= 0 && nlines <= 64 -> (
                let rec body acc p i =
                  if i = 0 then
                    match line_at p with
                    | Some ("end", p') -> Some (List.rev acc, p')
                    | _ -> None
                  else
                    match line_at p with
                    | Some (l, p') -> body (l :: acc) p' (i - 1)
                    | None -> None
                in
                match body [] p1 nlines with
                | None -> torn := true
                | Some (lines, p') -> (
                    pos := p';
                    good := p';
                    if
                      String.equal ck
                        (Util.fnv1a64 (String.concat "\n" lines))
                    then
                      match Database.entry_of_lines lines with
                      | Ok e -> entries := e :: !entries
                      | Error m ->
                          warnings :=
                            Printf.sprintf
                              "WAL record at byte %d: unparseable entry (%s)"
                              start m
                            :: !warnings
                    else
                      warnings :=
                        Printf.sprintf
                          "WAL record at byte %d: checksum mismatch" start
                        :: !warnings))
            | _ -> torn := true)
        | _ -> torn := true)
  done;
  (List.rev !entries, !good, List.rev !warnings, !torn)

let read_wal (path : string) : string =
  if Sys.file_exists path then
    In_channel.with_open_bin path In_channel.input_all
  else ""

(* Append [records] to the WAL and fsync. The ["shard_wal"] fault point
   fires once per record, {e between} the two halves of its bytes — a
   process killed there leaves a torn tail (dropped on replay); a mere
   exception rolls the file back to the pre-batch size, so a surviving
   handle sees append as all-or-nothing. *)
let wal_append t (records : string list) : unit =
  if t.wal_torn then begin
    (* a previous append on this handle died mid-record; drop the tear
       before writing after it *)
    (try Unix.truncate (wal_path t) t.wal_size with Unix.Unix_error _ -> ());
    t.wal_torn <- false
  end;
  let fresh = not (Sys.file_exists (wal_path t)) in
  let fd =
    Unix.openfile (wal_path t) Unix.[ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let write s off len =
        let n = ref off in
        while !n < off + len do
          n := !n + Unix.write_substring fd s !n (off + len - !n)
        done
      in
      if fresh then begin
        write wal_header 0 (String.length wal_header);
        t.wal_size <- String.length wal_header
      end;
      let base = t.wal_size in
      (try
         List.iter
           (fun r ->
             let len = String.length r in
             let half = (len + 1) / 2 in
             write r 0 half;
             Fault.inject "shard_wal";
             write r half (len - half);
             t.wal_size <- t.wal_size + len)
           records
       with e ->
         (* an exception mid-batch (injected fault, disk full) rolls the
            file back: append is all-or-nothing for a surviving handle.
            Only a process crash leaves the torn tail, which replay-on-
            open drops. *)
         (match Unix.ftruncate fd base with
         | () -> t.wal_size <- base
         | exception Unix.Unix_error _ -> t.wal_torn <- true);
         (try Unix.fsync fd with Unix.Unix_error _ -> ());
         raise e);
      Unix.fsync fd)

let reset_wal t : unit =
  Checkpoint.atomic_write (wal_path t) (fun oc -> output_string oc wal_header);
  t.wal_size <- String.length wal_header;
  t.consumed <- String.length wal_header;
  t.wal_torn <- false

(* ------------------------------------------------------------------ *)
(* Segment load + quarantine *)

let quarantine_shard t (sh : shard) (reason : string) : unit =
  if not sh.quarantined then begin
    sh.quarantined <- true;
    Atomic.incr quarantine_count;
    Diag.warn_throttled ~label:"shard_quarantine"
      "shardstore %s: shard %d quarantined (%s); serving %d surviving \
       entries by scan"
      t.dir sh.sid reason (Database.size sh.db)
  end

(* Load a shard's segment from disk. Any whole-file failure, per-entry
   corruption, or fingerprint mismatch quarantines the shard — it keeps
   serving whatever loaded. *)
let load_shard t ~sid ~file ~fp ~declared : shard =
  let db, problem =
    match Database.load (t.dir // file) with
    | exception Diag.Error d -> (Database.create (), Some (Diag.to_string d))
    | exception Sys_error m -> (Database.create (), Some m)
    | db, [] when String.equal (Database.fingerprint db) fp -> (db, None)
    | db, [] ->
        ( db,
          Some
            (Printf.sprintf "fingerprint mismatch (manifest %s, segment %s)" fp
               (Database.fingerprint db)) )
    | db, warnings ->
        (db, Some (Printf.sprintf "%d corrupt entries" (List.length warnings)))
  in
  let sh = new_shard ~sid ~file ~fp ~declared db in
  Option.iter (quarantine_shard t sh) problem;
  sh

(* Remove generation files no manifest entry references, plus crashed
   [atomic_write] temps ([<name>.tmp.<pid>]) — leftovers of a
   compaction or repair that died before its manifest rename — and the
   [.db.ann] index files older stores kept beside each segment, which
   no manifest references any more. Safe against live readers: entries
   are always materialised in memory. *)
let gc_orphans t : unit =
  let live = List.map (fun sh -> sh.file) t.shards in
  let has_infix hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
    go 0
  in
  Array.iter
    (fun f ->
      let stale =
        has_infix f ".tmp."
        || String.length f >= 6
           && String.equal (String.sub f 0 6) "shard-"
           && (Filename.check_suffix f ".db"
             || Filename.check_suffix f ".db.ann")
           && not (List.mem f live)
      in
      if stale then try Sys.remove (t.dir // f) with Sys_error _ -> ())
    (try Sys.readdir t.dir with Sys_error _ -> [||])

(* ------------------------------------------------------------------ *)
(* Open / create *)

let replay_wal ?(truncate_tear = false) t : int =
  let s = read_wal (wal_path t) in
  let len = String.length s in
  let hdr =
    let h = String.length wal_header in
    if len >= h && String.equal (String.sub s 0 h) wal_header then h
    else if len = 0 then 0
    else Diag.errorf "shardstore %s: %s is not a daisy WAL" t.dir wal_name
  in
  let start =
    (* records before [consumed] are folded into segments; a [consumed]
       outside the file (a trim raced a crash) clamps to the header, and
       over-replaying the prefix is absorbed by merge dedup *)
    if t.consumed > len || t.consumed < hdr then hdr else t.consumed
  in
  t.consumed <- start;
  let entries, good, warnings, torn = parse_wal_records s start in
  List.iter
    (fun w -> Diag.warn_throttled ~label:"shard_wal_replay" "shardstore %s: %s" t.dir w)
    warnings;
  if torn then begin
    Diag.warn_throttled ~label:"shard_wal_replay"
      "shardstore %s: dropped torn WAL tail (%d bytes)" t.dir
      (String.length s - good);
    if truncate_tear then
      try Unix.truncate (wal_path t) good with Unix.Unix_error _ -> ()
  end;
  t.wal_size <- good;
  t.wal_torn <- false;
  add_pending t entries;
  List.length entries

(* Take manifest [m] as the committed state: its counters, routing tree
   and shard list. A loaded shard whose (file, fingerprint) [m] still
   names keeps its segment and drops its pending entries (the WAL replay
   that follows re-adds them); the other shards load from disk. Returns
   the number of shards loaded. *)
let adopt t (m : man) : int =
  let loaded = ref 0 in
  let shards =
    List.map
      (fun (sid, declared, fp, file) ->
        match
          List.find_opt
            (fun sh ->
              String.equal sh.file file && String.equal sh.fp fp
              && not sh.quarantined)
            t.shards
        with
        | Some sh -> new_shard ~sid ~file ~fp ~declared sh.db
        | None ->
            incr loaded;
            load_shard t ~sid ~file ~fp ~declared)
      (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) m.m_shards)
  in
  t.gen <- m.m_gen;
  t.next_id <- m.m_next_id;
  t.tree <- m.m_tree;
  t.shards <- shards;
  t.compacted <- m.m_compacted;
  t.scrubbed <- m.m_scrubbed;
  t.man_ck <- m.m_ck;
  t.consumed <- m.m_consumed;
  !loaded

(* Bring [t] to the store on disk: adopt the manifest, collect orphans,
   replay the WAL and truncate a torn tail. This opens a store, and heals
   a handle that a failed compaction or scrub (injected fault, IO error)
   left mid-mutation: disk is always a consistent pre- or post-state.
   Caller holds the lock or owns [t]. *)
let reload_in_place t : unit =
  ignore (adopt t (read_manifest (man_path t)));
  gc_orphans t;
  ignore (replay_wal ~truncate_tear:true t)

let handle ~shard_cap (dir : string) : t =
  {
    dir;
    shard_cap;
    lock = Mutex.create ();
    gen = 0;
    next_id = 0;
    tree = Leaf 0;
    shards = [];
    compacted = nan;
    scrubbed = nan;
    man_ck = "";
    consumed = 0;
    wal_size = 0;
    wal_torn = false;
  }

let open_ ?(shard_cap = default_shard_cap) (dirname : string) : t =
  let t = handle ~shard_cap dirname in
  reload_in_place t;
  t

(* Write [db] as shard [sid]'s segment for generation [gen] and return
   the shard it commits. [fault] names the injection point fired before
   the segment write. *)
let write_shard t ~fault ~gen (sid : int) (db : Database.t) : shard =
  let file = seg_name ~sid ~gen in
  Fault.inject fault;
  Database.save db (t.dir // file);
  new_shard ~sid ~file ~fp:(Database.fingerprint db)
    ~declared:(Database.size db) db

(* Box bounds prune shards only over finite embeddings, and an entry
   must not reach the WAL or a segment it could not be read back from. *)
let check_finite op (es : Database.entry list) : unit =
  let finite (e : Database.entry) = Array.for_all Float.is_finite e.embedding in
  if not (List.for_all finite es) then
    invalid_arg ("Shardstore." ^ op ^ ": non-finite embedding coordinate")

let create ?(shard_cap = default_shard_cap) ?(overwrite = false)
    (dirname : string) (db : Database.t) : t =
  if (not overwrite) && is_store_dir dirname then
    Diag.errorf "shardstore %s: already a store (pass overwrite to replace)"
      dirname;
  check_finite "create" (Database.entries db);
  if not (Sys.file_exists dirname) then Unix.mkdir dirname 0o755;
  let chron = Array.of_list (List.rev (Database.entries db)) in
  let next_id = ref 0 in
  let tree, parts = build_partition ~cap:shard_cap next_id chron in
  let t = handle ~shard_cap dirname in
  t.gen <- 1;
  t.next_id <- !next_id;
  t.tree <- tree;
  t.shards <-
    List.map
      (fun (sid, sdb) -> write_shard t ~fault:"shard_compact" ~gen:t.gen sid sdb)
      parts;
  reset_wal t;
  write_manifest ~fault_label:"shard_compact" t;
  gc_orphans t;
  t

(* ------------------------------------------------------------------ *)
(* Append *)

let append t (es : Database.entry list) : unit =
  check_finite "append" es;
  if es = [] then ()
  else
    with_lock t (fun () ->
        wal_append t (List.map wal_record es);
        add_pending t es)

(* ------------------------------------------------------------------ *)
(* Compaction *)

let compact_locked ~now t : int =
  let affected sh = sh.pending <> [] && not sh.quarantined in
  if not (List.exists affected t.shards) then 0
  else begin
    let gen = t.gen + 1 in
    (* fold committed + pending: partition each affected shard once,
       rewriting it in place when one part comes back (it fits the cap,
       or cannot split) and splitting its leaf otherwise; all
       new-generation files land before the manifest rename commits
       them, so a crash anywhere up to the rename is the pre-state (the
       orphans are collected on the next open) *)
    let fold sh =
      let chron = Array.of_list (List.rev (Database.entries sh.view)) in
      let next = ref t.next_id in
      let parts =
        match build_partition ~cap:t.shard_cap next chron with
        | _, [ (_, db) ] -> [ (sh.sid, db) ]
        | sub, parts ->
            t.next_id <- !next;
            t.tree <- replace_leaf t.tree sh.sid sub;
            parts
      in
      List.map
        (fun (sid, db) -> write_shard t ~fault:"shard_compact" ~gen sid db)
        parts
    in
    let written =
      List.concat_map (fun sh -> if affected sh then fold sh else []) t.shards
    in
    t.shards <-
      List.sort
        (fun a b -> compare a.sid b.sid)
        (List.filter (fun sh -> not (affected sh)) t.shards @ written);
    t.gen <- gen;
    t.compacted <- now;
    (* Commit protocol: the WAL file is never replaced, so a concurrent
       appender in another process is safe — the manifest rename just
       advances [consumed] past every record folded here; anything a
       racing appender writes lands after the boundary and replays
       normally. Quarantined shards' pending records are re-appended past
       the boundary first so they survive a reopen; a crash between that
       append and the rename leaves them duplicated in the WAL, which
       replay dedups. *)
    let fold_boundary = t.wal_size in
    let held =
      List.concat_map
        (fun sh -> if sh.quarantined then sh.pending else [])
        t.shards
    in
    if held <> [] then wal_append t (List.map wal_record held);
    t.consumed <- fold_boundary;
    write_manifest ~fault_label:"shard_compact" t;
    gc_orphans t;
    List.length written
  end

let compact ?(now = nan) t : int =
  with_lock t (fun () ->
      try compact_locked ~now t
      with e ->
        reload_in_place t;
        raise e)

(* ------------------------------------------------------------------ *)
(* Scrub *)

type scrub_report = {
  sr_shards : int;
  sr_corrupt : int;
  sr_repaired : int;
  sr_entries_lost : int;
}

let scrub_locked ~repair ~now t : scrub_report =
  let corrupt = ref 0 and repaired = ref 0 and lost = ref 0 in
  let gen = t.gen + 1 in
  let verify sh =
    let disk_ok =
      match Database.load (t.dir // sh.file) with
      | exception Diag.Error _ -> false
      | exception Sys_error _ -> false
      | db, warnings ->
          warnings = [] && String.equal (Database.fingerprint db) sh.fp
    in
    if disk_ok then sh
    else begin
      incr corrupt;
      quarantine_shard t sh "scrub: segment failed verification";
      if not repair then sh
      else begin
        (* the in-memory view (survivors + WAL replay) is the best
           recovery we have; write it as a fresh generation *)
        let fixed =
          write_shard t ~fault:"shard_scrub" ~gen sh.sid
            (Database.of_entries (Database.entries sh.view))
        in
        lost := !lost + max 0 (sh.declared - fixed.declared);
        incr repaired;
        fixed
      end
    end
  in
  t.shards <- List.map verify t.shards;
  t.scrubbed <- now;
  if !repaired > 0 then t.gen <- gen;
  write_manifest ~fault_label:"shard_scrub" t;
  gc_orphans t;
  {
    sr_shards = List.length t.shards;
    sr_corrupt = !corrupt;
    sr_repaired = !repaired;
    sr_entries_lost = !lost;
  }

let scrub ?(repair = true) ?(now = nan) t : scrub_report =
  with_lock t (fun () ->
      try scrub_locked ~repair ~now t
      with e ->
        reload_in_place t;
        raise e)

(* ------------------------------------------------------------------ *)
(* WAL trim *)

(* Drop the consumed WAL prefix (appends never shrink it; only this
   does). Only call at a known single-writer moment — daemon startup,
   the end of a seeding run — because a record another process appends
   between the read and the rename would be lost. Crash-safe: the
   manifest commits [consumed = header] {e before} the file shrinks, so
   a crash between the two re-replays the folded prefix on the next
   open, which merge dedup absorbs. Returns the bytes dropped. *)
let trim_wal t : int =
  with_lock t (fun () ->
      let hdr = String.length wal_header in
      if t.wal_torn then 0
      else
        let s = read_wal (wal_path t) in
        let len = String.length s in
        let boundary =
          if t.consumed > len || t.consumed < hdr then hdr else t.consumed
        in
        if boundary <= hdr || len < hdr then 0
        else begin
          let tail = String.sub s boundary (len - boundary) in
          t.consumed <- hdr;
          write_manifest t;
          Checkpoint.atomic_write (wal_path t) (fun oc ->
              output_string oc wal_header;
              output_string oc tail);
          t.wal_size <- hdr + max 0 (t.wal_size - boundary);
          boundary - hdr
        end)

(* ------------------------------------------------------------------ *)
(* Refresh (reader following an external writer) *)

let refresh t : [ `Unchanged | `Changed of int * int ] =
  with_lock t (fun () ->
      let m = read_manifest (man_path t) in
      if String.equal m.m_ck t.man_ck then begin
        (* manifest unchanged: only the WAL can have grown *)
        let s = read_wal (wal_path t) in
        if String.length s <= t.wal_size then `Unchanged
        else begin
          let entries, good, _warnings, _torn =
            (* no tear-truncation here: the writer may be mid-append *)
            parse_wal_records s t.wal_size
          in
          t.wal_size <- good;
          add_pending t entries;
          if entries = [] then `Unchanged
          else `Changed (0, List.length entries)
        end
      end
      else
        (* a compaction/scrub/recreate landed *)
        let swapped = adopt t m in
        `Changed (swapped, replay_wal t))

(* ------------------------------------------------------------------ *)
(* Snapshots *)

(* One pass over the entries: {!Database.of_parts} concatenates the
   shard views (committed + pending entries) and searches them as its
   parts. Routing keeps bit-equal embeddings in one shard and each view
   keeps arrival order; views are replaced, never mutated, so the
   snapshot stays as it was taken. *)
let as_database t : Database.t =
  Database.of_parts
    (with_lock t (fun () -> List.map (fun sh -> sh.view) t.shards))

(* Logical content fingerprint: the checksum of every entry body,
   sorted — invariant under partitioning, compaction and splits, so hot
   reload only swaps when the {e contents} changed. *)
let fingerprint t : string =
  Database.entries (as_database t)
  |> List.map (fun e -> String.concat "\n" (Database.entry_to_lines e))
  |> List.sort String.compare
  |> String.concat "\n\n"
  |> Util.fnv1a64

(* ------------------------------------------------------------------ *)
(* Stats *)

type stats = {
  st_shards : int;
  st_entries : int;
  st_wal_depth : int;
  st_quarantined : int;
  st_gen : int;
  st_compacted : float;  (** unix seconds; [nan] = never *)
  st_scrubbed : float;
}

let stats t : stats =
  with_lock t (fun () ->
      {
        st_shards = List.length t.shards;
        st_entries =
          List.fold_left (fun a sh -> a + Database.size sh.view) 0 t.shards;
        st_wal_depth =
          List.fold_left (fun a sh -> a + List.length sh.pending) 0 t.shards;
        st_quarantined =
          List.length (List.filter (fun sh -> sh.quarantined) t.shards);
        st_gen = t.gen;
        st_compacted = t.compacted;
        st_scrubbed = t.scrubbed;
      })

let wal_depth t : int = (stats t).st_wal_depth
