(** Crash-consistency and differential tests for the sharded warm store
    (docs/robustness.md, "Sharded warm store"). The contracts under
    test: sharded top-k is bit-identical to the monolithic scan
    (distances and order, on a 200-database differential suite); every
    ["shard_wal"]/["shard_compact"]/["shard_scrub"] crash point leaves a
    store that opens cleanly and answers like the pre- or post-state;
    a corrupt shard quarantines with exactly one throttled warning
    while the rest keep serving; compaction rewrites only the touched
    shards; a query visits only the shards its bound cannot rule out;
    a store whose manifest names per-shard index files still opens. *)

module Embedding = Daisy_embedding.Embedding
module Fault = Daisy_support.Fault
module Diag = Daisy_support.Diag
module Rng = Daisy_support.Rng
module S = Daisy_scheduler
module Store = S.Shardstore

let with_faults f =
  Fun.protect ~finally:Fault.clear (fun () ->
      Fault.clear ();
      f ())

(* ------------------------------------------------------------------ *)
(* Scratch directories *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir (f : string -> 'a) : 'a =
  let d = Filename.temp_file "shardstore" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Synthetic entries (same grid trick as test_ann: ties and duplicates
   are common by construction) *)

let mk_entry ?(cost = nan) ?hash ?(recipe = []) ~grid rng i :
    S.Database.entry =
  {
    S.Database.source = Printf.sprintf "synth:%d" i;
    embedding =
      Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng grid));
    recipe;
    canon_hash = (match hash with Some h -> h | None -> i);
    cost_ms = cost;
  }

let mk_entries ?(grid = 4) rng ~n : S.Database.entry list =
  List.init n (mk_entry ~grid rng)

(* chronological list -> monolithic database *)
let mono_of (chron : S.Database.entry list) : S.Database.t =
  S.Database.of_entries (List.rev chron)

let random_q rng ~grid =
  Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng grid))

let topk_key (l : (float * S.Database.entry) list) =
  List.map (fun (d, (e : S.Database.entry)) -> (d, e.source)) l

let result = Alcotest.(list (pair (float 0.0) string))

(* the store's top-k and size, read through a snapshot *)
let query store ~k q = S.Database.query_embedding (Store.as_database store) ~k q
let size store = S.Database.size (Store.as_database store)

let check_topk ~name store mono ~k q =
  Alcotest.check result name
    (topk_key (S.Database.query_embedding mono ~k q))
    (topk_key (query store ~k q))

(* ------------------------------------------------------------------ *)
(* Round-trip + as_database *)

let test_roundtrip () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-roundtrip" in
      let chron = mk_entries rng ~n:60 in
      let st = Store.create ~shard_cap:8 dir (mono_of chron) in
      let mono = mono_of chron in
      Alcotest.(check int) "size" 60 (size st);
      Alcotest.(check bool)
        "several shards" true ((Store.stats st).Store.st_shards > 1);
      for i = 0 to 9 do
        let q = random_q rng ~grid:4 in
        check_topk ~name:(Printf.sprintf "query %d" i) st mono ~k:10 q
      done;
      (* reopen: same contents, same answers *)
      let st2 = Store.open_ dir in
      Alcotest.(check string)
        "fingerprint survives reopen" (Store.fingerprint st)
        (Store.fingerprint st2);
      let q = random_q rng ~grid:4 in
      check_topk ~name:"reopened query" st2 mono ~k:5 q;
      (* a snapshot serves the same answers, one index part per shard *)
      let db = Store.as_database st in
      Alcotest.(check int) "snapshot size" 60 (S.Database.size db);
      Alcotest.(check int)
        "one part per shard" (Store.stats st).Store.st_shards
        (S.Database.index_parts db);
      Alcotest.check result "snapshot query"
        (topk_key (S.Database.query_embedding mono ~k:7 q))
        (topk_key (S.Database.query_embedding db ~k:7 q));
      let h = 17 in
      Alcotest.(check int)
        "snapshot exact matches"
        (List.length (S.Database.exact_matches_hash mono h))
        (List.length (S.Database.exact_matches_hash db h));
      (* merging into a snapshot changes neither the store nor a fresh
         snapshot *)
      let fp = Store.fingerprint st in
      S.Database.merge ~into:db (mono_of [ mk_entry ~grid:4 rng 100 ]);
      Alcotest.(check int) "the snapshot took the merge" 61 (S.Database.size db);
      Alcotest.(check string) "store unchanged" fp (Store.fingerprint st);
      Alcotest.(check int) "fresh snapshot unchanged" 60 (size st);
      Alcotest.check result "fresh snapshot answers unchanged"
        (topk_key (S.Database.query_embedding mono ~k:7 q))
        (topk_key (query st ~k:7 q)))

(* ------------------------------------------------------------------ *)
(* The routing tree pinned: every top-k differential passes for any valid
   median split, so these lines are what notice a split that picks other
   dimensions or thresholds. They come from two 60-entry stores at cap
   8: on a 16-value grid the median threshold moves with its index, and
   on a 2-value grid the median often equals the minimum, which the
   split must step past. *)

let golden_routing =
  [
    ( 16,
      [
        "split 0 0x1p+3"; "split 1 0x1.cp+2"; "split 4 0x1p+3"; "leaf 0";
        "leaf 1"; "split 2 0x1p+3"; "leaf 2"; "split 4 0x1.4p+3"; "leaf 3";
        "leaf 4"; "split 1 0x1.2p+3"; "split 3 0x1.8p+2"; "leaf 5";
        "split 7 0x1.8p+3"; "leaf 6"; "leaf 7"; "split 3 0x1.4p+3"; "leaf 8";
        "leaf 9";
      ] );
    ( 2,
      [
        "split 0 0x1p+0"; "split 1 0x1p+0"; "split 2 0x1p+0"; "leaf 0";
        "split 3 0x1p+0"; "leaf 1"; "leaf 2"; "split 2 0x1p+0"; "leaf 3";
        "split 3 0x1p+0"; "leaf 4"; "leaf 5"; "split 1 0x1p+0";
        "split 2 0x1p+0"; "leaf 6"; "split 3 0x1p+0"; "leaf 7"; "leaf 8";
        "split 2 0x1p+0"; "split 3 0x1p+0"; "leaf 9"; "leaf 10"; "leaf 11";
      ] );
  ]

let test_golden_routing () =
  List.iter
    (fun (grid, golden) ->
      with_dir (fun dir ->
          let rng = Rng.of_string "shard-golden" in
          ignore
            (Store.create ~shard_cap:8 dir (mono_of (mk_entries ~grid rng ~n:60)));
          let routing =
            In_channel.with_open_bin (Filename.concat dir "MANIFEST")
              In_channel.input_all
            |> String.split_on_char '\n'
            |> List.filter (fun l ->
                   match String.split_on_char ' ' l with
                   | ("split" | "leaf") :: _ -> true
                   | _ -> false)
          in
          Alcotest.(check (list string))
            (Printf.sprintf "routing lines, grid %d" grid)
            golden routing))
    golden_routing

(* ------------------------------------------------------------------ *)
(* The 200-database differential: sharded top-k == monolithic scan,
   distances and order, committed + pending + dedup included *)

(* queries that draw no randomness, so the suite's random inputs stay
   put: one far outside every shard's box, one at the grid's centre *)
let far_q = Array.init Embedding.dim (fun i -> if i mod 2 = 0 then 1e4 else -1e4)
let centre_q ~grid = Array.make Embedding.dim (float_of_int (grid / 2))

let test_differential_200 () =
  for seed = 0 to 199 do
    let rng = Rng.of_string (Printf.sprintf "shard-diff-%d" seed) in
    let grid = 1 + Rng.int rng 5 in
    let n = 1 + Rng.int rng 80 in
    let cap = 4 + Rng.int rng 24 in
    let chron = List.init n (mk_entry ~grid rng) in
    (* split into a created base and an appended tail; odd seeds also
       append better-cost duplicates of base entries (same hash +
       recipe + embedding, lower cost) to exercise dedup *)
    let nbase = 1 + Rng.int rng n in
    let base = Daisy_support.Util.take nbase chron in
    let tail = Daisy_support.Util.drop nbase chron in
    let dups =
      if seed mod 2 = 1 && base <> [] then
        List.filteri (fun i _ -> i mod 3 = 0) base
        |> List.map (fun (e : S.Database.entry) ->
               {
                 e with
                 source = e.source ^ "+retuned";
                 cost_ms = float_of_int (Rng.int rng 100);
               })
      else []
    in
    let appended = tail @ dups in
    let mono = mono_of base in
    S.Database.merge ~into:mono (mono_of appended);
    with_dir (fun dir ->
        let st = Store.create ~shard_cap:cap dir (mono_of base) in
        Store.append st appended;
        for qi = 0 to 2 do
          let q = random_q rng ~grid in
          let k = [| 1; 5; 10 |].(qi) in
          check_topk
            ~name:(Printf.sprintf "seed %d query %d (pending)" seed qi)
            st mono ~k q
        done;
        let edge_queries phase =
          List.iter
            (fun (what, k, q) ->
              check_topk
                ~name:(Printf.sprintf "seed %d %s (%s)" seed what phase)
                st mono ~k q)
            [
              ("far query", 10, far_q);
              ("far query, k past size", S.Database.size mono + 3, far_q);
              ("k past size", S.Database.size mono + 3, centre_q ~grid);
            ]
        in
        edge_queries "pending";
        (* compacting must not change a single answer *)
        ignore (Store.compact st);
        let q = random_q rng ~grid in
        check_topk ~name:(Printf.sprintf "seed %d compacted" seed) st mono
          ~k:10 q;
        edge_queries "compacted";
        (* nor must a crash-free reopen *)
        if seed mod 7 = 0 then begin
          let st2 = Store.open_ dir in
          check_topk ~name:(Printf.sprintf "seed %d reopened" seed) st2 mono
            ~k:10 q
        end)
  done

(* ------------------------------------------------------------------ *)
(* WAL: torn tail replay + the shard_wal fault point *)

let test_wal_torn_tail () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-torn" in
      let chron = mk_entries rng ~n:20 in
      let st = Store.create ~shard_cap:8 dir (mono_of chron) in
      let extra = List.init 2 (fun i -> mk_entry ~grid:4 rng (100 + i)) in
      Store.append st extra;
      let fp_pre = Store.fingerprint st in
      (* simulate a crash mid-append: half a record at the tail *)
      let wal = Filename.concat dir "wal.log" in
      let oc = open_out_gen [ Open_append ] 0o644 wal in
      output_string oc "rec deadbeefdeadbeef 5\nsource \"torn";
      close_out oc;
      let st2 = Store.open_ dir in
      Alcotest.(check string)
        "torn tail dropped: pre-state" fp_pre (Store.fingerprint st2);
      Alcotest.(check int)
        "both appended records replayed" 2
        (Store.wal_depth st2);
      (* the tear was truncated: appending after it still replays *)
      Store.append st2 [ mk_entry ~grid:4 rng 200 ];
      let st3 = Store.open_ dir in
      Alcotest.(check int) "append after tear" 3 (Store.wal_depth st3));
  (* the fault point: an injected failure mid-record rolls the batch
     back — all-or-nothing for the surviving handle, pre-state on disk *)
  with_faults (fun () ->
      with_dir (fun dir ->
          let rng = Rng.of_string "shard-walfault" in
          let chron = mk_entries rng ~n:12 in
          let st = Store.create ~shard_cap:8 dir (mono_of chron) in
          let fp_pre = Store.fingerprint st in
          Fault.arm_nth "shard_wal" 1;
          (match Store.append st [ mk_entry ~grid:4 rng 50 ] with
          | () -> Alcotest.fail "armed append did not fail"
          | exception Fault.Injected "shard_wal" -> ());
          Alcotest.(check string)
            "handle at pre-state" fp_pre (Store.fingerprint st);
          Alcotest.(check string)
            "disk at pre-state" fp_pre
            (Store.fingerprint (Store.open_ dir));
          (* the handle survives: the retry lands *)
          Store.append st [ mk_entry ~grid:4 rng 50 ];
          Alcotest.(check int) "retry visible" 1 (Store.wal_depth st);
          Alcotest.(check string)
            "reopen sees the retry" (Store.fingerprint st)
            (Store.fingerprint (Store.open_ dir))))

(* ------------------------------------------------------------------ *)
(* Kill/resume at every compaction crash point *)

let test_compact_crash_points () =
  with_faults (fun () ->
      let expected_fp = ref "" in
      let expected_q = ref [] in
      let build dir =
        Fault.clear ();
        let rng = Rng.of_string "shard-compact-crash" in
        let chron = mk_entries ~grid:3 rng ~n:40 in
        let st = Store.create ~shard_cap:8 dir (mono_of chron) in
        (* enough appends to touch several shards and force a split *)
        let extra = List.init 20 (fun i -> mk_entry ~grid:3 rng (100 + i)) in
        Store.append st extra;
        let q = random_q rng ~grid:3 in
        (st, q)
      in
      (* the reference run: no faults *)
      with_dir (fun dir ->
          let st, q = build dir in
          ignore (Store.compact st);
          expected_fp := Store.fingerprint st;
          expected_q := topk_key (query st ~k:10 q));
      let nth = ref 1 in
      let continue = ref true in
      while !continue && !nth <= 40 do
        with_dir (fun dir ->
            let st, q = build dir in
            Fault.arm_nth "shard_compact" !nth;
            match Store.compact st with
            | _ ->
                (* the armed call count exceeded the crash points *)
                Alcotest.(check int)
                  "final run fired no fault" 0
                  (Fault.fired "shard_compact");
                Alcotest.(check string)
                  "clean compact contents" !expected_fp (Store.fingerprint st);
                continue := false
            | exception Fault.Injected "shard_compact" ->
                Fault.clear ();
                (* the dying handle healed itself from disk... *)
                Alcotest.(check string)
                  (Printf.sprintf "crash %d: handle contents" !nth)
                  !expected_fp (Store.fingerprint st);
                (* ...and an independent reopen sees the same contents
                   and the same answers (pre- or post-compaction are
                   logically identical; dedup absorbs WAL re-replay) *)
                let st2 = Store.open_ dir in
                Alcotest.(check string)
                  (Printf.sprintf "crash %d: reopen contents" !nth)
                  !expected_fp (Store.fingerprint st2);
                Alcotest.check result
                  (Printf.sprintf "crash %d: reopen answers" !nth)
                  !expected_q
                  (topk_key (query st2 ~k:10 q));
                (* resume: compaction completes on the reopened store *)
                ignore (Store.compact st2);
                Alcotest.(check int)
                  (Printf.sprintf "crash %d: resumed, WAL drained" !nth)
                  0 (Store.wal_depth st2);
                Alcotest.(check string)
                  (Printf.sprintf "crash %d: resumed contents" !nth)
                  !expected_fp (Store.fingerprint st2);
                incr nth)
      done;
      Alcotest.(check bool) "exercised at least 3 crash points" true (!nth > 3))

(* ------------------------------------------------------------------ *)
(* Corruption: quarantine, one throttled warning, scrub repair *)

(* flip one byte well inside a file *)
let corrupt_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  close_in ic;
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  ignore (Unix.lseek fd (n / 2) Unix.SEEK_SET);
  ignore (Unix.write_substring fd "\xff" 0 1);
  Unix.close fd

(* the first segment file the manifest references *)
let first_segment dir =
  let man = In_channel.with_open_bin (Filename.concat dir "MANIFEST") In_channel.input_all in
  let lines = String.split_on_char '\n' man in
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "shard"; _; _; _; file; _ ] -> Some file
      | _ -> None)
    lines
  |> Option.get

let test_corrupt_one_shard () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-corrupt" in
      let chron = mk_entries ~grid:5 rng ~n:60 in
      let st0 = Store.create ~shard_cap:8 dir (mono_of chron) in
      Alcotest.(check bool)
        "at least 3 shards" true ((Store.stats st0).Store.st_shards >= 3);
      let victim = first_segment dir in
      (* which entries live in the victim segment? *)
      let victim_db, _ = S.Database.load (Filename.concat dir victim) in
      let victim_sources =
        List.map
          (fun (e : S.Database.entry) -> e.source)
          (S.Database.entries victim_db)
      in
      Alcotest.(check bool) "victim is non-empty" true (victim_sources <> []);
      corrupt_file (Filename.concat dir victim);
      (* the flipped byte kills some entries of the segment, not all:
         the quarantined shard keeps serving the survivors by scan *)
      let survived =
        match S.Database.load (Filename.concat dir victim) with
        | db, _ ->
            List.map
              (fun (e : S.Database.entry) -> e.source)
              (S.Database.entries db)
        | exception Daisy_support.Diag.Error _ -> []
      in
      let lost =
        List.filter (fun s -> not (List.mem s survived)) victim_sources
      in
      Alcotest.(check bool) "corruption lost something" true (lost <> []);
      Diag.reset_warn ();
      let before = Store.quarantines () in
      let st = Store.open_ dir in
      let stats = Store.stats st in
      Alcotest.(check int) "one shard quarantined" 1 stats.Store.st_quarantined;
      Alcotest.(check int)
        "quarantine counter" (before + 1) (Store.quarantines ());
      (* the other shards keep serving: every non-victim entry is still
         found, with monolithic-scan answers over the survivors *)
      let survivors =
        List.filter
          (fun (e : S.Database.entry) -> not (List.mem e.source lost))
          chron
      in
      let mono = mono_of survivors in
      for i = 0 to 9 do
        let q = random_q rng ~grid:5 in
        Alcotest.check result
          (Printf.sprintf "degraded query %d" i)
          (topk_key (S.Database.query_embedding mono ~k:10 q))
          (topk_key (query st ~k:10 q))
      done;
      (* exactly one throttled warning, however many queries ran *)
      Alcotest.(check int)
        "exactly one quarantine warning" 1
        (Diag.warn_emitted "shard_quarantine");
      (* scrub repairs from the in-memory survivors; the lost entries
         are counted, the store leaves quarantine *)
      let r = Store.scrub st in
      Alcotest.(check int) "one corrupt shard" 1 r.Store.sr_corrupt;
      Alcotest.(check int) "one repaired shard" 1 r.Store.sr_repaired;
      Alcotest.(check int)
        "lost entries counted" (List.length lost) r.Store.sr_entries_lost;
      Alcotest.(check int)
        "quarantine lifted" 0 (Store.stats st).Store.st_quarantined;
      (* a fresh open is clean and a fresh scrub reports nothing *)
      let st2 = Store.open_ dir in
      Alcotest.(check int)
        "reopen clean" 0 (Store.stats st2).Store.st_quarantined;
      let r2 = Store.scrub st2 in
      Alcotest.(check int) "second scrub clean" 0 r2.Store.sr_corrupt;
      Alcotest.(check string)
        "repair survives reopen" (Store.fingerprint st)
        (Store.fingerprint st2))

(* Kill/resume at every scrub-repair crash point. *)
let test_scrub_crash_points () =
  with_faults (fun () ->
      let build dir =
        Fault.clear ();
        let rng = Rng.of_string "shard-scrub-crash" in
        let chron = mk_entries ~grid:3 rng ~n:40 in
        let st0 = Store.create ~shard_cap:8 dir (mono_of chron) in
        ignore st0;
        corrupt_file (Filename.concat dir (first_segment dir));
        Store.open_ dir
      in
      let expected_fp = ref "" in
      with_dir (fun dir ->
          let st = build dir in
          ignore (Store.scrub st);
          expected_fp := Store.fingerprint st);
      let nth = ref 1 in
      let continue = ref true in
      while !continue && !nth <= 20 do
        with_dir (fun dir ->
            let st = build dir in
            Fault.arm_nth "shard_scrub" !nth;
            match Store.scrub st with
            | _ ->
                Alcotest.(check int)
                  "final scrub fired no fault" 0 (Fault.fired "shard_scrub");
                continue := false
            | exception Fault.Injected "shard_scrub" ->
                Fault.clear ();
                (* survivors are intact either side of the crash *)
                Alcotest.(check string)
                  (Printf.sprintf "scrub crash %d: healed handle" !nth)
                  !expected_fp (Store.fingerprint st);
                let st2 = Store.open_ dir in
                Alcotest.(check string)
                  (Printf.sprintf "scrub crash %d: reopen contents" !nth)
                  !expected_fp (Store.fingerprint st2);
                (* resume: the repair completes *)
                let r = Store.scrub st2 in
                Alcotest.(check int)
                  (Printf.sprintf "scrub crash %d: resumed repair" !nth)
                  0
                  ((Store.stats st2).Store.st_quarantined + min 0 r.Store.sr_corrupt);
                incr nth)
      done;
      Alcotest.(check bool)
        "exercised at least 1 scrub crash point" true (!nth > 1))

(* ------------------------------------------------------------------ *)
(* Incremental rebuild: one appended shard => one segment rewritten *)

let test_incremental_rebuild () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-incr" in
      let chron = mk_entries ~grid:5 rng ~n:60 in
      ignore (Store.create ~shard_cap:8 dir (mono_of chron));
      (* reopen with headroom so one append folds without splitting *)
      let st = Store.open_ ~shard_cap:32 dir in
      let shards = (Store.stats st).Store.st_shards in
      Alcotest.(check bool) "several shards" true (shards >= 3);
      Store.append st [ mk_entry ~grid:5 rng 100 ];
      let rewritten = Store.compact st in
      Alcotest.(check int) "one shard rewritten" 1 rewritten;
      Alcotest.(check int)
        "shard count unchanged" shards (Store.stats st).Store.st_shards;
      (* nothing pending: a second compact is a no-op *)
      Alcotest.(check int) "no-op compact" 0 (Store.compact st))

(* Shards past the cap split during compaction, keeping answers exact. *)
let test_split_on_growth () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-split" in
      let base = mk_entries ~grid:5 rng ~n:8 in
      let st = Store.create ~shard_cap:8 dir (mono_of base) in
      Alcotest.(check int) "single shard" 1 (Store.stats st).Store.st_shards;
      let extra = List.init 30 (fun i -> mk_entry ~grid:5 rng (10 + i)) in
      Store.append st extra;
      ignore (Store.compact st);
      Alcotest.(check bool)
        "split happened" true ((Store.stats st).Store.st_shards > 1);
      Alcotest.(check int) "WAL drained" 0 (Store.wal_depth st);
      let mono = mono_of base in
      S.Database.merge ~into:mono (mono_of extra);
      for i = 0 to 4 do
        let q = random_q rng ~grid:5 in
        check_topk ~name:(Printf.sprintf "post-split query %d" i) st mono
          ~k:10 q
      done;
      let st2 = Store.open_ dir in
      Alcotest.(check string)
        "split survives reopen" (Store.fingerprint st) (Store.fingerprint st2))

(* ------------------------------------------------------------------ *)
(* Idempotent replay: merging/appending the same records twice is a
   no-op (the crash window between manifest rename and WAL reset) *)

let test_idempotent_replay () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-idem" in
      let chron = mk_entries ~grid:4 rng ~n:30 in
      let extra =
        List.init 10 (fun i ->
            mk_entry ~grid:4 ~cost:(float_of_int i) rng (50 + i))
      in
      let st = Store.create ~shard_cap:8 dir (mono_of chron) in
      Store.append st extra;
      ignore (Store.compact st);
      let fp = Store.fingerprint st in
      (* over-replay: the same records appended again fold to nothing *)
      Store.append st extra;
      ignore (Store.compact st);
      Alcotest.(check string) "double append is a no-op" fp (Store.fingerprint st);
      Alcotest.(check int) "size stable" 40 (size st));
  (* the Database-level satellite: merge twice == merge once; a
     better-cost duplicate replaces in place *)
  let rng = Rng.of_string "shard-idem-db" in
  let shard = mono_of (mk_entries ~grid:4 rng ~n:20) in
  let into = S.Database.create () in
  S.Database.merge ~into shard;
  let once = S.Database.fingerprint into in
  S.Database.merge ~into shard;
  Alcotest.(check string)
    "merge twice == merge once" once
    (S.Database.fingerprint into);
  let e = List.nth (S.Database.entries into) 7 in
  let better = { e with S.Database.cost_ms = -1.0; source = "better" } in
  S.Database.merge ~into (S.Database.of_entries [ better ]);
  Alcotest.(check int) "dedup kept size" 20 (S.Database.size into);
  let winner =
    List.find
      (fun (x : S.Database.entry) ->
        S.Database.dedup_key x = S.Database.dedup_key e)
      (S.Database.entries into)
  in
  Alcotest.(check string) "better cost won in place" "better" winner.source

(* [Database.merge]'s key table against its reference, [Database.add]
   entry by entry: random batches whose keys repeat inside the batch and
   against the base (which may itself hold a key twice), with unknown,
   tied and distinct costs. Entries, order and fingerprint must agree. *)
let test_merge_is_adds () =
  let nest src =
    match (Test_ann.lower src).Daisy_loopir.Ir.body with
    | [ Daisy_loopir.Ir.Nloop l ] -> l
    | _ -> Alcotest.fail "nest"
  in
  let nests =
    [|
      nest Test_ann.gemm_src;
      nest
        {|void f(int n, double y[n], double x[n]) {
            for (int i = 0; i < n; i++) y[i] = y[i] + 2.0 * x[i];
          }|};
    |]
  in
  let recipes =
    Array.map
      (fun r -> Result.get_ok (Daisy_transforms.Recipe.of_string r))
      [| "[]"; "[parallel(0)]"; "[vectorize]" |]
  in
  let sources db =
    List.map
      (fun (e : S.Database.entry) -> Printf.sprintf "%s@%h" e.source e.cost_ms)
      (S.Database.entries db)
  in
  for seed = 0 to 199 do
    let rng = Rng.of_string (Printf.sprintf "merge-adds-%d" seed) in
    let draw i =
      let cost_ms =
        match Rng.int rng 3 with
        | 0 -> nan
        | 1 -> 1.0
        | _ -> float_of_int (Rng.int rng 4)
      in
      ( Printf.sprintf "e%d" i,
        nests.(Rng.int rng (Array.length nests)),
        recipes.(Rng.int rng (Array.length recipes)),
        cost_ms )
    in
    let add db (source, nest, recipe, cost_ms) =
      S.Database.add ~cost_ms db ~source ~nest ~recipe
    in
    let entry x =
      let db = S.Database.create () in
      add db x;
      List.hd (S.Database.entries db)
    in
    let base = List.rev_map entry (List.init (Rng.int rng 8) draw) in
    let batch = List.init (Rng.int rng 16) (fun i -> draw (100 + i)) in
    let reference = S.Database.of_entries base in
    List.iter (add reference) batch;
    let merged = S.Database.of_entries base in
    S.Database.merge ~into:merged (S.Database.of_entries (List.rev_map entry batch));
    let what = Printf.sprintf "seed %d" seed in
    Alcotest.(check (list string)) (what ^ ": entries") (sources reference)
      (sources merged);
    Alcotest.(check string) (what ^ ": fingerprint")
      (S.Database.fingerprint reference) (S.Database.fingerprint merged)
  done

(* Appending a batch entry by entry or all at once leaves the same store:
   the same WAL bytes and snapshot, and after a compaction that splits
   shards the same files. *)
let test_append_batch () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-append-batch" in
      let base = mk_entries ~grid:4 rng ~n:40 in
      let batch =
        List.init 40 (fun i ->
            mk_entry ~grid:4 ~hash:(i mod 9) ~cost:(float_of_int (i mod 4)) rng
              (100 + i))
        @ List.map
            (fun (e : S.Database.entry) -> { e with source = "retuned"; cost_ms = 0.5 })
            (Daisy_support.Util.take 5 base)
      in
      let one = Filename.concat dir "one" and all = Filename.concat dir "all" in
      let st_one = Store.create ~shard_cap:8 one (mono_of base) in
      let st_all = Store.create ~shard_cap:8 all (mono_of base) in
      List.iter (fun e -> Store.append st_one [ e ]) batch;
      Store.append st_all batch;
      let files d =
        Array.to_list (Sys.readdir d)
        |> List.sort compare
        |> List.map (fun f ->
               (f, In_channel.with_open_bin (Filename.concat d f) In_channel.input_all))
      in
      let same what =
        Alcotest.(check (list (pair string string))) (what ^ ": files") (files one)
          (files all);
        Alcotest.(check (list string)) (what ^ ": snapshot entries")
          (List.map (fun (e : S.Database.entry) -> e.source)
             (S.Database.entries (Store.as_database st_one)))
          (List.map (fun (e : S.Database.entry) -> e.source)
             (S.Database.entries (Store.as_database st_all)));
        Alcotest.(check string) (what ^ ": fingerprint") (Store.fingerprint st_one)
          (Store.fingerprint st_all)
      in
      same "appended";
      let shards = (Store.stats st_all).Store.st_shards in
      ignore (Store.compact st_one);
      ignore (Store.compact st_all);
      Alcotest.(check bool) "the compaction split shards" true
        ((Store.stats st_all).Store.st_shards > shards);
      same "compacted")

(* ------------------------------------------------------------------ *)
(* trim_wal: compaction only advances the consumed boundary — the WAL
   file keeps its bytes (concurrent-appender safety) until an explicit
   single-writer trim reclaims the folded prefix *)

let test_trim_wal () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-trim" in
      let chron = mk_entries ~grid:4 rng ~n:20 in
      let st = Store.create ~shard_cap:32 dir (mono_of chron) in
      let wal = Filename.concat dir "wal.log" in
      let wal_bytes () = (Unix.stat wal).Unix.st_size in
      Store.append st [ mk_entry ~grid:4 rng 100; mk_entry ~grid:4 rng 101 ];
      let full = wal_bytes () in
      ignore (Store.compact st);
      (* compaction leaves the WAL bytes in place *)
      Alcotest.(check int) "compact keeps WAL bytes" full (wal_bytes ());
      Alcotest.(check int) "nothing pending" 0 (Store.wal_depth st);
      let fp = Store.fingerprint st in
      let dropped = Store.trim_wal st in
      Alcotest.(check bool) "trim reclaimed bytes" true (dropped > 0);
      Alcotest.(check bool) "WAL shrank" true (wal_bytes () < full);
      Alcotest.(check int) "second trim is a no-op" 0 (Store.trim_wal st);
      (* a reopen after the trim replays nothing and answers identically *)
      let st2 = Store.open_ dir in
      Alcotest.(check string) "content stable across trim" fp
        (Store.fingerprint st2);
      Alcotest.(check int) "no pending after reopen" 0 (Store.wal_depth st2);
      (* appends keep working on the trimmed log *)
      Store.append st2 [ mk_entry ~grid:4 rng 102 ];
      Alcotest.(check int) "append after trim" 1 (Store.wal_depth st2);
      Alcotest.(check int) "size grew" 23 (size st2))

(* ------------------------------------------------------------------ *)
(* refresh: a reader follows an external writer, swapping only the
   shards whose segments changed *)

let test_refresh () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-refresh" in
      let chron = mk_entries ~grid:4 rng ~n:40 in
      let writer = Store.create ~shard_cap:8 dir (mono_of chron) in
      let reader = Store.open_ dir in
      Alcotest.(check bool)
        "reader starts unchanged" true (Store.refresh reader = `Unchanged);
      (* an append is picked up from the WAL without touching shards *)
      Store.append writer [ mk_entry ~grid:4 rng 100 ];
      (match Store.refresh reader with
      | `Changed (0, 1) -> ()
      | _ -> Alcotest.fail "expected `Changed (0, 1) after append");
      Alcotest.(check string)
        "reader sees the append" (Store.fingerprint writer)
        (Store.fingerprint reader);
      (* compaction swaps only the affected shard *)
      let shards = (Store.stats writer).Store.st_shards in
      ignore (Store.compact writer);
      (match Store.refresh reader with
      | `Changed (swapped, _) ->
          Alcotest.(check int) "one shard swapped" 1 swapped;
          Alcotest.(check bool) "fewer than all" true (swapped < shards)
      | `Unchanged -> Alcotest.fail "reader missed the compaction");
      Alcotest.(check string)
        "reader tracks compaction" (Store.fingerprint writer)
        (Store.fingerprint reader);
      let q = random_q rng ~grid:4 in
      Alcotest.check result "reader answers match writer"
        (topk_key (query writer ~k:10 q))
        (topk_key (query reader ~k:10 q));
      Alcotest.(check bool)
        "steady state" true (Store.refresh reader = `Unchanged))

(* ------------------------------------------------------------------ *)
(* Shard pruning: a query visits shards in box-bound order and stops at
   the first bound strictly past its k-th best distance *)

(* [mk_entry] moved by [at] on every axis *)
let mk_entry_at ~at ~grid rng i : S.Database.entry =
  let e = mk_entry ~grid rng i in
  { e with embedding = Array.map (fun x -> x +. at) e.embedding }

(* 40 entries near the origin and 40 moved by 1000 on every axis: the
   root split separates them, so no shard mixes the two *)
let two_clusters rng =
  List.init 40 (mk_entry ~grid:4 rng)
  @ List.init 40 (fun i -> mk_entry_at ~at:1000. ~grid:4 rng (100 + i))

(* At 600 on every axis an entry routes into the near cluster's half of
   the tree, yet every far shard's committed box is closer to it than
   its own shard's: only the pending entry itself can bound its shard. *)
let between rng i = mk_entry_at ~at:600. ~grid:4 rng i

(* (segment file, its entries) for every shard the manifest lists *)
let segments dir : (string * S.Database.entry list) list =
  In_channel.with_open_bin (Filename.concat dir "MANIFEST") In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         match String.split_on_char ' ' l with
         | [ "shard"; _; _; _; file; _ ] ->
             let db, _ = S.Database.load (Filename.concat dir file) in
             Some (file, S.Database.entries db)
         | _ -> None)

(* An entry with every coordinate 0 but the first, at [x]. *)
let on_axis rng i x : S.Database.entry =
  {
    (mk_entry ~grid:1 rng i) with
    embedding = Array.init Embedding.dim (fun d -> if d = 0 then x else 0.);
  }

(* A near cluster of 8 entries, one shard at cap 8, and a far cluster at
   +1000 on every axis that an append and a compaction grow past the
   cap, so it spans several shards. The far shards' bounds lie past
   every near query's k-th best distance: each near query visits the
   near shard alone. The rule is strict, though: on one axis, with
   shards [0, 3] and [6, 9] and a query at 4.5, the best distance and
   the second shard's bound are both 1.5, and that shard is visited —
   an entry there at 1.5 could win the embedding tie-break. *)
let test_prune_far_shards () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-prune" in
      let far i = mk_entry_at ~at:1000. ~grid:4 rng i in
      let base = List.init 8 (mk_entry ~grid:4 rng) @ List.init 8 (fun i -> far (100 + i)) in
      let st = Store.create ~shard_cap:8 dir (mono_of base) in
      let grown = List.init 24 (fun i -> far (200 + i)) in
      Store.append st grown;
      ignore (Store.compact st);
      let mono = mono_of (base @ grown) in
      let shards = (Store.stats st).Store.st_shards in
      Alcotest.(check bool) "the far cluster spans shards" true (shards >= 3);
      S.Database.reset_visits ();
      for i = 0 to 9 do
        check_topk ~name:(Printf.sprintf "near query %d" i) st mono ~k:5
          (random_q rng ~grid:4)
      done;
      Alcotest.(check int) "one shard per near query" 10 (S.Database.visits ());
      S.Database.reset_visits ();
      check_topk ~name:"far query" st mono ~k:5 (List.hd grown).embedding;
      Alcotest.(check bool) "the near shard untouched" true
        (S.Database.visits () < shards);
      let line =
        List.mapi (fun i x -> on_axis rng (300 + i) x) [ 0.; 1.; 2.; 3.; 6.; 7.; 8.; 9. ]
      in
      let st = Store.create ~shard_cap:4 (Filename.concat dir "line") (mono_of line) in
      Alcotest.(check int) "two shards" 2 (Store.stats st).Store.st_shards;
      S.Database.reset_visits ();
      check_topk ~name:"query at the bound" st (mono_of line) ~k:1
        (on_axis rng 0 4.5).embedding;
      Alcotest.(check int) "the shard at the bound is visited" 2 (S.Database.visits ()))

(* an entry appended outside every committed shard's box widens its
   shard's bound while it is pending *)
let test_prune_pending () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-prune-pending" in
      let chron = two_clusters rng in
      let st = Store.create ~shard_cap:8 dir (mono_of chron) in
      let x = between rng 200 in
      Store.append st [ x ];
      let mono = mono_of (chron @ [ x ]) in
      (match query st ~k:1 x.embedding with
      | [ (d, e) ] ->
          Alcotest.(check string) "pending entry found" x.source e.source;
          Alcotest.(check (float 0.0)) "at distance 0" 0.0 d
      | _ -> Alcotest.fail "expected one answer");
      List.iter
        (fun k -> check_topk ~name:(Printf.sprintf "k=%d at x" k) st mono ~k x.embedding)
        [ 1; 5; 81 ];
      check_topk ~name:"near query" st mono ~k:5 (random_q rng ~grid:4))

(* A reader's shard bounds follow refresh. After another handle
   compacts the reader's pending entry, refresh swaps the rewritten
   shard and reuses the rest with [view = db]; after a manifest change
   that rewrites no segment (a scrub), every shard is reused — the one
   holding a pending entry too — and the WAL replay re-adds it. *)
let test_prune_refresh () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-prune-refresh" in
      let chron = two_clusters rng in
      let writer = Store.create ~shard_cap:8 dir (mono_of chron) in
      let reader = Store.open_ dir in
      let x = between rng 200 and y = between rng 201 in
      let check what chron (e : S.Database.entry) =
        let mono = mono_of chron in
        List.iter
          (fun k ->
            check_topk ~name:(Printf.sprintf "%s, k=%d" what k) reader mono ~k
              e.embedding)
          [ 1; 5 ];
        check_topk ~name:(what ^ ", near query") reader mono ~k:5
          (random_q rng ~grid:4)
      in
      Store.append writer [ x ];
      ignore (Store.refresh reader);
      check "x pending" (chron @ [ x ]) x;
      ignore (Store.compact writer);
      (match Store.refresh reader with
      | `Changed (swapped, _) ->
          Alcotest.(check bool) "some shards reused" true
            (swapped < (Store.stats reader).Store.st_shards)
      | `Unchanged -> Alcotest.fail "reader missed the compaction");
      check "x compacted" (chron @ [ x ]) x;
      Store.append writer [ y ];
      ignore (Store.refresh reader);
      Alcotest.(check int) "y pending" 1 (Store.wal_depth reader);
      ignore (Store.scrub ~now:1.0 writer);
      (match Store.refresh reader with
      | `Changed (0, 1) -> ()
      | _ -> Alcotest.fail "expected every shard reused and y replayed");
      check "y pending after reuse" (chron @ [ x; y ]) y)

(* ------------------------------------------------------------------ *)
(* A store written when every segment had an index file beside it: the
   manifest's sixth column names [shard-….db.ann] and the files exist.
   It opens without a warning and answers like the scan; opening drops
   the files, and the next compaction writes the column as "-". *)

let test_old_layout () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-old-layout" in
      let chron = mk_entries rng ~n:40 in
      ignore (Store.create ~shard_cap:8 dir (mono_of chron));
      let man = Filename.concat dir "MANIFEST" in
      let shard_lines () =
        In_channel.with_open_bin man In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter_map (fun l ->
               match String.split_on_char ' ' l with
               | "shard" :: cols -> Some cols
               | _ -> None)
      in
      let body =
        match String.split_on_char '\n' (In_channel.with_open_bin man In_channel.input_all) with
        | _magic :: _checksum :: body -> List.filter (fun l -> l <> "") body
        | _ -> Alcotest.fail "manifest"
      in
      let body =
        List.map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "shard"; id; cnt; fp; file; "-" ] ->
                let ann = file ^ ".ann" in
                Out_channel.with_open_bin (Filename.concat dir ann) (fun oc ->
                    output_string oc "kd index pages\n");
                String.concat " " [ "shard"; id; cnt; fp; file; ann ]
            | _ -> l)
          body
      in
      Out_channel.with_open_bin man (fun oc ->
          Printf.fprintf oc "DAISYMAN 1\nchecksum %s\n"
            (Daisy_support.Util.fnv1a64 (String.concat "\n" body));
          List.iter (fun l -> output_string oc (l ^ "\n")) body);
      let index_files () =
        List.filter
          (fun f -> Filename.check_suffix f ".db.ann")
          (Array.to_list (Sys.readdir dir))
      in
      let shards = List.length (shard_lines ()) in
      Alcotest.(check bool) "several shards" true (shards > 1);
      Alcotest.(check int) "one index file per shard" shards
        (List.length (index_files ()));
      let st, warnings = Test_ann.stderr_of (fun () -> Store.open_ dir) in
      Alcotest.(check string) "no warning" "" warnings;
      Alcotest.(check (list string)) "index files dropped" [] (index_files ());
      let mono = mono_of chron in
      for i = 0 to 4 do
        check_topk ~name:(Printf.sprintf "query %d" i) st mono ~k:5
          (random_q rng ~grid:4)
      done;
      Store.append st [ mk_entry ~grid:4 rng 100 ];
      ignore (Store.compact st);
      let sixth = List.map (fun cols -> List.nth cols 4) (shard_lines ()) in
      Alcotest.(check (list string))
        "compaction writes -" (List.map (fun _ -> "-") sixth) sixth)

(* ------------------------------------------------------------------ *)
(* Non-finite embeddings never enter the store *)

let test_non_finite () =
  with_dir (fun dir ->
      let rng = Rng.of_string "shard-non-finite" in
      let chron = mk_entries ~grid:4 rng ~n:20 in
      let bad =
        let e = mk_entry ~grid:4 rng 100 in
        { e with embedding = Array.mapi (fun i x -> if i = 5 then nan else x) e.embedding }
      in
      let st = Store.create ~shard_cap:8 dir (mono_of chron) in
      let wal = Filename.concat dir "wal.log" in
      let read () = In_channel.with_open_bin wal In_channel.input_all in
      Store.append st [ mk_entry ~grid:4 rng 101 ];
      let before = read () in
      List.iter
        (fun batch ->
          match Store.append st batch with
          | () -> Alcotest.fail "append accepted a nan embedding"
          | exception Invalid_argument _ ->
              Alcotest.(check string) "WAL byte-identical" before (read ()))
        [ [ bad ]; [ mk_entry ~grid:4 rng 102; bad ] ];
      Alcotest.(check int) "nothing pending added" 1 (Store.wal_depth st);
      (* a well-formed, checksummed WAL record carrying nan (written by
         another tool) is dropped on replay with a warning *)
      let lines = S.Database.entry_to_lines bad in
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 wal (fun oc ->
          Printf.fprintf oc "rec %s %d\n%send\n"
            (Daisy_support.Util.fnv1a64 (String.concat "\n" lines))
            (List.length lines)
            (String.concat "" (List.map (fun l -> l ^ "\n") lines)));
      Diag.reset_warn ();
      let st2 = Store.open_ dir in
      Alcotest.(check int) "nan record dropped" 1 (Store.wal_depth st2);
      Alcotest.(check int)
        "one replay warning" 1 (Diag.warn_calls "shard_wal_replay");
      Alcotest.(check string)
        "reopen = pre-state" (Store.fingerprint st) (Store.fingerprint st2);
      let sub = Filename.concat dir "sub" in
      (match Store.create sub (mono_of (chron @ [ bad ])) with
      | _ -> Alcotest.fail "create accepted a nan embedding"
      | exception Invalid_argument _ -> ());
      Alcotest.(check bool) "no store created" false (Store.is_store_dir sub))

let suite =
  [
    Alcotest.test_case "roundtrip + as_database" `Quick test_roundtrip;
    Alcotest.test_case "golden: routing lines at cap 8" `Quick
      test_golden_routing;
    Alcotest.test_case "200-database differential" `Slow test_differential_200;
    Alcotest.test_case "WAL torn tail + fault" `Quick test_wal_torn_tail;
    Alcotest.test_case "compact crash points" `Quick test_compact_crash_points;
    Alcotest.test_case "corrupt one shard" `Quick test_corrupt_one_shard;
    Alcotest.test_case "scrub crash points" `Quick test_scrub_crash_points;
    Alcotest.test_case "incremental rebuild" `Quick test_incremental_rebuild;
    Alcotest.test_case "split on growth" `Quick test_split_on_growth;
    Alcotest.test_case "idempotent replay" `Quick test_idempotent_replay;
    Alcotest.test_case "merge == replayed adds" `Quick test_merge_is_adds;
    Alcotest.test_case "append: one by one == one batch" `Quick
      test_append_batch;
    Alcotest.test_case "WAL trim" `Quick test_trim_wal;
    Alcotest.test_case "reader refresh" `Quick test_refresh;
    Alcotest.test_case "pruning: far shards untouched" `Quick
      test_prune_far_shards;
    Alcotest.test_case "pruning: pending entries count" `Quick
      test_prune_pending;
    Alcotest.test_case "pruning: after reader refresh" `Quick
      test_prune_refresh;
    Alcotest.test_case "non-finite embeddings refused" `Quick test_non_finite;
    Alcotest.test_case "old layout: index files dropped" `Quick test_old_layout;
  ]
