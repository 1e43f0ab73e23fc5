(** Differential and property tests for the in-memory index
    (docs/performance.md, "ANN transfer tuning"). The contract under
    test: a database partitioned by [Database.build_index] returns
    {e exactly} the same top-k — distances and order, ties included — as
    the [Embedding.nearest_by] linear scan, on every database; the warm
    store indexes a monolithic database in memory and ignores any index
    file beside it. *)

module Ir = Daisy_loopir.Ir
module Embedding = Daisy_embedding.Embedding
module Pool = Daisy_support.Pool
module Rng = Daisy_support.Rng
module Util = Daisy_support.Util
module S = Daisy_scheduler
module Store = Daisy_serve.Store

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"

let gemm_src =
  {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
          for (int j = 0; j < n; j++)
            C[i][j] += A[i][k] * B[k][j];
    }|}

let find_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then Some i
    else go (i + 1)
  in
  go 0

let contains_sub ~sub s = Option.is_some (find_sub ~sub s)

(** [f ()]'s result and everything it wrote to stderr, warnings
    included. *)
let stderr_of (f : unit -> 'a) : 'a * string =
  let path = Filename.temp_file "daisy-stderr" ".txt" in
  let flush_all () =
    Format.pp_print_flush Format.err_formatter ();
    flush stderr
  in
  flush_all ();
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let v =
    Fun.protect
      ~finally:(fun () ->
        flush_all ();
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (v, out)

(* Exact comparison: same distances (float equality), same entries in
   the same order (every entry has its own source). *)
let result = Alcotest.(list (pair (float 0.0) string))

let project = List.map (fun (d, (e : S.Database.entry)) -> (d, e.source))

(** The ground truth: the linear scan over the entries in list order. *)
let scan_topk (entries : S.Database.entry list) ~k (q : float array) =
  project
    (Embedding.nearest_by ~embed:(fun (e : S.Database.entry) -> e.embedding) k
       entries q)

let grid_entry ~varies ~grid rng i : S.Database.entry =
  {
    S.Database.source = Printf.sprintf "e%d" i;
    embedding =
      Array.init Embedding.dim (fun d ->
          if varies.(d) then float_of_int (Rng.int rng grid) else 0.0);
    recipe = [];
    canon_hash = i;
    cost_ms = nan;
  }

(** [n] entries with 16-dimensional embeddings on a small integer grid,
    where only a few dimensions vary: duplicates and tied distances
    abound, and a part's bound often equals a query's k-th best distance.
    Some databases open with a run of one repeated embedding, often long
    enough to leave a part that cannot split, and some are that run. *)
let grid_entries rng ~n : S.Database.entry list =
  let grid = 2 + Rng.int rng 3 in
  let varies = Array.init Embedding.dim (fun _ -> Rng.int rng 4 = 0) in
  let run =
    match Rng.int rng 8 with
    | 0 -> n
    | 1 | 2 -> Rng.int rng (min n 700 + 1)
    | _ -> 0
  in
  let first = grid_entry ~varies ~grid rng 0 in
  List.init n (fun i ->
      if i < run then { first with source = Printf.sprintf "e%d" i }
      else grid_entry ~varies ~grid rng i)

(* ------------------------------------------------------------------ *)
(* nearest_by tie-breaking: stable under permutation of the input *)

let test_nearest_by_stability () =
  (* four entries equidistant from the origin (distance 1), ranked by
     their coordinates lexicographically; a fifth bit-equal pair ranked
     by arrival order *)
  let q = [| 0.0; 0.0 |] in
  let entries =
    [
      ("c", [| 1.0; 0.0 |]);
      ("a", [| 0.0; 1.0 |]);
      ("d", [| 1.0; 0.0 |]);  (* bit-equal to "c", arrived later *)
      ("b", [| 0.6; 0.8 |]);
      ("far", [| 3.0; 4.0 |]);
    ]
  in
  let expect = [ "a"; "b"; "c"; "d"; "far" ] in
  let names l = List.map (fun (_, (n, _)) -> n) l in
  Alcotest.(check (list string))
    "lexicographic tie order" expect
    (names (Embedding.nearest_by ~embed:snd 5 entries q));
  (* every permutation that keeps "c" before "d" returns the same list;
     swapping them only swaps the bit-equal pair *)
  List.iteri
    (fun i perm ->
      let got = names (Embedding.nearest_by ~embed:snd 5 perm q) in
      let expect =
        (* arrival order decides only the bit-equal pair c/d *)
        let d_before_c =
          let rec go = function
            | ("d", _) :: _ -> true
            | ("c", _) :: _ -> false
            | _ :: tl -> go tl
            | [] -> false
          in
          go perm
        in
        if d_before_c then [ "a"; "b"; "d"; "c"; "far" ] else expect
      in
      Alcotest.(check (list string))
        (Printf.sprintf "permutation %d" i)
        expect got)
    (Util.permutations entries)

(* ------------------------------------------------------------------ *)
(* The differential property: the partition == the scan, on 200 random
   databases on both sides of the part cap *)

let test_differential () =
  let several = ref 0 and pruned = ref 0 in
  for case = 0 to 199 do
    let rng = Rng.of_string (Printf.sprintf "ann-diff-%d" case) in
    let n = Rng.int rng (3 * S.Database.part_cap) in
    let entries = grid_entries rng ~n in
    let db = S.Database.of_entries entries in
    S.Database.build_index db;
    let parts = S.Database.index_parts db in
    if List.for_all
         (fun (e : S.Database.entry) -> e.embedding = (List.hd entries).embedding)
         entries
    then
      Alcotest.(check int) (Printf.sprintf "case %d: one unsplittable part" case) 1
        parts;
    let queries =
      [
        (if n = 0 then Array.make Embedding.dim 0.0
         else (List.nth entries (Rng.int rng n)).embedding);
        Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 4));
        Array.init Embedding.dim (fun _ -> 0.5 *. float_of_int (Rng.int rng 6));
      ]
    in
    let kr = 1 + Rng.int rng 60 in
    (* k = n and past n cost O(n^2) on both paths: one query in every
       fourth case *)
    let ks qi =
      if qi > 0 then [ 1; kr ]
      else if case mod 4 = 0 then [ 0; 1; kr; n; n + 3 ]
      else [ 0; 1; kr ]
    in
    List.iteri
      (fun qi q ->
        List.iter
          (fun k ->
            S.Database.reset_visits ();
            Alcotest.check result
              (Printf.sprintf "case %d n=%d parts=%d q=%d k=%d" case n parts qi k)
              (scan_topk entries ~k q)
              (project (S.Database.query_embedding db ~k q));
            let v = S.Database.visits () in
            if v > 1 then incr several;
            if k > 0 && v < parts then incr pruned)
          (ks qi))
      queries
  done;
  Alcotest.(check bool) "some queries visit several parts" true (!several > 0);
  Alcotest.(check bool) "some queries skip parts" true (!pruned > 0)

let test_differential_parallel () =
  (* one shared indexed database queried from 4 domains: results must
     equal the sequential scan, query by query *)
  let rng = Rng.of_string "ann-par" in
  let entries = grid_entries rng ~n:(4 * S.Database.part_cap) in
  let queries =
    List.init 40 (fun _ ->
        Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 4)))
  in
  let db = S.Database.of_entries entries in
  S.Database.build_index db;
  Alcotest.(check bool) "several parts" true (S.Database.index_parts db > 1);
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let got =
            Pool.map ?pool
              (fun q -> project (S.Database.query_embedding db ~k:5 q))
              queries
          in
          List.iter2
            (fun q got ->
              Alcotest.check result
                (Printf.sprintf "jobs=%d" jobs)
                (scan_topk entries ~k:5 q) got)
            queries got))
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Database edge cases, through both the scan and the index path *)

let mk_entry rng i : S.Database.entry =
  {
    S.Database.source = Printf.sprintf "synth:%d" i;
    embedding =
      Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3));
    recipe = (if Rng.bool rng then [] else [ Daisy_transforms.Recipe.Vectorize ]);
    canon_hash = i;
    cost_ms = nan;
  }

let check_query_paths ~name db ~k q expect_n =
  (* scan path: a copy without an index *)
  let scan =
    S.Database.query_embedding (S.Database.of_entries (S.Database.entries db)) ~k q
  in
  Alcotest.(check int) (name ^ ": scan count") expect_n (List.length scan);
  (* index path: identical, entry for entry *)
  S.Database.build_index db;
  let indexed = S.Database.query_embedding db ~k q in
  Alcotest.(check int)
    (name ^ ": index count")
    (List.length scan) (List.length indexed);
  List.iter2
    (fun (d1, (e1 : S.Database.entry)) (d2, (e2 : S.Database.entry)) ->
      Alcotest.(check (float 0.0)) (name ^ ": distance") d1 d2;
      Alcotest.(check string) (name ^ ": entry") e1.source e2.source)
    scan indexed

let test_database_edges () =
  let rng = Rng.of_string "ann-db-edges" in
  let zeros = Array.make Embedding.dim 0.0 in
  let q = Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3)) in
  (* empty database *)
  let empty = S.Database.of_entries [] in
  check_query_paths ~name:"empty" empty ~k:3 q 0;
  (* single entry *)
  let single = S.Database.of_entries [ mk_entry rng 0 ] in
  check_query_paths ~name:"single k=1" single ~k:1 q 1;
  check_query_paths ~name:"single k>n" single ~k:5 q 1;
  (* k = n and k > n *)
  let db = S.Database.of_entries (List.init 150 (mk_entry rng)) in
  check_query_paths ~name:"k=n" db ~k:150 q 150;
  check_query_paths ~name:"k>n" db ~k:151 q 150;
  check_query_paths ~name:"k=1" db ~k:1 q 1;
  (* all-zeros query vector *)
  check_query_paths ~name:"zero query" db ~k:10 zeros 10;
  (* k <= 0 *)
  S.Database.build_index db;
  Alcotest.(check int)
    "k=0" 0
    (List.length (S.Database.query_embedding db ~k:0 q))

let test_database_query_nest () =
  (* the public query path with a real nest, scan vs index *)
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "nest"
  in
  let rng = Rng.of_string "ann-db-nest" in
  let db = S.Database.of_entries (List.init 80 (mk_entry rng)) in
  S.Database.add db ~source:"gemm" ~nest ~recipe:[];
  let scan = S.Database.query db ~k:5 nest in
  S.Database.build_index db;
  let indexed = S.Database.query db ~k:5 nest in
  List.iter2
    (fun (d1, (e1 : S.Database.entry)) (d2, (e2 : S.Database.entry)) ->
      Alcotest.(check (float 0.0)) "distance" d1 d2;
      Alcotest.(check string) "entry" e1.source e2.source)
    scan indexed;
  (match scan with
  | (d, e) :: _ ->
      Alcotest.(check (float 0.0)) "self distance" 0.0 d;
      Alcotest.(check string) "self match" "gemm" e.S.Database.source
  | [] -> Alcotest.fail "no results");
  (* mutation detaches the index *)
  Alcotest.(check bool) "indexed" true (S.Database.index_parts db > 0);
  S.Database.add db ~source:"gemm2" ~nest ~recipe:[];
  Alcotest.(check bool) "detached on add" false (S.Database.index_parts db > 0)

(* The fingerprint and bounds memos are cleared by the same mutations
   that detach the index: after each, they equal a fresh handle's, and
   no index is attached. *)
let test_database_memo () =
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "nest"
  in
  let rng = Rng.of_string "ann-db-memo" in
  let db = S.Database.of_entries (List.init 20 (mk_entry rng)) in
  let box = Alcotest.(option (pair (array (float 0.0)) (array (float 0.0)))) in
  let check what =
    let fresh = S.Database.of_entries (S.Database.entries db) in
    Alcotest.(check string)
      (what ^ ": fingerprint") (S.Database.fingerprint fresh)
      (S.Database.fingerprint db);
    Alcotest.check box (what ^ ": bounds") (S.Database.bounds fresh)
      (S.Database.bounds db)
  in
  Alcotest.check box "empty" None (S.Database.bounds (S.Database.create ()));
  S.Database.build_index db;
  check "built";
  let far = { (mk_entry rng 100) with embedding = Array.make Embedding.dim 9.0 } in
  S.Database.merge ~into:db (S.Database.of_entries [ far ]);
  check "after merge";
  Alcotest.(check bool) "merge detaches the index" false (S.Database.index_parts db > 0);
  S.Database.build_index db;
  S.Database.add db ~source:"gemm" ~nest ~recipe:[];
  check "after add";
  Alcotest.(check bool) "add detaches the index" false (S.Database.index_parts db > 0)

(* ------------------------------------------------------------------ *)
(* Robustness *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A non-finite coordinate is refused at build time: box bounds only
   bound finite distances. *)
let test_non_finite_refused () =
  let rng = Rng.of_string "ann-non-finite" in
  List.iter
    (fun x ->
      let bad = mk_entry rng 1 in
      bad.embedding.(2) <- x;
      let db = S.Database.of_entries [ mk_entry rng 0; bad ] in
      match S.Database.build_index db with
      | () -> Alcotest.failf "build_index accepted %h" x
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ]

(* An index file an older build left beside a monolithic database —
   here garbage under the name it used — is never read: the daemon's
   store indexes the entries in memory, warns nothing, answers like the
   scan, and leaves the file byte-identical. *)
let test_leftover_index_file () =
  let rng = Rng.of_string "ann-leftover-file" in
  let db = S.Database.of_entries (List.init 120 (mk_entry rng)) in
  let q = Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3)) in
  let dbpath = Filename.temp_file "daisydb" ".db" in
  let path = dbpath ^ ".ann" in
  let project = List.map (fun (d, (e : S.Database.entry)) -> (d, e.source)) in
  let garbage = "algo lsh\n\x00\xff not an index\n" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ dbpath; path ])
    (fun () ->
      S.Database.save db dbpath;
      Out_channel.with_open_bin path (fun oc -> output_string oc garbage);
      let store, warnings = stderr_of (fun () -> Store.create ~path:dbpath ()) in
      Alcotest.(check string) "no warning" "" warnings;
      Alcotest.(check bool) "an index is attached" true
        (S.Database.index_parts (Store.db store) > 0);
      Alcotest.(check (list (pair (float 0.0) string)))
        "store answers = scan"
        (project (S.Database.query_embedding db ~k:5 q))
        (project (S.Database.query_embedding (Store.db store) ~k:5 q));
      Alcotest.(check bool) "the file is untouched" true
        (read_file path = garbage);
      (* a reload that swaps in new contents indexes them too *)
      S.Database.save (S.Database.of_entries (List.init 121 (mk_entry rng))) dbpath;
      (match Store.reload_if_changed ~force:true store with
      | `Reloaded _ -> ()
      | `Unchanged | `Failed _ -> Alcotest.fail "new contents not swapped in");
      Alcotest.(check bool) "the reloaded snapshot is indexed" true
        (S.Database.index_parts (Store.db store) > 0))

let suite =
  [
    Alcotest.test_case "nearest_by: permutation-stable ties" `Quick
      test_nearest_by_stability;
    Alcotest.test_case "differential: index == scan (200 dbs)" `Slow
      test_differential;
    Alcotest.test_case "differential: parallel domains" `Quick
      test_differential_parallel;
    Alcotest.test_case "database edge cases, both paths" `Quick
      test_database_edges;
    Alcotest.test_case "database query on a real nest" `Quick
      test_database_query_nest;
    Alcotest.test_case "database memo follows add/merge" `Quick
      test_database_memo;
    Alcotest.test_case "non-finite coordinates refused" `Quick
      test_non_finite_refused;
    Alcotest.test_case "leftover index file: ignored" `Quick
      test_leftover_index_file;
  ]
