(** Differential and property tests for the ANN index (docs/performance.md,
    "ANN transfer tuning"). The contract under test: the k-d tree returns
    {e exactly} the same top-k — distances and order, ties included — as
    the [Embedding.nearest_by] linear scan, on every database;
    persistence round-trips bit-identically; corruption degrades to the
    scan with one warning, never a crash. *)

module Ir = Daisy_loopir.Ir
module Ann = Daisy_embedding.Ann
module Embedding = Daisy_embedding.Embedding
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault
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

let with_faults f =
  Fun.protect ~finally:Fault.clear (fun () -> Fault.clear (); f ())

let find_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then None
    else if String.sub s i lsub = sub then Some i
    else go (i + 1)
  in
  go 0

let contains_sub ~sub s = Option.is_some (find_sub ~sub s)

(* Exact comparison: same distances (float equality), same entry order. *)
let result = Alcotest.(list (pair (float 0.0) int))

(** The ground truth: the linear scan over [(index, vector)] pairs in
    index order — arrival order and entry index coincide, as they do for
    [Database.entries]. *)
let scan_topk (vecs : float array array) ~k (q : float array) :
    (float * int) list =
  let entries = Array.to_list (Array.mapi (fun i v -> (i, v)) vecs) in
  Embedding.nearest_by ~embed:snd k entries q
  |> List.map (fun (d, (i, _)) -> (d, i))

(** Random vectors on a small integer grid — duplicates and tied
    distances are common by construction, which is the point. *)
let random_vecs rng ~n ~dim : float array array =
  let grid = 1 + Rng.int rng 5 in
  let scale = if Rng.bool rng then 1.0 else 0.5 in
  Array.init n (fun _ ->
      Array.init dim (fun _ -> scale *. float_of_int (Rng.int rng grid)))

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
(* The differential property: the k-d tree == the scan, on ~200 random
   databases varying n, dim, duplicates and tied distances *)

let check_db ~name (vecs : float array array) ~dim (queries : float array list)
    (ks : int list) =
  let n = Array.length vecs in
  let kd = Ann.build ~fingerprint:"fp" ~dim vecs in
  List.iteri
    (fun qi q ->
      List.iter
        (fun k ->
          Alcotest.check result
            (Printf.sprintf "%s n=%d dim=%d q=%d k=%d" name n dim qi k)
            (scan_topk vecs ~k q) (Ann.query kd ~k q))
        ks)
    queries

let test_differential () =
  for case = 0 to 199 do
    let rng = Rng.of_string (Printf.sprintf "ann-diff-%d" case) in
    let dim = Rng.choose rng [ 2; 3; 16; 20 ] in
    let n = Rng.int rng 300 in
    let vecs = random_vecs rng ~n ~dim in
    let queries =
      List.init 3 (fun _ ->
          Array.init dim (fun _ -> float_of_int (Rng.int rng 6) *. 0.5))
    in
    let ks = List.sort_uniq compare [ 1; 3; max 1 n; n + 3 ] in
    check_db ~name:(Printf.sprintf "case %d" case) vecs ~dim queries ks
  done

let test_differential_parallel () =
  (* one shared index queried from 4 domains: results must equal the
     sequential scan, query by query — including through the paged
     (file-backed, lazily loaded) form, whose page cache the domains
     share *)
  let rng = Rng.of_string "ann-par" in
  let dim = Embedding.dim in
  let n = 500 in
  let vecs = random_vecs rng ~n ~dim in
  let queries =
    List.init 40 (fun _ ->
        Array.init dim (fun _ -> float_of_int (Rng.int rng 4)))
  in
  let kd = Ann.build ~fingerprint:"fp" ~dim vecs in
  let path = Filename.temp_file "daisyann" ".ann" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ann.save kd path;
      let paged =
        match Ann.load ~path ~fingerprint:"fp" with
        | Ok t -> t
        | Error m -> Alcotest.fail m
      in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let got =
                Pool.map ?pool
                  (fun q -> (Ann.query kd ~k:5 q, Ann.query paged ~k:5 q))
                  queries
              in
              List.iter2
                (fun q (mem, pg) ->
                  let expect = scan_topk vecs ~k:5 q in
                  Alcotest.check result
                    (Printf.sprintf "jobs=%d mem" jobs)
                    expect mem;
                  Alcotest.check result
                    (Printf.sprintf "jobs=%d paged" jobs)
                    expect pg)
                queries got))
        [ 1; 4 ])

(* ------------------------------------------------------------------ *)
(* Persistence *)

let test_save_load_roundtrip () =
  let rng = Rng.of_string "ann-roundtrip" in
  let dim = Embedding.dim in
  let vecs = random_vecs rng ~n:300 ~dim in
  let queries =
    List.init 10 (fun _ ->
        Array.init dim (fun _ -> float_of_int (Rng.int rng 4)))
  in
  let t = Ann.build ~fingerprint:"fp-1" ~dim vecs in
  let path = Filename.temp_file "daisyann" ".ann" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Ann.save t path;
      (match Ann.load ~path ~fingerprint:"fp-1" with
      | Error m -> Alcotest.fail m
      | Ok loaded ->
          Alcotest.(check int) "n" (Ann.n t) (Ann.n loaded);
          Alcotest.(check int) "pages" (Ann.pages t) (Ann.pages loaded);
          List.iter
            (fun q ->
              Alcotest.check result "loaded == built" (Ann.query t ~k:7 q)
                (Ann.query loaded ~k:7 q))
            queries);
      (* staleness rule: a different database fingerprint refuses *)
      match Ann.load ~path ~fingerprint:"fp-2" with
      | Ok _ -> Alcotest.fail "stale index accepted"
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "stale reason mentions staleness: %s" m)
            true
            (contains_sub ~sub:"stale" m));
  match Ann.load ~path:"/nonexistent/daisy.ann" ~fingerprint:"x" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ()

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
  (* scan path *)
  S.Database.detach_index db;
  let scan = S.Database.query_embedding db ~k q in
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
    scan indexed;
  S.Database.detach_index db

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
  S.Database.detach_index db;
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
  Alcotest.(check bool) "indexed" true (S.Database.has_index db);
  S.Database.add db ~source:"gemm2" ~nest ~recipe:[];
  Alcotest.(check bool) "detached on add" false (S.Database.has_index db)

(* The fingerprint and bounds memos are cleared by the same mutations
   that detach the index: after each, they equal a fresh handle's. *)
let test_database_memo () =
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "nest"
  in
  let rng = Rng.of_string "ann-db-memo" in
  let db = S.Database.of_entries (List.init 20 (mk_entry rng)) in
  let path = Filename.temp_file "daisyann" ".ann" in
  let box = Alcotest.(option (pair (array (float 0.0)) (array (float 0.0)))) in
  let check what =
    let fresh = S.Database.of_entries (S.Database.entries db) in
    Alcotest.(check string)
      (what ^ ": fingerprint") (S.Database.fingerprint fresh)
      (S.Database.fingerprint db);
    Alcotest.check box (what ^ ": bounds") (S.Database.bounds fresh)
      (S.Database.bounds db)
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.check box "empty" None (S.Database.bounds (S.Database.create ()));
      ignore (S.Database.rebuild_index db path);
      check "built";
      let far = { (mk_entry rng 100) with embedding = Array.make Embedding.dim 9.0 } in
      S.Database.merge ~into:db (S.Database.of_entries [ far ]);
      check "after merge";
      (match S.Database.load_index db path with
      | Ok _ -> Alcotest.fail "stale index attached after merge"
      | Error _ -> ());
      S.Database.add db ~source:"gemm" ~nest ~recipe:[];
      check "after add")

(* ------------------------------------------------------------------ *)
(* Robustness: mid-build crashes and corrupt index files *)

let test_build_crash_preserves_old_index () =
  with_faults (fun () ->
      let rng = Rng.of_string "ann-crash" in
      let db = S.Database.of_entries (List.init 120 (mk_entry rng)) in
      let path = Filename.temp_file "daisyann" ".ann" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          ignore (S.Database.rebuild_index db path);
          let old = match Ann.load ~path ~fingerprint:(S.Database.fingerprint db) with
            | Ok t -> t
            | Error m -> Alcotest.fail m
          in
          (* grow the database, then crash the rebuild mid-write *)
          let p = lower gemm_src in
          let nest =
            match p.Ir.body with
            | [ Ir.Nloop l ] -> l
            | _ -> Alcotest.fail "nest"
          in
          S.Database.add db ~source:"late" ~nest ~recipe:[];
          Fault.arm_nth "ann_build" 1;
          (try ignore (S.Database.rebuild_index db path)
           with Fault.Injected "ann_build" -> ());
          Alcotest.(check int) "fault fired" 1 (Fault.fired "ann_build");
          (* the old index file is untouched and still loads *)
          match Ann.load ~path ~fingerprint:(Ann.fingerprint old) with
          | Ok reloaded ->
              Alcotest.(check int) "old index intact" (Ann.n old)
                (Ann.n reloaded)
          | Error m -> Alcotest.fail ("old index lost: " ^ m)))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc s)

let test_corrupt_index_falls_back () =
  let rng = Rng.of_string "ann-corrupt" in
  let db = S.Database.of_entries (List.init 200 (mk_entry rng)) in
  let q = Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3)) in
  let path = Filename.temp_file "daisyann" ".ann" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (S.Database.rebuild_index db path);
      S.Database.detach_index db;
      (* flip one byte in every page entry line, keeping lengths intact:
         every page now fails its checksum when (lazily) fetched *)
      let contents = read_file path in
      let corrupted =
        String.concat "\n"
          (List.map
             (fun line ->
               if String.length line > 2 && String.sub line 0 2 = "e " then begin
                 let b = Bytes.of_string line in
                 let i = String.length line - 1 in
                 Bytes.set b i (if Bytes.get b i = '0' then '1' else '0');
                 Bytes.to_string b
               end
               else line)
             (String.split_on_char '\n' contents))
      in
      write_file path corrupted;
      (* header, tree and table are intact, so the load succeeds… *)
      (match S.Database.load_index db path with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("load refused: " ^ m));
      (* …and the first query hits the corrupt page, falls back to the
         scan (same result), detaches the index, and counts one fallback *)
      S.Database.reset_index_fallbacks ();
      let indexed = S.Database.query_embedding db ~k:5 q in
      Alcotest.(check int) "one fallback" 1 (S.Database.index_fallbacks ());
      Alcotest.(check bool) "detached" false (S.Database.has_index db);
      let scan = S.Database.query_embedding db ~k:5 q in
      List.iter2
        (fun (d1, (e1 : S.Database.entry)) (d2, (e2 : S.Database.entry)) ->
          Alcotest.(check (float 0.0)) "fallback distance" d1 d2;
          Alcotest.(check string) "fallback entry" e1.source e2.source)
        scan indexed;
      (* further queries stay on the scan with no new fallbacks *)
      ignore (S.Database.query_embedding db ~k:5 q);
      Alcotest.(check int) "no repeat" 1 (S.Database.index_fallbacks ()))

(* A non-finite coordinate is refused at build time, and a page that
   carries one under a valid checksum is corrupt: the query falls back
   to the scan. *)
let test_non_finite_refused () =
  List.iter
    (fun x ->
      let vecs = [| Array.make 4 0.0; Array.init 4 (fun i -> if i = 2 then x else 1.0) |] in
      match Ann.build ~fingerprint:"nf" ~dim:4 vecs with
      | _ -> Alcotest.failf "build accepted %h" x
      | exception Invalid_argument _ -> ())
    [ nan; infinity; neg_infinity ];
  let rng = Rng.of_string "ann-non-finite" in
  let db = S.Database.of_entries (List.init 50 (mk_entry rng)) in
  let path = Filename.temp_file "daisyann" ".ann" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (S.Database.rebuild_index db path);
      S.Database.detach_index db;
      (* rewrite page 0's first coordinate as an equally long spelling of
         infinity and re-checksum the page: byte offsets stay valid *)
      let lines = Array.of_list (String.split_on_char '\n' (read_file path)) in
      let hdr =
        Option.get
          (Array.find_index (fun l -> String.starts_with ~prefix:"page 0 " l) lines)
      in
      let count =
        match String.split_on_char ' ' lines.(hdr) with
        | [ _; _; _; c ] -> int_of_string c
        | _ -> Alcotest.fail "page header"
      in
      (match String.split_on_char ' ' lines.(hdr + 1) with
      | "e" :: idx :: x0 :: rest ->
          let inf = "1e" ^ String.make (String.length x0 - 2) '9' in
          Alcotest.(check bool) "spelling is infinite" true
            (float_of_string inf = infinity);
          lines.(hdr + 1) <- String.concat " " ("e" :: idx :: inf :: rest)
      | _ -> Alcotest.fail "entry line");
      let body = Array.to_list (Array.sub lines (hdr + 1) count) in
      lines.(hdr) <-
        Printf.sprintf "page 0 %s %d"
          (Util.fnv1a64 (String.concat "\n" body))
          count;
      write_file path (String.concat "\n" (Array.to_list lines));
      (match S.Database.load_index db path with
      | Ok _ -> ()
      | Error m -> Alcotest.fail ("load refused: " ^ m));
      S.Database.reset_index_fallbacks ();
      let q = Array.make Embedding.dim 0.0 in
      let project = List.map (fun (d, (e : S.Database.entry)) -> (d, e.source)) in
      let indexed = project (S.Database.query_embedding db ~k:50 q) in
      Alcotest.(check int) "one fallback" 1 (S.Database.index_fallbacks ());
      Alcotest.(check (list (pair (float 0.0) string)))
        "scan answers" (project (S.Database.query_embedding db ~k:50 q)) indexed)

let test_truncated_index_refused () =
  let rng = Rng.of_string "ann-trunc" in
  let db = S.Database.of_entries (List.init 100 (mk_entry rng)) in
  let path = Filename.temp_file "daisyann" ".ann" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      ignore (S.Database.rebuild_index db path);
      S.Database.detach_index db;
      let contents = read_file path in
      write_file path (String.sub contents 0 (String.length contents / 2));
      match S.Database.load_index db path with
      | Ok _ -> Alcotest.fail "truncated index accepted"
      | Error _ ->
          (* queries keep working on the scan *)
          let q = Array.make Embedding.dim 0.0 in
          Alcotest.(check int)
            "scan still works" 5
            (List.length (S.Database.query_embedding db ~k:5 q)))

(* A sidecar whose header names [algo lsh] — the layout of an index built
   when a second structure existed — is refused by every reader with a
   typed error naming the algorithm; queries scan, and a rebuild
   replaces the file with a k-d index. *)
let test_leftover_lsh_sidecar () =
  let rng = Rng.of_string "ann-lsh-sidecar" in
  let db = S.Database.of_entries (List.init 120 (mk_entry rng)) in
  let q = Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3)) in
  let dbpath = Filename.temp_file "daisydb" ".db" in
  let path = dbpath ^ ".ann" in
  let project = List.map (fun (d, (e : S.Database.entry)) -> (d, e.source)) in
  let answers = Alcotest.(list (pair (float 0.0) string)) in
  let scan = project (S.Database.query_embedding db ~k:5 q) in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ dbpath; path ])
    (fun () ->
      S.Database.save db dbpath;
      ignore (S.Database.rebuild_index db path);
      S.Database.detach_index db;
      Alcotest.(check bool) "the k-d sidecar serves" true
        ((Store.snapshot (Store.create ~path:dbpath ())).Store.index <> None);
      let kd = read_file path in
      let at = Option.get (find_sub ~sub:"\nalgo kd\n" kd) in
      write_file path
        (String.sub kd 0 at ^ "\nalgo lsh\n"
        ^ String.sub kd (at + 9) (String.length kd - at - 9));
      let fingerprint = S.Database.fingerprint db in
      (match Ann.load ~path ~fingerprint with
      | Ok _ -> Alcotest.fail "an lsh index loaded"
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "reason names the algorithm: %s" m)
            true
            (contains_sub ~sub:"\"lsh\"" m));
      S.Database.reset_index_fallbacks ();
      (match S.Database.load_index db path with
      | Ok _ -> Alcotest.fail "an lsh sidecar attached"
      | Error _ -> ());
      Alcotest.(check bool) "no index attached" false (S.Database.has_index db);
      Alcotest.check answers "queries scan" scan
        (project (S.Database.query_embedding db ~k:5 q));
      Alcotest.(check int)
        "no index fallbacks" 0
        (S.Database.index_fallbacks ());
      (* the daemon's monolithic store serves the scan, warning once *)
      Diag.reset_warn ~label:"serve_ann_load" ();
      let store = Store.create ~path:dbpath () in
      Alcotest.(check bool) "store serves without the sidecar" true
        ((Store.snapshot store).Store.index = None);
      Alcotest.(check int) "one sidecar warning" 1
        (Diag.warn_calls "serve_ann_load");
      Alcotest.check answers "store answers = scan" scan
        (project (S.Database.query_embedding (Store.db store) ~k:5 q));
      (* a rebuild replaces the file with a k-d index that loads *)
      ignore (S.Database.rebuild_index db path);
      S.Database.detach_index db;
      (match S.Database.load_index db path with
      | Ok desc ->
          Alcotest.(check bool) ("rebuilt index is kd: " ^ desc) true
            (String.starts_with ~prefix:"kd," desc)
      | Error m -> Alcotest.fail ("rebuilt index refused: " ^ m));
      Alcotest.check answers "rebuilt index answers = scan" scan
        (project (S.Database.query_embedding db ~k:5 q)))

let test_ann_query_fault_falls_back () =
  with_faults (fun () ->
      let rng = Rng.of_string "ann-qfault" in
      let db = S.Database.of_entries (List.init 90 (mk_entry rng)) in
      let q = Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 3)) in
      S.Database.build_index db;
      S.Database.reset_index_fallbacks ();
      Fault.arm_nth "ann_query" 1;
      let indexed = S.Database.query_embedding db ~k:5 q in
      Alcotest.(check int) "one fallback" 1 (S.Database.index_fallbacks ());
      let scan = S.Database.query_embedding db ~k:5 q in
      List.iter2
        (fun (d1, (e1 : S.Database.entry)) (d2, (e2 : S.Database.entry)) ->
          Alcotest.(check (float 0.0)) "distance" d1 d2;
          Alcotest.(check string) "entry" e1.source e2.source)
        scan indexed)

let suite =
  [
    Alcotest.test_case "nearest_by: permutation-stable ties" `Quick
      test_nearest_by_stability;
    Alcotest.test_case "differential: kd == scan (200 dbs)" `Slow
      test_differential;
    Alcotest.test_case "differential: parallel, mem & paged" `Quick
      test_differential_parallel;
    Alcotest.test_case "save/load round-trip + staleness" `Quick
      test_save_load_roundtrip;
    Alcotest.test_case "database edge cases, both paths" `Quick
      test_database_edges;
    Alcotest.test_case "database query on a real nest" `Quick
      test_database_query_nest;
    Alcotest.test_case "database memo follows add/merge" `Quick
      test_database_memo;
    Alcotest.test_case "ann_build crash keeps old index" `Quick
      test_build_crash_preserves_old_index;
    Alcotest.test_case "corrupt pages fall back to scan" `Quick
      test_corrupt_index_falls_back;
    Alcotest.test_case "non-finite coordinates refused" `Quick
      test_non_finite_refused;
    Alcotest.test_case "truncated index refused, scan works" `Quick
      test_truncated_index_refused;
    Alcotest.test_case "ann_query fault falls back" `Quick
      test_ann_query_fault_falls_back;
    Alcotest.test_case "leftover lsh sidecar: scan, then rebuild" `Quick
      test_leftover_lsh_sidecar;
  ]
