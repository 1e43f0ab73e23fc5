(** Robustness tests (docs/robustness.md): step budgets bound every
    evaluation, engine failures degrade to the tree oracle, pool batches
    fail fast deterministically, the on-disk database round-trips
    bit-identically and tolerates corruption, and the structural
    validator catches malformed IR. Failures are forced with
    {!Daisy_support.Fault}. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Budget = Daisy_support.Budget
module Fault = Daisy_support.Fault
module Pool = Daisy_support.Pool
module Diag = Daisy_support.Diag
module Interp = Daisy_interp.Interp
module Cost = Daisy_machine.Cost
module Config = Daisy_machine.Config
module Recipe = Daisy_transforms.Recipe
module Embedding = Daisy_embedding.Embedding
module Pipeline = Daisy_normalize.Pipeline
module S = Daisy_scheduler

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

(* ------------------------------------------------------------------ *)
(* Step budgets *)

let test_budget_basics () =
  let b = Budget.make ~steps:3 in
  Budget.tick b;
  Budget.tick b;
  Alcotest.(check int) "one left" 1 (Budget.remaining b);
  Budget.tick b;
  Alcotest.(check bool) "not yet exhausted" false (Budget.exhausted b);
  Alcotest.check_raises "4th tick" Budget.Exhausted (fun () -> Budget.tick b);
  (* exhaustion is sticky *)
  Alcotest.check_raises "sticky" Budget.Exhausted (fun () -> Budget.tick b);
  Alcotest.(check bool) "exhausted" true (Budget.exhausted b);
  let s = Budget.make ~steps:10 in
  Budget.spend s 4;
  Budget.spend s (-5);
  Alcotest.(check int) "spend" 6 (Budget.remaining s);
  Alcotest.check_raises "overspend" Budget.Exhausted (fun () ->
      Budget.spend s 7);
  let u = Budget.unlimited () in
  for _ = 1 to 10_000 do Budget.tick u done;
  Alcotest.(check bool) "unlimited" false (Budget.exhausted u)

let test_budget_interp_engines () =
  let p =
    lower
      {|void f(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              A[i][j] = A[i][j] + 1.0;
        }|}
  in
  let sizes = [ ("n", 10) ] in
  (* 10 outer + 100 inner iterations; a budget of 5 must trip in both
     engines, a large one must not *)
  Alcotest.check_raises "tree exhausts" Budget.Exhausted (fun () ->
      ignore (Interp.run_fresh ~budget:(Budget.make ~steps:5) p ~sizes ()));
  Alcotest.check_raises "bytecode exhausts" Budget.Exhausted (fun () ->
      ignore
        (Interp.run_bytecode_fresh ~budget:(Budget.make ~steps:5) p ~sizes ()));
  let s1 = Interp.run_fresh ~budget:(Budget.make ~steps:1_000) p ~sizes () in
  let s2 =
    Interp.run_bytecode_fresh ~budget:(Budget.make ~steps:1_000) p ~sizes ()
  in
  Alcotest.(check (float 0.0)) "same bytecode result under budget" 0.0
    (Interp.max_rel_diff p s1 s2)

(* The acceptance regression: an adversarially large iteration space
   (~10^10 walked iterations) must abort within its step budget on every
   engine instead of hanging. *)
let test_budget_bounds_adversarial_evaluation () =
  let p = lower gemm_src in
  let sizes = [ ("n", 2_000) ] in
  List.iter
    (fun engine ->
      Alcotest.check_raises
        ("engine " ^ Cost.string_of_engine engine)
        Budget.Exhausted
        (fun () ->
          ignore
            (Cost.evaluate_guarded Config.default p ~sizes ~engine
               ~steps:10_000 ())))
    [ Cost.Tree; Cost.Bytecode;
      Cost.Approx Daisy_machine.Trace_bc.default_approx ]

let test_budget_exhaustion_is_infinity_fitness () =
  let p = lower gemm_src in
  let ctx = S.Common.make_ctx ~sizes:[ ("n", 64) ] ~eval_steps:5 () in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "one nest"
  in
  let cache = S.Evolve.create_cache () in
  let fit = S.Evolve.eval_cached cache ctx ~outer:[] p nest [] in
  Alcotest.(check bool) "exhausted candidate scores infinity" true
    (fit = infinity)

(* ------------------------------------------------------------------ *)
(* Graceful engine degradation *)

(** The approximate engine runs on the bytecode walk: a failing [bc_run]
    drops it to the tree walker with exactly one fallback counted, while
    [trace_fuse] never fires under approx (the batched replay is off). *)
let test_trace_engine_fallback_same_result () =
  with_faults (fun () ->
      let p = lower gemm_src in
      let sizes = [ ("n", 24) ] in
      let approx = Cost.Approx Daisy_machine.Trace_bc.default_approx in
      let reference =
        Cost.evaluate_guarded Config.default p ~sizes ~engine:Cost.Tree ()
      in
      let unarmed =
        Cost.evaluate_guarded Config.default p ~sizes ~engine:approx ()
      in
      Cost.reset_engine_fallbacks ();
      Fault.arm_always "bc_run";
      let guarded =
        Cost.evaluate_guarded Config.default p ~sizes ~engine:approx ()
      in
      Alcotest.(check int) "one fallback" 1 (Cost.engine_fallbacks ());
      Alcotest.(check (float 0.0)) "tree-identical milliseconds"
        (Cost.milliseconds reference)
        (Cost.milliseconds guarded);
      Fault.clear ();
      Cost.reset_engine_fallbacks ();
      Fault.arm_always "trace_fuse";
      let fused_armed =
        Cost.evaluate_guarded Config.default p ~sizes ~engine:approx ()
      in
      Alcotest.(check int) "trace_fuse never fires under approx" 0
        (Cost.engine_fallbacks ());
      Alcotest.(check (float 0.0)) "approx result unchanged"
        (Cost.milliseconds unarmed)
        (Cost.milliseconds fused_armed))

(** The degradation chain of the trace backend: any failing bytecode
    stage (lowering, walk, batched replay) steps down to the tree oracle
    with one fallback — bit-identical report every time. *)
let test_bytecode_trace_fallback_chain () =
  with_faults (fun () ->
      let p = lower gemm_src in
      let sizes = [ ("n", 24) ] in
      let reference =
        Cost.evaluate_guarded Config.default p ~sizes ~engine:Cost.Tree ()
      in
      List.iter
        (fun (what, labels) ->
          Fault.clear ();
          List.iter Fault.arm_always labels;
          Cost.reset_engine_fallbacks ();
          let guarded =
            Cost.evaluate_guarded Config.default p ~sizes
              ~engine:Cost.Bytecode ()
          in
          Alcotest.(check int) (what ^ ": one fallback") 1
            (Cost.engine_fallbacks ());
          Alcotest.(check (float 0.0)) (what ^ ": bitwise-identical result")
            (Cost.milliseconds reference)
            (Cost.milliseconds guarded))
        [ ("bc_run -> tree", [ "bc_run" ]);
          ("bc_compile -> tree", [ "bc_compile" ]);
          ("trace_fuse -> tree", [ "trace_fuse" ]);
          ("bc_run + trace_fuse -> tree", [ "bc_run"; "trace_fuse" ]) ])

let test_interp_fallback_preserves_equivalence () =
  with_faults (fun () ->
      let p = lower gemm_src in
      (* default engine is bytecode: a bc_run crash degrades to the tree *)
      Interp.reset_compiled_fallbacks ();
      Fault.arm_nth "bc_run" 1;
      Alcotest.(check bool) "equivalent despite engine crash" true
        (Interp.equivalent p p ~sizes:[ ("n", 6) ] ());
      Alcotest.(check bool) "fallback counted" true
        (Interp.compiled_fallbacks () >= 1);
      (* bc_compile crashes degrade the same way *)
      Fault.clear ();
      Interp.reset_compiled_fallbacks ();
      Fault.arm_nth "bc_compile" 1;
      Alcotest.(check bool) "equivalent despite lowering crash" true
        (Interp.equivalent p p ~sizes:[ ("n", 6) ] ());
      Alcotest.(check bool) "lowering fallback counted" true
        (Interp.compiled_fallbacks () >= 1);
      (* bytecode armed on every run: both sides of the check run on the
         tree oracle, one fallback each *)
      Fault.clear ();
      Interp.reset_compiled_fallbacks ();
      Fault.arm_always "bc_run";
      Alcotest.(check bool) "equivalent on the tree oracle" true
        (Interp.equivalent p p ~sizes:[ ("n", 6) ] ());
      Alcotest.(check int) "one fallback per run" 2
        (Interp.compiled_fallbacks ()))

let test_budget_exhaustion_is_not_masked () =
  (* evaluate_guarded must let Exhausted escape, not silently retry on
     the tree walker with fresh fuel *)
  let p = lower gemm_src in
  Cost.reset_engine_fallbacks ();
  Alcotest.check_raises "propagates" Budget.Exhausted (fun () ->
      ignore
        (Cost.evaluate_guarded Config.default p ~sizes:[ ("n", 64) ]
           ~engine:Cost.Bytecode ~steps:10 ()));
  Alcotest.(check int) "no fallback recorded" 0 (Cost.engine_fallbacks ())

(* ------------------------------------------------------------------ *)
(* Pool failure semantics *)

let test_pool_lowest_failure_wins_any_jobs () =
  (* same exception at any job count: the lowest-index failing task *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.map ?pool
              (fun x -> if x mod 7 = 5 then failwith (string_of_int x) else x)
              (List.init 64 Fun.id)
          with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure m ->
              Alcotest.(check string)
                (Printf.sprintf "jobs=%d" jobs)
                "5" m))
    [ 1; 2; 4; 8 ]

let test_pool_poisoning_skips_unclaimed () =
  (* inline execution (after shutdown) claims tasks in order, so the
     fail-fast skip count is exact: tasks after the failure never run *)
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  let executed = Atomic.make 0 in
  (match
     Pool.map ~pool
       (fun x ->
         Atomic.incr executed;
         if x = 3 then failwith "poison" else x)
       (List.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check int) "remaining 96 tasks skipped" 4 (Atomic.get executed)

let test_pool_fault_point () =
  with_faults (fun () ->
      Fault.arm_always "pool_task";
      Pool.with_pool ~jobs:4 (fun pool ->
          Alcotest.check_raises "injected" (Fault.Injected "pool_task")
            (fun () -> ignore (Pool.map ?pool Fun.id [ 1; 2; 3 ]))))

(* ------------------------------------------------------------------ *)
(* Database persistence *)

let make_db () =
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "one nest"
  in
  let db = S.Database.create () in
  S.Database.add db ~source:"gemm:a" ~nest ~recipe:[];
  S.Database.add db ~source:"gemm:b" ~nest
    ~recipe:[ Recipe.Interchange [ 2; 0; 1 ]; Recipe.Vectorize ];
  S.Database.add db ~source:"gemm \"quoted\\\" c" ~nest
    ~recipe:
      [ Recipe.Tile [ (0, 32); (1, 64) ]; Recipe.Parallelize 0;
        Recipe.Unroll (2, 4) ];
  (db, nest)

let check_same_entries msg a b =
  let open S.Database in
  Alcotest.(check int) (msg ^ ": size") (size a) (size b);
  List.iter2
    (fun (x : entry) (y : entry) ->
      Alcotest.(check string) (msg ^ ": source") x.source y.source;
      Alcotest.(check int) (msg ^ ": hash") x.canon_hash y.canon_hash;
      Alcotest.(check bool) (msg ^ ": recipe") true
        (Recipe.equal x.recipe y.recipe);
      (* bitwise float equality, not approximate *)
      Alcotest.(check bool) (msg ^ ": embedding bits") true
        (Array.for_all2
           (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
           x.embedding y.embedding))
    (entries a) (entries b)

let test_db_roundtrip_bit_identical () =
  let db, nest = make_db () in
  let path = Filename.temp_file "daisydb" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.Database.save db path;
      let db', warnings = S.Database.load path in
      Alcotest.(check (list string)) "no warnings" [] warnings;
      check_same_entries "roundtrip" db db';
      (* queries against the reloaded database are bit-identical *)
      let project = List.map (fun (d, (e : S.Database.entry)) -> (d, e.source)) in
      Alcotest.(check (list (pair (float 0.0) string)))
        "query" (project (S.Database.query db ~k:2 nest))
        (project (S.Database.query db' ~k:2 nest));
      Alcotest.(check int) "exact matches" 3
        (List.length (S.Database.exact_matches db' nest)))

let test_db_tolerates_corruption () =
  let db, _ = make_db () in
  let path = Filename.temp_file "daisydb" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.Database.save db path;
      let lines =
        String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
      in
      (* corrupt the first entry's recipe line: checksum must catch it *)
      let corrupted =
        List.map
          (fun l ->
            if l = "recipe []" then "recipe [vectorize]" else l)
          lines
      in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" corrupted));
      let db', warnings = S.Database.load path in
      Alcotest.(check int) "one entry skipped" 2 (S.Database.size db');
      Alcotest.(check int) "one warning" 1 (List.length warnings);
      Alcotest.(check bool) "warning names checksum" true
        (List.exists
           (fun w ->
             Daisy_support.Util.SSet.mem "checksum"
               (Daisy_support.Util.SSet.of_list (String.split_on_char ' ' w)))
           warnings))

let test_db_tolerates_truncation () =
  let db, _ = make_db () in
  let path = Filename.temp_file "daisydb" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.Database.save db path;
      let text = In_channel.with_open_text path In_channel.input_all in
      (* chop the file mid-way through the last entry *)
      let cut = String.length text - 20 in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc (String.sub text 0 cut));
      let db', warnings = S.Database.load path in
      Alcotest.(check bool) "some entries survive" true
        (S.Database.size db' >= 1);
      Alcotest.(check bool) "truncation warned" true (warnings <> []))

let test_db_non_finite_embedding () =
  let db, _ = make_db () in
  let e = List.hd (S.Database.entries db) in
  let bad =
    {
      e with
      S.Database.source = "nan";
      canon_hash = e.canon_hash + 1;
      embedding = Array.mapi (fun i x -> if i = 3 then nan else x) e.embedding;
    }
  in
  let path = Filename.temp_file "daisydb" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* the entry's checksum is intact: only the value refuses it *)
      S.Database.save (S.Database.of_entries (bad :: S.Database.entries db)) path;
      let db', warnings = S.Database.load path in
      check_same_entries "nan entry skipped" db db';
      Alcotest.(check int) "exactly one warning" 1 (List.length warnings);
      Alcotest.(check bool) "warning names the value" true
        (List.exists
           (fun w ->
             Test_ann.contains_sub ~sub:"non-finite embedding value" w)
           warnings))

let test_db_whole_file_errors () =
  let path = Filename.temp_file "daisydb" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let expect_error msg =
        match S.Database.load path with
        | _ -> Alcotest.fail (msg ^ ": expected Diag.Error")
        | exception Diag.Error _ -> ()
      in
      expect_error "empty file";
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "NOTADB 1\n");
      expect_error "bad magic";
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc "DAISYDB 99\n");
      expect_error "future version";
      match S.Database.load "/nonexistent/daisy.db" with
      | _ -> Alcotest.fail "missing file: expected Diag.Error"
      | exception Diag.Error _ -> ())

let test_db_load_fault_point () =
  with_faults (fun () ->
      let db, _ = make_db () in
      let path = Filename.temp_file "daisydb" ".db" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          S.Database.save db path;
          Fault.arm_nth "db_load" 2;
          let db', warnings = S.Database.load path in
          Alcotest.(check int) "second entry dropped" 2 (S.Database.size db');
          Alcotest.(check int) "fault warned" 1 (List.length warnings)))

let test_db_save_crash_keeps_old_file () =
  with_faults (fun () ->
      let db, nest = make_db () in
      let path = Filename.temp_file "daisydb" ".db" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          S.Database.save db path;
          (* a save killed mid-stream (the per-entry "db_save" fault fires
             while the temp file is being written) must leave the old
             database untouched and clean up its temp file *)
          let bigger = S.Database.create () in
          S.Database.merge ~into:bigger db;
          S.Database.add bigger ~source:"extra" ~nest ~recipe:[];
          Fault.arm_nth "db_save" 2;
          (match S.Database.save bigger path with
          | () -> Alcotest.fail "expected the injected db_save crash"
          | exception Fault.Injected "db_save" -> ());
          let db', warnings = S.Database.load path in
          Alcotest.(check (list string)) "no warnings" [] warnings;
          check_same_entries "old database intact" db db';
          let dir = Filename.dirname path and base = Filename.basename path in
          Alcotest.(check bool) "no temp file left" true
            (Array.for_all
               (fun f ->
                 not
                   (String.length f > String.length base
                   && String.sub f 0 (String.length base) = base
                   && f <> base))
               (Sys.readdir dir));
          (* the unfaulted save then replaces the file as one atomic step *)
          S.Database.save bigger path;
          let db'', _ = S.Database.load path in
          check_same_entries "new database readable" bigger db''))

(* ------------------------------------------------------------------ *)
(* Query edge cases *)

let test_query_edge_cases () =
  let db, nest = make_db () in
  let empty = S.Database.create () in
  Alcotest.(check int) "k=0" 0 (List.length (S.Database.query db ~k:0 nest));
  Alcotest.(check int) "k<0" 0 (List.length (S.Database.query db ~k:(-3) nest));
  Alcotest.(check int) "empty db" 0
    (List.length (S.Database.query empty ~k:5 nest));
  Alcotest.(check int) "empty db exact" 0
    (List.length (S.Database.exact_matches empty nest));
  let q = Array.make Embedding.dim 0.0 in
  Alcotest.(check int) "nearest_by k=0" 0
    (List.length (Embedding.nearest_by ~embed:Fun.id 0 [ q ] q));
  Alcotest.(check int) "nearest_by k<0" 0
    (List.length (Embedding.nearest_by ~embed:Fun.id (-1) [ q ] q));
  Alcotest.(check int) "nearest_by empty" 0
    (List.length (Embedding.nearest_by ~embed:Fun.id 3 [] q))

(* ------------------------------------------------------------------ *)
(* Recipe parsing *)

let test_recipe_of_string_roundtrip () =
  List.iter
    (fun r ->
      match Recipe.of_string (Recipe.to_string r) with
      | Ok r' ->
          Alcotest.(check bool) (Recipe.to_string r) true (Recipe.equal r r')
      | Error m -> Alcotest.fail m)
    [
      [];
      [ Recipe.Vectorize ];
      [ Recipe.Interchange [ 1; 0 ] ];
      [ Recipe.Tile [ (0, 32); (1, 64) ]; Recipe.Parallelize 0;
        Recipe.Unroll (1, 4); Recipe.Vectorize ];
    ]

let test_recipe_of_string_errors () =
  List.iter
    (fun s ->
      match Recipe.of_string s with
      | Ok _ -> Alcotest.fail (s ^ ": expected parse error")
      | Error _ -> ())
    [ ""; "vectorize"; "[foo]"; "[tile(x:1)]"; "[tile()]"; "[unroll(1)]";
      "[interchange(1 0)"; "[parallel(0 1)]" ]

(* ------------------------------------------------------------------ *)
(* IR validation *)

let decl name dims =
  { Ir.name; elem = Ir.Fdouble; dims; storage = Ir.Sparam }

let prog body arrays =
  {
    Ir.pname = "t";
    size_params = [ "n" ];
    scalar_params = [];
    arrays;
    local_scalars = [];
    body;
  }

let store arr idx =
  Ir.mk_comp (Ir.Darray { Ir.array = arr; indices = idx }) (Ir.Vfloat 1.0)

let test_validate_accepts_valid () =
  let p = lower gemm_src in
  Alcotest.(check (list string)) "gemm valid" [] (Ir.validate p);
  let n = Pipeline.normalize ~sizes:[ ("n", 32) ] p in
  Alcotest.(check (list string)) "normalized gemm valid" [] (Ir.validate n)

let test_validate_catches_violations () =
  let a_n = [ decl "A" [ Expr.var "n" ] ] in
  let check msg p expected_fragment =
    match Ir.validate p with
    | [] -> Alcotest.fail (msg ^ ": expected a violation")
    | v :: _ ->
        let has frag =
          let re = Str.regexp_string frag in
          try ignore (Str.search_forward re v 0); true
          with Not_found -> false
        in
        Alcotest.(check bool) (msg ^ ": " ^ v) true (has expected_fragment)
  in
  (* unbound variable in a loop bound *)
  check "unbound"
    (prog
       [ Ir.Nloop
           (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.var "mystery")
              [ Ir.Ncomp (store "A" [ Expr.var "i" ]) ]) ]
       a_n)
    "mystery";
  (* zero step *)
  check "zero step"
    (prog
       [ Ir.Nloop
           (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.var "n") ~step:0
              [ Ir.Ncomp (store "A" [ Expr.var "i" ]) ]) ]
       a_n)
    "zero step";
  (* iterator used in its own bound *)
  check "self-referential bound"
    (prog
       [ Ir.Nloop
           (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.var "i")
              [ Ir.Ncomp (store "A" [ Expr.var "i" ]) ]) ]
       a_n)
    "unbound variable i";
  (* undeclared array *)
  check "undeclared array"
    (prog [ Ir.Ncomp (store "B" [ Expr.zero ]) ] a_n)
    "undeclared array B";
  (* rank mismatch *)
  check "rank mismatch"
    (prog [ Ir.Ncomp (store "A" [ Expr.zero; Expr.zero ]) ] a_n)
    "rank 1 but 2 subscripts";
  (* duplicate ids *)
  let c = store "A" [ Expr.zero ] in
  check "duplicate id" (prog [ Ir.Ncomp c; Ir.Ncomp c ] a_n) "duplicate id"

let test_validation_hooks () =
  let saved = !Ir.validation_enabled in
  Fun.protect
    ~finally:(fun () -> Ir.validation_enabled := saved)
    (fun () ->
      Ir.validation_enabled := true;
      (* valid inputs pass through both hooks unharmed *)
      let p = lower gemm_src in
      ignore (Pipeline.normalize ~sizes:[ ("n", 16) ] p);
      let nest =
        match p.Ir.body with
        | [ Ir.Nloop l ] -> l
        | _ -> Alcotest.fail "one nest"
      in
      (match Recipe.apply ~outer:[] nest [ Recipe.Vectorize ] with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      (* a malformed program is rejected at the first pipeline stage *)
      let broken =
        prog
          [ Ir.Nloop
              (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.var "mystery")
                 [ Ir.Ncomp (store "A" [ Expr.var "i" ]) ]) ]
          [ decl "A" [ Expr.var "n" ] ]
      in
      match Pipeline.run broken with
      | _ -> Alcotest.fail "expected Diag.Error from validation hook"
      | exception Diag.Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Degenerate nests through the full pipeline *)

let full_pipeline_check src ~sizes =
  let p = lower src in
  let normalized = Pipeline.normalize ~sizes p in
  Alcotest.(check bool) "normalization preserves semantics" true
    (Interp.equivalent p normalized ~sizes ());
  let ctx = S.Common.make_ctx ~sizes ~sample_outer:4 () in
  let db = S.Database.create () in
  S.Seed.seed_database ~epochs:1 ~population:3 ~iterations:1 ctx ~db
    [ (p.Ir.pname, p) ];
  let report = S.Daisy.schedule ctx ~db p in
  Alcotest.(check bool) "scheduling preserves semantics" true
    (Interp.equivalent p report.S.Daisy.program ~sizes ())

let test_zero_trip_pipeline () =
  (* [m] bounds the outer loop but not the arrays, so m = 0 gives a
     zero-trip nest over well-formed storage *)
  full_pipeline_check
    {|void f(int n, int m, double A[n][n]) {
        for (int i = 0; i < m; i++)
          for (int j = 0; j < n; j++)
            A[i][j] = A[i][j] + 1.0;
      }|}
    ~sizes:[ ("n", 5); ("m", 0) ]

let test_negative_step_pipeline () =
  full_pipeline_check
    {|void f(int n, double A[n][n]) {
        for (int i = n - 1; i >= 0; i--)
          for (int j = n - 1; j >= 0; j--)
            A[i][j] = A[i][j] * 2.0 + 1.0;
      }|}
    ~sizes:[ ("n", 9) ]

(* ------------------------------------------------------------------ *)
(* Fault triggers *)

let test_fault_triggers () =
  with_faults (fun () ->
      (* nth fires exactly once, on the nth call *)
      Fault.arm_nth "t" 2;
      Alcotest.(check (list bool)) "nth:2"
        [ false; true; false; false ]
        (List.init 4 (fun _ -> Fault.fires "t"));
      Alcotest.(check int) "calls" 4 (Fault.calls "t");
      Alcotest.(check int) "fired" 1 (Fault.fired "t");
      (* prob is deterministic in its seed *)
      let pattern () = List.init 32 (fun _ -> Fault.fires "p") in
      Fault.arm_prob "p" ~p:0.5 ~seed:"s1";
      let a = pattern () in
      Fault.arm_prob "p" ~p:0.5 ~seed:"s1";
      let b = pattern () in
      Alcotest.(check (list bool)) "same seed, same stream" a b;
      Alcotest.(check bool) "p=0.5 fires sometimes" true
        (List.mem true a && List.mem false a);
      (* unarmed points are inert *)
      Fault.disarm "t";
      Alcotest.(check bool) "disarmed" false (Fault.fires "t");
      (* the DAISY_FAULT spec syntax *)
      Fault.configure "x=always,y=nth:3";
      Alcotest.(check bool) "configured" true
        (Fault.armed "x" && Fault.armed "y");
      Alcotest.check_raises "inject" (Fault.Injected "x") (fun () ->
          Fault.inject "x");
      List.iter
        (fun bad ->
          match Fault.configure bad with
          | () -> Alcotest.fail (bad ^ ": expected Invalid_argument")
          | exception Invalid_argument _ -> ())
        [ "x"; "x=never"; "x=nth:zero"; "x=prob:2.0:s"; "=always" ])

let suite =
  [
    Alcotest.test_case "budget: basics" `Quick test_budget_basics;
    Alcotest.test_case "budget: both interp engines" `Quick
      test_budget_interp_engines;
    Alcotest.test_case "budget: bounds adversarial evaluation" `Quick
      test_budget_bounds_adversarial_evaluation;
    Alcotest.test_case "budget: exhaustion scores infinity" `Quick
      test_budget_exhaustion_is_infinity_fitness;
    Alcotest.test_case "fallback: trace engine, identical result" `Quick
      test_trace_engine_fallback_same_result;
    Alcotest.test_case "fallback: bytecode trace chain" `Quick
      test_bytecode_trace_fallback_chain;
    Alcotest.test_case "fallback: interp engine, equivalence" `Quick
      test_interp_fallback_preserves_equivalence;
    Alcotest.test_case "fallback: budget exhaustion not masked" `Quick
      test_budget_exhaustion_is_not_masked;
    Alcotest.test_case "pool: lowest failure wins at any job count" `Quick
      test_pool_lowest_failure_wins_any_jobs;
    Alcotest.test_case "pool: poisoning skips unclaimed tasks" `Quick
      test_pool_poisoning_skips_unclaimed;
    Alcotest.test_case "pool: fault point" `Quick test_pool_fault_point;
    Alcotest.test_case "db: roundtrip bit-identical" `Quick
      test_db_roundtrip_bit_identical;
    Alcotest.test_case "db: tolerates corruption" `Quick
      test_db_tolerates_corruption;
    Alcotest.test_case "db: tolerates truncation" `Quick
      test_db_tolerates_truncation;
    Alcotest.test_case "db: non-finite embedding skipped" `Quick
      test_db_non_finite_embedding;
    Alcotest.test_case "db: whole-file errors" `Quick test_db_whole_file_errors;
    Alcotest.test_case "db: load fault point" `Quick test_db_load_fault_point;
    Alcotest.test_case "db: crashed save keeps the old file" `Quick
      test_db_save_crash_keeps_old_file;
    Alcotest.test_case "query: edge cases" `Quick test_query_edge_cases;
    Alcotest.test_case "recipe: of_string roundtrip" `Quick
      test_recipe_of_string_roundtrip;
    Alcotest.test_case "recipe: of_string errors" `Quick
      test_recipe_of_string_errors;
    Alcotest.test_case "validate: accepts valid programs" `Quick
      test_validate_accepts_valid;
    Alcotest.test_case "validate: catches violations" `Quick
      test_validate_catches_violations;
    Alcotest.test_case "validate: pipeline and recipe hooks" `Quick
      test_validation_hooks;
    Alcotest.test_case "pipeline: zero-trip nest" `Quick
      test_zero_trip_pipeline;
    Alcotest.test_case "pipeline: negative-step nest" `Quick
      test_negative_step_pipeline;
    Alcotest.test_case "fault: trigger semantics" `Quick test_fault_triggers;
  ]
