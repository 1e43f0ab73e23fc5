(** Tests for the schedulers: baselines produce valid (semantics-preserving)
    programs, the database/transfer-tuning machinery works, and the daisy
    pipeline achieves the paper's robustness property on a mini benchmark
    set. *)

module Ir = Daisy_loopir.Ir
module S = Daisy_scheduler
module Interp = Daisy_interp.Interp
module Rng = Daisy_support.Rng

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"

let gemm_src =
  {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
          for (int j = 0; j < n; j++)
            C[i][j] += A[i][k] * B[k][j];
    }|}

let small_ctx = S.Common.make_ctx ~sizes:[ ("n", 48) ] ~sample_outer:8 ()

let check_equiv ~sizes p1 p2 =
  Alcotest.(check bool) "equivalent" true (Interp.equivalent p1 p2 ~sizes ())

(* ------------------------------------------------------------------ *)
(* Baselines *)

let test_clang_preserves () =
  let p = lower gemm_src in
  let p' = S.Baselines.clang_like p in
  check_equiv ~sizes:[ ("n", 8) ] p p';
  (* gemm's innermost j loop is vectorizable *)
  let loops = Ir.loops_in p'.Ir.body in
  Alcotest.(check bool) "innermost vectorized" true
    (List.exists (fun (l : Ir.loop) -> l.Ir.attrs.Ir.vectorized) loops)

let test_icc_parallelizes () =
  let p = lower gemm_src in
  let p' = S.Baselines.icc_like p in
  check_equiv ~sizes:[ ("n", 8) ] p p';
  match p'.Ir.body with
  | [ Ir.Nloop l ] ->
      Alcotest.(check bool) "outer parallel" true l.Ir.attrs.Ir.parallel
  | _ -> Alcotest.fail "one nest"

let test_polly_tiles () =
  let p = lower gemm_src in
  let p' = S.Baselines.polly_like p in
  check_equiv ~sizes:[ ("n", 8) ] p p';
  Alcotest.(check bool) "more loops after tiling" true
    (List.length (Ir.loops_in p'.Ir.body) > 3)

let test_polly_keeps_source_order () =
  (* Polly does not reorder for stride: a badly-ordered copy keeps its
     order (the modeled weakness the paper exploits) *)
  let p =
    lower
      {|void f(int n, double A[n][n], double B[n][n]) {
          for (int j = 0; j < n; j++)
            for (int i = 0; i < n; i++)
              A[i][j] = B[i][j];
        }|}
  in
  let p' = S.Baselines.polly_like p in
  (* the point loops preserve j-outside-i order *)
  let iters =
    List.filter_map
      (fun (l : Ir.loop) ->
        if String.length l.Ir.iter = 1 then Some l.Ir.iter else None)
      (Ir.loops_in p'.Ir.body)
  in
  Alcotest.(check (list string)) "j before i" [ "j"; "i" ] iters

let test_polly_bails_on_guard () =
  let p =
    lower
      {|void f(int n, double A[n], double x) {
          for (int i = 0; i < n; i++)
            if (x > 0.0) A[i] = 1.0;
        }|}
  in
  let p' = S.Baselines.polly_like p in
  check_equiv ~sizes:[ ("n", 9) ] p p';
  Alcotest.(check bool) "no tiling on non-SCoP" true
    (List.length (Ir.loops_in p'.Ir.body) = 1)

(* ------------------------------------------------------------------ *)
(* Tiramisu model *)

let test_tiramisu_schedules_gemm () =
  let p = lower gemm_src in
  match S.Tiramisu.schedule small_ctx p with
  | S.Tiramisu.Unsupported r -> Alcotest.failf "unsupported: %s" r
  | S.Tiramisu.Scheduled p' -> check_equiv ~sizes:[ ("n", 8) ] p p'

let test_tiramisu_unsupported_imperfect () =
  (* an imperfect nest that fission cannot separate (dependence cycle) is
     not convertible by the adapter *)
  let p =
    lower
      {|void f(int n, double A[n][n], double B[n][n]) {
          for (int i = 1; i < n; i++) {
            for (int j = 1; j < n; j++) {
              A[i][j] = B[i][j - 1] + 1.0;
              B[i][j] = A[i][j] * 0.5;
            }
            A[i][0] = A[i - 1][0];
          }
        }|}
  in
  match S.Tiramisu.schedule small_ctx p with
  | S.Tiramisu.Unsupported _ -> ()
  | S.Tiramisu.Scheduled _ ->
      (* acceptable if fission separated everything; then it must at least
         preserve semantics *)
      ()

let test_tiramisu_deterministic () =
  let p = lower gemm_src in
  let r1 = S.Tiramisu.schedule ~seed:7 small_ctx p in
  let r2 = S.Tiramisu.schedule ~seed:7 small_ctx p in
  match (r1, r2) with
  | S.Tiramisu.Scheduled a, S.Tiramisu.Scheduled b ->
      Alcotest.(check bool) "same schedule" true
        (Ir.equal_structure a.Ir.body b.Ir.body)
  | _ -> Alcotest.fail "expected schedules"

(* ------------------------------------------------------------------ *)
(* Database + evolution + daisy *)

let test_evolution_improves () =
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "nest"
  in
  let rng = Rng.of_string "evolve-test" in
  let base = S.Common.nest_runtime_ms small_ctx p (Ir.Nloop nest) in
  let recipe, best =
    S.Evolve.search small_ctx p nest ~seeds:(S.Tiramisu.proposals nest) ~rng
  in
  Alcotest.(check bool)
    (Printf.sprintf "evolved %.3f <= base %.3f (%s)" best base
       (Daisy_transforms.Recipe.to_string recipe))
    true (best <= base)

let test_fitness_cache_hits () =
  (* Regression: eval_cached keys must canonicalize the wrapped nest.
     [Common.wrap_outer] mints fresh loop ids on every call, so without
     [Ir.canon_nodes] in the key, repeated evaluations of the same
     candidate (the common case inside [Evolve.search]) would all miss
     and re-walk the trace. Assert actual hit/miss counts. *)
  let p =
    lower
      {|void f(int n, double A[n], double B[n]) {
          for (int t = 0; t < 10; t++) {
            for (int i = 1; i < n - 1; i++)
              B[i] = A[i - 1] + A[i + 1];
            for (int i = 1; i < n - 1; i++)
              A[i] = B[i];
          }
        }|}
  in
  let outer, nest =
    match
      List.find_opt (fun (o, _) -> o <> []) (S.Common.program_units p)
    with
    | Some u -> u
    | None -> Alcotest.fail "expected a unit with enclosing outer loops"
  in
  let cache = S.Evolve.create_cache () in
  let eval () = S.Evolve.eval_cached cache small_ctx ~outer p nest [] in
  let t1 = eval () in
  let t2 = eval () in
  let t3 = eval () in
  Alcotest.(check (pair int int)) "two hits, one miss" (2, 1)
    (S.Evolve.cache_stats cache);
  Alcotest.(check bool) "same fitness" true (t1 = t2 && t2 = t3);
  (* a different recipe is a different key: one more miss, no new hits *)
  ignore
    (S.Evolve.eval_cached cache small_ctx ~outer p nest
       [ Daisy_transforms.Recipe.Vectorize ]);
  Alcotest.(check (pair int int)) "distinct recipe misses, hits unchanged"
    (2, 2) (S.Evolve.cache_stats cache)

let test_database_roundtrip () =
  let db = S.Database.create () in
  let p = lower gemm_src in
  let nest =
    match p.Ir.body with [ Ir.Nloop l ] -> l | _ -> Alcotest.fail "nest"
  in
  S.Database.add db ~source:"gemm" ~nest
    ~recipe:[ Daisy_transforms.Recipe.Vectorize ];
  Alcotest.(check int) "size" 1 (S.Database.size db);
  (* same structure -> exact match *)
  Alcotest.(check int) "exact match" 1
    (List.length (S.Database.exact_matches db nest));
  match S.Database.query db ~k:1 nest with
  | [ (d, _) ] -> Alcotest.(check bool) "distance 0" true (d < 1e-9)
  | _ -> Alcotest.fail "query"

let test_daisy_preserves_and_uses_blas () =
  let db = S.Database.create () in
  let p = lower gemm_src in
  let report = S.Daisy.schedule small_ctx ~db p in
  check_equiv ~sizes:[ ("n", 8) ] p report.S.Daisy.program;
  Alcotest.(check int) "gemm lifted to BLAS" 1 report.S.Daisy.blas_calls

let test_daisy_robustness_mini () =
  (* the paper's core claim in miniature: daisy on a B variant performs
     within measurement noise of daisy on the A variant *)
  let a = lower gemm_src in
  let b =
    lower
      {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
          for (int j = 0; j < n; j++)
            for (int i = 0; i < n; i++)
              for (int k = 0; k < n; k++)
                C[i][j] += A[i][k] * B[k][j];
        }|}
  in
  let db = S.Database.create () in
  S.Seed.seed_database ~epochs:1 ~population:4 ~iterations:1 small_ctx ~db
    [ ("gemm", a) ];
  let run p = S.Common.runtime_ms small_ctx (S.Daisy.schedule small_ctx ~db p).S.Daisy.program in
  let ta = run a and tb = run b in
  let ratio = Float.max (ta /. tb) (tb /. ta) in
  Alcotest.(check bool)
    (Printf.sprintf "A %.3f ms vs B %.3f ms (ratio %.2f)" ta tb ratio)
    true (ratio < 1.2)

let test_daisy_unliftable_fallback () =
  let p =
    lower
      {|void f(int n, double A[n][n], double s[1]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              if (A[i][j] > 0.5)
                s[0] += A[i][j];
        }|}
  in
  let db = S.Database.create () in
  let report = S.Daisy.schedule small_ctx ~db p in
  Alcotest.(check bool) "marked unliftable" true
    (List.exists
       (fun d -> d.S.Daisy.action = `Unliftable)
       report.S.Daisy.decisions);
  (* the fallback runs the reduction in parallel with atomics *)
  match report.S.Daisy.program.Ir.body with
  | [ Ir.Nloop l ] ->
      Alcotest.(check bool) "parallel" true l.Ir.attrs.Ir.parallel;
      Alcotest.(check bool) "atomic" true l.Ir.attrs.Ir.atomic
  | _ -> Alcotest.fail "one nest"

let test_daisy_ablation_configs () =
  let p = lower gemm_src in
  let db = S.Database.create () in
  S.Seed.seed_database ~epochs:1 ~population:4 ~iterations:1 small_ctx ~db
    [ ("gemm", p) ];
  List.iter
    (fun options ->
      let report = S.Daisy.schedule ~options small_ctx ~db p in
      check_equiv ~sizes:[ ("n", 8) ] p report.S.Daisy.program)
    [
      { S.Daisy.normalize = true; transfer = true };
      { S.Daisy.normalize = true; transfer = false };
      { S.Daisy.normalize = false; transfer = true };
      { S.Daisy.normalize = false; transfer = false };
    ]

let test_umbrella_compile () =
  (* the one-call public API: lir path + normalization + scheduling *)
  let result = Daisy.compile ~sizes:[ ("n", 48) ] ~threads:4 gemm_src in
  Alcotest.(check bool) "scheduled faster or equal" true
    (result.Daisy.scheduled_ms <= result.Daisy.original_ms);
  Alcotest.(check bool) "semantics preserved" true
    (Interp.equivalent result.Daisy.original result.Daisy.scheduled
       ~sizes:[ ("n", 8) ] ())

(* ------------------------------------------------------------------ *)
(* The transfer tournament costs each distinct candidate once           *)

module Lt = Daisy_transforms.Loop_transforms
module Recipe = Daisy_transforms.Recipe
module Legality = Daisy_dependence.Legality
module Pb = Daisy_benchmarks.Polybench
module Cloudsc = Daisy_benchmarks.Cloudsc
module Cost = Daisy_machine.Cost
module Fault = Daisy_support.Fault

(* a copy with cids, lids and kids each renumbered by first occurrence *)
let renumbered nodes =
  let numbering () =
    let t = Hashtbl.create 16 in
    fun id ->
      match Hashtbl.find_opt t id with
      | Some n -> n
      | None ->
          let n = Hashtbl.length t + 1 in
          Hashtbl.add t id n;
          n
  in
  let cid = numbering () and lid = numbering () and kid = numbering () in
  let rec go nodes =
    List.map
      (function
        | Ir.Ncomp c -> Ir.Ncomp { c with Ir.cid = cid c.Ir.cid }
        | Ir.Ncall k -> Ir.Ncall { k with Ir.kid = kid k.Ir.kid }
        | Ir.Nloop l ->
            let lid = lid l.Ir.lid in
            Ir.Nloop { l with Ir.lid; body = go l.Ir.body })
      nodes
  in
  go nodes

(* [Daisy.schedule] with default options and no quarantine, as it was
   before repeats were skipped: every candidate is costed, and the BLAS
   path costs the transfer winner again. It counts the candidates it costs
   and how many of them are distinct (on renumbered copies), the BLAS
   races it runs and how many of them the transfer path wins. *)
module Reference = struct
  let costed = ref 0
  let distinct = ref 0
  let idioms = ref 0
  let transfer_wins = ref 0

  let transfer_nest ctx ~db ~outer p (nest : Ir.loop) =
    let candidates =
      Daisy_support.Util.dedup ~eq:Recipe.equal
        (List.map (fun e -> e.S.Database.recipe) (S.Database.exact_matches db nest)
        @ List.map (fun (_, e) -> e.S.Database.recipe) (S.Database.query db ~k:10 nest))
    in
    let baseline =
      (nest, `Unoptimized)
      :: (match Lt.vectorize ~outer nest with Ok n -> [ (n, `Unoptimized) ] | Error _ -> [])
    in
    let applied =
      List.filter_map
        (fun r ->
          match Recipe.apply ~outer nest r with
          | Ok n -> Some (n, `Recipe r)
          | Error _ -> None)
        candidates
    in
    let all = baseline @ applied in
    let units = List.map (fun (n, _) -> S.Common.wrap_outer outer (Ir.Nloop n)) all in
    costed := !costed + List.length units;
    distinct :=
      !distinct + List.length (List.sort_uniq compare (List.map (fun u -> renumbered [ u ]) units));
    let _, n, a =
      List.fold_left2
        (fun ((bt, _, _) as best) (n, a) u ->
          let t = S.Common.nest_runtime_ms ctx p u in
          if t < bt then (t, n, a) else best)
        (infinity, nest, (`Unoptimized : S.Daisy.action))
        all units
    in
    (n, a)

  let rec optimize_nest ctx ~db ~decide ~counter ~outer sub (nest : Ir.loop) =
    let band, body = Legality.perfect_band nest in
    let has_comp = List.exists (function Ir.Nloop _ -> false | _ -> true) body in
    if List.exists (function Ir.Nloop _ -> true | _ -> false) body && not has_comp
    then
      Daisy_normalize.Stride.rebuild_band band
        (List.map
           (function
             | Ir.Nloop l ->
                 Ir.Nloop (optimize_nest ctx ~db ~decide ~counter ~outer:(outer @ band) sub l)
             | other -> other)
           body)
    else begin
      incr counter;
      let label = Printf.sprintf "nest#%d" !counter in
      let nest', action = transfer_nest ctx ~db ~outer sub nest in
      decide label action;
      nest'
    end

  let schedule_unit ctx ~db ~decide ~counter sub (nest : Ir.loop) =
    match Daisy_blas.Patterns.detect_nest nest with
    | None -> Ir.Nloop (optimize_nest ctx ~db ~decide ~counter ~outer:[] sub nest)
    | Some call ->
        incr idioms;
        let t_call = S.Common.nest_runtime_ms ctx sub (Ir.Ncall call) in
        let silent = ref [] and counter' = ref !counter in
        let node =
          Ir.Nloop
            (optimize_nest ctx ~db
               ~decide:(fun l a -> silent := (l, a) :: !silent)
               ~counter:counter' ~outer:[] sub nest)
        in
        if t_call <= S.Common.nest_runtime_ms ctx sub node then begin
          incr counter;
          decide (Printf.sprintf "nest#%d" !counter) (`Blas call.Ir.kernel);
          Ir.Ncall call
        end
        else begin
          incr transfer_wins;
          counter := !counter';
          List.iter (fun (l, a) -> decide l a) (List.rev !silent);
          node
        end

  let unliftable_fallback (nest : Ir.loop) =
    let atomic =
      List.exists Legality.is_reduction_comp (Ir.comps_in nest.Ir.body)
      || List.exists Legality.is_reduction_comp
           (match nest.Ir.body with [ Ir.Ncomp c ] -> [ c ] | _ -> [])
    in
    Ir.Nloop { nest with Ir.attrs = { nest.Ir.attrs with Ir.parallel = true; atomic } }

  (* decisions as [pp_decision] prints them, the program, its cost *)
  let schedule ctx ~db (p : Ir.program) =
    let decisions = ref [] and counter = ref 0 and extra = ref [] in
    let decide label action =
      decisions := Fmt.str "%a" S.Daisy.pp_decision { S.Daisy.label; action } :: !decisions
    in
    let body =
      List.concat_map
        (fun n ->
          match n with
          | Ir.Nloop nest when not (S.Common.liftable n) ->
              incr counter;
              decide (Printf.sprintf "nest#%d" !counter) `Unliftable;
              [ unliftable_fallback nest ]
          | Ir.Nloop _ ->
              let sub =
                Daisy_normalize.Pipeline.normalize ~sizes:ctx.S.Common.sizes
                  (S.Common.single_nest_program p n)
              in
              List.iter
                (fun (a : Ir.array_decl) ->
                  if not (List.exists (fun (b : Ir.array_decl) -> b.Ir.name = a.Ir.name) p.Ir.arrays)
                  then extra := a :: !extra)
                sub.Ir.arrays;
              List.map
                (function
                  | Ir.Ncall k as n ->
                      incr counter;
                      decide (Printf.sprintf "nest#%d" !counter) (`Blas k.Ir.kernel);
                      n
                  | Ir.Nloop nest -> schedule_unit ctx ~db ~decide ~counter sub nest
                  | n -> n)
                sub.Ir.body
          | other -> [ other ])
        p.Ir.body
    in
    let program = { p with Ir.body; arrays = p.Ir.arrays @ List.rev !extra } in
    (List.rev !decisions, program, S.Common.runtime_ms ctx program)
end

(* Recipes that rebuild a nest already among the candidates: [] is the
   nest as-is, the two vectorizing ones give the auto-vectorized nest, and
   the last two give one nest. *)
let repeating_recipes =
  Recipe.
    [
      [];
      [ Vectorize ];
      [ Vectorize; Vectorize ];
      [ Parallelize 0; Vectorize ];
      [ Parallelize 0; Vectorize; Parallelize 0 ];
    ]

let repeating_db programs =
  let db = S.Database.create () in
  List.iter
    (fun ((p : Ir.program), sizes) ->
      List.iter
        (function
          | Ir.Nloop nest ->
              List.iter
                (fun recipe -> S.Database.add db ~source:"repeats" ~nest ~recipe)
                repeating_recipes
          | _ -> ())
        (Daisy_normalize.Pipeline.normalize ~sizes p).Ir.body)
    programs;
  db

let erosion_read =
  (Cloudsc.lower Cloudsc.erosion_source, [ ("klev", 16); ("nproma", 32) ])

(* daisyd's thread count and sampling bound: with them the transfer path
   wins some races against a BLAS call even at test sizes *)
let request_base = S.Common.make_ctx ~threads:12 ~sample_outer:12 ~sizes:[] ()
let approx = Cost.Approx Daisy_machine.Trace_bc.default_approx

let test_skip_repeats_differential () =
  let programs =
    List.concat_map
      (fun (b : Pb.benchmark) ->
        let p = Pb.program b in
        [ (p, b.Pb.test_sizes);
          (Daisy_benchmarks.Variants.generate ~seed:"repeats" p, b.Pb.test_sizes) ])
      Pb.all
    @ [ erosion_read ]
  in
  let db = repeating_db programs in
  Reference.idioms := 0;
  Reference.transfer_wins := 0;
  List.iter
    (fun ((p : Ir.program), sizes) ->
      List.iter
        (fun engine ->
          let what = Printf.sprintf "%s (%s)" p.Ir.pname (Cost.string_of_engine engine) in
          let decisions, program, cost =
            Reference.schedule (S.Common.request_ctx request_base ~engine ~sizes ()) ~db p
          in
          let o = S.Daisy.schedule_request ~base:request_base ~engine ~sizes ~db p in
          let r = o.S.Daisy.report in
          Alcotest.(check (list string)) (what ^ ": decisions") decisions
            (List.map (Fmt.str "%a" S.Daisy.pp_decision) r.S.Daisy.decisions);
          Alcotest.(check bool) (what ^ ": program") true
            (Ir.equal_structure program.Ir.body r.S.Daisy.program.Ir.body);
          Alcotest.(check string) (what ^ ": predicted cost")
            (Printf.sprintf "%h" cost) (Printf.sprintf "%h" o.S.Daisy.predicted_ms))
        [ Cost.Bytecode; approx ])
    programs;
  Alcotest.(check bool)
    (Printf.sprintf "the transfer path won %d of %d races against a BLAS call"
       !Reference.transfer_wins !Reference.idioms)
    true (!Reference.transfer_wins > 0 && !Reference.transfer_wins < !Reference.idioms)

(* [bc_run] armed with a trigger that never fires counts trace walks: one
   per distinct candidate of each tournament, plus the final cost *)
let test_walks_distinct_candidates () =
  let p, sizes = erosion_read in
  let db = repeating_db [ erosion_read ] in
  Reference.costed := 0;
  Reference.distinct := 0;
  Reference.idioms := 0;
  ignore (Reference.schedule (S.Common.request_ctx request_base ~engine:approx ~sizes ()) ~db p);
  Alcotest.(check int) "erosion has no BLAS idiom" 0 !Reference.idioms;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d candidates are distinct" !Reference.distinct !Reference.costed)
    true (!Reference.distinct < !Reference.costed);
  Fault.arm_prob "bc_run" ~p:0.0 ~seed:"walks";
  let walks =
    Fun.protect
      ~finally:(fun () -> Fault.disarm "bc_run")
      (fun () ->
        ignore (S.Daisy.schedule_request ~base:request_base ~engine:approx ~sizes ~db p);
        Fault.calls "bc_run")
  in
  Alcotest.(check int) "trace walks: distinct candidates + the final cost"
    (!Reference.distinct + 1) walks

let suite =
  [
    ("umbrella Daisy.compile", `Slow, test_umbrella_compile);
    ("clang preserves + vectorizes", `Quick, test_clang_preserves);
    ("icc parallelizes", `Quick, test_icc_parallelizes);
    ("polly tiles", `Quick, test_polly_tiles);
    ("polly keeps source order", `Quick, test_polly_keeps_source_order);
    ("polly bails on guards", `Quick, test_polly_bails_on_guard);
    ("tiramisu schedules gemm", `Slow, test_tiramisu_schedules_gemm);
    ("tiramisu imperfect nests", `Quick, test_tiramisu_unsupported_imperfect);
    ("tiramisu deterministic", `Slow, test_tiramisu_deterministic);
    ("evolution improves", `Slow, test_evolution_improves);
    ("fitness cache hits across wrap_outer", `Quick, test_fitness_cache_hits);
    ("database roundtrip", `Quick, test_database_roundtrip);
    ("daisy preserves + BLAS", `Slow, test_daisy_preserves_and_uses_blas);
    ("daisy A/B robustness mini", `Slow, test_daisy_robustness_mini);
    ("daisy unliftable fallback", `Quick, test_daisy_unliftable_fallback);
    ("daisy ablation configs", `Slow, test_daisy_ablation_configs);
    ("skip repeats: same schedules as costing all", `Quick,
      test_skip_repeats_differential);
    ("skip repeats: one walk per distinct candidate", `Quick,
      test_walks_distinct_candidates);
  ]
