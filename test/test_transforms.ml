(** Tests for the scheduling transformations: interchange, tiling, fusion,
    recipes — all checked semantics-preserving by the interpreter. *)

module Ir = Daisy_loopir.Ir
module Lt = Daisy_transforms.Loop_transforms
module Fusion = Daisy_transforms.Fusion
module Recipe = Daisy_transforms.Recipe
module Interp = Daisy_interp.Interp
module Rng = Daisy_support.Rng
module Util = Daisy_support.Util

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"
let norm p = Daisy_normalize.Iter_norm.run (lower p)

let only_nest (p : Ir.program) =
  match p.Ir.body with
  | [ Ir.Nloop l ] -> l
  | _ -> Alcotest.fail "expected single nest"

let with_nest p l = { p with Ir.body = [ Ir.Nloop l ] }

let check_equiv ?(sizes = []) p1 p2 =
  Alcotest.(check bool) "equivalent" true (Interp.equivalent p1 p2 ~sizes ())

let gemm_src =
  {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
          for (int j = 0; j < n; j++)
            C[i][j] += A[i][k] * B[k][j];
    }|}

(* ------------------------------------------------------------------ *)

let test_interchange_gemm () =
  let p = norm gemm_src in
  let l = only_nest p in
  match Lt.interchange ~outer:[] l [| 1; 0; 2 |] with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      let band, _ = Daisy_dependence.Legality.perfect_band l' in
      Alcotest.(check (list string)) "order k i j" [ "k"; "i"; "j" ]
        (List.map (fun (x : Ir.loop) -> x.Ir.iter) band);
      check_equiv ~sizes:[ ("n", 8) ] p (with_nest p l')

let test_interchange_illegal () =
  let p =
    norm
      {|void f(int n, double A[n][n]) {
          for (int i = 1; i < n; i++)
            for (int j = 0; j < n - 1; j++)
              A[i][j] = A[i - 1][j + 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  (match Lt.interchange ~outer:[] l [| 1; 0 |] with
  | Ok _ -> Alcotest.fail "should be rejected"
  | Error _ -> ())

let test_interchange_bad_perm () =
  let p = norm gemm_src in
  let l = only_nest p in
  (match Lt.interchange ~outer:[] l [| 0; 0; 1 |] with
  | Ok _ -> Alcotest.fail "not a permutation"
  | Error _ -> ())

let test_tile_gemm () =
  let p = norm gemm_src in
  let l = only_nest p in
  match Lt.tile ~outer:[] l [ (0, 4); (1, 4); (2, 4) ] with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      let band, _ = Daisy_dependence.Legality.perfect_band l' in
      Alcotest.(check int) "6 loops" 6 (List.length band);
      (* non-divisible size exercises the min() bounds *)
      check_equiv ~sizes:[ ("n", 10) ] p (with_nest p l')

let test_tile_partial () =
  let p = norm gemm_src in
  let l = only_nest p in
  match Lt.tile ~outer:[] l [ (2, 4) ] with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      check_equiv ~sizes:[ ("n", 9) ] p (with_nest p l')

let test_tile_illegal_band () =
  (* (1,-1) dependence: band not fully permutable -> tiling rejected *)
  let p =
    norm
      {|void f(int n, double A[n][n]) {
          for (int i = 1; i < n; i++)
            for (int j = 0; j < n - 1; j++)
              A[i][j] = A[i - 1][j + 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  (match Lt.tile ~outer:[] l [ (0, 4); (1, 4) ] with
  | Ok _ -> Alcotest.fail "tiling must be rejected"
  | Error _ -> ())

let test_tile_triangular () =
  (* j's bound names i: a j tile loop would sit outside the i point loop,
     so only i may be tiled *)
  let p =
    norm
      {|void f(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j <= i; j++)
              A[i][j] = A[i][j] * 2.0;
        }|}
  in
  let l = only_nest p in
  List.iter
    (fun specs ->
      match Lt.tile ~outer:[] l specs with
      | Ok _ -> Alcotest.fail "tiling j must be rejected"
      | Error _ -> ())
    [ [ (1, 4) ]; [ (0, 4); (1, 4) ] ];
  match Lt.tile ~outer:[] l [ (0, 4) ] with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      Alcotest.(check (list string)) "valid" []
        (Ir.validate_nodes ~params:(Ir.free_index_vars [ Ir.Nloop l ])
           [ Ir.Nloop l' ]);
      check_equiv ~sizes:[ ("n", 9) ] p (with_nest p l')

let test_parallelize () =
  let p = norm gemm_src in
  let l = only_nest p in
  (match Lt.parallelize ~outer:[] l 0 with
  | Error e -> Alcotest.fail e
  | Ok l' -> Alcotest.(check bool) "parallel" true l'.Ir.attrs.Ir.parallel);
  (* k (position 1) carries the reduction: atomic fallback applies *)
  match Lt.parallelize ~outer:[] l 1 with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      let band, _ = Daisy_dependence.Legality.perfect_band l' in
      let k = List.nth band 1 in
      Alcotest.(check bool) "atomic" true k.Ir.attrs.Ir.atomic

let test_vectorize_legal () =
  let p = norm gemm_src in
  let l = only_nest p in
  match Lt.vectorize ~outer:[] l with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      let band, _ = Daisy_dependence.Legality.perfect_band l' in
      let j = List.nth band 2 in
      Alcotest.(check bool) "vectorized" true j.Ir.attrs.Ir.vectorized

let test_vectorize_illegal () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 1; i < n; i++)
            A[i] = A[i - 1] * 2.0;
        }|}
  in
  let l = only_nest p in
  (match Lt.vectorize ~outer:[] l with
  | Ok _ -> Alcotest.fail "recurrence cannot vectorize"
  | Error _ -> ())

(* ------------------------------------------------------------------ *)
(* Fusion *)

let test_fuse_legal () =
  let p =
    norm
      {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++)
            A[i] = 1.0;
          for (int j = 0; j < n; j++)
            B[j] = A[j] * 2.0;
        }|}
  in
  match p.Ir.body with
  | [ Ir.Nloop l1; Ir.Nloop l2 ] -> (
      match Fusion.fuse ~outer:[] l1 l2 with
      | Error e -> Alcotest.fail e
      | Ok fused ->
          Alcotest.(check int) "2 comps" 2 (List.length (Ir.comps_in fused.Ir.body));
          check_equiv ~sizes:[ ("n", 9) ] p { p with Ir.body = [ Ir.Nloop fused ] })
  | _ -> Alcotest.fail "two nests"

let test_fuse_illegal_backward () =
  (* second loop reads A[i+1], which the first loop writes later: fusing
     would read the new value too early *)
  let p =
    norm
      {|void f(int n, double A[n + 1], double B[n]) {
          for (int i = 0; i < n; i++)
            A[i + 1] = 1.0 * i;
          for (int j = 0; j < n; j++)
            B[j] = A[j + 1] * 2.0;
        }|}
  in
  (* B[j] needs A[j+1] written at iteration j of loop 1; after fusion
     B[j] reads it in the same iteration, after the write: legal.
     The illegal case is reading ahead: *)
  let q =
    norm
      {|void f(int n, double A[2 * n], double B[n]) {
          for (int i = 0; i < n; i++)
            A[i] = 1.0 * i;
          for (int j = 0; j < n - 1; j++)
            B[j] = A[j + 1] * 2.0;
        }|}
  in
  (match p.Ir.body with
  | [ Ir.Nloop l1; Ir.Nloop l2 ] ->
      (match Fusion.fuse ~outer:[] l1 l2 with
      | Ok fused -> check_equiv ~sizes:[ ("n", 9) ] p { p with Ir.body = [ Ir.Nloop fused ] }
      | Error _ -> ())
  | _ -> Alcotest.fail "two nests");
  match q.Ir.body with
  | [ Ir.Nloop l1; Ir.Nloop l2 ] -> (
      match Fusion.fuse ~outer:[] l1 l2 with
      | Ok _ -> Alcotest.fail "read-ahead fusion must be rejected"
      | Error _ -> ())
  | _ -> Alcotest.fail "two nests (q)"

let test_fuse_range_mismatch () =
  let p =
    norm
      {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++)
            A[i] = 1.0;
          for (int j = 0; j < n - 1; j++)
            B[j] = 2.0;
        }|}
  in
  match p.Ir.body with
  | [ Ir.Nloop l1; Ir.Nloop l2 ] -> (
      match Fusion.fuse ~outer:[] l1 l2 with
      | Ok _ -> Alcotest.fail "range mismatch must be rejected"
      | Error _ -> ())
  | _ -> Alcotest.fail "two nests"

let test_producer_consumer_fusion_cloudsc () =
  (* the CLOUDSC pattern: expansion + fission, then pc-fusion re-fuses *)
  let p =
    lower
      {|void f(int n, double A[n], double B[n], double C[n]) {
          for (int i = 0; i < n; i++) {
            double t = A[i] * 2.0;
            double u = t + 1.0;
            B[i] = u * u;
            C[i] = u - t;
          }
        }|}
  in
  let sizes = [ ("n", 16) ] in
  let normd = Daisy_normalize.Pipeline.normalize ~sizes p in
  let fused, nfusions = Fusion.fuse_producer_consumer ~max_comps:3 normd in
  Alcotest.(check bool) "some fusion happened" true (nfusions > 0);
  check_equiv ~sizes p fused

(* ------------------------------------------------------------------ *)
(* Recipes *)

let test_recipe_apply () =
  let p = norm gemm_src in
  let l = only_nest p in
  let recipe =
    [ Recipe.Tile [ (0, 4); (1, 4); (2, 4) ]; Recipe.Parallelize 0;
      Recipe.Vectorize ]
  in
  match Recipe.apply ~outer:[] l recipe with
  | Error e -> Alcotest.fail e
  | Ok l' ->
      check_equiv ~sizes:[ ("n", 9) ] p (with_nest p l');
      let band, _ = Daisy_dependence.Legality.perfect_band l' in
      Alcotest.(check bool) "outer parallel" true
        (List.hd band).Ir.attrs.Ir.parallel

let test_recipe_strict_failure () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 1; i < n; i++)
            A[i] = A[i - 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  (match Recipe.apply ~outer:[] l [ Recipe.Parallelize 0 ] with
  | Ok _ -> Alcotest.fail "must fail"
  | Error _ -> ());
  let _, applied = Recipe.apply_lenient ~outer:[] l [ Recipe.Parallelize 0 ] in
  Alcotest.(check int) "lenient skips" 0 applied

let test_recipe_mutation_preserves_semantics () =
  (* any recipe the mutator produces either fails to apply or preserves
     semantics *)
  let p = norm gemm_src in
  let l = only_nest p in
  let rng = Rng.of_string "mutation-test" in
  let recipe = ref [ Recipe.Vectorize ] in
  for _ = 1 to 25 do
    recipe := Recipe.mutate rng 3 !recipe;
    match Recipe.apply ~outer:[] l !recipe with
    | Error _ -> ()
    | Ok l' -> check_equiv ~sizes:[ ("n", 6) ] p (with_nest p l')
  done

let test_unroll_materialize () =
  let p = norm gemm_src in
  let l = only_nest p in
  (* materialize an unroll of the whole (perfectly nested) innermost loop:
     apply to the innermost loop of the band *)
  let band, body = Daisy_dependence.Legality.perfect_band l in
  let innermost = List.nth band 2 in
  let inner_unrolled =
    match Daisy_transforms.Unroll.materialize { innermost with Ir.body } ~factor:4 with
    | Ok nodes -> nodes
    | Error e -> Alcotest.fail e
  in
  (* trip 10 with factor 4: main + remainder *)
  Alcotest.(check int) "main + remainder" 2 (List.length inner_unrolled);
  let rebuilt =
    Daisy_normalize.Stride.rebuild_band (Util.take 2 band) inner_unrolled
  in
  check_equiv ~sizes:[ ("n", 10) ] p (with_nest p rebuilt);
  (* even trip: no remainder *)
  (match Daisy_transforms.Unroll.materialize { innermost with Ir.body } ~factor:4 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let p8 =
    lower
      {|void f(double A[8]) {
          for (int i = 0; i < 8; i++) A[i] = A[i] + 1.0;
        }|}
  in
  (match p8.Ir.body with
  | [ Ir.Nloop l8 ] -> (
      match Daisy_transforms.Unroll.materialize l8 ~factor:4 with
      | Ok nodes ->
          Alcotest.(check int) "no remainder for even trip" 1 (List.length nodes);
          check_equiv ~sizes:[] p8 { p8 with Ir.body = nodes }
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "one nest")

let test_unroll_materialize_marked () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 0; i < n; i++) A[i] = A[i] * 2.0 + 1.0;
        }|}
  in
  let marked =
    match p.Ir.body with
    | [ Ir.Nloop l ] ->
        { p with Ir.body = [ Ir.Nloop { l with Ir.attrs = { l.Ir.attrs with Ir.unroll = 3 } } ] }
    | _ -> Alcotest.fail "one nest"
  in
  let materialized = Daisy_transforms.Unroll.materialize_marked marked in
  Alcotest.(check bool) "more comps after replication" true
    (List.length (Ir.comps_in materialized.Ir.body)
    > List.length (Ir.comps_in p.Ir.body));
  check_equiv ~sizes:[ ("n", 11) ] p materialized

let suite =
  [
    ("interchange gemm", `Quick, test_interchange_gemm);
    ("unroll materialization", `Quick, test_unroll_materialize);
    ("unroll marked loops", `Quick, test_unroll_materialize_marked);
    ("interchange illegal", `Quick, test_interchange_illegal);
    ("interchange non-permutation", `Quick, test_interchange_bad_perm);
    ("tile gemm 3d", `Quick, test_tile_gemm);
    ("tile partial", `Quick, test_tile_partial);
    ("tile illegal band", `Quick, test_tile_illegal_band);
    ("tile triangular band", `Quick, test_tile_triangular);
    ("parallelize + atomic fallback", `Quick, test_parallelize);
    ("vectorize legal", `Quick, test_vectorize_legal);
    ("vectorize recurrence illegal", `Quick, test_vectorize_illegal);
    ("fuse legal pair", `Quick, test_fuse_legal);
    ("fuse read-ahead illegal", `Quick, test_fuse_illegal_backward);
    ("fuse range mismatch", `Quick, test_fuse_range_mismatch);
    ("producer-consumer fusion", `Quick, test_producer_consumer_fusion_cloudsc);
    ("recipe apply", `Quick, test_recipe_apply);
    ("recipe strict failure", `Quick, test_recipe_strict_failure);
    ("recipe mutation semantics", `Slow, test_recipe_mutation_preserves_semantics);
  ]
