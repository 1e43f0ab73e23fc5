(** Property-based tests: a QCheck generator of random loop-nest programs
    drives end-to-end semantic-preservation checks of every transformation
    pipeline — the strongest guarantee this reproduction offers that
    "normalization maps semantically equivalent loop nests to the same
    canonical form" without changing what they compute. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Interp = Daisy_interp.Interp
module Pipeline = Daisy_normalize.Pipeline
module S = Daisy_scheduler

let test_n = 8 (* concrete size for execution *)
let sizes = [ ("n", test_n) ]

(* ------------------------------------------------------------------ *)
(* Random program generator                                             *)

(* arrays available to generated programs *)
let arrays_2d = [ "A"; "B"; "C" ]
let arrays_1d = [ "x"; "y" ]

let decls : Ir.array_decl list =
  List.map
    (fun name ->
      { Ir.name; elem = Ir.Fdouble; dims = [ Expr.var "n"; Expr.var "n" ];
        storage = Ir.Sparam })
    arrays_2d
  @ List.map
      (fun name ->
        { Ir.name; elem = Ir.Fdouble; dims = [ Expr.var "n" ];
          storage = Ir.Sparam })
      arrays_1d

(* subscript: iterator +/- small offset (ranges keep everything in bounds) *)
let gen_subscript iters =
  QCheck.Gen.(
    let* it = oneofl iters in
    let* off = oneofl [ -1; 0; 0; 0; 1 ] in
    return (Expr.add (Expr.var it) (Expr.const off)))

let gen_access iters =
  QCheck.Gen.(
    let* two_d = bool in
    if two_d then
      let* a = oneofl arrays_2d in
      let* i1 = gen_subscript iters in
      let* i2 = gen_subscript iters in
      return { Ir.array = a; indices = [ i1; i2 ] }
    else
      let* a = oneofl arrays_1d in
      let* i1 = gen_subscript iters in
      return { Ir.array = a; indices = [ i1 ] })

let rec gen_vexpr iters depth =
  QCheck.Gen.(
    if depth = 0 then
      oneof
        [ map (fun a -> Ir.Vread a) (gen_access iters);
          map (fun f -> Ir.Vfloat f) (float_bound_inclusive 4.0) ]
    else
      frequency
        [ (2, map (fun a -> Ir.Vread a) (gen_access iters));
          (1, map (fun f -> Ir.Vfloat f) (float_bound_inclusive 4.0));
          (3,
           let* op = oneofl [ Ir.Vadd; Ir.Vsub; Ir.Vmul ] in
           let* a = gen_vexpr iters (depth - 1) in
           let* b = gen_vexpr iters (depth - 1) in
           return (Ir.Vbin (op, a, b)));
          (1,
           let* a = gen_vexpr iters (depth - 1) in
           return (Ir.Vcall ("sqrt", [ Ir.Vcall ("fabs", [ a ]) ]))) ])

let gen_comp iters =
  QCheck.Gen.(
    let* dest = gen_access iters in
    let* reduction = bool in
    let* rhs = gen_vexpr iters 2 in
    (* damp reductions so iterated updates stay finite and reassociation
       noise stays within tolerance *)
    let rhs =
      if reduction then
        Ir.Vbin (Ir.Vadd, Ir.Vread dest, Ir.Vbin (Ir.Vmul, Ir.Vfloat 0.01, rhs))
      else rhs
    in
    return (Ir.Ncomp (Ir.mk_comp (Ir.Darray dest) rhs)))

(* loops run 1 .. n-2 so +/-1 subscripts stay in bounds *)
let mk_loop iter body =
  Ir.mk_loop ~iter ~lo:Expr.one
    ~hi:(Expr.sub (Expr.var "n") (Expr.const 2))
    body

let gen_nest =
  QCheck.Gen.(
    let* depth = int_range 1 3 in
    let iters = Daisy_support.Util.take depth [ "i"; "j"; "k" ] in
    let* n_comps = int_range 1 3 in
    let* comps = list_size (return n_comps) (gen_comp iters) in
    let rec build = function
      | [] -> assert false
      | [ it ] -> mk_loop it comps
      | it :: rest -> mk_loop it [ Ir.Nloop (build rest) ]
    in
    return (Ir.Nloop (build iters)))

let gen_program =
  QCheck.Gen.(
    let* n_nests = int_range 1 3 in
    let* nests = list_size (return n_nests) gen_nest in
    return
      {
        Ir.pname = "random";
        size_params = [ "n" ];
        scalar_params = [];
        arrays = decls;
        local_scalars = [];
        body = nests;
      })

let arbitrary_program =
  QCheck.make ~print:(fun p -> Ir.program_to_string p) gen_program

let equivalent p q = Interp.equivalent ~tol:1e-6 p q ~sizes ()

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)

let prop_normalize_preserves =
  QCheck.Test.make ~count:120 ~name:"normalization preserves semantics"
    arbitrary_program (fun p ->
      equivalent p (Pipeline.normalize ~sizes p))

let prop_normalize_idempotent =
  QCheck.Test.make ~count:60 ~name:"normalization is idempotent (structure)"
    arbitrary_program (fun p ->
      let n1 = Pipeline.normalize ~sizes p in
      let n2 = Pipeline.normalize ~sizes n1 in
      Ir.equal_structure n1.Ir.body n2.Ir.body)

let prop_fission_preserves =
  QCheck.Test.make ~count:120 ~name:"maximal fission preserves semantics"
    arbitrary_program (fun p ->
      let p = Daisy_normalize.Iter_norm.run p in
      equivalent p (Daisy_normalize.Fission.run_fixpoint p))

let prop_variants_preserve =
  QCheck.Test.make ~count:60 ~name:"B-variant generator preserves semantics"
    arbitrary_program (fun p ->
      equivalent p (Daisy_benchmarks.Variants.generate ~seed:"prop" p))

let prop_baselines_preserve =
  QCheck.Test.make ~count:40 ~name:"baseline schedulers preserve semantics"
    arbitrary_program (fun p ->
      equivalent p (S.Baselines.clang_like p)
      && equivalent p (S.Baselines.icc_like p)
      && equivalent p (S.Baselines.polly_like p))

let prop_daisy_preserves =
  QCheck.Test.make ~count:20 ~name:"daisy scheduling preserves semantics"
    arbitrary_program (fun p ->
      let ctx =
        S.Common.make_ctx ~threads:4 ~sample_outer:4 ~sizes:[ ("n", 24) ] ()
      in
      let db = S.Database.create () in
      let r = S.Daisy.schedule ctx ~db p in
      equivalent p r.S.Daisy.program)

let prop_tiramisu_preserves =
  QCheck.Test.make ~count:15 ~name:"tiramisu model preserves semantics"
    arbitrary_program (fun p ->
      let ctx =
        S.Common.make_ctx ~threads:4 ~sample_outer:4 ~sizes:[ ("n", 24) ] ()
      in
      match S.Tiramisu.schedule ctx p with
      | S.Tiramisu.Scheduled q -> equivalent p q
      | S.Tiramisu.Unsupported _ -> true)

let prop_licm_preserves =
  QCheck.Test.make ~count:80 ~name:"loop-invariant code motion preserves semantics"
    arbitrary_program (fun p ->
      equivalent p (fst (Daisy_normalize.Licm.run p)))

(* ------------------------------------------------------------------ *)
(* Random recipes: every successful Recipe.apply must preserve semantics *)

module Recipe = Daisy_transforms.Recipe
module Legality = Daisy_dependence.Legality
module Rng = Daisy_support.Rng

(* Random recipe via the search's own mutation operator, so the property
   exercises exactly the moves the evolutionary scheduler can make. The
   chain sometimes starts from the identity interchange: [Recipe.mutate]
   never introduces an [Interchange] step, only perturbs existing ones. *)
let random_recipe rng band_size =
  let start =
    if band_size >= 2 && Rng.bool rng then
      [ Recipe.Interchange (List.init band_size (fun i -> i)) ]
    else []
  in
  let rec go k r =
    if k = 0 then r else go (k - 1) (Recipe.mutate rng band_size r)
  in
  go (1 + Rng.int rng 3) start

let arbitrary_program_and_seed =
  QCheck.pair arbitrary_program
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))

let map_top_nests_with f p =
  {
    p with
    Ir.body =
      List.map
        (fun n -> match n with Ir.Nloop nest -> f nest | other -> other)
        p.Ir.body;
  }

let prop_recipe_apply_preserves =
  QCheck.Test.make ~count:120
    ~name:"successful Recipe.apply preserves semantics"
    arbitrary_program_and_seed (fun (p, seed) ->
      let rng = Rng.create seed in
      let p' =
        map_top_nests_with
          (fun nest ->
            let band, _ = Legality.perfect_band nest in
            let r = random_recipe rng (List.length band) in
            match Recipe.apply ~outer:[] nest r with
            | Ok nest' -> Ir.Nloop nest'
            | Error _ -> Ir.Nloop nest)
          p
      in
      equivalent p p')

let prop_recipe_lenient_preserves =
  QCheck.Test.make ~count:80
    ~name:"Recipe.apply_lenient preserves semantics"
    arbitrary_program_and_seed (fun (p, seed) ->
      let rng = Rng.create seed in
      let p' =
        map_top_nests_with
          (fun nest ->
            let band, _ = Legality.perfect_band nest in
            let r = random_recipe rng (List.length band) in
            Ir.Nloop (fst (Recipe.apply_lenient ~outer:[] nest r)))
          p
      in
      equivalent p p')

let prop_embedding_rename_invariant =
  QCheck.Test.make ~count:60 ~name:"embeddings invariant under canon"
    arbitrary_program (fun p ->
      let e1 =
        List.map Daisy_embedding.Embedding.of_node p.Ir.body
      in
      let e2 =
        List.map Daisy_embedding.Embedding.of_node (Ir.canon_nodes p.Ir.body)
      in
      (* bit-equal coordinates, not merely close ones *)
      let bits e = Array.map Int64.bits_of_float e in
      List.for_all2 (fun a b -> bits a = bits b) e1 e2)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_normalize_preserves;
      prop_normalize_idempotent;
      prop_fission_preserves;
      prop_variants_preserve;
      prop_baselines_preserve;
      prop_daisy_preserves;
      prop_tiramisu_preserves;
      prop_licm_preserves;
      prop_recipe_apply_preserves;
      prop_recipe_lenient_preserves;
      prop_embedding_rename_invariant;
    ]
