(** Tests for the dependence analysis: direction vectors, statement graphs,
    legality predicates, reductions, and the pair memo behind
    [Test.directions]. *)

open Daisy_dependence
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Pb = Daisy_benchmarks.Polybench
module Np = Daisy_benchmarks.Npbench
module Cloudsc = Daisy_benchmarks.Cloudsc
module Recipe = Daisy_transforms.Recipe
module Fusion = Daisy_transforms.Fusion
module Pipeline = Daisy_normalize.Pipeline
module S = Daisy_scheduler

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"
let norm p = Daisy_normalize.Iter_norm.run (lower p)

let only_nest (p : Ir.program) : Ir.loop =
  match p.Ir.body with
  | [ Ir.Nloop l ] -> l
  | _ -> Alcotest.fail "expected a single top-level nest"

(* ------------------------------------------------------------------ *)

let test_no_dep_independent_arrays () =
  let p =
    norm
      {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++) {
            A[i] = 1.0;
            B[i] = 2.0;
          }
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "no carried dep" false
    (Legality.loop_carries_dependence ~outer:[] l)

let test_carried_flow_dep () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 1; i < n; i++)
            A[i] = A[i - 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "carries dep" true
    (Legality.loop_carries_dependence ~outer:[] l)

let test_distance_two_dep () =
  (* A[i] = A[i-2]: carried, but the dependence has distance 2 *)
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 2; i < n; i++)
            A[i] = A[i - 2] + 1.0;
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "carries dep" true
    (Legality.loop_carries_dependence ~outer:[] l)

let test_gcd_independence () =
  (* A[2i] vs A[2i+1]: even and odd cells never conflict (gcd test) *)
  let p =
    norm
      {|void f(int n, double A[2 * n + 1]) {
          for (int i = 0; i < n; i++)
            A[2 * i] = A[2 * i + 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "even/odd independent" false
    (Legality.loop_carries_dependence ~outer:[] l)

let test_band_vectors_gemm () =
  let p =
    norm
      {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
          for (int i = 0; i < n; i++)
            for (int k = 0; k < n; k++)
              for (int j = 0; j < n; j++)
                C[i][j] += A[i][k] * B[k][j];
        }|}
  in
  let l = only_nest p in
  let band, body = Legality.perfect_band l in
  let vectors = Legality.band_dep_vectors ~outer:[] band body in
  (* the C self-dependence is carried by k: (=, <, =) must be present *)
  Alcotest.(check bool) "k-carried reduction dep" true
    (List.mem [ Test.Eq; Test.Lt; Test.Eq ] vectors);
  let parallel = Legality.parallel_positions vectors 3 in
  Alcotest.(check (list bool)) "i and j parallel, k not"
    [ true; false; true ]
    (Array.to_list parallel)

let test_permutation_legality_stencil () =
  (* A[i][j] = A[i-1][j+1]: dep vector (1, -1); swapping i and j gives
     (-1, 1), lexicographically negative -> illegal *)
  let p =
    norm
      {|void f(int n, double A[n][n]) {
          for (int i = 1; i < n; i++)
            for (int j = 0; j < n - 1; j++)
              A[i][j] = A[i - 1][j + 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  let band, body = Legality.perfect_band l in
  let vectors = Legality.band_dep_vectors ~outer:[] band body in
  Alcotest.(check bool) "identity legal" true
    (Legality.legal_permutation vectors [| 0; 1 |]);
  Alcotest.(check bool) "swap illegal" false
    (Legality.legal_permutation vectors [| 1; 0 |])

let test_permutation_legality_uniform () =
  (* A[i][j] = A[i-1][j-1]: dep (1,1); swap stays legal *)
  let p =
    norm
      {|void f(int n, double A[n][n]) {
          for (int i = 1; i < n; i++)
            for (int j = 1; j < n; j++)
              A[i][j] = A[i - 1][j - 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  let band, body = Legality.perfect_band l in
  let vectors = Legality.band_dep_vectors ~outer:[] band body in
  Alcotest.(check bool) "swap legal" true
    (Legality.legal_permutation vectors [| 1; 0 |])

let test_reduction_detection () =
  let p =
    norm
      {|void f(int n, double A[n], double s[1]) {
          for (int i = 0; i < n; i++)
            s[0] = s[0] + A[i];
        }|}
  in
  match Ir.comps_in p.Ir.body with
  | [ c ] ->
      Alcotest.(check bool) "is reduction" true (Legality.is_reduction_comp c);
      let l = only_nest p in
      Alcotest.(check bool) "carried only by reduction" true
        (Legality.carried_only_by_reductions ~outer:[] l)
  | _ -> Alcotest.fail "one comp"

let test_not_reduction () =
  let p =
    norm
      {|void f(int n, double A[n], double s[1]) {
          for (int i = 0; i < n; i++)
            s[0] = s[0] / A[i];
        }|}
  in
  match Ir.comps_in p.Ir.body with
  | [ c ] ->
      Alcotest.(check bool) "division is not a reduction" false
        (Legality.is_reduction_comp c)
  | _ -> Alcotest.fail "one comp"

let test_scalar_serializes () =
  (* the scalar temporary makes iterations conflict *)
  let p =
    norm
      {|void f(int n, double A[n], double B[n]) {
          double t = 0.0;
          for (int i = 0; i < n; i++) {
            t = A[i];
            B[i] = t * 2.0;
          }
        }|}
  in
  (* the scalar's initialization is a top-level computation before the
     loop; grab the loop itself *)
  let l =
    match
      List.filter_map
        (function Ir.Nloop l -> Some l | _ -> None)
        p.Ir.body
    with
    | [ l ] -> l
    | _ -> Alcotest.fail "expected one loop"
  in
  Alcotest.(check bool) "scalar carries dep" true
    (Legality.loop_carries_dependence ~outer:[] l)

let test_triangular_dep () =
  (* writes C[i][j] for j <= i, reads C[j][i]: transposed-cell conflicts
     exist only on the diagonal; make sure the test is conservative and
     still runs on triangular domains *)
  let p =
    norm
      {|void f(int n, double C[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j <= i; j++)
              C[i][j] = C[j][i] * 2.0;
        }|}
  in
  let l = only_nest p in
  (* just must not crash and must detect *some* dependence *)
  ignore (Legality.loop_carries_dependence ~outer:[] l)

let test_non_affine_conservative () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 1; i < n; i++)
            A[i % 7] = A[i] + 1.0;
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "non-affine assumed dependent" true
    (Legality.loop_carries_dependence ~outer:[] l)

let test_fastpath_verdicts () =
  let module F = Fastpath in
  let module A = Daisy_poly.Affine in
  (* ZIV *)
  Alcotest.(check bool) "ziv same" true
    (F.ziv (A.const 3) (A.const 3) = `Dependent);
  Alcotest.(check bool) "ziv diff" true
    (F.ziv (A.const 3) (A.const 4) = `Independent);
  (* strong SIV: 2i+1 vs 2i+4 -> non-integral distance *)
  let a1 = A.add (A.var ~coeff:2 "i") (A.const 1) in
  let a2 = A.add (A.var ~coeff:2 "i") (A.const 4) in
  Alcotest.(check bool) "siv non-integral" true
    (F.strong_siv a1 a2 = `Independent);
  (* i vs i+20 with extent 10: distance exceeds the loop *)
  let b1 = A.var "i" and b2 = A.add (A.var "i") (A.const 20) in
  Alcotest.(check bool) "siv beyond extent" true
    (F.strong_siv ~extent:10 b1 b2 = `Independent);
  Alcotest.(check bool) "siv within extent" true
    (F.strong_siv ~extent:30 b1 b2 = `Dependent);
  (* gcd: 2i vs 2j+1 never equal *)
  let g1 = A.var ~coeff:2 "i" and g2 = A.add (A.var ~coeff:2 "j") (A.const 1) in
  Alcotest.(check bool) "gcd parity" true (F.gcd_test g1 g2 = `Independent)

let test_fastpath_agrees_with_fm () =
  (* fastpath independence must agree with the exact path: check on the
     even/odd kernel from above *)
  let p =
    norm
      {|void f(int n, double A[2 * n + 1]) {
          for (int i = 0; i < n; i++)
            A[2 * i] = A[2 * i + 1] + 1.0;
        }|}
  in
  let l = only_nest p in
  Alcotest.(check bool) "no carried dep (fastpath)" false
    (Legality.loop_carries_dependence ~outer:[] l)

let test_distance_at () =
  let p =
    norm
      {|void f(int n, double A[n]) {
          for (int i = 2; i < n; i++)
            A[i] = A[i - 2] + 1.0;
        }|}
  in
  let l = only_nest p in
  match Ir.comps_in p.Ir.body with
  | [ c ] -> (
      let refs = Refs.of_comp c in
      let w = List.find (fun r -> r.Refs.kind = Refs.Write) refs in
      let r = List.find (fun r -> r.Refs.kind = Refs.Read) refs in
      match
        Test.distance_at ~common:[ l ] ~src_ctx:[ l ] ~dst_ctx:[ l ] w r l
      with
      | Some d -> Alcotest.(check int) "distance 2" 2 (abs d)
      | None -> Alcotest.fail "expected a constant distance")
  | _ -> Alcotest.fail "one comp"

let test_seidel_fully_sequential () =
  (* seidel-2d: every loop carries a dependence, and no band permutation
     other than the identity is legal *)
  let b = Daisy_benchmarks.Polybench.find "seidel-2d" in
  let p = Daisy_normalize.Iter_norm.run (Daisy_benchmarks.Polybench.program b) in
  match p.Ir.body with
  | [ Ir.Nloop t ] ->
      let band, body = Legality.perfect_band t in
      Alcotest.(check int) "3-deep band" 3 (List.length band);
      let vectors = Legality.band_dep_vectors ~outer:[] band body in
      let parallel = Legality.parallel_positions vectors 3 in
      Alcotest.(check (list bool)) "no parallel loop" [ false; false; false ]
        (Array.to_list parallel);
      Alcotest.(check bool) "i<->j swap illegal" false
        (Legality.legal_permutation vectors [| 0; 2; 1 |])
  | _ -> Alcotest.fail "one nest"

(* ------------------------------------------------------------------ *)
(* The pair memo: a warm answer equals a fresh one                      *)

(* one reference-pair question, as the callers of [Test.directions] ask it *)
type query = {
  common : Ir.loop list;
  src_ctx : Ir.loop list;
  dst_ctx : Ir.loop list;
  src : Refs.t;
  dst : Refs.t;
}

let ask q =
  Test.directions ~common:q.common ~src_ctx:q.src_ctx ~dst_ctx:q.dst_ctx q.src
    q.dst

(* the questions [Test.comp_directions] asks about two computations *)
let comp_queries ~common (src_ctx, ca) (dst_ctx, cb) =
  List.concat_map
    (fun src ->
      List.filter_map
        (fun dst ->
          if Refs.conflict src dst then
            Some { common; src_ctx; dst_ctx; src; dst }
          else None)
        (Refs.of_comp cb))
    (Refs.of_comp ca)

let pairs_queries ~common comps_a comps_b =
  List.concat_map
    (fun (ia, ca) ->
      List.concat_map
        (fun (ib, cb) ->
          comp_queries ~common (common @ ia, ca) (common @ ib, cb))
        comps_b)
    comps_a

(* [Legality.loop_carries_dependence] and [Graph.build] on [l] (the graph
   asks a subset of the same pairs), and [Legality.band_dep_vectors] on
   the band that starts at [l] *)
let loop_queries ~outer (l : Ir.loop) =
  let comps = Ir.comps_with_context l.Ir.body in
  let band, body = Legality.perfect_band l in
  let band_comps = Ir.comps_with_context body in
  pairs_queries ~common:(outer @ [ l ]) comps comps
  @ pairs_queries ~common:(outer @ band) band_comps band_comps

(* [Fusion.fuse ~outer l1 l2]: the fused loop keeps [l1]'s iterator and
   range, and [l2]'s body is renamed onto it *)
let fusion_queries ~outer (l1 : Ir.loop) (l2 : Ir.loop) =
  if
    Expr.equal l1.Ir.lo l2.Ir.lo && Expr.equal l1.Ir.hi l2.Ir.hi
    && l1.Ir.step = l2.Ir.step
  then
    let body2 =
      Ir.subst_idx_nodes
        (Daisy_support.Util.SMap.singleton l2.Ir.iter (Expr.var l1.Ir.iter))
        l2.Ir.body
    in
    pairs_queries ~common:(outer @ [ l1 ])
      (Ir.comps_with_context l1.Ir.body)
      (Ir.comps_with_context body2)
  else []

(* every loop of a node list, with the loops enclosing it *)
let rec loops_with_outer ~outer nodes =
  List.concat_map
    (function
      | Ir.Nloop l -> (outer, l) :: loops_with_outer ~outer:(outer @ [ l ]) l.Ir.body
      | _ -> [])
    nodes

(* adjacent loop pairs of every node list, with the loops enclosing them *)
let rec adjacent_loops ~outer nodes =
  let rec adjacent = function
    | Ir.Nloop a :: (Ir.Nloop b :: _ as rest) -> (outer, a, b) :: adjacent rest
    | _ :: rest -> adjacent rest
    | [] -> []
  in
  adjacent nodes
  @ List.concat_map
      (function
        | Ir.Nloop l -> adjacent_loops ~outer:(outer @ [ l ]) l.Ir.body
        | _ -> [])
      nodes

let nodes_queries nodes =
  List.concat_map (fun (outer, l) -> loop_queries ~outer l)
    (loops_with_outer ~outer:[] nodes)
  @ List.concat_map (fun (outer, a, b) -> fusion_queries ~outer a b)
      (adjacent_loops ~outer:[] nodes)

(* candidate recipes for a band of [n] loops: each kind of step alone and
   one chain of them (a step after a tile is left out: the tiled nest's
   bounds are non-affine, so every question about it answers all 3^depth
   vectors without a test, slowly) *)
let candidate_recipes n =
  let reversed = List.init n (fun p -> n - 1 - p) in
  [
    [ Recipe.Interchange reversed ];
    [ Recipe.Tile (List.init n (fun p -> (p, 8))) ];
    [ Recipe.Parallelize 0 ];
    [ Recipe.Vectorize ];
    [ Recipe.Unroll (n - 1, 4) ];
    [ Recipe.Interchange reversed; Recipe.Parallelize 0; Recipe.Vectorize ];
  ]

(* The corpus, in parts whose distinct questions each fit the table, so
   that a warm answer is always a hit. Each program is taken as written
   and normalized. *)
let memo_corpus () =
  let pb = List.map Pb.program (Pb.all @ Pb.extras) in
  let with_normalized ps =
    List.concat_map
      (fun p ->
        let p = Daisy_normalize.Iter_norm.run p in
        [ p; Pipeline.normalize p ])
      ps
  in
  [
    ("polybench A", pb);
    ("polybench B", List.map (Daisy_benchmarks.Variants.generate ~seed:"memo") pb);
    ( "cloudsc",
      [ Cloudsc.lower Cloudsc.full_source; fst (Cloudsc.erosion_original ~iters:4) ] );
    ( "npbench",
      List.map
        (fun (b : Np.benchmark) ->
          Daisy_arraylang.Lower.lower Daisy_arraylang.Lower.frontend_policy
            b.Np.program)
        Np.all );
    ( "random",
      QCheck.Gen.generate ~rand:(Random.State.make [| 42 |]) ~n:120
        Test_property.gen_program );
  ]
  |> List.map (fun (name, ps) -> (name, with_normalized ps))

(* each program's body, and every top-level nest again after each
   candidate recipe that applies *)
let bodies_with_recipes programs =
  List.concat_map
    (fun (p : Ir.program) ->
      p.Ir.body
      :: List.concat_map
           (function
             | Ir.Nloop l ->
                 let band, _ = Legality.perfect_band l in
                 List.filter_map
                   (fun r ->
                     match Recipe.apply ~outer:[] l r with
                     | Ok l' -> Some [ Ir.Nloop l' ]
                     | Error _ -> None)
                   (candidate_recipes (List.length band))
             | _ -> [])
           p.Ir.body)
    programs

(* what a question reads, spelled out independently of the memo *)
let query_inputs q =
  let loop (l : Ir.loop) = (l.Ir.iter, l.Ir.lo, l.Ir.hi, l.Ir.step) in
  ( List.map loop q.common,
    List.map loop q.src_ctx,
    List.map loop q.dst_ctx,
    q.src.Refs.indices,
    q.dst.Refs.indices )

let distinct_queries queries =
  let seen = Hashtbl.create 1024 in
  List.filter
    (fun q ->
      let k = query_inputs q in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.add seen k ();
        true))
    queries

(* the callers' own results on every loop and adjacent loop pair of a node
   list *)
let caller_results ~fresh nodes =
  let clear () = if fresh then Test.clear_memo () in
  let loops =
    List.map
      (fun (outer, l) ->
        clear ();
        let band, body = Legality.perfect_band l in
        let vs = Legality.band_dep_vectors ~outer band body in
        clear ();
        let g = (Graph.build ~outer ~loop:l).Graph.edges in
        clear ();
        ( vs,
          Array.map Daisy_support.Util.ISet.elements g,
          Legality.loop_carries_dependence ~outer l ))
      (loops_with_outer ~outer:[] nodes)
  in
  let fusions =
    List.map
      (fun (outer, a, b) ->
        clear ();
        match Fusion.fuse ~outer a b with
        | Ok l -> Ok (Ir.canon_nodes [ Ir.Nloop l ])
        | Error e -> Error e)
      (adjacent_loops ~outer:[] nodes)
  in
  (loops, fusions)

let test_memo_warm_equals_fresh () =
  List.iter
    (fun (part, programs) ->
      Test.clear_memo ();
      let bodies = bodies_with_recipes programs in
      let queries = List.concat_map nodes_queries bodies in
      let distinct = distinct_queries queries in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d distinct of %d questions fit the table" part
           (List.length distinct) (List.length queries))
        true
        (List.length distinct < 4096);
      Test.clear_memo ();
      List.iter (fun q -> ignore (ask q)) queries;
      let warm = List.map ask distinct in
      let fresh =
        List.map
          (fun q ->
            Test.clear_memo ();
            ask q)
          distinct
      in
      Alcotest.(check bool) (part ^ ": warm answers equal fresh ones") true
        (warm = fresh);
      (* the callers themselves, on the programs (a recipe's tiled nest is
         non-affine, so its vectors, 3^depth per pair, make these slow) *)
      let bodies = List.map (fun (p : Ir.program) -> p.Ir.body) programs in
      Test.clear_memo ();
      ignore (List.map (caller_results ~fresh:false) bodies);
      let warm = List.map (caller_results ~fresh:false) bodies in
      Alcotest.(check bool)
        (part ^ ": band vectors, graphs, carried deps and fusion verdicts")
        true
        (warm = List.map (caller_results ~fresh:true) bodies))
    (memo_corpus ())

(* Collision probes: each pair differs in one input only and has a
   different true answer; asked back to back, neither may see the other's
   entry. *)
let probe_loop ?(step = 1) iter lo hi = Ir.mk_loop ~iter ~lo ~hi ~step []

let probe_ref kind indices = { Refs.kind; container = "A"; indices }
let w = probe_ref Refs.Write
let r = probe_ref Refs.Read
let n = Expr.var "n"
let i = Expr.var "i"
let j = Expr.var "j"
let c = Expr.const
let ( -: ) = Expr.sub
let ( +: ) = Expr.add
let same ctx src dst = { common = ctx; src_ctx = ctx; dst_ctx = ctx; src; dst }

let collision_probes =
  let i_0n = probe_loop "i" (c 0) n in
  let j_11 = probe_loop "j" (c 1) (c 1) in
  let j_0n = probe_loop "j" (c 0) n in
  let one_side ~src_inner ~dst_inner src dst =
    {
      common = [ i_0n ];
      src_ctx = i_0n :: src_inner;
      dst_ctx = i_0n :: dst_inner;
      src;
      dst;
    }
  in
  let all1 = [ [ Test.Lt ]; [ Test.Eq ]; [ Test.Gt ] ] in
  [
    ( "lo",
      same [ probe_loop "i" n n ] (w [ i ]) (r [ i -: c 1 ]),
      [],
      same [ i_0n ] (w [ i ]) (r [ i -: c 1 ]),
      [ [ Test.Lt ] ] );
    ( "hi",
      same [ probe_loop "i" (c 0) (c 0) ] (w [ i ]) (r [ i -: c 1 ]),
      [],
      same [ i_0n ] (w [ i ]) (r [ i -: c 1 ]),
      [ [ Test.Lt ] ] );
    ( "step sign",
      same [ i_0n ] (w [ i ]) (r [ i -: c 1 ]),
      [ [ Test.Lt ] ],
      same [ probe_loop ~step:(-1) "i" (c 0) n ] (w [ i ]) (r [ i -: c 1 ]),
      [ [ Test.Gt ] ] );
    ( "inner loop on the source side only",
      one_side ~src_inner:[ j_11 ] ~dst_inner:[] (w [ i +: j ]) (r [ i ]),
      [ [ Test.Lt ] ],
      one_side ~src_inner:[] ~dst_inner:[] (w [ i +: j ]) (r [ i ]),
      all1 );
    ( "inner loop on the destination side only",
      one_side ~src_inner:[] ~dst_inner:[ j_11 ] (w [ i ]) (r [ i +: j ]),
      [ [ Test.Gt ] ],
      one_side ~src_inner:[] ~dst_inner:[] (w [ i ]) (r [ i +: j ]),
      all1 );
    ( "one subscript",
      same [ i_0n ] (w [ i ]) (r [ i -: c 1 ]),
      [ [ Test.Lt ] ],
      same [ i_0n ] (w [ i ]) (r [ i +: c 1 ]),
      [ [ Test.Gt ] ] );
    ( "length of common",
      { (same [ i_0n; j_0n ] (w [ i; j ]) (r [ i; j -: c 1 ])) with
        common = [ i_0n ] },
      [ [ Test.Eq ] ],
      same [ i_0n; j_0n ] (w [ i; j ]) (r [ i; j -: c 1 ]),
      [ [ Test.Eq; Test.Lt ] ] );
  ]

let sorted = List.sort compare

let test_memo_collision_probes () =
  List.iter
    (fun (name, q1, a1, q2, a2) ->
      let fresh q =
        Test.clear_memo ();
        sorted (ask q)
      in
      Alcotest.(check bool) (name ^ ": first answer") true (fresh q1 = a1);
      Alcotest.(check bool) (name ^ ": second answer") true (fresh q2 = a2);
      Test.clear_memo ();
      let x1 = sorted (ask q1) in
      let x2 = sorted (ask q2) in
      Alcotest.(check bool) (name ^ ": back to back") true (x1 = a1 && x2 = a2);
      Test.clear_memo ();
      let y2 = sorted (ask q2) in
      let y1 = sorted (ask q1) in
      Alcotest.(check bool) (name ^ ": reversed") true (y1 = a1 && y2 = a2))
    collision_probes;
  (* the same two questions through the callers: the outer loop of a 2-deep
     band carries no dependence, its band does *)
  let l =
    only_nest
      (norm
         {|void f(int n, double A[n][n]) {
             for (int i = 0; i < n; i++)
               for (int j = 1; j < n; j++)
                 A[i][j] = A[i][j - 1] + 1.0;
           }|})
  in
  Test.clear_memo ();
  Alcotest.(check bool) "outer loop carries nothing" false
    (Legality.loop_carries_dependence ~outer:[] l);
  let band, body = Legality.perfect_band l in
  Alcotest.(check bool) "band vectors after the outer-loop question" true
    (Legality.band_dep_vectors ~outer:[] band body = [ [ Test.Eq; Test.Lt ] ])

(* Pipeline level: normalization and both engines' schedules are the same
   with the memo cleared before each call and with it kept warm. *)
let test_memo_pipeline () =
  let programs =
    List.concat_map
      (fun (b : Pb.benchmark) ->
        let p = Pb.program b in
        [ (p, b.Pb.test_sizes);
          (Daisy_benchmarks.Variants.generate ~seed:"memo" p, b.Pb.test_sizes) ])
      Pb.all
    @ [ Cloudsc.erosion_original ~iters:4 ]
  in
  (* a small database whose recipes make every read apply strict recipe
     steps *)
  let db = S.Database.create () in
  List.iter
    (fun (p, _) ->
      List.iter
        (function
          | Ir.Nloop nest ->
              let band, _ = Legality.perfect_band nest in
              List.iter
                (fun recipe -> S.Database.add db ~source:"memo" ~nest ~recipe)
                (candidate_recipes (List.length band))
          | _ -> ())
        (Pipeline.normalize p).Ir.body)
    programs;
  let run ~clear =
    List.map
      (fun (p, sizes) ->
        let normalized =
          if clear then Test.clear_memo ();
          Ir.canon_nodes (Pipeline.normalize ~sizes p).Ir.body
        in
        let schedule engine =
          if clear then Test.clear_memo ();
          let ctx = S.Common.make_ctx ~sample_outer:4 ~engine ~sizes () in
          let report = S.Daisy.schedule ctx ~db p in
          ( Ir.canon_nodes report.S.Daisy.program.Ir.body,
            List.map (Fmt.str "%a" S.Daisy.pp_decision) report.S.Daisy.decisions,
            Printf.sprintf "%h" (S.Common.runtime_ms ctx report.S.Daisy.program) )
        in
        ( normalized,
          schedule Daisy_machine.Cost.Bytecode,
          schedule (Daisy_machine.Cost.Approx Daisy_machine.Trace_bc.default_approx) ))
      programs
  in
  let cleared = run ~clear:true in
  let warm = run ~clear:false in
  List.iter2
    (fun (n1, e1, a1) (n2, e2, a2) ->
      Alcotest.(check bool) "normalized structure" true (n1 = n2);
      Alcotest.(check bool) "exact-engine schedule" true (e1 = e2);
      Alcotest.(check bool) "approximate-engine schedule" true (a1 = a2))
    cleared warm

(* ------------------------------------------------------------------ *)
(* Hashed de-duplication: the same vectors in the same order            *)

(* the list-based de-duplications the hashed ones replaced *)
let listed_comp_directions ~common a b =
  Daisy_support.Util.dedup ~eq:( = )
    (List.concat_map ask (comp_queries ~common a b))

let listed_band_dep_vectors ~outer band body =
  let comps = Ir.comps_with_context body in
  let indexed = List.mapi (fun i (inner, c) -> (i, inner, c)) comps in
  let n_outer = List.length outer in
  let vectors = ref [] in
  let add v = if not (List.mem v !vectors) then vectors := v :: !vectors in
  let flip =
    List.map (function Test.Lt -> Test.Gt | Test.Gt -> Test.Lt | Test.Eq -> Test.Eq)
  in
  List.iter
    (fun (i, inner_a, ca) ->
      List.iter
        (fun (j, inner_b, cb) ->
          if j >= i then
            List.iter
              (fun v ->
                if
                  List.for_all (( = ) Test.Eq)
                    (Daisy_support.Util.take n_outer v)
                then
                  let bv = Daisy_support.Util.drop n_outer v in
                  match Test.src_executes_first bv with
                  | Some true -> add bv
                  | Some false -> if i <> j then add (flip bv)
                  | None -> if i <> j then add bv)
              (listed_comp_directions ~common:(outer @ band)
                 (outer @ band @ inner_a, ca)
                 (outer @ band @ inner_b, cb)))
        indexed)
    indexed;
  !vectors

(* The memo corpus as written and normalized, plus each normalized
   PolyBench nest tiled by 8 on its whole band: a tiled 3-deep band has
   6 loops, so its non-affine pairs answer all 729 vectors. *)
let test_hashed_dedup () =
  let tiled =
    List.filter_map
      (function
        | Ir.Nloop l -> (
            let band, _ = Legality.perfect_band l in
            match
              Recipe.apply ~outer:[] l
                [ Recipe.Tile (List.mapi (fun p _ -> (p, 8)) band) ]
            with
            | Ok l' -> Some [ Ir.Nloop l' ]
            | Error _ -> None)
        | _ -> None)
      (List.concat_map
         (fun b -> (Pipeline.normalize (Pb.program b)).Ir.body)
         Pb.all)
  in
  let bodies =
    List.concat_map
      (fun (_, programs) -> List.map (fun (p : Ir.program) -> p.Ir.body) programs)
      (memo_corpus ())
    @ tiled
  in
  let widest = ref 0 in
  List.iter
    (fun nodes ->
      List.iter
        (fun (outer, l) ->
          let band, body = Legality.perfect_band l in
          if
            Legality.band_dep_vectors ~outer band body
            <> listed_band_dep_vectors ~outer band body
          then
            Alcotest.failf "band vectors of loop %s differ from the list-based ones"
              l.Ir.iter;
          let common = outer @ band in
          let comps = Ir.comps_with_context body in
          List.iter
            (fun (ia, ca) ->
              List.iter
                (fun (ib, cb) ->
                  let a = (common @ ia, ca) and b = (common @ ib, cb) in
                  let vs = Test.comp_directions ~common a b in
                  widest := max !widest (List.length vs);
                  if vs <> listed_comp_directions ~common a b then
                    Alcotest.failf
                      "computation vectors under loop %s differ from the \
                       list-based ones"
                      l.Ir.iter)
                comps)
            comps)
        (loops_with_outer ~outer:[] nodes))
    bodies;
  Alcotest.(check bool)
    (Printf.sprintf "%d tiled nests; a computation pair reaches %d vectors"
       (List.length tiled) !widest)
    true (!widest >= 729)

let suite =
  [
    ("memo: warm equals fresh", `Quick, test_memo_warm_equals_fresh);
    ("memo: collision probes", `Quick, test_memo_collision_probes);
    ("memo: pipeline warm equals cleared", `Quick, test_memo_pipeline);
    ("hashed dedup: same vectors, same order", `Quick, test_hashed_dedup);
    ("seidel-2d fully sequential", `Quick, test_seidel_fully_sequential);
    ("fastpath verdicts", `Quick, test_fastpath_verdicts);
    ("fastpath agrees with FM", `Quick, test_fastpath_agrees_with_fm);
    ("constant distance", `Quick, test_distance_at);
    ("independent arrays", `Quick, test_no_dep_independent_arrays);
    ("carried flow dep", `Quick, test_carried_flow_dep);
    ("distance-2 dep", `Quick, test_distance_two_dep);
    ("gcd even/odd independence", `Quick, test_gcd_independence);
    ("gemm band vectors", `Quick, test_band_vectors_gemm);
    ("stencil permutation illegal", `Quick, test_permutation_legality_stencil);
    ("uniform permutation legal", `Quick, test_permutation_legality_uniform);
    ("reduction detection", `Quick, test_reduction_detection);
    ("division not reduction", `Quick, test_not_reduction);
    ("scalar serializes", `Quick, test_scalar_serializes);
    ("triangular transpose", `Quick, test_triangular_dep);
    ("non-affine conservative", `Quick, test_non_affine_conservative);
  ]
