(** Tests for the lir lowering and the lifting pass (paper §3): the
    low-level path (AST -> lir -> lift) must reproduce the semantics and
    structure of the direct path (AST -> loopir) on every benchmark. *)

module L = Daisy_lir.Ir
module From_ast = Daisy_lir.From_ast
module Cfg = Daisy_lir.Cfg
module Lift = Daisy_lift.Lift
module Ir = Daisy_loopir.Ir
module Interp = Daisy_interp.Interp
module Pb = Daisy_benchmarks.Polybench

let lower_direct = Daisy_lang.Lower.program_of_string ~source:"test.c"
let to_lir = From_ast.func_of_string ~source:"test.c"

let gemm_src =
  {|void gemm(int ni, int nj, int nk, double alpha, double beta,
           double C[ni][nj], double A[ni][nk], double B[nk][nj])
{
  for (int i = 0; i < ni; i++) {
    for (int j = 0; j < nj; j++)
      C[i][j] *= beta;
    for (int k = 0; k < nk; k++)
      for (int j = 0; j < nj; j++)
        C[i][j] += alpha * A[i][k] * B[k][j];
  }
}|}

(* ------------------------------------------------------------------ *)
(* lir structure *)

let test_lir_gemm_blocks () =
  let f = to_lir gemm_src in
  (* 3 loops x 4 blocks + entry: at least 13 blocks *)
  Alcotest.(check bool) "many basic blocks" true (List.length f.L.blocks >= 13);
  (* stores exist *)
  let stores =
    List.concat_map
      (fun (b : L.block) ->
        List.filter (function L.Store _ -> true | _ -> false) b.L.insts)
      f.L.blocks
  in
  Alcotest.(check int) "two stores" 2 (List.length stores)

let test_cfg_dominators () =
  let f = to_lir gemm_src in
  let cfg = Cfg.build f in
  (* entry dominates everything *)
  for i = 0 to Cfg.n_blocks cfg - 1 do
    Alcotest.(check bool) "entry dominates" true (Cfg.dominates cfg 0 i)
  done

let test_cfg_natural_loops () =
  let f = to_lir gemm_src in
  let cfg = Cfg.build f in
  let loops = Cfg.natural_loops cfg in
  Alcotest.(check int) "four natural loops" 4 (List.length loops);
  List.iter
    (fun l ->
      Alcotest.(check bool) "loop region is SESE" true (Cfg.loop_is_sese cfg l))
    loops

let test_lir_printer () =
  let f = to_lir gemm_src in
  let text = L.func_to_string f in
  Alcotest.(check bool) "mentions getelementptr" true
    (String.length text > 100
    && (try ignore (Str.search_forward (Str.regexp_string "getelementptr") text 0); true
        with Not_found -> false))

(* ------------------------------------------------------------------ *)
(* Lifting *)

let roundtrip ?(sizes = []) src =
  let direct = lower_direct src in
  let lifted = Lift.lift (to_lir src) in
  Alcotest.(check bool) "semantics preserved" true
    (Interp.equivalent direct lifted ~sizes ());
  (direct, lifted)

let test_lift_gemm () =
  let direct, lifted = roundtrip ~sizes:[ ("ni", 6); ("nj", 7); ("nk", 8) ] gemm_src in
  Alcotest.(check int) "same loop count"
    (List.length (Ir.loops_in direct.Ir.body))
    (List.length (Ir.loops_in lifted.Ir.body));
  Alcotest.(check int) "same depth" (Ir.depth direct.Ir.body)
    (Ir.depth lifted.Ir.body)

let test_lift_triangular () =
  ignore
    (roundtrip ~sizes:[ ("n", 9) ]
       {|void f(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j <= i; j++)
              A[i][j] = A[i][j] * 2.0;
        }|})

let test_lift_guard () =
  ignore
    (roundtrip ~sizes:[ ("n", 9) ]
       {|void f(int n, double A[n], double x) {
          for (int i = 0; i < n; i++) {
            if (A[i] > x) A[i] = x;
            else A[i] = A[i] * 0.5;
          }
        }|})

let test_lift_scalars () =
  ignore
    (roundtrip ~sizes:[ ("n", 9) ]
       {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++) {
            double t = A[i] * 2.0;
            double u = t + 1.0;
            B[i] = u * t;
          }
        }|})

let test_lift_scalar_recurrence () =
  (* running sum through a scalar: mutable register across iterations *)
  ignore
    (roundtrip ~sizes:[ ("n", 9) ]
       {|void f(int n, double A[n], double B[n]) {
          double acc = 0.0;
          for (int i = 0; i < n; i++) {
            acc = acc + A[i];
            B[i] = acc;
          }
        }|})

let test_lift_downward () =
  ignore
    (roundtrip ~sizes:[ ("n", 9) ]
       {|void f(int n, double A[n]) {
          for (int i = n - 1; i >= 0; i--)
            A[i] = A[i] + 1.0;
        }|})

let test_lift_stale_read_hazard () =
  (* t captures A[i] before it is overwritten; the lifted program must
     still read the OLD value *)
  ignore
    (roundtrip ~sizes:[ ("n", 7) ]
       {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++) {
            double t = A[i];
            A[i] = 0.0;
            B[i] = t;
          }
        }|})

let test_lift_all_polybench () =
  List.iter
    (fun b ->
      let direct = Pb.program b in
      match Lift.lift_result (From_ast.lower (Daisy_lang.Sema.check
        (Daisy_lang.Parser.parse_kernel_string ~source:(b.Pb.name ^ ".c") b.Pb.source))) with
      | Error e -> Alcotest.failf "%s failed to lift: %s" b.Pb.name e
      | Ok lifted ->
          Alcotest.(check bool)
            (b.Pb.name ^ " semantics preserved")
            true
            (Interp.equivalent direct lifted ~sizes:b.Pb.test_sizes ());
          Alcotest.(check int)
            (b.Pb.name ^ " same loop count")
            (List.length (Ir.loops_in direct.Ir.body))
            (List.length (Ir.loops_in lifted.Ir.body)))
    Pb.all

let test_lift_structural_match_after_normalization () =
  (* after normalization, direct and lifted gemm converge to the same
     canonical structure (scalar names aside, gemm has none) *)
  let sizes = Pb.gemm.Pb.sim_sizes in
  let direct = Daisy_normalize.Pipeline.normalize ~sizes (lower_direct gemm_src) in
  let lifted =
    Daisy_normalize.Pipeline.normalize ~sizes (Lift.lift (to_lir gemm_src))
  in
  Alcotest.(check bool) "same canonical structure" true
    (Ir.equal_structure direct.Ir.body lifted.Ir.body)

let suite =
  [
    ("lir gemm blocks", `Quick, test_lir_gemm_blocks);
    ("cfg dominators", `Quick, test_cfg_dominators);
    ("cfg natural loops + SESE", `Quick, test_cfg_natural_loops);
    ("lir printer", `Quick, test_lir_printer);
    ("lift gemm", `Quick, test_lift_gemm);
    ("lift triangular", `Quick, test_lift_triangular);
    ("lift if/else guards", `Quick, test_lift_guard);
    ("lift scalar temporaries", `Quick, test_lift_scalars);
    ("lift scalar recurrence", `Quick, test_lift_scalar_recurrence);
    ("lift downward loop", `Quick, test_lift_downward);
    ("lift stale-read hazard", `Quick, test_lift_stale_read_hazard);
    ("lift all 15 polybench", `Slow, test_lift_all_polybench);
    ("lift matches after normalization", `Quick, test_lift_structural_match_after_normalization);
  ]
