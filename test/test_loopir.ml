(** Tests for the loopir utilities: traversals, substitution, canonical
    forms, dataflow summaries, and the scheduler's structural helpers. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Common = Daisy_scheduler.Common

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"

let gemm =
  lower
    {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
        for (int i = 0; i < n; i++)
          for (int k = 0; k < n; k++)
            for (int j = 0; j < n; j++)
              C[i][j] += A[i][k] * B[k][j];
      }|}

(* ------------------------------------------------------------------ *)

let test_traversals () =
  Alcotest.(check int) "loops" 3 (List.length (Ir.loops_in gemm.Ir.body));
  Alcotest.(check int) "comps" 1 (List.length (Ir.comps_in gemm.Ir.body));
  Alcotest.(check int) "depth" 3 (Ir.depth gemm.Ir.body);
  match Ir.comps_with_context gemm.Ir.body with
  | [ (ctx, _) ] ->
      Alcotest.(check (list string)) "context order" [ "i"; "k"; "j" ]
        (List.map (fun (l : Ir.loop) -> l.Ir.iter) ctx)
  | _ -> Alcotest.fail "one comp"

let test_reads_writes () =
  match Ir.comps_in gemm.Ir.body with
  | [ c ] ->
      let reads =
        List.map (fun (a : Ir.access) -> a.Ir.array) (Ir.comp_array_reads c)
      in
      Alcotest.(check (list string)) "reads" [ "C"; "A"; "B" ] reads;
      let writes =
        List.map (fun (a : Ir.access) -> a.Ir.array) (Ir.comp_array_writes c)
      in
      Alcotest.(check (list string)) "writes" [ "C" ] writes
  | _ -> Alcotest.fail "one comp"

let test_subst_idx_nodes () =
  let env = Daisy_support.Util.SMap.singleton "i" (Expr.add (Expr.var "i") Expr.one) in
  let shifted = Ir.subst_idx_nodes env gemm.Ir.body in
  match Ir.comps_in shifted with
  | [ c ] -> (
      match c.Ir.dest with
      | Ir.Darray a ->
          Alcotest.(check string) "subscript shifted" "i + 1"
            (Expr.to_string (List.hd a.Ir.indices))
      | _ -> Alcotest.fail "array dest")
  | _ -> Alcotest.fail "one comp"

let test_canon_rename_invariance () =
  let other =
    lower
      {|void g(int n, double C[n][n], double A[n][n], double B[n][n]) {
          for (int p = 0; p < n; p++)
            for (int q = 0; q < n; q++)
              for (int r = 0; r < n; r++)
                C[p][r] += A[p][q] * B[q][r];
        }|}
  in
  Alcotest.(check bool) "renamed programs equal in canon" true
    (Ir.equal_structure gemm.Ir.body other.Ir.body);
  Alcotest.(check int) "hash agrees" (Ir.hash_structure gemm.Ir.body)
    (Ir.hash_structure other.Ir.body)

let test_canon_distinguishes () =
  let transposed =
    lower
      {|void g(int n, double C[n][n], double A[n][n], double B[n][n]) {
          for (int i = 0; i < n; i++)
            for (int k = 0; k < n; k++)
              for (int j = 0; j < n; j++)
                C[j][i] += A[i][k] * B[k][j];
        }|}
  in
  Alcotest.(check bool) "different access pattern differs" false
    (Ir.equal_structure gemm.Ir.body transposed.Ir.body)

(* Equality up to node ids: what the transfer tournament skips on *)
let test_equal_up_to_ids () =
  let nest = match gemm.Ir.body with [ Ir.Nloop l ] -> l | _ -> assert false in
  let module Recipe = Daisy_transforms.Recipe in
  let apply r =
    match Recipe.apply ~outer:[] nest r with
    | Ok l -> [ Ir.Nloop l ]
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "a nest equals its Recipe.apply [] copy" true
    (Ir.equal_up_to_ids gemm.Ir.body (apply []));
  (* a vectorizing step rebuilds the band with fresh lids *)
  let v1 = apply [ Recipe.Vectorize ] and v2 = apply [ Recipe.Vectorize; Recipe.Vectorize ] in
  Alcotest.(check bool) "the two vectorized nests have different lids" false
    (List.map (fun (l : Ir.loop) -> l.Ir.lid) (Ir.loops_in v1)
    = List.map (fun (l : Ir.loop) -> l.Ir.lid) (Ir.loops_in v2));
  Alcotest.(check bool) "[vectorize] equals [vectorize; vectorize]" true
    (Ir.equal_up_to_ids v1 v2);
  Alcotest.(check bool) "the vectorized nest differs from the nest" false
    (Ir.equal_up_to_ids gemm.Ir.body v1);
  (* one computation twice, against two copies of it: the trace walk
     memoizes the first per cid, so they simulate differently *)
  let c = List.hd (Ir.comps_in gemm.Ir.body) in
  let c' = { c with Ir.cid = Ir.fresh_id () } in
  let loop body = [ Ir.Nloop { nest with Ir.body } ] in
  let shared = loop [ Ir.Ncomp c; Ir.Ncomp c ] and copied = loop [ Ir.Ncomp c; Ir.Ncomp c' ] in
  Alcotest.(check bool) "canonical forms agree" true (Ir.equal_structure shared copied);
  Alcotest.(check bool) "a shared cid is not two cids" false (Ir.equal_up_to_ids shared copied);
  Alcotest.(check bool) "nor the other way" false (Ir.equal_up_to_ids copied shared);
  let l = { nest with Ir.body = [ Ir.Ncomp c ] } in
  let l' = { l with Ir.lid = Ir.fresh_id () } in
  Alcotest.(check bool) "a shared lid is not two lids" false
    (Ir.equal_up_to_ids (loop [ Ir.Nloop l; Ir.Nloop l ]) (loop [ Ir.Nloop l; Ir.Nloop l' ]));
  let renamed =
    lower
      {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
          for (int p = 0; p < n; p++)
            for (int q = 0; q < n; q++)
              for (int r = 0; r < n; r++)
                C[p][r] += A[p][q] * B[q][r];
        }|}
  in
  Alcotest.(check bool) "renamed iterators are not equal" false
    (Ir.equal_up_to_ids gemm.Ir.body renamed.Ir.body)

let test_flops () =
  match Ir.comps_in gemm.Ir.body with
  | [ c ] ->
      (* C + A*B: one add, one mul *)
      Alcotest.(check int) "flops" 2 (Ir.flops_of_vexpr c.Ir.rhs)
  | _ -> Alcotest.fail "one comp"

let test_printer_roundtrip_stability () =
  let s1 = Ir.program_to_string gemm in
  Alcotest.(check bool) "mentions attrs-free loops" true
    (String.length s1 > 50);
  (* printing is deterministic *)
  Alcotest.(check string) "stable" s1 (Ir.program_to_string gemm)

(* ------------------------------------------------------------------ *)
(* Scheduler structural helpers *)

let test_schedulable_units_leaf () =
  let units = Common.program_units gemm in
  Alcotest.(check int) "gemm is one unit" 1 (List.length units);
  match units with
  | [ (outer, nest) ] ->
      Alcotest.(check int) "no outer" 0 (List.length outer);
      Alcotest.(check string) "nest head" "i" nest.Ir.iter
  | _ -> Alcotest.fail "unit"

let test_schedulable_units_time_loop () =
  let p =
    lower
      {|void f(int n, int t, double A[n], double B[n]) {
          for (int s = 0; s < t; s++) {
            for (int i = 0; i < n; i++) B[i] = A[i] * 2.0;
            for (int i = 0; i < n; i++) A[i] = B[i] + 1.0;
          }
        }|}
  in
  let units = Common.program_units p in
  Alcotest.(check int) "two units under the time loop" 2 (List.length units);
  List.iter
    (fun (outer, _) ->
      Alcotest.(check (list string)) "outer is s" [ "s" ]
        (List.map (fun (l : Ir.loop) -> l.Ir.iter) outer))
    units

let test_wrap_outer () =
  let units = Common.program_units gemm in
  match units with
  | [ (outer, nest) ] ->
      let wrapped = Common.wrap_outer outer (Ir.Nloop nest) in
      Alcotest.(check bool) "no outer: unchanged structure" true
        (Ir.equal_structure [ wrapped ] [ Ir.Nloop nest ])
  | _ -> Alcotest.fail "unit"

let test_liftable_gates () =
  Alcotest.(check bool) "gemm liftable" true
    (List.for_all Common.liftable gemm.Ir.body);
  let guarded =
    lower
      {|void f(int n, double A[n], double x) {
          for (int i = 0; i < n; i++)
            if (x > 0.5) A[i] = 1.0;
        }|}
  in
  Alcotest.(check bool) "guarded not liftable" false
    (List.for_all Common.liftable guarded.Ir.body);
  let transposed =
    lower
      {|void f(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++) {
              A[i][j] = 1.0;
              A[j][i] = A[i][j];
            }
        }|}
  in
  Alcotest.(check bool) "transposed self-alias not liftable" false
    (List.for_all Common.liftable transposed.Ir.body)

let suite =
  [
    ("traversals", `Quick, test_traversals);
    ("reads/writes", `Quick, test_reads_writes);
    ("subtree substitution", `Quick, test_subst_idx_nodes);
    ("canon rename-invariant", `Quick, test_canon_rename_invariance);
    ("canon distinguishes patterns", `Quick, test_canon_distinguishes);
    ("equal up to ids", `Quick, test_equal_up_to_ids);
    ("flop counting", `Quick, test_flops);
    ("printer stability", `Quick, test_printer_roundtrip_stability);
    ("schedulable units: leaf", `Quick, test_schedulable_units_leaf);
    ("schedulable units: time loop", `Quick, test_schedulable_units_time_loop);
    ("wrap_outer", `Quick, test_wrap_outer);
    ("liftability gates", `Quick, test_liftable_gates);
  ]
