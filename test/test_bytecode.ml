(** Differential tests of the trace engine ([Daisy_machine.Trace_bc]):
    counters must be {e bitwise identical} to the tree-walking trace
    oracle [Trace.run] in exact mode — on every benchmark family in the
    repo, on the adversarial inline programs of [Test_trace.edge_cases],
    and on random programs. Also covered here: the one-innermost-trip
    budget contract on the tree interpreter and both trace engines,
    determinism across pool job counts, and error parity: every walk
    raises the tree walker's error when the faulty node executes, and
    never when it does not. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Interp = Daisy_interp.Interp
module Config = Daisy_machine.Config
module Trace = Daisy_machine.Trace
module Tb = Daisy_machine.Trace_bc
module Cost = Daisy_machine.Cost
module Budget = Daisy_support.Budget
module Pool = Daisy_support.Pool
module Util = Daisy_support.Util
module Pb = Daisy_benchmarks.Polybench
module Np = Daisy_benchmarks.Npbench
module Variants = Daisy_benchmarks.Variants
module Cloudsc = Daisy_benchmarks.Cloudsc
module Alower = Daisy_arraylang.Lower

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"
let config = Config.default

let smap sizes =
  List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty sizes

(* ------------------------------------------------------------------ *)
(* Trace backend: bitwise counter comparison vs the tree oracle         *)

let check_trace_at name (p : Ir.program) ~sizes ~sample_outer =
  let tree = Trace.run config p ~sizes ~sample_outer () in
  let bc = Tb.run config p ~sizes ~sample_outer () in
  Alcotest.(check int)
    (name ^ ": same nest count")
    (List.length tree) (List.length bc);
  List.iteri
    (fun i (a, b) ->
      if not (Trace.counters_equal a b) then
        Alcotest.failf
          "%s (sample=%d): nest %d differs@.tree:     %a@.bytecode: %a" name
          sample_outer i Test_trace.pp_counters a Test_trace.pp_counters b)
    (List.combine tree bc)

let check_trace name p ~sizes =
  check_trace_at name p ~sizes ~sample_outer:0;
  check_trace_at name p ~sizes ~sample_outer:7

(* ------------------------------------------------------------------ *)
(* Benchmark sweeps                                                     *)

let test_polybench_a () =
  List.iter
    (fun (b : Pb.benchmark) ->
      check_trace ("A:" ^ b.Pb.name) (Pb.program b) ~sizes:b.Pb.test_sizes)
    (Pb.all @ Pb.extras)

let test_polybench_b () =
  List.iter
    (fun (b : Pb.benchmark) ->
      let v = Variants.generate ~seed:("bvariant-" ^ b.Pb.name) (Pb.program b) in
      check_trace ("B:" ^ b.Pb.name) v ~sizes:b.Pb.test_sizes)
    Pb.all

let test_libcalls () =
  let replaced = ref 0 in
  List.iter
    (fun (b : Pb.benchmark) ->
      let p, n = Daisy_blas.Patterns.replace_all (Pb.program b) in
      replaced := !replaced + n;
      if n > 0 then check_trace ("libcall:" ^ b.Pb.name) p ~sizes:b.Pb.test_sizes)
    Pb.all;
  Alcotest.(check bool) "library calls exercised" true (!replaced > 0)

let test_npbench () =
  List.iter
    (fun (b : Np.benchmark) ->
      List.iter
        (fun (pname, policy) ->
          let p = Alower.lower policy b.Np.program in
          check_trace
            (Printf.sprintf "np:%s:%s" b.Np.name pname)
            p ~sizes:b.Np.test_sizes)
        [ ("frontend", Alower.frontend_policy); ("numpy", Alower.numpy_policy) ])
    Np.all

let test_cloudsc () =
  let orig, sizes = Cloudsc.erosion_original ~iters:3 in
  check_trace "cloudsc:erosion-original" orig ~sizes;
  let opt, sizes = Cloudsc.erosion_optimized ~iters:3 in
  check_trace "cloudsc:erosion-optimized" opt ~sizes;
  let small_sizes = [ ("nblocks", 2); ("klev", 6); ("nproma", 8) ] in
  List.iter
    (fun v ->
      let p, _ = Cloudsc.full_model v ~blocks:2 in
      check_trace
        ("cloudsc:" ^ Cloudsc.string_of_version v)
        p ~sizes:small_sizes)
    Cloudsc.all_versions

(* parallel/atomic/vectorized/unrolled attributes light up every static
   context of the trace walk (flop classes, gathers, atomics, regions) *)
let test_attributed_loops () =
  List.iter
    (fun (b : Pb.benchmark) ->
      check_trace
        ("attrs:" ^ b.Pb.name)
        (Test_trace.mark_attrs (Pb.program b))
        ~sizes:b.Pb.test_sizes)
    Pb.all

(* ------------------------------------------------------------------ *)
(* Adversarial inline programs                                          *)

let test_non_affine_guards_negstep () =
  List.iter
    (fun (name, p, sizes) -> check_trace name p ~sizes)
    Test_trace.edge_cases

(* ------------------------------------------------------------------ *)
(* Budget contract: Exhausted within one innermost trip, every engine   *)

let test_budget_brackets () =
  let n = 6 in
  let p =
    lower
      {|void nest(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              for (int k = 0; k < n; k++)
                A[i][j] = A[i][j] + 1.0;
        }|}
  in
  let sizes = [ ("n", n) ] in
  let total = n + (n * n) + (n * n * n) in
  let expect_ok what run =
    match run () with
    | () -> ()
    | exception Budget.Exhausted ->
        Alcotest.failf "%s: exhausted with exactly enough fuel (%d)" what total
  in
  let expect_exhausted what steps run =
    match run () with
    | () -> Alcotest.failf "%s: completed on %d steps (< %d total)" what steps total
    | exception Budget.Exhausted -> ()
  in
  let interp steps () =
    ignore (Interp.run_fresh ~budget:(Budget.make ~steps) p ~sizes ())
  in
  expect_ok "interp" (interp total);
  expect_exhausted "interp" (total - 1) (interp (total - 1));
  expect_exhausted "interp" (total - n) (interp (total - n));
  List.iter
    (fun (nm, walk) ->
      let go steps () = ignore (walk (Budget.make ~steps)) in
      expect_ok ("trace:" ^ nm) (go total);
      expect_exhausted ("trace:" ^ nm) (total - 1) (go (total - 1));
      expect_exhausted ("trace:" ^ nm) (total - n) (go (total - n)))
    [ ("tree", fun budget -> Trace.run config p ~sizes ~budget ());
      ("bytecode", fun budget -> Tb.run config p ~sizes ~budget ()) ]

(* ------------------------------------------------------------------ *)
(* Determinism across pool job counts                                   *)

let test_parallel_jobs () =
  let progs =
    List.map (fun (b : Pb.benchmark) -> (Pb.program b, b.Pb.test_sizes)) Pb.all
  in
  let eval (p, sizes) =
    (Cost.evaluate config p ~sizes ()).Cost.nests
    |> List.map (fun nc -> nc.Cost.counters)
  in
  let seq = List.map eval progs in
  let par = Pool.with_pool ~jobs:4 (fun pool -> Pool.map ?pool eval progs) in
  let reference = List.map (fun (p, sizes) -> Trace.run config p ~sizes ()) progs in
  let check what a b =
    List.iteri
      (fun i (xs, ys) ->
        if
          List.length xs <> List.length ys
          || not (List.for_all2 Trace.counters_equal xs ys)
        then Alcotest.failf "%s: benchmark %d counters differ" what i)
      (List.combine a b)
  in
  check "jobs 4 vs jobs 1" seq par;
  check "bytecode vs tree reference" seq reference

(* ------------------------------------------------------------------ *)
(* Error parity: every walk raises the tree walker's error, lazily      *)

let walks =
  [ ("tree", fun p ~sizes -> Trace.run config p ~sizes ());
    ("fused", fun p ~sizes -> Tb.run config p ~sizes ());
    ("plain", fun p ~sizes -> Tb.run config p ~sizes ~batch:false ());
    ("approx",
     fun p ~sizes -> Tb.run config p ~sizes ~approx:Tb.default_approx ()) ]

let test_error_parity () =
  let base =
    lower
      {|void f(int n, double A[n][n], double x[n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              A[i][j] = A[i][j] + x[j];
        }|}
  in
  let sizes = [ ("n", 8) ] in
  let v = Expr.var and c = Expr.const in
  let assign array indices =
    Ir.Ncomp (Ir.mk_comp (Ir.Darray { Ir.array; indices }) (Ir.Vfloat 1.0))
  in
  (* [node] runs after the j loop, in every iteration of i *)
  let with_node node =
    { base with
      Ir.body =
        List.map
          (function
            | Ir.Nloop l -> Ir.Nloop { l with Ir.body = l.Ir.body @ [ node ] }
            | n -> n)
          base.Ir.body }
  in
  let zero_trip node =
    Ir.Nloop (Ir.mk_loop ~iter:"z" ~lo:(c 0) ~hi:(c (-1)) [ node ])
  in
  let faults =
    [ ("unknown container", "unknown container Ghost",
       assign "Ghost" [ v "i" ]);
      ("unbound variable in a loop bound", "unbound variable q",
       Ir.Nloop
         (Ir.mk_loop ~iter:"k" ~lo:(c 0) ~hi:(v "q") [ assign "x" [ v "k" ] ]));
      ("unbound variable in a subscript", "unbound variable q",
       assign "A" [ v "i"; v "q" ]);
      ("unbound variable in a call dim", "unbound variable q",
       Ir.Ncall
         { Ir.kid = Ir.fresh_id (); kernel = "gemv"; args = [ "A"; "x"; "x" ];
           scalar_args = []; dims = [ v "n"; v "q" ]; writes_to = [ "x" ] });
      ("rank mismatch", "rank mismatch", assign "A" [ v "i" ]) ]
  in
  Test_trace.with_validation false (fun () ->
      List.iter
        (fun (what, expected, node) ->
          let p = with_node node in
          List.iter
            (fun (engine, walk) ->
              match walk p ~sizes with
              | (_ : Trace.counters list) ->
                  Alcotest.failf "%s: %s walk did not raise" what engine
              | exception Trace.Unsupported_trace m ->
                  Alcotest.(check string)
                    (Printf.sprintf "%s: %s message" what engine)
                    expected m)
            walks;
          (* under a zero-trip loop the node never executes *)
          let hidden = with_node (zero_trip node) in
          let tree = Trace.run config base ~sizes () in
          List.iter
            (fun (engine, walk) ->
              let same claim a b =
                if not (List.for_all2 Trace.counters_equal a b) then
                  Alcotest.failf "%s under a zero-trip loop: the %s walk's %s"
                    what engine claim
              in
              let got = walk hidden ~sizes in
              same "counters changed" (walk base ~sizes) got;
              if engine <> "approx" then
                same "counters differ from the tree's" tree got)
            walks)
        faults);
  (* an unknown array is invalid IR: under validation it is rejected
     before lowering *)
  Test_trace.with_validation true (fun () ->
      match Tb.run config (with_node (assign "Ghost" [ v "i" ])) ~sizes () with
      | (_ : Trace.counters list) ->
          Alcotest.fail "validation accepted an unknown array"
      | exception Daisy_support.Diag.Error _ -> ())

(* Two faults in one computation, an unknown destination and an unknown
   read: every walk raises the one the tree walker meets first. *)
let test_error_order () =
  let v = Expr.var in
  let comp =
    Ir.mk_comp
      (Ir.Darray { Ir.array = "Ghost"; indices = [ v "i" ] })
      (Ir.Vread { Ir.array = "Phantom"; indices = [ v "i" ] })
  in
  let p =
    { (lower {|void f(int n, double A[n]) { A[0] = 1.0; }|}) with
      Ir.body =
        [ Ir.Nloop
            (Ir.mk_loop ~iter:"i" ~lo:(Expr.const 0) ~hi:(v "n")
               [ Ir.Ncomp comp ]) ] }
  in
  let sizes = [ ("n", 4) ] in
  Test_trace.with_validation false (fun () ->
      let message walk =
        match walk p ~sizes with
        | (_ : Trace.counters list) -> "no error"
        | exception Trace.Unsupported_trace m -> m
      in
      let tree = message (List.assoc "tree" walks) in
      List.iter
        (fun (engine, walk) ->
          Alcotest.(check string) (engine ^ " message") tree (message walk))
        (List.remove_assoc "tree" walks))

(* ------------------------------------------------------------------ *)
(* Random programs                                                      *)

let prop_trace_bitwise =
  QCheck.Test.make ~count:120
    ~name:"bytecode trace bitwise-identical to counters of the tree walker"
    Test_property.arbitrary_program (fun p ->
      let sizes = [ ("n", 8) ] in
      let ok sample_outer =
        let tree = Trace.run config p ~sizes ~sample_outer () in
        let bc = Tb.run config p ~sizes ~sample_outer () in
        List.length tree = List.length bc
        && List.for_all2 Trace.counters_equal tree bc
      in
      ok 0 && ok 3)

let suite =
  [
    ("polybench A bitwise (both backends)", `Slow, test_polybench_a);
    ("polybench B variants bitwise", `Slow, test_polybench_b);
    ("library calls bitwise", `Quick, test_libcalls);
    ("npbench lowerings bitwise", `Slow, test_npbench);
    ("cloudsc bitwise", `Slow, test_cloudsc);
    ("attributed loops bitwise", `Slow, test_attributed_loops);
    ("non-affine, guards, negative step", `Quick, test_non_affine_guards_negstep);
    ("budget exhausts within one innermost trip", `Quick, test_budget_brackets);
    ("deterministic across pool jobs", `Slow, test_parallel_jobs);
    ("error parity with the tree walker", `Quick, test_error_parity);
    ("error parity: the first of two faults", `Quick, test_error_order);
    QCheck_alcotest.to_alcotest prop_trace_bitwise;
  ]
