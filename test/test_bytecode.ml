(** Differential tests of the trace lowering ([Daisy_machine.Bytecode])
    and its walk ([Daisy_machine.Trace_bc]): counters must be {e bitwise
    identical} to the tree-walking trace oracle [Trace.run] in exact mode
    — on every benchmark family in the repo, on the adversarial inline
    programs of [Test_trace.edge_cases], and on random programs. Also
    covered here: the one-innermost-trip budget contract on the tree
    interpreter and both trace engines, determinism across pool job
    counts, and the verifier's rejection of malformed trace sections. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Interp = Daisy_interp.Interp
module B = Daisy_machine.Bytecode
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
(* Verifier: pristine artifacts pass, each malformed class is rejected  *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_verifier () =
  let b = List.find (fun (b : Pb.benchmark) -> b.Pb.name = "gemm") Pb.all in
  let p = Pb.program b in
  let env = smap b.Pb.test_sizes in
  let art = B.lower (Trace.layout_of p ~sizes:env) ~sizes:env p in
  Alcotest.(check (list string)) "pristine artifact verifies" [] (B.verify art);
  let tn = art.B.tnodes.(0) in
  let first op =
    let rec go pc =
      if pc >= Array.length tn.B.t_code then
        Alcotest.failf "gemm section has no %s" B.top_name.(op)
      else if tn.B.t_code.(pc) = op then pc
      else go (pc + B.top_len.(tn.B.t_code.(pc)))
    in
    go 0
  in
  let loop_pc = first B.t_loop and comp_pc = first B.t_comp in
  Alcotest.(check int) "gemm section has no library call" 0
    (Array.length tn.B.t_calls);
  let nslots = tn.B.t_nslots and nixs = Array.length tn.B.t_ixs in
  let npool = Array.length tn.B.t_pool in
  let nxpool = Array.length tn.B.t_xpool in
  (* mutants of the first section *)
  let code f =
    let t_code = Array.copy tn.B.t_code in
    f t_code;
    { tn with B.t_code }
  in
  let loop0 f =
    let t_loops = Array.copy tn.B.t_loops in
    t_loops.(0) <- f t_loops.(0);
    { tn with B.t_loops }
  in
  let site0 ts_acc =
    let y = tn.B.t_comps.(0) in
    let y_sites = Array.copy y.B.y_sites in
    y_sites.(0) <- { y_sites.(0) with B.ts_acc };
    let t_comps = Array.copy tn.B.t_comps in
    t_comps.(0) <- { y with B.y_sites };
    { tn with B.t_comps }
  in
  let extra_ix ?(pool = [||]) ?(xpool = [||]) ix =
    { tn with
      B.t_ixs = Array.append tn.B.t_ixs [| ix |];
      t_pool = Array.append tn.B.t_pool pool;
      t_xpool = Array.append tn.B.t_xpool xpool }
  in
  let xcode words = extra_ix ~xpool:words (B.Ix_code (nxpool, Array.length words)) in
  let as_call ?(calls = [||]) id =
    { (code (fun c -> c.(comp_pc) <- B.t_call; c.(comp_pc + 1) <- id)) with
      B.t_calls = calls }
  in
  let mutants =
    [ (* the instruction stream *)
      ("bad trace opcode", "bad opcode 77", code (fun c -> c.(0) <- 77));
      ("truncated instruction", "truncated TCOMP",
       { tn with B.t_code = Array.sub tn.B.t_code 0 (comp_pc + 1) });
      ("loop id out of table", "loop id",
       code (fun c -> c.(loop_pc + 1) <- Array.length tn.B.t_loops));
      ("loop target off an instruction boundary",
       "is not an instruction boundary",
       code (fun c -> c.(loop_pc + 2) <- loop_pc + 1));
      ("comp id out of table", "comp id",
       code (fun c -> c.(comp_pc + 1) <- Array.length tn.B.t_comps));
      ("call id out of table", "call id", as_call 0);
      (* loop descriptors *)
      ("trace loop slot out of file", "loop slot",
       loop0 (fun w -> { w with B.w_slot = nslots }));
      ("zero loop step", "zero loop step",
       loop0 (fun w -> { w with B.w_step = 0 }));
      ("loop bound ix out of table", "ix id",
       loop0 (fun w -> { w with B.w_lo = nixs }));
      ("body comp id out of table", "body comp id",
       loop0 (fun w ->
           { w with B.w_body = Some [| Array.length tn.B.t_comps |] }));
      (* address generators and call operands *)
      ("address slice outside t_pool", "address slice",
       site0 (B.Ta_aff (npool, 1)));
      ("address slot out of file", "address slot",
       { (site0 (B.Ta_aff (npool, 1))) with
         B.t_pool = Array.append tn.B.t_pool [| 0; nslots; 8 |] });
      ("subscript ix out of table", "ix id",
       site0 (B.Ta_gen (0, [| 4 |], [| nixs |])));
      ("call dim ix out of table", "ix id",
       as_call 0
         ~calls:[| { B.z_err = None; z_kernel = "gemm"; z_dims = [| nixs |] } |]);
      (* integer operands *)
      ("register out of file", "slot", extra_ix (B.Ix_reg nslots));
      ("affine slice outside t_pool", "affine slice",
       extra_ix (B.Ix_aff (npool, 2)));
      ("affine slot out of file", "affine slot",
       extra_ix ~pool:[| 0; nslots; 1 |] (B.Ix_aff (npool, 1)));
      ("xcode slice outside t_xpool", "xcode slice",
       extra_ix (B.Ix_code (0, nxpool + 1)));
      ("bad xcode opcode", "bad xcode opcode", xcode [| 99 |]);
      ("truncated xcode", "truncated xcode", xcode [| B.x_push |]);
      ("xcode slot out of file", "xcode slot", xcode [| B.x_reg; nslots |]);
      ("xcode stack underflow", "stack underflow", xcode [| B.x_add |]);
      ("xcode leaves two values", "leaves 2 values",
       xcode [| B.x_push; 1; B.x_push; 2 |]) ]
  in
  List.iter
    (fun (what, needle, mutant) ->
      let tnodes = Array.copy art.B.tnodes in
      tnodes.(0) <- mutant;
      match B.verify { art with B.tnodes } with
      | [] -> Alcotest.failf "%s: verifier accepted a malformed artifact" what
      | errs ->
          if not (List.exists (fun e -> contains e needle) errs) then
            Alcotest.failf "%s: expected a problem mentioning %S, got: %s" what
              needle (String.concat "; " errs))
    mutants;
  (* an unknown array is invalid IR: under validation the lowering
     rejects it before emitting anything *)
  let ghost =
    { p with
      Ir.body =
        [ Ir.Ncomp
            (Ir.mk_comp
               (Ir.Darray { Ir.array = "Ghost"; indices = [ Expr.const 0 ] })
               (Ir.Vfloat 1.0)) ] }
  in
  Test_trace.with_validation true (fun () ->
      match Tb.run config ghost ~sizes:b.Pb.test_sizes () with
      | (_ : Trace.counters list) ->
          Alcotest.fail "validation accepted an unknown array"
      | exception Daisy_support.Diag.Error _ -> ())

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
    ("verifier rejects malformed streams", `Quick, test_verifier);
    QCheck_alcotest.to_alcotest prop_trace_bitwise;
  ]
