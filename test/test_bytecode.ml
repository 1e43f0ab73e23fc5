(** Differential tests of the flat-bytecode VM ([Daisy_lir.Bytecode] and
    its two backends): the semantic engine [Interp.run_bytecode] must
    produce final states {e bitwise identical} to the tree-walking oracle
    (every array element and scalar, compared bit for bit, plus identical
    [Runtime_error] messages), and the trace backend
    [Daisy_machine.Trace_bc] must produce counters bitwise identical to
    the tree-walking trace oracle [Trace.run] in exact mode — on every
    benchmark family in the repo, on the adversarial inline programs of
    [Test_trace.edge_cases], and on random programs. Also covered here:
    the one-innermost-trip budget contract on every engine of each
    backend, determinism across pool job counts, the disassembler goldens
    (superinstruction formation on a tiled/interchanged PolyBench nest),
    and the bytecode verifier's rejection of malformed streams. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Interp = Daisy_interp.Interp
module B = Daisy_lir.Bytecode
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
module Lt = Daisy_transforms.Loop_transforms

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"
let config = Config.default
let bits = Int64.bits_of_float

let smap sizes =
  List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty sizes

(* ------------------------------------------------------------------ *)
(* Semantic backend: bitwise state comparison vs the tree oracle        *)

let check_bitwise name (p : Ir.program) ~sizes ?(scalars = []) () =
  let s1 = Interp.run_fresh p ~sizes ~scalars () in
  let s2 = Interp.run_bytecode_fresh p ~sizes ~scalars () in
  Alcotest.(check int)
    (name ^ ": same array count")
    (Hashtbl.length s1.Interp.arrays)
    (Hashtbl.length s2.Interp.arrays);
  Hashtbl.iter
    (fun aname (t1 : Interp.tensor) ->
      match Hashtbl.find_opt s2.Interp.arrays aname with
      | None -> Alcotest.failf "%s: array %s missing from bytecode state" name aname
      | Some t2 ->
          Array.iteri
            (fun i x ->
              if bits x <> bits t2.Interp.data.(i) then
                Alcotest.failf "%s: %s[%d] differs: %h (tree) vs %h (bytecode)"
                  name aname i x t2.Interp.data.(i))
            t1.Interp.data)
    s1.Interp.arrays;
  let module SMap = Daisy_support.Util.SMap in
  if not (SMap.equal (fun a b -> bits a = bits b) s1.Interp.scalars s2.Interp.scalars)
  then Alcotest.failf "%s: scalar environments differ" name

let check_same_error name (p : Ir.program) ~sizes () =
  let outcome run =
    match run () with
    | (_ : Interp.state) -> Error "completed without error"
    | exception Interp.Runtime_error m -> Ok m
  in
  let r1 = outcome (fun () -> Interp.run_fresh p ~sizes ()) in
  let r2 = outcome (fun () -> Interp.run_bytecode_fresh p ~sizes ()) in
  match (r1, r2) with
  | Ok m1, Ok m2 ->
      Alcotest.(check string) (name ^ ": identical error message") m1 m2
  | Error w, _ -> Alcotest.failf "%s: tree oracle %s" name w
  | _, Error w -> Alcotest.failf "%s: bytecode engine %s" name w

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

(** Both backends on one program. *)
let check_program name p ~sizes =
  check_bitwise name p ~sizes ();
  check_trace name p ~sizes

(* ------------------------------------------------------------------ *)
(* Benchmark sweeps                                                     *)

let test_polybench_a () =
  List.iter
    (fun (b : Pb.benchmark) ->
      check_program ("A:" ^ b.Pb.name) (Pb.program b) ~sizes:b.Pb.test_sizes)
    (Pb.all @ Pb.extras)

let test_polybench_b () =
  List.iter
    (fun (b : Pb.benchmark) ->
      let v = Variants.generate ~seed:("bvariant-" ^ b.Pb.name) (Pb.program b) in
      check_program ("B:" ^ b.Pb.name) v ~sizes:b.Pb.test_sizes)
    Pb.all

let test_libcalls () =
  let replaced = ref 0 in
  List.iter
    (fun (b : Pb.benchmark) ->
      let p, n = Daisy_blas.Patterns.replace_all (Pb.program b) in
      replaced := !replaced + n;
      if n > 0 then check_program ("libcall:" ^ b.Pb.name) p ~sizes:b.Pb.test_sizes)
    Pb.all;
  Alcotest.(check bool) "library calls exercised" true (!replaced > 0)

let test_npbench () =
  List.iter
    (fun (b : Np.benchmark) ->
      List.iter
        (fun (pname, policy) ->
          let p = Alower.lower policy b.Np.program in
          check_program
            (Printf.sprintf "np:%s:%s" b.Np.name pname)
            p ~sizes:b.Np.test_sizes)
        [ ("frontend", Alower.frontend_policy); ("numpy", Alower.numpy_policy) ])
    Np.all

let test_cloudsc () =
  let orig, sizes = Cloudsc.erosion_original ~iters:3 in
  check_program "cloudsc:erosion-original" orig ~sizes;
  let opt, sizes = Cloudsc.erosion_optimized ~iters:3 in
  check_program "cloudsc:erosion-optimized" opt ~sizes;
  let small_sizes = [ ("nblocks", 2); ("klev", 6); ("nproma", 8) ] in
  List.iter
    (fun v ->
      let p, _ = Cloudsc.full_model v ~blocks:2 in
      check_program
        ("cloudsc:" ^ Cloudsc.string_of_version v)
        p ~sizes:small_sizes)
    Cloudsc.all_versions

(* parallel/atomic/vectorized/unrolled attributes light up every static
   context of the trace walk (flop classes, gathers, atomics, regions) *)
let test_attributed_loops () =
  List.iter
    (fun (b : Pb.benchmark) ->
      check_program
        ("attrs:" ^ b.Pb.name)
        (Test_trace.mark_attrs (Pb.program b))
        ~sizes:b.Pb.test_sizes)
    Pb.all

(* ------------------------------------------------------------------ *)
(* Adversarial inline programs                                          *)

let test_non_affine_guards_negstep () =
  List.iter
    (fun (name, p, sizes) -> check_program name p ~sizes)
    Test_trace.edge_cases

(* ------------------------------------------------------------------ *)
(* Error-path parity                                                    *)

let test_error_parity () =
  let oob =
    lower
      {|void f(int n, double A[n]) {
          for (int i = 0; i < n; i++)
            A[i + 1] = 1.0;
        }|}
  in
  check_same_error "oob write" oob ~sizes:[ ("n", 4) ] ();
  let oob2 =
    lower
      {|void f(int n, double A[n], double B[n][n]) {
          for (int i = 0; i < n; i++)
            A[i] = B[i + 2][i];
        }|}
  in
  check_same_error "oob read (2d)" oob2 ~sizes:[ ("n", 4) ] ();
  let base =
    {
      Ir.pname = "errors";
      size_params = [ "n" ];
      scalar_params = [];
      arrays =
        [ { Ir.name = "A"; elem = Ir.Fdouble; dims = [ Expr.var "n" ];
            storage = Ir.Sparam } ];
      local_scalars = [ "alpha" ];
      body = [];
    }
  in
  let comp rhs =
    [ Ir.Ncomp
        (Ir.mk_comp
           (Ir.Darray { Ir.array = "A"; indices = [ Expr.const 0 ] })
           rhs) ]
  in
  check_same_error "unbound scalar"
    { base with Ir.body = comp (Ir.Vscalar "alpha") }
    ~sizes:[ ("n", 4) ] ();
  check_same_error "unknown intrinsic"
    { base with
      Ir.body = comp (Ir.Vcall ("bogus", [ Ir.Vfloat 1.0; Ir.Vfloat 2.0 ])) }
    ~sizes:[ ("n", 4) ] ();
  check_same_error "wrong-arity intrinsic"
    { base with
      Ir.body = comp (Ir.Vcall ("sqrt", [ Ir.Vfloat 1.0; Ir.Vfloat 2.0 ])) }
    ~sizes:[ ("n", 4) ] ();
  let ghost_read =
    { base with
      Ir.body = comp (Ir.Vread { Ir.array = "Ghost"; indices = [ Expr.const 0 ] })
    }
  in
  let ghost_write =
    { base with
      Ir.body =
        [ Ir.Ncomp
            (Ir.mk_comp
               (Ir.Darray { Ir.array = "Ghost"; indices = [ Expr.const 0 ] })
               (Ir.Vfloat 1.0)) ];
    }
  in
  (* unknown arrays are invalid IR: the runtime error paths are compared
     with validation off (the tree oracle never validates), and with it on
     the bytecode lowering must reject them up front *)
  let with_validation = Test_trace.with_validation in
  List.iter
    (fun (name, p) ->
      with_validation false (check_same_error name p ~sizes:[ ("n", 4) ]);
      with_validation true (fun () ->
          match Interp.run_bytecode_fresh p ~sizes:[ ("n", 4) ] () with
          | (_ : Interp.state) ->
              Alcotest.failf "%s: validation accepted an unknown array" name
          | exception Daisy_support.Diag.Error _ -> ()))
    [ ("unknown array read", ghost_read); ("unknown array write", ghost_write) ]

(* ------------------------------------------------------------------ *)
(* Budget contract: Exhausted within one innermost trip, all engines    *)

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
  let semantic =
    [ ("tree",
       fun b -> ignore (Interp.run_fresh ~budget:b p ~sizes ()));
      ("bytecode",
       fun b -> ignore (Interp.run_bytecode_fresh ~budget:b p ~sizes ())) ]
  in
  List.iter
    (fun (nm, run_fresh) ->
      let go steps () = run_fresh (Budget.make ~steps) in
      expect_ok ("interp:" ^ nm) (go total);
      expect_exhausted ("interp:" ^ nm) (total - 1) (go (total - 1));
      expect_exhausted ("interp:" ^ nm) (total - n) (go (total - n)))
    semantic;
  List.iter
    (fun (nm, engine) ->
      let go steps () =
        ignore
          (Cost.evaluate config p ~sizes ~engine
             ~budget:(Budget.make ~steps) ())
      in
      expect_ok ("trace:" ^ nm) (go total);
      expect_exhausted ("trace:" ^ nm) (total - 1) (go (total - 1));
      expect_exhausted ("trace:" ^ nm) (total - n) (go (total - n)))
    [ ("tree", Cost.Tree); ("bytecode", Cost.Bytecode) ]

(* ------------------------------------------------------------------ *)
(* Determinism across pool job counts                                   *)

let test_parallel_jobs () =
  let progs =
    List.map (fun (b : Pb.benchmark) -> (Pb.program b, b.Pb.test_sizes)) Pb.all
  in
  let eval engine (p, sizes) =
    (Cost.evaluate config p ~sizes ~engine ()).Cost.nests
    |> List.map (fun nc -> nc.Cost.counters)
  in
  let seq = List.map (eval Cost.Bytecode) progs in
  let par =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map ?pool (eval Cost.Bytecode) progs)
  in
  let reference = List.map (eval Cost.Tree) progs in
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
(* Disassembler goldens                                                 *)

let test_golden_disassembly () =
  let p =
    lower
      {|void sc(int n, double a, double x[n], double y[n]) {
          for (int i = 0; i < n; i++)
            y[i] = y[i] + a * x[i];
        }|}
  in
  let art = B.lower ~sizes:(smap [ ("n", 8) ]) p in
  let expected =
    String.concat "\n"
      [ "bytecode sc: 23 words, 2 iregs, 1 scalars, stack 3";
        "   0: FUSE     r0 r1 lo=0 hi=7 step=1 body=7 end=22 {fload y[r0]; \
         fscalar a; fload x[r0]; fmul; fadd; fstore y[r0]}";
        "   7: FLOAD    y[r0]";
        "   9: FSCALAR  a";
        "  11: FLOAD    x[r0]";
        "  13: FMUL    ";
        "  14: FADD    ";
        "  15: FSTORE   y[r0]";
        "  17: LOOPBK   r0 r1 step=1 body=7";
        "  22: HALT    ";
        "" ]
  in
  Alcotest.(check string) "scale-add disassembly" expected
    (Fmt.str "%a" B.pp art)

(** Superinstruction formation survives scheduling: tile and interchange
    the first nest of PolyBench mvt, then check the disassembly shows a
    fused innermost loop under the tile/point structure. *)
let test_superinstruction_after_scheduling () =
  let b = List.find (fun (b : Pb.benchmark) -> b.Pb.name = "mvt") Pb.all in
  let p = Pb.program b in
  let on_first_nest f =
    List.mapi
      (fun i n ->
        match n with Ir.Nloop l when i = 0 -> Ir.Nloop (f l) | n -> n)
      p.Ir.body
  in
  let disasm body = Fmt.str "%a" B.pp
      (B.lower ~sizes:(smap b.Pb.test_sizes) { p with Ir.body }) in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let assert_contains what hay needle =
    if not (contains hay needle) then
      Alcotest.failf "%s: expected %S in:@.%s" what needle hay
  in
  (* interchange x1 += A^T y1's i and j loops: the fused body now streams
     column-wise but the superinstruction still forms *)
  let inter =
    disasm
      (on_first_nest (fun l ->
           match Lt.interchange ~outer:[] l [| 1; 0 |] with
           | Ok x -> x
           | Error e -> Alcotest.failf "interchange: %s" e))
  in
  assert_contains "interchanged mvt" inter
    "FUSE     r2 r3 lo=0 hi=11 step=1 body=14 end=29 {fload x1[r2]; fload \
     A[r2, r0]; fload y1[r0]; fmul; fadd; fstore x1[r2]}";
  (* 4x4 tiling: tile loops outside, min-bounded point loops inside, and
     the innermost point loop still fuses *)
  let tiled =
    disasm
      (on_first_nest (fun l ->
           match Lt.tile ~outer:[] l [ (0, 4); (1, 4) ] with
           | Ok x -> x
           | Error e -> Alcotest.failf "tile: %s" e))
  in
  assert_contains "tiled mvt (tile loop)" tiled "   0: LOOP     r0 r1 lo=0 hi=x[";
  assert_contains "tiled mvt (point-loop fuse)" tiled
    "FUSE     r6 r7 lo=0+4*r2 hi=x[";
  assert_contains "tiled mvt (fused body)" tiled
    "{fload x1[r4]; fload A[r4, r6]; fload y1[r6]; fmul; fadd; fstore x1[r4]}"

(* ------------------------------------------------------------------ *)
(* Verifier: pristine artifacts pass, each malformed class is rejected  *)

let test_verifier () =
  let b = List.find (fun (b : Pb.benchmark) -> b.Pb.name = "gemm") Pb.all in
  let p = Pb.program b in
  (* lower with trace hooks so the trace sections are verified too *)
  let art = Tb.lower p ~param_env:(smap b.Pb.test_sizes) in
  Alcotest.(check (list string)) "pristine artifact verifies" [] (B.verify art);
  Alcotest.(check bool) "artifact has trace sections" true
    (Array.length art.B.tnodes > 0);
  let expect_reject what mutant =
    match B.verify mutant with
    | [] -> Alcotest.failf "%s: verifier accepted a malformed artifact" what
    | _ :: _ -> ()
  in
  (* 1. bad opcode in the semantic stream *)
  let code = Array.copy art.B.code in
  code.(0) <- 99;
  expect_reject "bad opcode" { art with B.code };
  (* 2. affine address slice outside the operand pool *)
  expect_reject "affine slice outside pool"
    { art with
      B.ixs = Array.append art.B.ixs [| B.Ix_aff (Array.length art.B.pool, 2) |]
    };
  (* 3. integer register outside the register file *)
  expect_reject "register out of file"
    { art with B.ixs = Array.append art.B.ixs [| B.Ix_reg art.B.n_iregs |] };
  (* 4. jump target off an instruction boundary *)
  let pc = ref 0 and loop_pc = ref (-1) in
  while !pc < Array.length art.B.code do
    let op = art.B.code.(!pc) in
    if op = B.op_loop && !loop_pc < 0 then loop_pc := !pc;
    pc := !pc + B.op_len.(op)
  done;
  Alcotest.(check bool) "artifact has a LOOP" true (!loop_pc >= 0);
  let code = Array.copy art.B.code in
  code.(!loop_pc + 6) <- !loop_pc + 1;
  expect_reject "jump target off boundary" { art with B.code };
  (* 5. malformed xcode: slice outside the xpool *)
  expect_reject "xcode slice outside xpool"
    { art with
      B.ixs =
        Array.append art.B.ixs
          [| B.Ix_code (0, Array.length art.B.xpool + 1) |];
    };
  (* 6. malformed xcode: stack underflow *)
  expect_reject "xcode stack underflow"
    { art with
      B.xpool = Array.append art.B.xpool [| B.x_add |];
      B.ixs =
        Array.append art.B.ixs [| B.Ix_code (Array.length art.B.xpool, 1) |];
    };
  (* 7. bad opcode in a trace section *)
  let tn = art.B.tnodes.(0) in
  let t_code = Array.copy tn.B.t_code in
  t_code.(0) <- 77;
  expect_reject "bad trace opcode"
    { art with B.tnodes = [| { tn with B.t_code } |] };
  (* 8. trace loop slot outside the slot file *)
  let bad_loop = { tn.B.t_loops.(0) with B.w_slot = tn.B.t_nslots } in
  let t_loops = Array.copy tn.B.t_loops in
  t_loops.(0) <- bad_loop;
  expect_reject "trace loop slot out of file"
    { art with B.tnodes = [| { tn with B.t_loops } |] }

(* ------------------------------------------------------------------ *)
(* Random programs                                                      *)

let prop_bytecode_bitwise =
  QCheck.Test.make ~count:120
    ~name:"bytecode engine bitwise-identical to oracle"
    Test_property.arbitrary_program (fun p ->
      let sizes = [ ("n", 8) ] in
      let s1 = Interp.run_fresh p ~sizes () in
      let s2 = Interp.run_bytecode_fresh p ~sizes () in
      let ok = ref true in
      Hashtbl.iter
        (fun aname (t1 : Interp.tensor) ->
          match Hashtbl.find_opt s2.Interp.arrays aname with
          | None -> ok := false
          | Some t2 ->
              Array.iteri
                (fun i x -> if bits x <> bits t2.Interp.data.(i) then ok := false)
                t1.Interp.data)
        s1.Interp.arrays;
      !ok)

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
    ("error parity", `Quick, test_error_parity);
    ("budget exhausts within one innermost trip", `Quick, test_budget_brackets);
    ("deterministic across pool jobs", `Slow, test_parallel_jobs);
    ("golden disassembly", `Quick, test_golden_disassembly);
    ("superinstructions after tiling/interchange", `Quick,
     test_superinstruction_after_scheduling);
    ("verifier rejects malformed streams", `Quick, test_verifier);
    QCheck_alcotest.to_alcotest prop_bytecode_bitwise;
    QCheck_alcotest.to_alcotest prop_trace_bitwise;
  ]
