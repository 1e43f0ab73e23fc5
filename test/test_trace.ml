(** Tests of the bytecode trace engine's fast modes
    ([Daisy_machine.Trace_bc]). The batched (fused) replay must keep
    every counter bit ([Int64.bits_of_float]) identical to the
    tree-walking oracle [Trace.run]. Approx mode (line
    stepping + adaptive loop sampling) must stay within the documented
    error bound of the exact engine, and golden tables pin its output
    bit for bit. The plain exact walk is pinned to the oracle in
    [test/test_bytecode.ml]; the shared inputs live here. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Config = Daisy_machine.Config
module Trace = Daisy_machine.Trace
module Cost = Daisy_machine.Cost
module Pb = Daisy_benchmarks.Polybench
module Np = Daisy_benchmarks.Npbench
module Variants = Daisy_benchmarks.Variants
module Cloudsc = Daisy_benchmarks.Cloudsc
module Alower = Daisy_arraylang.Lower

let config = Config.default

let pp_counters ppf (c : Trace.counters) =
  Fmt.pf ppf
    "flops=%h vec=%h unr=%h loads=%h stores=%h gather=%h spill=%h atomics=%h \
     atomics_p=%h regions=%h par_trip=%h has_par=%b lib_f=%h lib_b=%h \
     l1=(%h %h %h %h) l2=(%h %h %h %h)"
    c.Trace.flops c.Trace.vec_flops c.Trace.unrolled_flops c.Trace.loads
    c.Trace.stores c.Trace.gather_extra c.Trace.spill_ops c.Trace.atomics
    c.Trace.atomics_private c.Trace.parallel_regions c.Trace.par_trip
    c.Trace.has_parallel c.Trace.libcall_flops c.Trace.libcall_bytes
    c.Trace.l1.Daisy_machine.Cache.accesses
    c.Trace.l1.Daisy_machine.Cache.misses
    c.Trace.l1.Daisy_machine.Cache.evicts
    c.Trace.l1.Daisy_machine.Cache.writebacks
    c.Trace.l2.Daisy_machine.Cache.accesses
    c.Trace.l2.Daisy_machine.Cache.misses
    c.Trace.l2.Daisy_machine.Cache.evicts
    c.Trace.l2.Daisy_machine.Cache.writebacks

(* ------------------------------------------------------------------ *)
(* Loop attributes: parallel / atomic / vectorized / unrolled paths      *)

(** Mark the outermost loop parallel+atomic, innermost loops vectorized,
    intermediate loops unrolled — lights up every static-context branch of
    the walker (flop classes, gathers, atomics, spill×unroll, regions). *)
let mark_attrs (p : Ir.program) : Ir.program =
  let rec mark depth (n : Ir.node) =
    match n with
    | Ir.Nloop l ->
        let attrs =
          if depth = 0 then
            { l.Ir.attrs with Ir.parallel = true; Ir.atomic = true }
          else if Ir.loops_in l.Ir.body = [] then
            { l.Ir.attrs with Ir.vectorized = true }
          else { l.Ir.attrs with Ir.unroll = 4 }
        in
        Ir.Nloop
          { l with Ir.attrs; Ir.body = List.map (mark (depth + 1)) l.Ir.body }
    | other -> other
  in
  { p with Ir.body = List.map (mark 0) p.Ir.body }

(* ------------------------------------------------------------------ *)
(* Non-affine subscripts, guards, min/max bounds, negative steps         *)

let n = Expr.var "n"
let i = Expr.var "i"
let j = Expr.var "j"

let nonaffine_program =
  let sq_mod = Expr.md (Expr.mul i i) n in
  let clamped = Expr.max_ (Expr.sub i (Expr.const 2)) Expr.zero in
  let dest = { Ir.array = "A"; indices = [ sq_mod ] } in
    {
      Ir.pname = "nonaffine";
      size_params = [ "n" ];
      scalar_params = [];
      arrays =
        [ { Ir.name = "A"; elem = Ir.Fdouble; dims = [ n ]; storage = Ir.Sparam };
          { Ir.name = "B"; elem = Ir.Fdouble; dims = [ n ]; storage = Ir.Sparam } ];
      local_scalars = [];
      body =
        [ Ir.Nloop
            (Ir.mk_loop ~iter:"i" ~lo:Expr.zero
               ~hi:(Expr.sub n Expr.one)
               [ Ir.Ncomp
                   (Ir.mk_comp (Ir.Darray dest)
                      (Ir.Vbin
                         (Ir.Vadd, Ir.Vread dest,
                          Ir.Vread { Ir.array = "B"; indices = [ clamped ] })))
               ]) ];
  }

let guarded_program =
    {
      Ir.pname = "guarded";
      size_params = [ "n" ];
      scalar_params = [];
      arrays =
        [ { Ir.name = "A"; elem = Ir.Fdouble; dims = [ n; n ];
            storage = Ir.Sparam } ];
      local_scalars = [ "acc" ];
      body =
        [ Ir.Ncomp (Ir.mk_comp (Ir.Dscalar "acc") (Ir.Vfloat 0.0));
          Ir.Nloop
            (Ir.mk_loop ~iter:"i" ~lo:Expr.zero
               ~hi:(Expr.sub (Expr.min_ n (Expr.const 11)) Expr.one)
               [ Ir.Nloop
                   (Ir.mk_loop ~iter:"j" ~lo:Expr.zero
                      ~hi:(Expr.sub n Expr.one)
                      [ Ir.Ncomp
                          (Ir.mk_comp
                             ~guard:(Ir.Pcmp (Ir.Cle, Ir.Vint j, Ir.Vint i))
                             (Ir.Dscalar "acc")
                             (Ir.Vbin
                                (Ir.Vadd, Ir.Vscalar "acc",
                                 Ir.Vcall
                                   ("sqrt",
                                    [ Ir.Vread
                                        { Ir.array = "A"; indices = [ i; j ] }
                                    ]))))
                      ])
               ]) ];
  }

let reverse_program =
    {
      Ir.pname = "reverse";
      size_params = [ "n" ];
      scalar_params = [];
      arrays =
        [ { Ir.name = "x"; elem = Ir.Fdouble; dims = [ n ]; storage = Ir.Sparam } ];
      local_scalars = [];
      body =
        [ Ir.Nloop
            (Ir.mk_loop ~iter:"i"
               ~lo:(Expr.sub n (Expr.const 2))
               ~hi:Expr.zero ~step:(-1)
               [ Ir.Ncomp
                   (Ir.mk_comp
                      (Ir.Darray { Ir.array = "x"; indices = [ i ] })
                      (Ir.Vbin
                         (Ir.Vadd,
                          Ir.Vread { Ir.array = "x"; indices = [ i ] },
                          Ir.Vread
                            { Ir.array = "x";
                              indices = [ Expr.add i Expr.one ] })))
               ]) ];
  }

(* zero-trip loops: bodies must never be compiled (lazy errors) and the
   spill-slot allocation order must match the walker's first-visit order *)
let zerotrip_program =
    {
      Ir.pname = "zerotrip";
      size_params = [ "n" ];
      scalar_params = [];
      arrays =
        [ { Ir.name = "x"; elem = Ir.Fdouble; dims = [ n ]; storage = Ir.Sparam } ];
      local_scalars = [];
      body =
        [ Ir.Nloop
            (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.const (-1))
               [ Ir.Ncomp
                   (Ir.mk_comp
                      (Ir.Darray { Ir.array = "x"; indices = [ i ] })
                      (Ir.Vfloat 1.0))
               ]);
          Ir.Nloop
            (Ir.mk_loop ~iter:"i" ~lo:Expr.zero ~hi:(Expr.sub n Expr.one)
               [ Ir.Ncomp
                   (Ir.mk_comp
                      (Ir.Darray { Ir.array = "x"; indices = [ i ] })
                      (Ir.Vbin
                         (Ir.Vadd,
                          Ir.Vread { Ir.array = "x"; indices = [ i ] },
                          Ir.Vfloat 1.0)))
               ]) ];
  }

(* min/max loop bounds (tiling-style), guards, Vselect, Vint, scalar
   destinations, a scalar parameter and intrinsics in one program *)
let minmax_program =
  let m = Expr.var "m" in
  let acc_dest = Ir.Dscalar "acc" in
  {
    Ir.pname = "kitchen";
    size_params = [ "n"; "m" ];
    scalar_params = [ "alpha" ];
    arrays =
      [ { Ir.name = "A"; elem = Ir.Fdouble; dims = [ n; m ];
          storage = Ir.Sparam } ];
    local_scalars = [ "acc" ];
    body =
      [ Ir.Ncomp (Ir.mk_comp acc_dest (Ir.Vfloat 0.0));
        Ir.Nloop
          (Ir.mk_loop ~iter:"i" ~lo:Expr.zero
             ~hi:(Expr.sub (Expr.min_ n m) Expr.one)
             [ Ir.Nloop
                 (Ir.mk_loop ~iter:"j" ~lo:Expr.zero
                    ~hi:(Expr.sub m Expr.one)
                    [ Ir.Ncomp
                        (Ir.mk_comp
                           ~guard:(Ir.Pcmp (Ir.Cle, Ir.Vint j, Ir.Vint i))
                           acc_dest
                           (Ir.Vbin
                              (Ir.Vadd, Ir.Vscalar "acc",
                               Ir.Vselect
                                 ( Ir.Pcmp
                                     (Ir.Cgt,
                                      Ir.Vread
                                        { Ir.array = "A"; indices = [ i; j ] },
                                      Ir.Vfloat 0.5),
                                   Ir.Vcall
                                     ("pow",
                                      [ Ir.Vread
                                          { Ir.array = "A";
                                            indices = [ i; j ] };
                                        Ir.Vfloat 2.0 ]),
                                   Ir.Vneg (Ir.Vscalar "alpha") ))))
                    ]);
               Ir.Ncomp
                 (Ir.mk_comp
                    (Ir.Darray { Ir.array = "A"; indices = [ i; Expr.zero ] })
                    (Ir.Vcall ("tanh", [ Ir.Vscalar "acc" ])))
             ]) ];
  }

(** Adversarial inline programs: the exact engines' bitwise sweeps
    ([test/test_bytecode.ml]) and the fused replay below run them all. *)
let edge_cases =
  [
    ("non-affine subscripts", nonaffine_program, [ ("n", 17) ]);
    ("guards + min bound + scalar dest", guarded_program, [ ("n", 9) ]);
    ("min/max bounds + guards + scalars", minmax_program,
     [ ("n", 7); ("m", 9) ]);
    ("negative-step loop", reverse_program, [ ("n", 12) ]);
    ("zero-trip loop", zerotrip_program, [ ("n", 6) ]);
  ]

(* ------------------------------------------------------------------ *)
(* Batched (fused) stream replay: bitwise contract                       *)

module Tb = Daisy_machine.Trace_bc
module Pool = Daisy_support.Pool

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"

(** Run [f] with IR validation ([DAISY_VALIDATE]) forced to [v]. *)
let with_validation v f =
  let saved = !Ir.validation_enabled in
  Ir.validation_enabled := v;
  Fun.protect ~finally:(fun () -> Ir.validation_enabled := saved) f

(** The bytecode paths must be {e bitwise identical} to the tree oracle:
    the unfused walk and the batched walk. *)
let check_batched name (p : Ir.program) ~sizes =
  List.iter
    (fun sample_outer ->
      let tree = Trace.run config p ~sizes ~sample_outer () in
      let cmp what got =
        if
          List.length tree <> List.length got
          || not (List.for_all2 Trace.counters_equal tree got)
        then
          Alcotest.failf "%s (sample=%d): %s differs from tree oracle" name
            sample_outer what
      in
      cmp "unfused bytecode"
        (Tb.run config p ~sizes ~sample_outer ~batch:false ());
      cmp "fused bytecode"
        (Tb.run config p ~sizes ~sample_outer ~batch:true ()))
    [ 0; 7 ]

let test_batched_polybench () =
  List.iter
    (fun (b : Pb.benchmark) ->
      check_batched ("fused:A:" ^ b.Pb.name) (Pb.program b)
        ~sizes:b.Pb.test_sizes)
    (Pb.all @ Pb.extras);
  List.iter
    (fun (b : Pb.benchmark) ->
      let v = Variants.generate ~seed:("bvariant-" ^ b.Pb.name) (Pb.program b) in
      check_batched ("fused:B:" ^ b.Pb.name) v ~sizes:b.Pb.test_sizes)
    Pb.all

let test_batched_edge_cases () =
  (* negative step, zero trip, guards, non-affine subscripts *)
  List.iter
    (fun (name, p, sizes) -> check_batched ("fused:" ^ name) p ~sizes)
    edge_cases;
  (* write-back accounting: a store stream larger than L1 forces dirty
     evictions, so any skew in fused dirty bits shows up in writebacks *)
  let wb =
    lower
      {|void wb(int n, double A[n], double B[n]) {
          for (int r = 0; r < 3; r++)
            for (int i = 0; i < n; i++)
              A[i] = A[i] + B[i];
        }|}
  in
  check_batched "fused:writeback stream" wb ~sizes:[ ("n", 4096) ];
  (* strides that do not divide the line size must decline to the
     generic path (and still match bitwise) *)
  let strided =
    lower
      {|void st(int n, double A[3 * n], double B[5 * n]) {
          for (int i = 0; i < n; i++)
            A[3 * i] = B[5 * i];
        }|}
  in
  check_batched "fused:non-dividing stride" strided ~sizes:[ ("n", 100) ]

let prop_batched_bitwise =
  QCheck.Test.make ~count:120
    ~name:"fused bytecode trace bitwise-identical to walker"
    Test_property.arbitrary_program (fun p ->
      let sizes = [ ("n", 8) ] in
      let ok sample_outer =
        let tree = Trace.run config p ~sizes ~sample_outer () in
        let fused = Tb.run config p ~sizes ~sample_outer ~batch:true () in
        let plain = Tb.run config p ~sizes ~sample_outer ~batch:false () in
        List.length tree = List.length fused
        && List.for_all2 Trace.counters_equal tree fused
        && List.for_all2 Trace.counters_equal tree plain
      in
      ok 0 && ok 3)

(* evaluations on 4 domains share no mutable state: parallel evaluation
   is bit-identical to sequential. The test keeps the name it had when a
   simulation memo was shared across the four jobs; that memo is gone,
   and what stays checked is the jobs-4 == sequential contract on the
   same programs. *)
let test_batched_parallel () =
  let progs =
    List.map (fun (b : Pb.benchmark) -> (Pb.program b, b.Pb.test_sizes)) Pb.all
  in
  let eval (p, sizes) =
    (Cost.evaluate config p ~sizes ~engine:Cost.Bytecode ()).Cost.nests
    |> List.map (fun nc -> nc.Cost.counters)
  in
  let seq = List.map eval progs in
  let par = Pool.with_pool ~jobs:4 (fun pool -> Pool.map ?pool eval progs) in
  List.iteri
    (fun i (xs, ys) ->
      if
        List.length xs <> List.length ys
        || not (List.for_all2 Trace.counters_equal xs ys)
      then Alcotest.failf "jobs 4: benchmark %d differs" i)
    (List.combine seq par)

(* ------------------------------------------------------------------ *)
(* Approx mode: golden cycles and the documented accuracy contract       *)

let approx = Cost.Approx Tb.default_approx

let cycles engine p ~sizes ~sample_outer =
  (Cost.evaluate config p ~sizes ~threads:1 ~sample_outer ~engine ())
    .Cost.total_cycles

let polybench_sim () =
  List.map
    (fun (b : Pb.benchmark) ->
      ("pb:" ^ b.Pb.name, Pb.program b, b.Pb.sim_sizes))
    (Pb.all @ Pb.extras)

let npbench_sim () =
  List.map
    (fun (b : Np.benchmark) ->
      ( "np:" ^ b.Np.name,
        Alower.lower Alower.frontend_policy b.Np.program,
        b.Np.sim_sizes ))
    Np.all

let erosion () =
  let orig, sizes = Cloudsc.erosion_original ~iters:8 in
  ("cloudsc:erosion", orig, sizes)

let gemm = lazy (List.find (fun b -> b.Pb.name = "gemm") Pb.all)

(** Approx total cycles at [sample_outer] 12 of every program the approx
    tests below evaluate, as produced by the closure-tree approx engine
    that preceded the bytecode port. The port reproduces them bit for
    bit; any change to approx semantics must re-derive this table. *)
let approx_golden =
  [
    ("pb:gemm", 0x1.3a9d04p+22);
    ("pb:2mm", 0x1.67619p+22);
    ("pb:3mm", 0x1.5328a4p+23);
    ("pb:syrk", 0x1.ddfa8p+17);
    ("pb:syr2k", 0x1.6602p+18);
    ("pb:gemver", 0x1.bba4eaaaaaaaap+18);
    ("pb:gesummv", 0x1.9ba5p+16);
    ("pb:atax", 0x1.e5ae955555555p+17);
    ("pb:bicg", 0x1.e5ac8p+17);
    ("pb:mvt", 0x1.03c4p+18);
    ("pb:jacobi-2d", 0x1.77p+22);
    ("pb:heat-3d", 0x1.78c6bp+24);
    ("pb:fdtd-2d", 0x1.3d738p+22);
    ("pb:correlation", 0x1.aafb0cp+23);
    ("pb:covariance", 0x1.ab3122p+23);
    ("pb:doitgen", 0x1.707p+19);
    ("pb:trisolv", 0x1.a5ep+11);
    ("pb:seidel-2d", 0x1.7764p+22);
    ("np:gemm", 0x1.3baf1aaaaaaabp+22);
    ("np:2mm", 0x1.683cd55555556p+22);
    ("np:3mm", 0x1.40a776aaaaaabp+23);
    ("np:syrk", 0x1.ddfa8p+17);
    ("np:syr2k", 0x1.6602p+18);
    ("np:gemver", 0x1.1b4e0aaaaaaaap+19);
    ("np:gesummv", 0x1.9bdbp+16);
    ("np:atax", 0x1.e645555555556p+17);
    ("np:bicg", 0x1.e6bbd55555556p+17);
    ("np:mvt", 0x1.ea65aaaaaaaabp+17);
    ("np:jacobi-2d", 0x1.77p+22);
    ("np:heat-3d", 0x1.78c6bp+24);
    ("np:fdtd-2d", 0x1.3d738p+22);
    ("np:correlation", 0x1.b605cdp+22);
    ("np:covariance", 0x1.b46756p+22);
    ("cloudsc:erosion", 0x1.5b33333333333p+16);
    ("gemm:attrs", 0x1.ee64699555555p+24);
  ]

let test_approx_golden () =
  let g = Lazy.force gemm in
  let progs =
    polybench_sim () @ npbench_sim () @ [ erosion () ]
    @ [ ("gemm:attrs", mark_attrs (Pb.program g), g.Pb.sim_sizes) ]
  in
  Alcotest.(check int) "one golden row per program" (List.length approx_golden)
    (List.length progs);
  List.iter
    (fun (name, p, sizes) ->
      let want = List.assoc name approx_golden in
      let got = cycles approx p ~sizes ~sample_outer:12 in
      if Int64.bits_of_float got <> Int64.bits_of_float want then
        Alcotest.failf "%s: approx cycles %h, golden %h" name got want)
    progs

(* One computation placed three times in one top-level node (repeated ids
   are invalid IR, so the test runs with validation off): the trace
   engines share its addresses by cid, but approx line-step eligibility
   and the last-line memo belong to each occurrence. At n = 12 (trips
   below [min_trip]: line stepping alone) the second occurrence's
   innermost loop does not move its address, so it touches the cache
   every iteration, and the first and third each start on the line the
   other ended on, so only per-occurrence memos touch it. The golden
   counters come from the closure-tree approx engine. *)
let repeated_cid_program =
  let p =
    lower
      {|void rep(int n, double A[n][n]) {
          for (int r = 0; r < 2; r++) {
            for (int i = 0; i < n; i++)
              for (int j = 0; j < n; j++)
                A[i][j] = A[i][j] + 1.0;
            for (int i = 0; i < n; i++)
              for (int j = 0; j < n; j++)
                for (int k = 0; k < 4; k++)
                  A[i][j] = A[i][j] + 1.0;
            for (int i = n - 1; i >= 0; i--)
              for (int j = n - 1; j >= 0; j--)
                A[i][j] = A[i][j] + 1.0;
          }
        }|}
  in
  let same_cid = function
    | Ir.Ncomp c -> Ir.Ncomp { c with Ir.cid = 1 }
    | n -> n
  in
  { p with
    Ir.body =
      Ir.map_loops (fun l -> { l with Ir.body = List.map same_cid l.Ir.body })
        p.Ir.body }

let repeated_cid_golden =
  "flops=0x1.bp+10 vec=0x0p+0 unr=0x0p+0 loads=0x1.bp+10 stores=0x1.bp+10 \
   gather=0x0p+0 spill=0x0p+0 atomics=0x0p+0 atomics_p=0x0p+0 regions=0x0p+0 \
   par_trip=0x0p+0 has_par=false lib_f=0x0p+0 lib_b=0x0p+0 \
   l1=(0x1.32p+11 0x1.2p+4 0x0p+0 0x0p+0) l2=(0x1.2p+4 0x1.2p+4 0x0p+0 0x0p+0)"

let test_approx_repeated_cid () =
  with_validation false (fun () ->
      let got =
        Tb.run config repeated_cid_program ~sizes:[ ("n", 12) ]
          ~approx:Tb.default_approx ()
      in
      Alcotest.(check (list string)) "approx counters" [ repeated_cid_golden ]
        (List.map (Fmt.str "%a" pp_counters) got))

(** Relative error of approx-mode total cycles vs the exact engine at the
    same [sample_outer] — the bound documented in docs/performance.md. *)
let approx_bound = 0.15

let rel_err exact approx =
  if exact = 0.0 then Float.abs approx
  else Float.abs (approx -. exact) /. Float.abs exact

let check_approx (name, p, sizes) =
  let exact = cycles Cost.Bytecode p ~sizes ~sample_outer:12 in
  let approx = cycles approx p ~sizes ~sample_outer:12 in
  let err = rel_err exact approx in
  if err > approx_bound then
    Alcotest.failf "%s: approx error %.1f%% exceeds %.0f%% (exact %.4e approx %.4e)"
      name (100.0 *. err) (100.0 *. approx_bound) exact approx

let test_approx_polybench () = List.iter check_approx (polybench_sim ())

let test_approx_npbench_cloudsc () =
  List.iter check_approx (npbench_sim () @ [ erosion () ])

(* approx mode must also preserve scheduler *decisions* enough that it
   never diverges wildly: ordering of a clearly-better vs clearly-worse
   variant is preserved on gemm (ijk loop order vs the same nest marked
   vectorized) *)
let test_approx_ordering () =
  let g = Lazy.force gemm in
  let p = Pb.program g in
  let better = mark_attrs p in
  let sizes = g.Pb.sim_sizes in
  let e_p = cycles Cost.Bytecode p ~sizes ~sample_outer:12 in
  let e_b = cycles Cost.Bytecode better ~sizes ~sample_outer:12 in
  let a_p = cycles approx p ~sizes ~sample_outer:12 in
  let a_b = cycles approx better ~sizes ~sample_outer:12 in
  Alcotest.(check bool)
    "exact and approx agree on which variant is faster" true
    (e_p > e_b = (a_p > a_b))

let suite =
  [
    ("fused replay: polybench A/B bitwise", `Slow, test_batched_polybench);
    ("fused replay: edge cases bitwise", `Quick, test_batched_edge_cases);
    QCheck_alcotest.to_alcotest prop_batched_bitwise;
    ("fused replay: shared memo across jobs", `Slow, test_batched_parallel);
    ("approx golden cycles bit for bit", `Slow, test_approx_golden);
    ("approx state per occurrence of a repeated cid", `Quick,
     test_approx_repeated_cid);
    ("approx error bound: polybench", `Slow, test_approx_polybench);
    ("approx error bound: npbench+cloudsc", `Slow, test_approx_npbench_cloudsc);
    ("approx preserves ordering", `Slow, test_approx_ordering);
  ]
