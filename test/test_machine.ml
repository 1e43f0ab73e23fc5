(** Tests for the machine model: cache simulator, trace walker, roofline
    cost model. These validate the {e shapes} every experiment relies on:
    strided access costs more than contiguous, vectorization helps
    compute-bound code, DRAM bandwidth saturates parallel scaling. *)

module Ir = Daisy_loopir.Ir
module Config = Daisy_machine.Config
module Cache = Daisy_machine.Cache
module Cost = Daisy_machine.Cost
module Transforms = Daisy_transforms.Loop_transforms

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"
let config = Config.default

let ms p ~sizes ?(threads = 1) () =
  Cost.milliseconds (Cost.evaluate config p ~sizes ~threads ())

(* ------------------------------------------------------------------ *)
(* Cache simulator *)

let test_cache_basic () =
  let c = Cache.create config in
  (* sequential walk over 2 KiB: 256 doubles, 32 lines *)
  for i = 0 to 255 do
    Cache.access c ~addr:(i * 8) ~write:false
  done;
  let s = Cache.l1_stats c in
  Alcotest.(check int) "accesses" 256 (int_of_float s.Cache.accesses);
  Alcotest.(check int) "one miss per line" 32 (int_of_float s.Cache.misses)

let test_cache_reuse_hit () =
  let c = Cache.create config in
  Cache.access c ~addr:0 ~write:false;
  Cache.access c ~addr:8 ~write:false;
  Cache.access c ~addr:0 ~write:true;
  let s = Cache.l1_stats c in
  Alcotest.(check int) "single compulsory miss" 1 (int_of_float s.Cache.misses)

let test_cache_capacity_eviction () =
  let c = Cache.create config in
  (* stream 4x the L1 capacity, then re-stream: all misses both times *)
  let lines = 4 * config.Config.l1.Config.size_bytes / 64 in
  for r = 0 to 1 do
    ignore r;
    for i = 0 to lines - 1 do
      Cache.access c ~addr:(i * 64) ~write:false
    done
  done;
  let s = Cache.l1_stats c in
  Alcotest.(check int) "all miss" (2 * lines) (int_of_float s.Cache.misses);
  Alcotest.(check bool) "evictions happened" true (s.Cache.evicts > 0.0)

let test_cache_dirty_writeback () =
  let c = Cache.create config in
  let lines = 2 * config.Config.l1.Config.size_bytes / 64 in
  for i = 0 to lines - 1 do
    Cache.access c ~addr:(i * 64) ~write:true
  done;
  let s = Cache.l1_stats c in
  Alcotest.(check bool) "writebacks happened" true (s.Cache.writebacks > 0.0)

let test_cache_l2_catches_l1_misses () =
  let c = Cache.create config in
  (* working set bigger than L1 but within L2: second pass misses L1 only *)
  let lines = 2 * config.Config.l1.Config.size_bytes / 64 in
  for r = 0 to 1 do
    ignore r;
    for i = 0 to lines - 1 do
      Cache.access c ~addr:(i * 64) ~write:false
    done
  done;
  let l2 = Cache.l2_stats c in
  Alcotest.(check int) "L2 misses only compulsory" lines
    (int_of_float l2.Cache.misses)

(* Cache geometry edge cases: tiny synthetic levels exercise the
   replacement policy where it is most visible. *)

let tiny_config ~l1 ~l2 =
  { config with Config.l1; Config.l2 }

let test_cache_direct_mapped_conflict () =
  (* assoc=1: two lines in the same set conflict on every access even
     though 15 other sets are empty *)
  let l1 = { Config.name = "L1"; size_bytes = 1024; line_bytes = 64; assoc = 1 } in
  let l2 = { Config.name = "L2"; size_bytes = 8192; line_bytes = 64; assoc = 8 } in
  let c = Cache.create (tiny_config ~l1 ~l2) in
  (* line 0 and line 16 both map to set 0 of 16 *)
  for _ = 1 to 10 do
    Cache.access c ~addr:0 ~write:false;
    Cache.access c ~addr:1024 ~write:false
  done;
  let s = Cache.l1_stats c in
  Alcotest.(check int) "every access misses" 20 (int_of_float s.Cache.misses);
  Alcotest.(check int) "all but the first fill evict" 19
    (int_of_float s.Cache.evicts);
  (* the same pattern in a 4-way cache hits after the compulsory misses *)
  let c4 = Cache.create config in
  for _ = 1 to 10 do
    Cache.access c4 ~addr:0 ~write:false;
    Cache.access c4 ~addr:1024 ~write:false
  done;
  Alcotest.(check int) "associativity absorbs the conflict" 2
    (int_of_float (Cache.l1_stats c4).Cache.misses)

let test_cache_single_set_lru () =
  (* 4 lines, 1 set: fully associative. A 4-line working set is resident;
     a 5-line cyclic walk defeats LRU completely. *)
  let l1 = { Config.name = "L1"; size_bytes = 256; line_bytes = 64; assoc = 4 } in
  let l2 = { Config.name = "L2"; size_bytes = 8192; line_bytes = 64; assoc = 8 } in
  let cfg = tiny_config ~l1 ~l2 in
  let c = Cache.create cfg in
  for _ = 1 to 2 do
    for i = 0 to 3 do
      Cache.access c ~addr:(i * 64) ~write:false
    done
  done;
  Alcotest.(check int) "4-line set: compulsory misses only" 4
    (int_of_float (Cache.l1_stats c).Cache.misses);
  let c = Cache.create cfg in
  for _ = 1 to 3 do
    for i = 0 to 4 do
      Cache.access c ~addr:(i * 64) ~write:false
    done
  done;
  Alcotest.(check int) "5-line cycle thrashes LRU" 15
    (int_of_float (Cache.l1_stats c).Cache.misses)

let test_cache_writeback_accounting () =
  (* L1 with two direct-mapped lines: a dirty conflict victim is written
     back into L2 exactly once, and L2 sees fetch + writeback traffic *)
  let l1 = { Config.name = "L1"; size_bytes = 128; line_bytes = 64; assoc = 1 } in
  let l2 = { Config.name = "L2"; size_bytes = 8192; line_bytes = 64; assoc = 8 } in
  let c = Cache.create (tiny_config ~l1 ~l2) in
  Cache.access c ~addr:0 ~write:true;
  (* line 2, same set as line 0: evicts the dirty line *)
  Cache.access c ~addr:128 ~write:true;
  let s1 = Cache.l1_stats c and s2 = Cache.l2_stats c in
  Alcotest.(check int) "l1 misses" 2 (int_of_float s1.Cache.misses);
  Alcotest.(check int) "l1 evicts" 1 (int_of_float s1.Cache.evicts);
  Alcotest.(check int) "l1 writebacks" 1 (int_of_float s1.Cache.writebacks);
  (* L2: fetch of line 0, fetch of line 2, write-back of line 0 *)
  Alcotest.(check int) "l2 accesses" 3 (int_of_float s2.Cache.accesses);
  (* a clean victim writes nothing back *)
  let c = Cache.create (tiny_config ~l1 ~l2) in
  Cache.access c ~addr:0 ~write:false;
  Cache.access c ~addr:128 ~write:false;
  Alcotest.(check int) "clean eviction: no writeback" 0
    (int_of_float (Cache.l1_stats c).Cache.writebacks)

let test_cache_nonpow2_geometry () =
  (* non-power-of-two line size and set count round down at construction
     (line_bytes 48 -> 32; 1536/32/2 = 24 sets -> 16), so the cache must
     behave exactly like the explicitly rounded configuration *)
  let odd =
    { Config.name = "L1"; size_bytes = 1536; line_bytes = 48; assoc = 2 }
  in
  let rounded =
    { Config.name = "L1"; size_bytes = 1024; line_bytes = 32; assoc = 2 }
  in
  let l2 = { Config.name = "L2"; size_bytes = 8192; line_bytes = 64; assoc = 8 } in
  let run l1 =
    let c = Cache.create (tiny_config ~l1 ~l2) in
    (* deterministic pseudo-random mix of reads and writes *)
    let x = ref 12345 in
    for _ = 1 to 2000 do
      x := (!x * 1103515245) + 12345;
      let r = (!x lsr 16) land 0xffff in
      Cache.access c ~addr:(r * 8) ~write:(r land 3 = 0)
    done;
    (Cache.l1_stats c, Cache.l2_stats c)
  in
  let s1, s1' = run odd and s2, s2' = run rounded in
  let eq name (a : Cache.stats) (b : Cache.stats) =
    Alcotest.(check (float 0.0)) (name ^ " accesses") b.Cache.accesses a.Cache.accesses;
    Alcotest.(check (float 0.0)) (name ^ " misses") b.Cache.misses a.Cache.misses;
    Alcotest.(check (float 0.0)) (name ^ " evicts") b.Cache.evicts a.Cache.evicts;
    Alcotest.(check (float 0.0)) (name ^ " writebacks") b.Cache.writebacks a.Cache.writebacks
  in
  eq "l1" s1 s2;
  eq "l2" s1' s2'

let test_config_validate () =
  Alcotest.(check (list string)) "default config is clean" []
    (Config.validate config);
  let bad =
    {
      config with
      Config.l1 =
        { Config.name = "L1"; size_bytes = 1536; line_bytes = 48; assoc = 0 };
      Config.vector_width = 3;
    }
  in
  let msgs = Config.validate bad in
  Alcotest.(check bool) "bad geometry reported" true (msgs <> []);
  Alcotest.(check bool) "mentions the rounded line size" true
    (List.exists (fun m -> String.length m > 0 && String.index_opt m '3' <> None)
       msgs)

let test_cache_probe_hit_run () =
  (* l1_probe + l1_hit_run must leave the cache in exactly the state the
     per-access path produces: identical stats now AND identical eviction
     behavior later (stamps and dirty bits match) *)
  let l1 = { Config.name = "L1"; size_bytes = 256; line_bytes = 64; assoc = 4 } in
  let l2 = { Config.name = "L2"; size_bytes = 8192; line_bytes = 64; assoc = 8 } in
  let cfg = tiny_config ~l1 ~l2 in
  let addrs = [| 0; 64; 128 |] in
  let writes = [| false; true; false |] in
  let warm c =
    Array.iteri (fun j a -> Cache.access c ~addr:a ~write:writes.(j)) addrs
  in
  let tail c =
    (* 5-line cyclic walk: evicts in LRU order, exposing any stamp skew *)
    for _ = 1 to 3 do
      for i = 0 to 4 do
        Cache.access c ~addr:(i * 64) ~write:false
      done
    done
  in
  let generic = Cache.create cfg in
  warm generic;
  for _ = 1 to 7 do
    Array.iteri (fun j a -> Cache.access generic ~addr:a ~write:writes.(j)) addrs
  done;
  tail generic;
  let fused = Cache.create cfg in
  warm fused;
  let lines = Array.map (fun a -> a / 64) addrs in
  let slots = Array.make 3 0 in
  Alcotest.(check bool) "probe finds the warm lines" true
    (Cache.l1_probe fused ~lines ~n:3 ~slots);
  Cache.l1_hit_run fused ~slots ~writes ~k:3 ~n:7;
  tail fused;
  Alcotest.(check int) "clocks agree" (Cache.clock generic) (Cache.clock fused);
  let sg = Cache.l1_stats generic and sf = Cache.l1_stats fused in
  Alcotest.(check (float 0.0)) "accesses agree" sg.Cache.accesses sf.Cache.accesses;
  Alcotest.(check (float 0.0)) "misses agree" sg.Cache.misses sf.Cache.misses;
  Alcotest.(check (float 0.0)) "evicts agree" sg.Cache.evicts sf.Cache.evicts;
  let wg = Cache.l2_stats generic and wf = Cache.l2_stats fused in
  Alcotest.(check (float 0.0)) "dirty writebacks agree" wg.Cache.accesses
    wf.Cache.accesses

let test_cache_flush_keeps_stats () =
  let c = Cache.create config in
  Cache.access c ~addr:0 ~write:false;
  Cache.flush_l1 c;
  Cache.access c ~addr:0 ~write:false;
  let s = Cache.l1_stats c in
  Alcotest.(check int) "flush forgets the line" 2 (int_of_float s.Cache.misses);
  Alcotest.(check int) "flush keeps counts" 2 (int_of_float s.Cache.accesses)

let test_line_granular_agrees_on_streams () =
  (* line-granular stepping must charge the same misses / evicts /
     writebacks / loads / stores as per-element simulation on unit-stride
     streams — only raw L1 access (port probe) counts differ by design *)
  let module Trace = Daisy_machine.Trace in
  let module Tb = Daisy_machine.Trace_bc in
  (* line stepping alone: adaptive block sampling switched off *)
  let line_step_only =
    { Tb.default_approx with Tb.block = 1; tol = 0.0; min_trip = max_int }
  in
  let p =
    lower
      {|void f(int n, double A[n], double B[n], double C[n]) {
          for (int r = 0; r < 4; r++)
            for (int i = 0; i < n; i++)
              C[i] = A[i] * 2.0 + B[i];
        }|}
  in
  let sizes = [ ("n", 300) ] in
  let exact = Trace.run config p ~sizes () in
  let line = Tb.run config p ~sizes ~approx:line_step_only () in
  List.iter2
    (fun (e : Trace.counters) (l : Trace.counters) ->
      let same name a b =
        Alcotest.(check bool)
          (Printf.sprintf "%s equal (%.1f vs %.1f)" name a b)
          true
          (Int64.bits_of_float a = Int64.bits_of_float b)
      in
      same "loads" e.Trace.loads l.Trace.loads;
      same "stores" e.Trace.stores l.Trace.stores;
      same "flops" e.Trace.flops l.Trace.flops;
      same "l1 misses" e.Trace.l1.Cache.misses l.Trace.l1.Cache.misses;
      same "l1 evicts" e.Trace.l1.Cache.evicts l.Trace.l1.Cache.evicts;
      same "l1 writebacks" e.Trace.l1.Cache.writebacks
        l.Trace.l1.Cache.writebacks;
      same "l2 misses" e.Trace.l2.Cache.misses l.Trace.l2.Cache.misses;
      same "l2 writebacks" e.Trace.l2.Cache.writebacks
        l.Trace.l2.Cache.writebacks;
      (* 3 arrays x 300 elements x 4 sweeps = 3600 element accesses but
         only one line touch per 8 elements *)
      Alcotest.(check bool) "line touches fewer than element accesses" true
        (l.Trace.l1.Cache.accesses < e.Trace.l1.Cache.accesses))
    exact line

(* ------------------------------------------------------------------ *)
(* Cost model shapes *)

let copy_rowmajor =
  {|void f(int n, double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++)
          A[i][j] = B[i][j];
    }|}

let copy_colmajor =
  {|void f(int n, double A[n][n], double B[n][n]) {
      for (int j = 0; j < n; j++)
        for (int i = 0; i < n; i++)
          A[i][j] = B[i][j];
    }|}

let test_strided_slower () =
  let sizes = [ ("n", 128) ] in
  let good = ms (lower copy_rowmajor) ~sizes () in
  let bad = ms (lower copy_colmajor) ~sizes () in
  Alcotest.(check bool)
    (Printf.sprintf "column-major %.3f ms slower than row-major %.3f ms" bad good)
    true
    (bad > 2.0 *. good)

let gemm_order order =
  Printf.sprintf
    {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
        %s
              C[i][j] += A[i][k] * B[k][j];
      }|}
    (String.concat "\n"
       (List.map
          (fun v -> Printf.sprintf "for (int %s = 0; %s < n; %s++)" v v v)
          order))

let test_gemm_order_matters () =
  let sizes = [ ("n", 96) ] in
  let ikj = ms (lower (gemm_order [ "i"; "k"; "j" ])) ~sizes () in
  let jki = ms (lower (gemm_order [ "j"; "k"; "i" ])) ~sizes () in
  Alcotest.(check bool)
    (Printf.sprintf "jki %.3f ms slower than ikj %.3f ms" jki ikj)
    true (jki > 1.5 *. ikj)

let test_vectorization_helps () =
  let p =
    lower
      {|void f(int n, double A[n], double B[n], double C[n]) {
          for (int i = 0; i < n; i++)
            C[i] = C[i] + A[i] * B[i] + A[i] * A[i] + B[i] * B[i] + 1.0;
        }|}
  in
  let sizes = [ ("n", 512) ] in
  let scalar = ms p ~sizes () in
  let vectorized =
    match p.Ir.body with
    | [ Ir.Nloop l ] -> (
        match Transforms.vectorize ~outer:[] l with
        | Ok l' -> { p with Ir.body = [ Ir.Nloop l' ] }
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "expected one nest"
  in
  let vec = ms vectorized ~sizes () in
  Alcotest.(check bool)
    (Printf.sprintf "vectorized %.4f ms faster than scalar %.4f ms" vec scalar)
    true (vec < scalar)

let test_parallel_speedup_and_saturation () =
  (* compute-heavy kernel: near-linear scaling *)
  let p =
    lower
      {|void f(int n, double A[n][n]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < n; j++)
              A[i][j] = A[i][j] * A[i][j] + A[i][j] * 2.0 + sqrt(A[i][j]);
        }|}
  in
  let p =
    match p.Ir.body with
    | [ Ir.Nloop l ] -> (
        match Transforms.parallelize ~outer:[] l 0 with
        | Ok l' -> { p with Ir.body = [ Ir.Nloop l' ] }
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "one nest"
  in
  let sizes = [ ("n", 128) ] in
  let t1 = ms p ~sizes ~threads:1 () in
  let t8 = ms p ~sizes ~threads:8 () in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads (%.4f) at least 4x faster than 1 (%.4f)" t8 t1)
    true
    (t1 /. t8 > 4.0)

let test_atomic_reduction_expensive () =
  (* a parallel-with-atomics reduction must cost much more than the
     sequential version of the same loop *)
  let src =
    {|void f(int n, double A[n][n], double s[1]) {
        for (int i = 0; i < n; i++)
          for (int j = 0; j < n; j++)
            s[0] += A[i][j];
      }|}
  in
  let p = lower src in
  let sizes = [ ("n", 64) ] in
  let seq = ms p ~sizes ~threads:8 () in
  let atomic =
    match p.Ir.body with
    | [ Ir.Nloop l ] ->
        let attrs = { l.Ir.attrs with Ir.parallel = true; atomic = true } in
        { p with Ir.body = [ Ir.Nloop { l with Ir.attrs = attrs } ] }
    | _ -> Alcotest.fail "one nest"
  in
  let at = ms atomic ~sizes ~threads:8 () in
  Alcotest.(check bool)
    (Printf.sprintf "atomic %.4f slower than sequential %.4f" at seq)
    true (at > 2.0 *. seq)

let test_sampling_consistent () =
  let p = lower (gemm_order [ "i"; "k"; "j" ]) in
  let sizes = [ ("n", 64) ] in
  let full = Cost.evaluate config p ~sizes () in
  let sampled = Cost.evaluate config p ~sizes ~sample_outer:16 () in
  let rel =
    Float.abs (full.Cost.total_cycles -. sampled.Cost.total_cycles)
    /. full.Cost.total_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled within 20%% (rel diff %.3f)" rel)
    true (rel < 0.2)

let test_libcall_near_peak () =
  (* a gemm libcall must beat the naive loop nest *)
  let n = 96 in
  let p_loop = lower (gemm_order [ "i"; "k"; "j" ]) in
  let call =
    Ir.Ncall
      {
        Ir.kid = Ir.fresh_id ();
        kernel = "gemm";
        args = [ "C"; "A"; "B" ];
        scalar_args = [ Ir.Vfloat 1.0 ];
        dims = Daisy_poly.Expr.[ var "n"; var "n"; var "n" ];
        writes_to = [ "C" ];
      }
  in
  let p_call = { p_loop with Ir.body = [ call ] } in
  let sizes = [ ("n", n) ] in
  let t_loop = ms p_loop ~sizes () in
  let t_call = ms p_call ~sizes () in
  Alcotest.(check bool)
    (Printf.sprintf "BLAS call %.4f faster than loop %.4f" t_call t_loop)
    true (t_call < t_loop)

let test_flop_accounting () =
  let p =
    lower
      {|void f(int n, double A[n]) {
          for (int i = 0; i < n; i++)
            A[i] = A[i] * 2.0 + 1.0;
        }|}
  in
  let r = Cost.evaluate config p ~sizes:[ ("n", 100) ] () in
  Alcotest.(check int) "2 flops x 100" 200 (int_of_float r.Cost.total_flops)

let test_peak_flops () =
  Alcotest.(check bool) "peak is positive" true (Config.peak_mflops config > 0.0)

let test_spill_model () =
  (* a huge unrolled body must generate spill traffic; the same body
     without unrolling must not *)
  let p =
    lower
      {|void f(int n, double A[n], double B[n], double C[n], double D[n]) {
          for (int i = 0; i < n; i++) {
            double t0 = A[i] * B[i] + C[i] * D[i];
            double t1 = A[i] + B[i] + C[i] + D[i];
            double t2 = t0 * t1 + A[i];
            double t3 = t0 - t1 * B[i];
            A[i] = t2 * t3;
            B[i] = t2 + t3;
          }
        }|}
  in
  let sizes = [ ("n", 256) ] in
  let with_unroll factor =
    match p.Ir.body with
    | [ Ir.Nloop l ] ->
        { p with Ir.body = [ Ir.Nloop { l with Ir.attrs = { l.Ir.attrs with Ir.unroll = factor } } ] }
    | _ -> Alcotest.fail "one nest"
  in
  let loads q = (Cost.evaluate config q ~sizes ()).Cost.l1_loads in
  Alcotest.(check bool) "unroll 8 spills" true
    (loads (with_unroll 8) > loads p)

let test_vector_ports_cheaper () =
  (* a vectorized cache-resident loop uses fewer L1 port slots, so an
     L1-bound kernel speeds up when vectorized (the repeat loop keeps the
     data resident so DRAM is not the binding constraint) *)
  let p =
    lower
      {|void f(int n, int reps, double A[n], double B[n], double C[n], double D[n]) {
          for (int r = 0; r < reps; r++)
            for (int i = 0; i < n; i++)
              A[i] = B[i] + C[i] + D[i];
        }|}
  in
  let sizes = [ ("n", 128); ("reps", 50) ] in
  let vec =
    match p.Ir.body with
    | [ Ir.Nloop l ] -> (
        match Transforms.vectorize ~outer:[] l with
        | Ok l' -> { p with Ir.body = [ Ir.Nloop l' ] }
        | Error e -> Alcotest.fail e)
    | _ -> Alcotest.fail "one nest"
  in
  let t q = Cost.milliseconds (Cost.evaluate config q ~sizes ()) in
  Alcotest.(check bool) "vectorized streaming faster" true (t vec < t p)

let suite =
  [
    ("register spill model", `Quick, test_spill_model);
    ("vector loads use fewer ports", `Quick, test_vector_ports_cheaper);
    ("cache sequential walk", `Quick, test_cache_basic);
    ("cache direct-mapped conflicts", `Quick, test_cache_direct_mapped_conflict);
    ("cache single-set LRU", `Quick, test_cache_single_set_lru);
    ("cache writeback accounting", `Quick, test_cache_writeback_accounting);
    ("cache non-pow2 geometry rounds", `Quick, test_cache_nonpow2_geometry);
    ("config validation", `Quick, test_config_validate);
    ("cache probe + hit-run", `Quick, test_cache_probe_hit_run);
    ("cache flush keeps stats", `Quick, test_cache_flush_keeps_stats);
    ("line-granular stream agreement", `Quick, test_line_granular_agrees_on_streams);
    ("cache temporal reuse", `Quick, test_cache_reuse_hit);
    ("cache capacity eviction", `Quick, test_cache_capacity_eviction);
    ("cache dirty writeback", `Quick, test_cache_dirty_writeback);
    ("cache L2 behind L1", `Quick, test_cache_l2_catches_l1_misses);
    ("strided copy slower", `Quick, test_strided_slower);
    ("gemm loop order matters", `Quick, test_gemm_order_matters);
    ("vectorization helps", `Quick, test_vectorization_helps);
    ("parallel speedup", `Quick, test_parallel_speedup_and_saturation);
    ("atomic reductions expensive", `Quick, test_atomic_reduction_expensive);
    ("outer-loop sampling consistent", `Quick, test_sampling_consistent);
    ("BLAS libcall near peak", `Quick, test_libcall_near_peak);
    ("flop accounting", `Quick, test_flop_accounting);
    ("peak flops", `Quick, test_peak_flops);
  ]
