(** Bechamel micro-benchmarks of the toolchain itself: how fast the
    compiler machinery (parsing, dependence testing, normalization, cache
    simulation, scheduling) runs. One [Test.make] per component. *)

module Pb = Daisy_benchmarks.Polybench
module Pipeline = Daisy_normalize.Pipeline
module Cost = Daisy_machine.Cost
module Config = Daisy_machine.Config
open Bechamel
open Toolkit

let gemm_src = Pb.gemm.Pb.source

let test_parse =
  Test.make ~name:"frontend: parse+sema+lower gemm"
    (Staged.stage (fun () ->
         ignore (Daisy_lang.Lower.program_of_string gemm_src)))

let test_lift =
  Test.make ~name:"lift: gemm through lir"
    (Staged.stage (fun () ->
         ignore
           (Daisy_lift.Lift.lift (Daisy_lir.From_ast.func_of_string gemm_src))))

let program = Daisy_lang.Lower.program_of_string gemm_src

let gemm_band_vectors =
  let nest =
    match (Daisy_normalize.Iter_norm.run program).Daisy_loopir.Ir.body with
    | Daisy_loopir.Ir.Nloop l :: _ -> l
    | _ -> assert false
  in
  let band, body = Daisy_dependence.Legality.perfect_band nest in
  fun () ->
    ignore (Daisy_dependence.Legality.band_dep_vectors ~outer:[] band body)

(* the pair tests themselves: the memo is emptied before every run *)
let test_dependence =
  Test.make ~name:"dependence: band vectors of gemm nest"
    (Staged.stage (fun () ->
         Daisy_dependence.Test.clear_memo ();
         gemm_band_vectors ()))

(* the same questions answered from the memo *)
let test_dependence_warm =
  Test.make ~name:"dependence: band vectors of gemm (memo warm)"
    (Staged.stage gemm_band_vectors)

let test_normalize =
  Test.make ~name:"normalize: full pipeline on gemm"
    (Staged.stage (fun () ->
         ignore (Pipeline.normalize ~sizes:Pb.gemm.Pb.sim_sizes program)))

let test_simulate =
  Test.make ~name:"machine: simulate gemm (sampled)"
    (Staged.stage (fun () ->
         ignore
           (Cost.evaluate Config.default program ~sizes:Pb.gemm.Pb.sim_sizes
              ~sample_outer:8 ())))

let test_interp =
  Test.make ~name:"interp: execute gemm (tiny)"
    (Staged.stage (fun () ->
         ignore
           (Daisy_interp.Interp.run_fresh program ~sizes:Pb.gemm.Pb.test_sizes
              ())))

let benchmarks =
  [ test_parse; test_lift; test_dependence; test_dependence_warm;
    test_normalize; test_simulate; test_interp ]

(** Median-of-[reps] wall-clock of [f]. *)
let median_time reps f =
  let times =
    List.init reps (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ();
        Unix.gettimeofday () -. t0)
  in
  List.nth (List.sort compare times) (reps / 2)

(* ------------------------------------------------------------------ *)
(* Trace engines: tree walker vs bytecode vs sampled (BENCH_trace.json)  *)

module Trace = Daisy_machine.Trace
module Tb = Daisy_machine.Trace_bc

(** Per-candidate comparison set: the kernels whose cost-model walks
    dominate scheduler search time, at the same sizes and outer-sample
    budget the schedulers use. *)
let trace_cases ~smoke =
  let pb names =
    List.map
      (fun name ->
        let b = Pb.find name in
        (b.Pb.name, Pb.program b, b.Pb.sim_sizes))
      names
  in
  if smoke then pb [ "gemm"; "atax" ]
  else
    pb
      [ "gemm"; "2mm"; "gemver"; "atax"; "correlation"; "covariance";
        "jacobi-2d"; "heat-3d"; "seidel-2d" ]
    @ [ (let p, s = Daisy_benchmarks.Cloudsc.erosion_original ~iters:8 in
         ("cloudsc-erosion", p, s)) ]

let trace_sample_outer = 12

type trace_row = {
  tkernel : string;
  tsizes : (string * int) list;
  tree_s : float;
  tbytecode_s : float;  (** unfused bytecode walk (the schema-2 baseline) *)
  tfused_s : float;  (** fused addressing + batched stream replay *)
  approx_s : float;
  lat_p50_s : float;  (** per-candidate fused-evaluation latency quantiles *)
  lat_p95_s : float;
  lat_p99_s : float;
  exact_identical : bool;
  approx_rel_err : float;
}

type e2e_row = { engine_name : string; seed_s : float }

(** Perf-trajectory record for the cost-model fast path: per-kernel
    wall-clock of the engines plus the exactness/accuracy checks, and
    end-to-end scheduling-database seeding per engine. Schema 6 drops
    the [tree] seeding row ([Cost] no longer runs the tree walker;
    [tree_s] still times it per walk); schema 5 dropped schema 4's
    simulation-memo columns, and schema 4 schema 3's closure-engine
    columns. Every other column keeps its meaning ([bytecode_s] is still
    the unfused walk), so trajectories stay comparable across schemas.
    Accumulated across PRs by CI (see docs/performance.md). *)
let write_trace_json ~path (rows : trace_row list) (e2e : e2e_row list) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"trace\",\n  \"schema\": 6,\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      let sizes =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) r.tsizes)
      in
      out
        "    {\"kernel\": \"%s\", \"sizes\": {%s}, \"tree_s\": %.6f, \
         \"bytecode_s\": %.6f, \"fused_s\": %.6f, \"approx_s\": %.6f, \
         \"speedup_bytecode\": %.2f, \
         \"speedup_fused\": %.2f, \"speedup_approx\": %.2f, \
         \"lat_p50_s\": %.6f, \"lat_p95_s\": %.6f, \"lat_p99_s\": %.6f, \
         \"exact_identical\": %b, \"approx_rel_err\": %.4f}%s\n"
        r.tkernel sizes r.tree_s r.tbytecode_s r.tfused_s r.approx_s
        (r.tree_s /. r.tbytecode_s)
        (r.tbytecode_s /. r.tfused_s)
        (r.tree_s /. r.approx_s)
        r.lat_p50_s r.lat_p95_s r.lat_p99_s r.exact_identical r.approx_rel_err
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n  \"end_to_end\": [\n";
  List.iteri
    (fun i e ->
      out "    {\"engine\": \"%s\", \"seed_s\": %.6f}%s\n" e.engine_name
        e.seed_s
        (if i = List.length e2e - 1 then "" else ","))
    e2e;
  out "  ]\n}\n";
  close_out oc

(** [percentile sorted q] — nearest-rank quantile of an ascending array. *)
let percentile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) idx))

let trace_cycles engine p ~sizes =
  (Cost.evaluate Config.default p ~sizes ~threads:1
     ~sample_outer:trace_sample_outer ~engine ())
    .Cost.total_cycles

(** End-to-end: seed the scheduling database (Evolve.search inside) with
    each [Cost] engine. The work is identical modulo the engine, so the
    ratio is the real-world speedup a scheduler run sees. Only jacobi-2d
    searches: the idiom detector replaces gemm and atax by library calls
    before any cost-model walk, so the smoke seeds jacobi-2d alone. *)
let trace_seed_wallclock ~smoke (engine : Cost.engine) =
  let module S = Daisy_scheduler in
  let kernels = if smoke then [ Pb.jacobi_2d ] else [ Pb.gemm; Pb.atax; Pb.jacobi_2d ] in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (b : Pb.benchmark) ->
      let ctx =
        S.Common.make_ctx ~threads:12 ~sample_outer:trace_sample_outer ~engine
          ~sizes:b.Pb.sim_sizes ()
      in
      let db = S.Database.create () in
      S.Seed.seed_database ~epochs:1 ~population:6 ~iterations:2 ctx ~db
        [ (b.Pb.name, Pb.program b) ])
    kernels;
  Unix.gettimeofday () -. t0

(** [trace_bench ~smoke ()] — wall-clock of the tree trace walker (the
    oracle, [Trace.run]) vs the flat-bytecode engine, unfused and fused
    (both bit-identical to the tree), and the sampled engine
    (approximate), written to BENCH_trace.json. [~smoke:true] restricts
    to two kernels with one repetition (the CI smoke configuration). *)
let trace_bench ?(smoke = false) () =
  let reps = if smoke then 1 else 3 in
  let rows =
    List.map
      (fun (name, p, sizes) ->
        let tree_s =
          median_time reps (fun () ->
              ignore
                (Trace.run Config.default p ~sizes
                   ~sample_outer:trace_sample_outer ()))
        in
        let tbytecode_s =
          median_time reps (fun () ->
              ignore
                (Tb.run Config.default p ~sizes
                   ~sample_outer:trace_sample_outer ~batch:false ()))
        in
        (* fused path: collect every repetition so the per-candidate
           latency percentiles see the full distribution, not the median *)
        let lat_samples = if smoke then 5 else 15 in
        let lats =
          Array.init lat_samples (fun _ ->
              let t0 = Unix.gettimeofday () in
              ignore
                (Tb.run Config.default p ~sizes
                   ~sample_outer:trace_sample_outer ~batch:true ());
              Unix.gettimeofday () -. t0)
        in
        Array.sort compare lats;
        let tfused_s = percentile lats 0.5 in
        let approx_s =
          median_time reps (fun () ->
              ignore
                (Tb.run Config.default p ~sizes
                   ~sample_outer:trace_sample_outer ~approx:Tb.default_approx
                   ()))
        in
        let tree_counters =
          Trace.run Config.default p ~sizes ~sample_outer:trace_sample_outer ()
        in
        let exact_identical =
          List.for_all2 Trace.counters_equal tree_counters
            (Tb.run Config.default p ~sizes ~sample_outer:trace_sample_outer
               ~batch:false ())
          && List.for_all2 Trace.counters_equal tree_counters
               (Tb.run Config.default p ~sizes
                  ~sample_outer:trace_sample_outer ~batch:true ())
        in
        let c_exact = trace_cycles Cost.Bytecode p ~sizes in
        let c_approx = trace_cycles (Cost.Approx Tb.default_approx) p ~sizes in
        let approx_rel_err = Float.abs (c_approx -. c_exact) /. c_exact in
        { tkernel = name; tsizes = sizes; tree_s; tbytecode_s;
          tfused_s; approx_s;
          lat_p50_s = percentile lats 0.5;
          lat_p95_s = percentile lats 0.95;
          lat_p99_s = percentile lats 0.99;
          exact_identical; approx_rel_err })
      (trace_cases ~smoke)
  in
  Format.printf "@.Trace engines: tree walker vs bytecode \
                 (unfused/fused) vs sampled@.";
  Format.printf "  %-16s %10s %12s %10s %8s %7s %6s@." "kernel"
    "tree (s)" "bytecode (s)" "fused (s)" "fused-x" "exact" "err";
  List.iter
    (fun r ->
      Format.printf "  %-16s %10.5f %12.5f %10.5f %7.2fx %7b %5.1f%%@."
        r.tkernel r.tree_s r.tbytecode_s r.tfused_s
        (r.tbytecode_s /. r.tfused_s)
        r.exact_identical
        (100.0 *. r.approx_rel_err);
      Format.printf "  %-16s latency p50 %.5f s  p95 %.5f s  p99 %.5f s@." ""
        r.lat_p50_s r.lat_p95_s r.lat_p99_s)
    rows;
  let geomean xs = exp (List.fold_left (fun a x -> a +. log x) 0.0 xs
                        /. float_of_int (List.length xs)) in
  Format.printf
    "  geomean speedup vs tree: bytecode %.1fx, fused %.1fx, approx %.1fx@."
    (geomean (List.map (fun r -> r.tree_s /. r.tbytecode_s) rows))
    (geomean (List.map (fun r -> r.tree_s /. r.tfused_s) rows))
    (geomean (List.map (fun r -> r.tree_s /. r.approx_s) rows));
  (* regression guard against the schema-2 baseline: the fused engine must
     beat the unfused bytecode walk by >= 2x geomean, and every kernel
     must stay bit-identical to the tree oracle. CI greps "guard: ok". *)
  let fused_geo = geomean (List.map (fun r -> r.tbytecode_s /. r.tfused_s) rows) in
  let all_exact = List.for_all (fun r -> r.exact_identical) rows in
  Format.printf
    "  fused-over-unfused geomean: %.2fx (bar: >= 2x), exact: %b -> guard: \
     %s@."
    fused_geo all_exact
    (if fused_geo >= 2.0 && all_exact then "ok" else "FAIL");
  let e2e =
    List.map
      (fun (engine_name, engine) ->
        { engine_name; seed_s = trace_seed_wallclock ~smoke engine })
      [ ("bytecode", Cost.Bytecode); ("approx", Cost.Approx Tb.default_approx) ]
  in
  Format.printf "@.End-to-end database seeding (Evolve.search inside):@.";
  List.iter
    (fun e -> Format.printf "  %-10s %8.3f s@." e.engine_name e.seed_s)
    e2e;
  write_trace_json ~path:"BENCH_trace.json" rows e2e;
  Format.printf "  [wrote BENCH_trace.json]@."

let trace_bench_full () = trace_bench ()
let trace_bench_smoke () = trace_bench ~smoke:true ()

(* ------------------------------------------------------------------ *)
(* Parallel database seeding: wall-clock with 1 vs 4 worker domains     *)

let seed_kernels =
  [ Pb.gemm; Pb.two_mm; Pb.syrk; Pb.gemver; Pb.atax; Pb.bicg; Pb.mvt;
    Pb.jacobi_2d ]

let seed_wallclock ~jobs =
  let module S = Daisy_scheduler in
  let module Pool = Daisy_support.Pool in
  let t0 = Unix.gettimeofday () in
  Pool.with_pool ~jobs (fun pool ->
      Pool.map ?pool
        (fun (b : Pb.benchmark) ->
          let shard = S.Database.create () in
          let ctx =
            S.Common.make_ctx ~threads:12 ~sample_outer:12
              ~sizes:b.Pb.sim_sizes ()
          in
          S.Seed.seed_database ~epochs:3 ~population:8 ~iterations:3 ?pool ctx
            ~db:shard
            [ (b.Pb.name, Pb.program b) ];
          shard)
        seed_kernels
      |> List.map S.Database.entries)
  |> fun entries ->
  (Unix.gettimeofday () -. t0, List.concat entries)

let seed_speedup () =
  Format.printf "@.Database seeding wall-clock (%d kernels, 3 epochs)@."
    (List.length seed_kernels);
  let t1, e1 = seed_wallclock ~jobs:1 in
  let t4, e4 = seed_wallclock ~jobs:4 in
  Format.printf "  --jobs 1: %8.3f s@." t1;
  Format.printf "  --jobs 4: %8.3f s   (speedup %.2fx on %d cores)@." t4
    (t1 /. t4)
    (Domain.recommended_domain_count ());
  let identical =
    List.length e1 = List.length e4
    && List.for_all2
         (fun (a : Daisy_scheduler.Database.entry) b ->
           String.equal a.Daisy_scheduler.Database.source
             b.Daisy_scheduler.Database.source
           && Daisy_transforms.Recipe.equal a.Daisy_scheduler.Database.recipe
                b.Daisy_scheduler.Database.recipe)
         e1 e4
  in
  Format.printf "  parallel == sequential entries: %b@." identical

(* ------------------------------------------------------------------ *)
(* Partitioned index: query latency vs database size (BENCH_ann.json)  *)

module Embedding = Daisy_embedding.Embedding
module Rng = Daisy_support.Rng
module Database = Daisy_scheduler.Database

(** Synthetic embedding databases shaped like the real thing: each
    coordinate of a real embedding is a log-compressed count, and a big
    recipe database is a union of kernel families, not uniform noise —
    so vectors are drawn as jittered copies of a few hundred cluster
    centres on the log-compressed grid. Deterministic per size. *)
let synth_embeddings n : float array array =
  let rng = Rng.of_string (Printf.sprintf "bench-ann-%d" n) in
  let log_compress x = if x > 1.0 then 1.0 +. log x else x in
  let centres =
    Array.init (min 512 (max 8 (n / 16))) (fun _ ->
        Array.init Embedding.dim (fun _ ->
            log_compress (float_of_int (Rng.int rng 4096))))
  in
  Array.init n (fun _ ->
      let c = centres.(Rng.int rng (Array.length centres)) in
      Array.map
        (fun v ->
          if Rng.int rng 4 = 0 then v +. (0.25 *. Rng.float rng) else v)
        c)

let synth_queries rng (vecs : float array array) : float array list =
  List.init 20 (fun _ ->
      let v = vecs.(Rng.int rng (Array.length vecs)) in
      Array.map
        (fun x -> if Rng.int rng 8 = 0 then x +. (0.1 *. Rng.float rng) else x)
        v)

let synth_entries_of vecs : Database.entry list =
  Array.to_list
    (Array.mapi
       (fun i v ->
         {
           Database.source = Printf.sprintf "synth:%d" i;
           embedding = v;
           recipe = [];
           canon_hash = i;
           cost_ms = float_of_int (i land 0xff);
         })
       vecs)

type ann_row = {
  an : int;
  parts : int;  (** parts of the index *)
  scan_s : float;  (** per-query seconds, linear scan *)
  build_s : float;  (** [Database.build_index] *)
  query_s : float;  (** per-query seconds, indexed *)
  agree : bool;  (** exact top-k agreement on every query *)
}

(** Perf-trajectory record for the in-memory index: per-query latency of
    the linear scan vs the partition's best-bin-first search across
    database sizes, plus the exactness check. Schema 3 measures
    [Database.build_index]'s partition and renames the columns ([parts]
    is new; [build_s], [query_s] and [speedup] replace schema 2's
    [kd_build_s], [kd_query_s] and [kd_speedup], which timed the deleted
    k-d tree). Accumulated across PRs by CI (see docs/performance.md). *)
let write_ann_json ~path (rows : ann_row list) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"ann\",\n  \"schema\": 3,\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"n\": %d, \"parts\": %d, \"scan_s\": %.9f, \"build_s\": \
         %.6f, \"query_s\": %.9f, \"speedup\": %.2f, \"agree\": %b}%s\n"
        r.an r.parts r.scan_s r.build_s r.query_s (r.scan_s /. r.query_s)
        r.agree
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

(** [ann_bench ~smoke ()] — top-5 query latency of the linear scan vs
    [Database.build_index]'s partition over synthetic embedding databases
    of 10^2..10^6 entries (10^5 in the smoke configuration), with an
    exact top-k agreement check on every query, written to
    BENCH_ann.json. The acceptance bar (docs/performance.md): at 10^5
    entries the indexed query is >= 10x faster than the scan, and it
    agrees with the scan at every size. CI greps "-> ok". *)
let ann_bench ?(smoke = false) () =
  let k = 5 in
  let reps = if smoke then 1 else 3 in
  let sizes =
    [ 100; 1_000; 10_000; 100_000 ] @ (if smoke then [] else [ 1_000_000 ])
  in
  let rows =
    List.map
      (fun n ->
        let vecs = synth_embeddings n in
        let queries = synth_queries (Rng.of_string "bench-ann-q") vecs in
        let nq = float_of_int (List.length queries) in
        let entries = synth_entries_of vecs in
        let scan = Database.of_entries entries in
        let indexed = Database.of_entries entries in
        let top db q =
          List.map
            (fun (d, (e : Database.entry)) -> (d, e.Database.source))
            (Database.query_embedding db ~k q)
        in
        let time db =
          median_time reps (fun () -> List.iter (fun q -> ignore (top db q)) queries)
          /. nq
        in
        let scan_s = time scan in
        let t0 = Unix.gettimeofday () in
        Database.build_index indexed;
        let build_s = Unix.gettimeofday () -. t0 in
        let query_s = time indexed in
        let agree = List.for_all (fun q -> top indexed q = top scan q) queries in
        { an = n; parts = Database.index_parts indexed; scan_s; build_s; query_s; agree })
      sizes
  in
  Format.printf "@.Partitioned index: top-%d query latency vs database size@." k;
  Format.printf "  %10s %6s %12s %12s %10s %8s %6s@." "entries" "parts" "scan (s)"
    "index (s)" "build (s)" "vs scan" "exact";
  List.iter
    (fun r ->
      Format.printf "  %10d %6d %12.3e %12.3e %10.3e %7.1fx %6b@." r.an r.parts
        r.scan_s r.query_s r.build_s (r.scan_s /. r.query_s) r.agree)
    rows;
  let speedup =
    match List.find_opt (fun r -> r.an = 100_000) rows with
    | Some r -> r.scan_s /. r.query_s
    | None -> 0.0
  in
  let agree = List.for_all (fun r -> r.agree) rows in
  Format.printf
    "  acceptance: at 1e5 entries the partition is %.1fx the scan (bar: >= \
     10x), agreement at every n %b -> %s@."
    speedup agree
    (if speedup >= 10.0 && agree then "ok" else "FAIL");
  write_ann_json ~path:"BENCH_ann.json" rows;
  Format.printf "  [wrote BENCH_ann.json]@."

let ann_bench_full () = ann_bench ()
let ann_bench_smoke () = ann_bench ~smoke:true ()

(* ------------------------------------------------------------------ *)
(* Sharded warm store vs monolithic database (BENCH_shard.json)        *)

module Shardstore = Daisy_scheduler.Shardstore

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type shard_row = {
  zn : int;
  create_s : float;
  shards : int;
  mono_q_s : float;  (** per-query seconds, monolithic scan *)
  shard_q_s : float;  (** per-query seconds, sharded (visited shards scan) *)
  append_s : float;  (** per-entry durable (fsynced) WAL append *)
  compact_s : float;  (** folding the batch: affected shards only *)
  rewritten : int;  (** shards rewritten by that fold *)
  zagree : bool;  (** sharded top-k == monolithic scan, every query *)
}

(** Perf-trajectory record for the sharded store. Schema 2 drops schema
    1's re-index columns ([incremental_reindex_s], [full_reindex_s],
    [reindex_speedup]): shards carry no index, so nothing re-indexes;
    the rest keep their meaning. *)
let write_shard_json ~path (rows : shard_row list) =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"shard\",\n  \"schema\": 2,\n  \"results\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"n\": %d, \"create_s\": %.6f, \"shards\": %d, \
         \"mono_query_s\": %.9f, \"shard_query_s\": %.9f, \"append_s\": \
         %.9f, \"compact_s\": %.6f, \"rewritten\": %d, \"agree\": %b}%s\n"
        r.zn r.create_s r.shards r.mono_q_s r.shard_q_s r.append_s
        r.compact_s r.rewritten r.zagree
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc

(** [shard_bench ~smoke ()] — the sharded warm store against the
    monolithic database across 10^3..10^6 entries (10^5 in the smoke
    configuration): exact top-k parity, per-query latency, durable
    append cost, and the cost of folding an appended batch, which
    rewrites only the affected shards. Acceptance (docs/performance.md):
    the sharded top-k agrees with the scan on every query, and the
    sharded query beats the monolithic scan at every size. Written to
    BENCH_shard.json. *)
let shard_bench ?(smoke = false) () =
  let k = 5 in
  let reps = if smoke then 1 else 3 in
  let sizes =
    [ 1_000; 10_000; 100_000 ] @ (if smoke then [] else [ 1_000_000 ])
  in
  let rows =
    List.map
      (fun n ->
        let vecs = synth_embeddings n in
        let entries = synth_entries_of vecs in
        let mono = Database.of_entries entries in
        let queries = synth_queries (Rng.of_string "bench-shard-q") vecs in
        let nq = float_of_int (List.length queries) in
        let dir = Filename.temp_file "bench-shard" ".d" in
        Sys.remove dir;
        Fun.protect
          ~finally:(fun () -> rm_rf dir)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let st = Shardstore.create dir mono in
            let create_s = Unix.gettimeofday () -. t0 in
            let shards = (Shardstore.stats st).Shardstore.st_shards in
            let snapshot = Shardstore.as_database st in
            let mono_q q =
              List.map
                (fun (d, (e : Database.entry)) -> (d, e.Database.source))
                (Database.query_embedding mono ~k q)
            in
            let shard_q q =
              List.map
                (fun (d, (e : Database.entry)) -> (d, e.Database.source))
                (Database.query_embedding snapshot ~k q)
            in
            let zagree = List.for_all (fun q -> mono_q q = shard_q q) queries in
            let mono_q_s =
              median_time reps (fun () ->
                  List.iter (fun q -> ignore (mono_q q)) queries)
              /. nq
            in
            let shard_q_s =
              median_time reps (fun () ->
                  List.iter (fun q -> ignore (shard_q q)) queries)
              /. nq
            in
            (* a seeding batch lands: durable append, then a fold that
               rewrites only the affected shards *)
            let rng = Rng.of_string (Printf.sprintf "bench-shard-app-%d" n) in
            let batch =
              List.init 16 (fun i ->
                  let base = vecs.(Rng.int rng n) in
                  {
                    Database.source = Printf.sprintf "appended:%d" i;
                    embedding =
                      Array.map (fun v -> v +. (0.01 *. Rng.float rng)) base;
                    recipe = [];
                    canon_hash = n + i;
                    cost_ms = 1.0;
                  })
            in
            let t0 = Unix.gettimeofday () in
            Shardstore.append st batch;
            let append_s =
              (Unix.gettimeofday () -. t0)
              /. float_of_int (List.length batch)
            in
            let t0 = Unix.gettimeofday () in
            let rewritten = Shardstore.compact st in
            let compact_s = Unix.gettimeofday () -. t0 in
            {
              zn = n;
              create_s;
              shards;
              mono_q_s;
              shard_q_s;
              append_s;
              compact_s;
              rewritten;
              zagree;
            }))
      sizes
  in
  Format.printf "@.Sharded warm store vs monolithic database (top-%d)@." k;
  Format.printf "  %9s %7s %12s %12s %12s %10s %5s %6s@." "entries"
    "shards" "scan (s)" "sharded (s)" "append (s)" "fold (s)" "rw" "exact";
  List.iter
    (fun r ->
      Format.printf "  %9d %7d %12.3e %12.3e %12.3e %10.3e %5d %6b@." r.zn
        r.shards r.mono_q_s r.shard_q_s r.append_s r.compact_s r.rewritten
        r.zagree)
    rows;
  Format.printf
    "  acceptance: sharded top-k equals the scan on every query at every \
     size, agreement %b@."
    (List.for_all (fun r -> r.zagree) rows);
  Format.printf "  acceptance: sharded query vs scan:%s; sharded beats scan %b@."
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf " %d %.3e s vs %.3e s (%.1fx)" r.zn r.shard_q_s
              r.mono_q_s (r.mono_q_s /. r.shard_q_s))
          rows))
    (List.for_all (fun r -> r.shard_q_s < r.mono_q_s) rows);
  write_shard_json ~path:"BENCH_shard.json" rows;
  Format.printf "  [wrote BENCH_shard.json]@."

let shard_bench_full () = shard_bench ()
let shard_bench_smoke () = shard_bench ~smoke:true ()

let run () =
  seed_speedup ();
  Format.printf "@.Toolchain micro-benchmarks (bechamel)@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let results =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Format.printf "  %-45s %10.1f ns/run@." name est
          | _ -> Format.printf "  %-45s (no estimate)@." name)
        results)
    benchmarks
