(** The experiment harness: reproduces every table and figure of the
    paper's evaluation. Run all experiments with [dune exec bench/main.exe]
    or a single one by name:

    {v dune exec bench/main.exe -- fig1 fig6 fig7 fig9 table1 fig11 fig12a
       fig12b ablation micro v} *)

let experiments =
  [
    ("fig1", "GEMM loop-structure variants across schedulers", Fig_polybench.fig1);
    ("fig6", "A/B robustness of auto-schedulers on 15 benchmarks", Fig_polybench.fig6);
    ("fig7", "ablation: normalization and transfer tuning in isolation", Fig_polybench.fig7);
    ("fig9", "Python frameworks on NPBench implementations", Fig_python.fig9);
    ("table1", "CLOUDSC erosion kernel before/after", Fig_cloudsc.table1);
    ("fig11", "CLOUDSC full model, sequential", Fig_cloudsc.fig11);
    ("fig12a", "CLOUDSC strong scaling", Fig_cloudsc.fig12a);
    ("fig12b", "CLOUDSC weak scaling", Fig_cloudsc.fig12b);
    ("ablation", "design-choice ablations", Ablation.run);
    ("micro", "toolchain micro-benchmarks (bechamel)", Micro.run);
    ("trace", "trace engines: tree vs bytecode vs sampled (BENCH_trace.json)",
     Micro.trace_bench_full);
    ("trace-smoke", "trace engine comparison, two kernels (CI smoke)",
     Micro.trace_bench_smoke);
    ("ann", "partitioned index: query latency vs database size, 10^2..10^6 (BENCH_ann.json)",
     Micro.ann_bench_full);
    ("ann-smoke", "partitioned index vs scan up to 10^5 entries (CI smoke)",
     Micro.ann_bench_smoke);
    ("shard", "sharded warm store vs monolithic, 10^3..10^6 (BENCH_shard.json)",
     Micro.shard_bench_full);
    ("shard-smoke", "sharded warm store comparison up to 10^5 entries (CI smoke)",
     Micro.shard_bench_smoke);
    ("serve", "daisyd under open-loop load: latency percentiles + shed/degraded (BENCH_serve.json)",
     Loadgen.serve_bench_full);
    ("serve-smoke", "daisyd open-loop load, CI sizes (BENCH_serve.json)",
     Loadgen.serve_bench_smoke);
  ]

let () =
  (* strip --jobs N / --sample-outer N / --trace-engine E options (with
     their --opt=value spellings) before experiment names *)
  let opt_value ~prefix arg =
    let n = String.length prefix in
    if String.length arg > n && String.sub arg 0 n = prefix then
      Some (String.sub arg n (String.length arg - n))
    else None
  in
  let rec parse_args = function
    | [] -> []
    | ("--jobs" | "-j") :: v :: rest ->
        Harness.jobs := int_of_string v;
        parse_args rest
    | "--sample-outer" :: v :: rest ->
        Harness.sample := int_of_string v;
        parse_args rest
    | "--trace-engine" :: v :: rest ->
        Harness.engine := Daisy_machine.Cost.engine_of_string v;
        parse_args rest
    | "--checkpoint" :: v :: rest ->
        Harness.checkpoint := Some v;
        parse_args rest
    | arg :: rest -> (
        match opt_value ~prefix:"--jobs=" arg with
        | Some v ->
            Harness.jobs := int_of_string v;
            parse_args rest
        | None -> (
            match opt_value ~prefix:"--sample-outer=" arg with
            | Some v ->
                Harness.sample := int_of_string v;
                parse_args rest
            | None -> (
                match opt_value ~prefix:"--trace-engine=" arg with
                | Some v ->
                    Harness.engine := Daisy_machine.Cost.engine_of_string v;
                    parse_args rest
                | None -> (
                    match opt_value ~prefix:"--checkpoint=" arg with
                    | Some v ->
                        Harness.checkpoint := Some v;
                        parse_args rest
                    | None -> arg :: parse_args rest))))
  in
  let requested =
    match parse_args (List.tl (Array.to_list Sys.argv)) with
    | [] ->
        (* the smoke variants are CI-only sugar; "run everything" uses the
           full engine comparisons *)
        List.filter_map
          (fun (n, _, _) ->
            if
              n = "trace-smoke" || n = "ann-smoke" || n = "shard-smoke"
            then None
            else Some n)
          experiments
    | names -> names
  in
  Format.printf
    "daisy experiment harness — reproduction of 'A Priori Loop Nest \
     Normalization' (CGO 2025)@.";
  Format.printf
    "All runtimes are simulated milliseconds on the scaled machine model \
     (see DESIGN.md).@.";
  (try
     List.iter
       (fun name ->
         match List.find_opt (fun (n, _, _) -> n = name) experiments with
         | Some (n, desc, f) ->
             Format.printf "@.=== %s: %s ===@." n desc;
             f ()
         | None ->
             Format.printf "unknown experiment %s (available: %s)@." name
               (String.concat ", " (List.map (fun (n, _, _) -> n) experiments)))
       requested
   with
   | Daisy_support.Diag.Error d ->
       Format.eprintf "%a@." Daisy_support.Diag.pp d;
       exit 1
   | Daisy_support.Checkpoint.Interrupted sg ->
       Format.eprintf
         "interrupted (signal %d); checkpoint saved — rerun with the same \
          --checkpoint to resume@."
         sg;
       exit (128 + sg));
  Format.printf "@.done.@."
