(** daisyc — the command-line driver for the daisy toolchain.

    {v
    daisyc parse file.c            print the lowered loop IR
    daisyc lir file.c              print the LLVM-like low-level IR
    daisyc normalize file.c        print the normalized (canonical) IR
    daisyc schedule file.c         normalize + schedule + simulate
    daisyc bench file.c            compare all scheduler models
    v}

    Problem sizes are given as [-D name=value]; unset size parameters
    default to 64. *)

open Cmdliner
module Ir = Daisy.Loopir.Ir
module S = Daisy.Scheduler

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** One error handler for every subcommand: tool-level failures print one
    diagnostic line on stderr and exit nonzero instead of dumping a
    backtrace. Runs after any worker pool has been shut down
    ([Pool.with_pool] unwinds before the exception reaches us). *)
let run_protected f =
  match f () with
  | v -> v
  | exception Daisy.Support.Diag.Error d ->
      Fmt.epr "%a@." Daisy.Support.Diag.pp d;
      exit 1
  | exception Daisy.Lift.Lift.Unsupported reason ->
      Fmt.epr "daisyc: lifting failed: %s@." reason;
      exit 1
  | exception Daisy.Interp.Interp.Runtime_error m ->
      Fmt.epr "daisyc: runtime error: %s@." m;
      exit 1
  | exception Daisy.Support.Budget.Exhausted ->
      Fmt.epr "daisyc: evaluation budget exhausted (see --eval-budget)@.";
      exit 1
  | exception Daisy.Support.Fault.Injected label ->
      Fmt.epr "daisyc: injected fault fired: %s@." label;
      exit 1
  | exception Daisy.Support.Checkpoint.Interrupted sg ->
      Fmt.epr
        "daisyc: interrupted (signal %d); checkpoint saved — rerun with \
         --resume to continue@."
        sg;
      exit (128 + sg)
  | exception Daisy.Support.Util.Deadline_exceeded ->
      Fmt.epr "daisyc: evaluation deadline exceeded (see --eval-deadline)@.";
      exit 1
  | exception Invalid_argument m ->
      Fmt.epr "daisyc: %s@." m;
      exit 1
  | exception Sys_error m ->
      Fmt.epr "daisyc: %s@." m;
      exit 1

let load path =
  run_protected (fun () ->
      Daisy.Lang.Lower.program_of_string ~source:path (read_file path))

let sizes_of (defs : (string * int) list) (p : Ir.program) :
    (string * int) list =
  List.map
    (fun name ->
      match List.assoc_opt name defs with Some v -> (name, v) | None -> (name, 64))
    p.Ir.size_params

(* ---------------- arguments ---------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Kernel source file.")

let define_conv : (string * int) Arg.conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
        let name = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        (try Ok (name, int_of_string v)
         with _ -> Error (`Msg "expected name=int"))
    | None -> Error (`Msg "expected name=int")
  in
  Arg.conv (parse, fun ppf (n, v) -> Fmt.pf ppf "%s=%d" n v)

let defines_arg =
  Arg.(value & opt_all define_conv [] & info [ "D"; "define" ] ~docv:"NAME=N"
         ~doc:"Set a size parameter for simulation.")

let threads_arg =
  Arg.(value & opt int 12 & info [ "j"; "threads" ] ~doc:"Simulated core count.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N"
         ~doc:"Worker domains for parallel search/seeding (results are \
               bit-identical at any job count; see docs/parallelism.md).")

let sample_outer_arg =
  Arg.(value & opt int 12 & info [ "sample-outer" ] ~docv:"N"
         ~doc:"Iterations of each outermost loop the cost model traces \
               (0 = all). Lower is faster but less faithful on \
               non-stationary outer loops.")

let engine_conv : Daisy.Machine.Cost.engine Arg.conv =
  let parse s =
    try Ok (Daisy.Machine.Cost.engine_of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, fun ppf e ->
      Fmt.string ppf (Daisy.Machine.Cost.string_of_engine e))

let engine_arg =
  Arg.(value & opt engine_conv Daisy.Machine.Cost.Bytecode
         & info [ "trace-engine" ] ~docv:"ENGINE"
             ~doc:"Cost-model trace engine: $(b,bytecode) (the flat \
                   trace walk, exact; default) or $(b,approx) (the same \
                   walk, sampled; see docs/performance.md for the \
                   accuracy contract).")

let eval_budget_arg =
  Arg.(value & opt (some int) None & info [ "eval-budget" ] ~docv:"STEPS"
         ~doc:"Abort any single cost-model evaluation after $(docv) \
               simulated iterations (guards against pathological \
               candidates; see docs/robustness.md). Default: unlimited.")

let db_in_arg =
  Arg.(value & opt (some file) None & info [ "db-in" ] ~docv:"FILE"
         ~doc:"Load the transfer-tuning database from a file written by \
               $(b,daisyc seed) instead of seeding it from the input \
               kernel. Corrupt entries are skipped with a warning.")

let eval_deadline_arg =
  Arg.(value & opt (some float) None & info [ "eval-deadline" ] ~docv:"SEC"
         ~doc:"Per-candidate wall-clock deadline for search evaluation, in \
               seconds. A candidate that exceeds it is retried once, then \
               excluded from selection and quarantined (see \
               docs/robustness.md). Default: unlimited.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Checkpoint the run's state to $(docv) (atomically, at every \
               search generation / nest / epoch boundary) so a crashed or \
               interrupted run can be continued with $(b,--resume). The \
               file is consumed on successful completion.")

let resume_arg =
  Arg.(value & flag & info [ "resume" ]
         ~doc:"Resume from the $(b,--checkpoint) file of an earlier \
               interrupted run with the same configuration. The resumed \
               run produces bit-identical results to an uninterrupted \
               one.")

let quarantine_arg =
  Arg.(value & opt (some string) None & info [ "quarantine" ] ~docv:"DIR"
         ~doc:"Supervise the search: candidates that crash, miscompile or \
               blow their $(b,--eval-deadline) are excluded \
               deterministically and a shrunk reproducer is written to \
               $(docv) instead of aborting the run.")

(* ---------------- checkpointing helpers ---------------- *)

(** The configuration a checkpoint is only valid for: everything that
    shapes the search's results. Deliberately excludes [--jobs] (results
    are bit-identical at any job count) and the supervision knobs. *)
let config_fingerprint ~kind ~files ~defs ~threads ~sample_outer ~engine
    ~eval_budget =
  Daisy.Support.Checkpoint.fingerprint
    ([
       ("kind", kind);
       ("files", String.concat "," files);
       ("threads", string_of_int threads);
       ("sample_outer", string_of_int sample_outer);
       ("engine", Daisy.Machine.Cost.string_of_engine engine);
       ( "eval_budget",
         match eval_budget with None -> "none" | Some n -> string_of_int n );
       (* the search shape is currently fixed per subcommand *)
       ("epochs", "1");
       ("population", "6");
       ("iterations", "2");
     ]
    @ List.map
        (fun (n, v) -> ("define:" ^ n, string_of_int v))
        (List.sort compare defs))

let open_checkpoint ~kind ~fingerprint checkpoint resume =
  match checkpoint with
  | None ->
      if resume then invalid_arg "--resume requires --checkpoint FILE";
      None
  | Some path ->
      Daisy.Support.Checkpoint.install_signal_handlers ();
      let j =
        Daisy.Support.Checkpoint.open_journal ~path ~kind ~fingerprint
          ~resume ()
      in
      List.iter
        (fun w -> Fmt.epr "daisyc: warning: %s@." w)
        (Daisy.Support.Checkpoint.warnings j);
      Some j

let make_quarantine dir = Option.map (fun dir -> S.Quarantine.create ~dir ()) dir

let report_quarantine q =
  Option.iter
    (fun q ->
      let n = S.Quarantine.count q in
      if n > 0 then
        Fmt.pr "quarantined %d failing candidate(s) -> %s@." n
          (S.Quarantine.dir q))
    q

(* ---------------- commands ---------------- *)

(** Load a saved database, reporting (but tolerating) corrupt entries. *)
let load_db path =
  let db, warnings = S.Database.load path in
  List.iter (fun w -> Fmt.epr "daisyc: warning: %s@." w) warnings;
  Fmt.pr "loaded database: %d entries (%d warnings)@." (S.Database.size db)
    (List.length warnings);
  db

let parse_cmd =
  let run file =
    let p = load file in
    Fmt.pr "%a@." Ir.pp_program p
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse and print the loop IR")
    Term.(const run $ file_arg)

let lir_cmd =
  let run file =
    run_protected (fun () ->
        let f =
          Daisy.Lir.From_ast.func_of_string ~source:file (read_file file)
        in
        Fmt.pr "%a@." Daisy.Lir.Ir.pp_func f)
  in
  Cmd.v (Cmd.info "lir" ~doc:"Print the LLVM-like low-level IR")
    Term.(const run $ file_arg)

let normalize_cmd =
  let run file defs =
    let p = load file in
    run_protected (fun () ->
        let sizes = sizes_of defs p in
        let normalized, report =
          Daisy.Normalize.Pipeline.run
            ~options:(Daisy.Normalize.Pipeline.default_options ~sizes ())
            p
        in
        Fmt.pr "%a@.@.%a@." Daisy.Normalize.Pipeline.pp_report report
          Ir.pp_program normalized)
  in
  Cmd.v (Cmd.info "normalize" ~doc:"Apply a priori loop nest normalization")
    Term.(const run $ file_arg $ defines_arg)

let schedule_cmd =
  let run file defs threads jobs sample_outer engine eval_budget
      eval_deadline db_in checkpoint resume quarantine_dir =
    let p = load file in
    run_protected (fun () ->
        let sizes = sizes_of defs p in
        let ctx =
          S.Common.make_ctx ~threads ~sample_outer ~engine
            ?eval_steps:eval_budget ?eval_deadline ~sizes ()
        in
        let fingerprint =
          config_fingerprint ~kind:"schedule" ~files:[ file ] ~defs ~threads
            ~sample_outer ~engine ~eval_budget
        in
        let journal =
          open_checkpoint ~kind:"schedule" ~fingerprint checkpoint resume
        in
        let quarantine = make_quarantine quarantine_dir in
        let db =
          match db_in with
          | Some path -> load_db path
          | None ->
              let db = S.Database.create () in
              Daisy.Support.Pool.with_pool ~jobs (fun pool ->
                  S.Seed.seed_database ~epochs:1 ~population:6 ~iterations:2
                    ?pool ?journal ?quarantine ctx ~db
                    [ (p.Ir.pname, p) ]);
              db
        in
        let report = S.Daisy.schedule ?quarantine ctx ~db p in
        Option.iter Daisy.Support.Checkpoint.delete journal;
        report_quarantine quarantine;
        List.iter
          (fun d -> Fmt.pr "  %a@." S.Daisy.pp_decision d)
          report.S.Daisy.decisions;
        Fmt.pr "@.%a@." Ir.pp_program report.S.Daisy.program;
        Fmt.pr "@.simulated runtime: %.3f ms (original %.3f ms, %.2fx)@."
          (S.Common.runtime_ms ctx report.S.Daisy.program)
          (S.Common.runtime_ms ctx p)
          (S.Common.runtime_ms ctx p
          /. S.Common.runtime_ms ctx report.S.Daisy.program))
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Normalize, auto-schedule and simulate a kernel")
    Term.(const run $ file_arg $ defines_arg $ threads_arg $ jobs_arg
          $ sample_outer_arg $ engine_arg $ eval_budget_arg $ eval_deadline_arg $ db_in_arg
          $ checkpoint_arg $ resume_arg $ quarantine_arg)

let seed_cmd =
  let run files defs threads jobs sample_outer engine eval_budget
      eval_deadline db_out shard_out shard_cap shard_append_only checkpoint
      resume quarantine_dir =
    let programs = List.map (fun f -> (f, load f)) files in
    run_protected (fun () ->
        if db_out = None && shard_out = None then
          invalid_arg "seed needs --db-out FILE and/or --shard-out DIR";
        let sizes =
          List.concat_map (fun (_, p) -> sizes_of defs p) programs
          |> Daisy.Support.Util.dedup ~eq:(fun (a, _) (b, _) ->
                 String.equal a b)
        in
        let ctx =
          S.Common.make_ctx ~threads ~sample_outer ~engine
            ?eval_steps:eval_budget ?eval_deadline ~sizes ()
        in
        let fingerprint =
          config_fingerprint ~kind:"seed" ~files ~defs ~threads ~sample_outer
            ~engine ~eval_budget
        in
        let journal =
          open_checkpoint ~kind:"seed" ~fingerprint checkpoint resume
        in
        let quarantine = make_quarantine quarantine_dir in
        (* when checkpointing, also flush the bests-so-far database after
           every committed epoch: a crash between epochs still leaves a
           usable --db-out *)
        let on_epoch =
          match (journal, db_out) with
          | Some _, Some out ->
              Some (fun _epoch partial -> S.Database.save partial out)
          | _ -> None
        in
        let db = S.Database.create () in
        Daisy.Support.Pool.with_pool ~jobs (fun pool ->
            S.Seed.seed_database ~epochs:1 ~population:6 ~iterations:2 ?pool
              ?journal ?quarantine ?on_epoch ctx ~db
              (List.map (fun (f, p) -> (p.Ir.pname ^ ":" ^ f, p)) programs));
        Option.iter (fun out -> S.Database.save db out) db_out;
        (* sharded output: create a fresh store, or append to an existing
           one through its WAL and fold + trim at this single-writer
           moment (only the affected shards are rewritten) *)
        Option.iter
          (fun dirname ->
            let module Sh = S.Shardstore in
            if Sh.is_store_dir dirname then begin
              let st = Sh.open_ ~shard_cap dirname in
              Sh.append st (List.rev (S.Database.entries db));
              if shard_append_only then
                Fmt.pr
                  "sharded store: appended %d entries to %s's WAL (%d \
                   pending; folding left to the store's maintainer)@."
                  (S.Database.size db) dirname (Sh.wal_depth st)
              else begin
                let rewritten = Sh.compact ~now:(Unix.gettimeofday ()) st in
                ignore (Sh.trim_wal st);
                Fmt.pr
                  "sharded store: merged %d entries into %s (%d of %d \
                   shard(s) rewritten)@."
                  (S.Database.size db) dirname rewritten
                  (Sh.stats st).Sh.st_shards
              end
            end
            else
              let s = Sh.stats (Sh.create ~shard_cap dirname db) in
              Fmt.pr "sharded store: %d entries in %d shard(s) -> %s@."
                s.Sh.st_entries s.Sh.st_shards dirname)
          shard_out;
        Option.iter Daisy.Support.Checkpoint.delete journal;
        report_quarantine quarantine;
        Option.iter
          (fun out ->
            Fmt.pr "saved database: %d entries -> %s@." (S.Database.size db)
              out)
          db_out)
  in
  let files_arg =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Kernel source files to seed from.")
  in
  let db_out_arg =
    Arg.(value & opt (some string) None & info [ "db-out" ] ~docv:"FILE"
           ~doc:"Where to write the database (versioned, checksummed \
                 format; see docs/robustness.md).")
  in
  let shard_out_arg =
    Arg.(value & opt (some string) None & info [ "shard-out" ] ~docv:"DIR"
           ~doc:"Write (or merge into) a sharded warm store at $(docv): \
                 per-shard segments under a checksummed manifest with a \
                 write-ahead log. An existing store is \
                 appended to through its WAL and compacted — only the \
                 affected shards are rewritten. See docs/robustness.md, \
                 \"Sharded warm store\".")
  in
  let shard_cap_arg =
    Arg.(value & opt int S.Shardstore.default_shard_cap
         & info [ "shard-cap" ] ~docv:"N"
             ~doc:"Split shards past $(docv) entries at compaction.")
  in
  let shard_append_only_arg =
    Arg.(value & flag & info [ "shard-append-only" ]
           ~doc:"With $(b,--shard-out) into an existing store: only \
                 append to the write-ahead log, leaving compaction to \
                 the store's maintainer. Use this when a running \
                 $(b,daisyd) owns the store's background compaction — at \
                 most one process may compact at a time, but an appender \
                 is always safe alongside it.")
  in
  Cmd.v
    (Cmd.info "seed"
       ~doc:"Seed a transfer-tuning database from kernels and save it")
    Term.(const run $ files_arg $ defines_arg $ threads_arg $ jobs_arg
          $ sample_outer_arg $ engine_arg $ eval_budget_arg
          $ eval_deadline_arg $ db_out_arg $ shard_out_arg $ shard_cap_arg
          $ shard_append_only_arg $ checkpoint_arg $ resume_arg
          $ quarantine_arg)

let bench_cmd =
  let run file defs threads jobs sample_outer engine eval_budget
      eval_deadline checkpoint resume quarantine_dir =
    let p = load file in
    run_protected (fun () ->
        let sizes = sizes_of defs p in
        let ctx =
          S.Common.make_ctx ~threads ~sample_outer ~engine
            ?eval_steps:eval_budget ?eval_deadline ~sizes ()
        in
        let fingerprint =
          config_fingerprint ~kind:"bench" ~files:[ file ] ~defs ~threads
            ~sample_outer ~engine ~eval_budget
        in
        let journal =
          open_checkpoint ~kind:"bench" ~fingerprint checkpoint resume
        in
        let quarantine = make_quarantine quarantine_dir in
        let db = S.Database.create () in
        Daisy.Support.Pool.with_pool ~jobs (fun pool ->
            S.Seed.seed_database ~epochs:1 ~population:6 ~iterations:2 ?pool
              ?journal ?quarantine ctx ~db
              [ (p.Ir.pname, p) ]);
        Option.iter Daisy.Support.Checkpoint.delete journal;
        Fmt.pr "%-10s %10s@." "scheduler" "ms";
        List.iter
          (fun (name, prog) ->
            match prog with
            | Some prog ->
                Fmt.pr "%-10s %10.3f@." name (S.Common.runtime_ms ctx prog)
            | None -> Fmt.pr "%-10s %10s@." name "X")
          [
            ("clang", Some (S.Baselines.clang_like p));
            ("icc", Some (S.Baselines.icc_like p));
            ("polly", Some (S.Baselines.polly_like p));
            ("tiramisu",
             (match S.Tiramisu.schedule ctx p with
             | S.Tiramisu.Scheduled q -> Some q
             | S.Tiramisu.Unsupported _ -> None));
            ("daisy",
             Some (S.Daisy.schedule ?quarantine ctx ~db p).S.Daisy.program);
          ];
        report_quarantine quarantine)
  in
  Cmd.v (Cmd.info "bench" ~doc:"Compare all scheduler models on a kernel")
    Term.(const run $ file_arg $ defines_arg $ threads_arg $ jobs_arg
          $ sample_outer_arg $ engine_arg $ eval_budget_arg
          $ eval_deadline_arg $ checkpoint_arg $ resume_arg $ quarantine_arg)

let reuse_cmd =
  let run file defs =
    let p = load file in
    run_protected (fun () ->
        let sizes = sizes_of defs p in
        let module Reuse = Daisy.Machine.Reuse in
        let module Config = Daisy.Machine.Config in
        let show label q =
          let h = Reuse.of_program Config.default q ~sizes ~sample_outer:8 () in
          Fmt.pr "@.%s:@.%a@." label Reuse.pp_histogram h
        in
        show "original" p;
        show "normalized" (Daisy.Normalize.Pipeline.normalize ~sizes p))
  in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:"Reuse-distance histograms before/after normalization")
    Term.(const run $ file_arg $ defines_arg)

let polybench_cmd =
  let run name threads jobs sample_outer engine eval_budget =
    run_protected (fun () ->
        let module Pb = Daisy.Benchmarks.Polybench in
        let b = Pb.find name in
        let p = Pb.program b in
        let ctx =
          S.Common.make_ctx ~threads ~sample_outer ~engine
            ?eval_steps:eval_budget ~sizes:b.Pb.sim_sizes ()
        in
        let db = S.Database.create () in
        Daisy.Support.Pool.with_pool ~jobs (fun pool ->
            S.Seed.seed_database ~epochs:1 ~population:6 ~iterations:2 ?pool
              ctx ~db [ (name, p) ]);
        let bv =
          Daisy.Benchmarks.Variants.generate ~seed:("bvariant-" ^ name) p
        in
        Fmt.pr "%-10s %12s %12s@." "scheduler" "A [ms]" "B [ms]";
        let row label fa fb =
          Fmt.pr "%-10s %12s %12s@." label fa fb
        in
        let t q = Printf.sprintf "%.3f" (S.Common.runtime_ms ctx q) in
        row "clang" (t (S.Baselines.clang_like p)) (t (S.Baselines.clang_like bv));
        row "icc" (t (S.Baselines.icc_like p)) (t (S.Baselines.icc_like bv));
        row "polly" (t (S.Baselines.polly_like p)) (t (S.Baselines.polly_like bv));
        let tiramisu q =
          match S.Tiramisu.schedule ctx q with
          | S.Tiramisu.Scheduled r -> t r
          | S.Tiramisu.Unsupported _ -> "X"
        in
        row "tiramisu" (tiramisu p) (tiramisu bv);
        let daisy q = t (S.Daisy.schedule ctx ~db q).S.Daisy.program in
        row "daisy" (daisy p) (daisy bv))
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME"
           ~doc:"Benchmark name (gemm, 2mm, ..., or an extra like doitgen).")
  in
  Cmd.v
    (Cmd.info "polybench"
       ~doc:"Run a built-in benchmark (A and generated B variant) across all              schedulers")
    Term.(const run $ name_arg $ threads_arg $ jobs_arg $ sample_outer_arg
          $ engine_arg $ eval_budget_arg)

let submit_cmd =
  let run file defs socket tcp client budget deadline timeout show_stats =
    run_protected (fun () ->
        let address : Daisy.Serve.Server.address =
          match (socket, tcp) with
          | Some _, Some _ ->
              invalid_arg "--socket and --tcp are mutually exclusive"
          | Some path, None -> `Unix path
          | None, Some spec -> (
              match String.index_opt spec ':' with
              | Some i ->
                  let host = String.sub spec 0 i in
                  let port =
                    String.sub spec (i + 1) (String.length spec - i - 1)
                  in
                  (try `Tcp (host, int_of_string port)
                   with _ -> invalid_arg "--tcp expects HOST:PORT")
              | None -> invalid_arg "--tcp expects HOST:PORT")
          | None, None ->
              invalid_arg "submit needs --socket PATH or --tcp HOST:PORT"
        in
        let source = read_file file in
        let module C = Daisy.Serve.Client in
        let module P = Daisy.Serve.Protocol in
        match
          C.with_connection ~timeout_s:timeout address (fun c ->
              let reply =
                C.schedule c
                  {
                    P.client;
                    sizes = defs;
                    budget;
                    deadline_s = deadline;
                    source;
                  }
              in
              let stats = if show_stats then Some (C.stats c) else None in
              (reply, stats))
        with
        | reply, stats ->
            List.iter
              (fun (d : P.decision) ->
                Fmt.pr "  %s: %s@." d.P.label d.P.action)
              reply.P.decisions;
            Fmt.pr
              "predicted runtime: %.3f ms (engine %s%s, %d blas call(s), \
               %d retries, served in %.3f s)@."
              reply.P.cost_ms reply.P.engine
              (if reply.P.degraded then ", degraded" else "")
              reply.P.blas_calls reply.P.retries reply.P.eval_s;
            Option.iter
              (fun kvs ->
                Fmt.pr "daemon stats:@.";
                let w =
                  List.fold_left
                    (fun a (k, _) -> max a (String.length k))
                    0 kvs
                in
                List.iter
                  (fun (k, v) ->
                    match k with
                    | ("last_compaction" | "last_scrub") when v = 0 ->
                        Fmt.pr "  %-*s  never@." w k
                    | "last_compaction" | "last_scrub" ->
                        Fmt.pr "  %-*s  %d (%.0f s ago)@." w k v
                          (Unix.gettimeofday () -. float_of_int v)
                    | _ -> Fmt.pr "  %-*s  %d@." w k v)
                  kvs)
              stats
        | exception C.Server_error (code, message) ->
            Fmt.epr "daisyc: daisyd refused the request (%s): %s@."
              (P.string_of_error_code code)
              message;
            exit 1
        | exception Failure m ->
            Fmt.epr "daisyc: %s@." m;
            exit 1
        | exception Unix.Unix_error (e, fn, arg) ->
            Fmt.epr "daisyc: cannot reach daisyd: %s: %s (%s)@." fn
              (Unix.error_message e) arg;
            exit 1)
  in
  let socket_arg =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix socket of a running $(b,daisyd).")
  in
  let tcp_arg =
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT"
           ~doc:"TCP address of a running $(b,daisyd).")
  in
  let client_arg =
    Arg.(value & opt string "daisyc" & info [ "client" ] ~docv:"ID"
           ~doc:"Client id for the daemon's per-client quota accounting.")
  in
  let budget_arg =
    Arg.(value & opt (some int) None & info [ "eval-budget" ] ~docv:"STEPS"
           ~doc:"Request-side per-evaluation step fuel (the server may cap \
                 it lower).")
  in
  let deadline_arg =
    Arg.(value & opt (some float) None & info [ "eval-deadline" ] ~docv:"SEC"
           ~doc:"Request-side wall deadline in seconds (the server may cap \
                 it lower).")
  in
  let timeout_arg =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~docv:"SEC"
           ~doc:"Client-side bound on waiting for the response.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"Also fetch and pretty-print the daemon's serving \
                 counters — including, for a sharded warm store, shard \
                 count, WAL depth, quarantined shards and the last \
                 compaction/scrub times.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a kernel to a running daisyd and print its schedule")
    Term.(const run $ file_arg $ defines_arg $ socket_arg $ tcp_arg
          $ client_arg $ budget_arg $ deadline_arg $ timeout_arg
          $ stats_arg)

let variant_cmd =
  let run file seed =
    let p = load file in
    run_protected (fun () ->
        let v = Daisy.Benchmarks.Variants.generate ~seed p in
        Fmt.pr "%a@." Ir.pp_program v)
  in
  let seed_arg =
    Arg.(value & opt string "daisyc" & info [ "seed" ] ~doc:"Variant seed.")
  in
  Cmd.v
    (Cmd.info "variant"
       ~doc:"Generate a random semantically-equivalent loop-structure variant")
    Term.(const run $ file_arg $ seed_arg)

let () =
  let info =
    Cmd.info "daisyc" ~version:"1.0.0"
      ~doc:"A priori loop nest normalization and auto-scheduling (CGO 2025)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ parse_cmd; lir_cmd; normalize_cmd; schedule_cmd; seed_cmd;
            bench_cmd; reuse_cmd; variant_cmd; polybench_cmd; submit_cmd ]))
