(** daisyd — the daisy scheduling daemon.

    {v
    daisyd --socket /tmp/daisyd.sock --db tuned.db
    daisyd --tcp 127.0.0.1:7164 --jobs 4 --queue 128
    v}

    Serves [daisyc submit] requests over the DSY1 framed protocol with
    admission control, per-request fuel and deadlines, graceful
    degradation under load, per-client quotas, a hot-reloadable warm
    store and a crash-quarantine for poison programs. See
    docs/serving.md. *)

open Cmdliner
module Serve = Daisy.Serve

let address_conv : Serve.Server.address Arg.conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i ->
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        (try Ok (`Tcp (host, int_of_string port))
         with _ -> Error (`Msg "expected HOST:PORT"))
    | None -> Error (`Msg "expected HOST:PORT")
  in
  Arg.conv
    (parse, fun ppf a -> Fmt.string ppf (Serve.Server.string_of_address a))

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix-domain socket at $(docv). A stale socket \
               file is replaced.")

let tcp_arg =
  Arg.(value & opt (some address_conv) None & info [ "tcp" ] ~docv:"HOST:PORT"
         ~doc:"Listen on a TCP socket (mutually exclusive with \
               $(b,--socket)).")

let db_arg =
  Arg.(value & opt (some file) None & info [ "db" ] ~docv:"PATH"
         ~doc:"Warm store: either a transfer-tuning database file written \
               by $(b,daisyc seed --db-out) (indexed in memory at load), \
               or a sharded store directory written by \
               $(b,daisyc seed --shard-out). The \
               daemon re-checks it about once a second; a file swaps in \
               whole, a sharded store hot-reloads at per-shard \
               granularity and is background-compacted and scrubbed (see \
               $(b,--compact-depth), $(b,--scrub-interval)).")

let compact_depth_arg =
  Arg.(value & opt int 64 & info [ "compact-depth" ] ~docv:"N"
         ~doc:"Sharded store only: background-compact once $(docv) WAL \
               entries are pending, off the request path (0 disables).")

let scrub_interval_arg =
  Arg.(value & opt float 0.0 & info [ "scrub-interval" ] ~docv:"SEC"
         ~doc:"Sharded store only: background-scrub every $(docv) seconds, \
               verifying segment checksums and repairing \
               quarantined shards (0 disables).")

let jobs_arg =
  Arg.(value & opt int 2 & info [ "jobs" ] ~docv:"N"
         ~doc:"Worker domains serving requests concurrently.")

let queue_arg =
  Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
         ~doc:"Admission bound: connections beyond $(docv) queued are shed \
               with a $(b,busy) error instead of waiting.")

let degrade_arg =
  Arg.(value & opt int 8 & info [ "degrade-depth" ] ~docv:"N"
         ~doc:"Queue depth at which evaluation degrades to the approximate \
               cost engine (replies carry a $(b,degraded) flag).")

let quota_arg =
  Arg.(value & opt int 8 & info [ "quota" ] ~docv:"N"
         ~doc:"Max concurrent serving connections per client id; beyond it \
               a $(b,quota) error is returned.")

let eval_budget_arg =
  Arg.(value & opt (some int) None & info [ "eval-budget" ] ~docv:"STEPS"
         ~doc:"Server-side cap on any request's per-evaluation step fuel \
               (the effective cap is the $(i,minimum) of this and the \
               request's own budget). Default: 200000000.")

let eval_deadline_arg =
  Arg.(value & opt (some float) None & info [ "eval-deadline" ] ~docv:"SEC"
         ~doc:"Server-side cap on any request's wall deadline, in seconds \
               (the effective deadline is the $(i,minimum) of this and \
               the request's own). Default: 30.")

let idle_timeout_arg =
  Arg.(value & opt float 10.0 & info [ "idle-timeout" ] ~docv:"SEC"
         ~doc:"Per-connection frame read timeout: a client that stalls \
               mid-frame (or goes silent between frames) longer than \
               $(docv) is disconnected.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Persist the poison set (programs that crashed the \
               evaluator twice) and serving counters to $(docv) on \
               graceful shutdown; a restarted daemon resumes refusing \
               known-poison programs.")

let default_size_arg =
  Arg.(value & opt int 64 & info [ "default-size" ] ~docv:"N"
         ~doc:"Value assumed for size parameters a request leaves unset.")

let threads_arg =
  Arg.(value & opt int 12 & info [ "j"; "threads" ]
         ~doc:"Simulated core count of the machine model.")

let sample_outer_arg =
  Arg.(value & opt int 12 & info [ "sample-outer" ] ~docv:"N"
         ~doc:"Outer-loop sampling bound of the cost model (0 = exact).")

let run socket tcp db jobs queue degrade_depth quota eval_budget eval_deadline
    idle_timeout checkpoint default_size threads sample_outer compact_depth
    scrub_interval =
  let address =
    match (socket, tcp) with
    | Some _, Some _ ->
        Fmt.epr "daisyd: --socket and --tcp are mutually exclusive@.";
        exit 2
    | Some path, None -> `Unix path
    | None, Some addr -> addr
    | None, None ->
        Fmt.epr "daisyd: one of --socket PATH or --tcp HOST:PORT is required@.";
        exit 2
  in
  let config =
    {
      (Serve.Server.default_config address) with
      Serve.Server.jobs;
      queue_capacity = queue;
      degrade_depth;
      client_quota = quota;
      eval_steps =
        (match eval_budget with Some n -> Some n | None -> Some 200_000_000);
      eval_deadline_s =
        (match eval_deadline with Some s -> Some s | None -> Some 30.0);
      idle_timeout_s = idle_timeout;
      db_path = db;
      checkpoint;
      default_size;
      threads;
      sample_outer;
      compact_depth;
      scrub_interval_s = scrub_interval;
    }
  in
  Daisy.Support.Checkpoint.install_signal_handlers ();
  match
    Serve.Server.run
      ~on_ready:(fun () ->
        Fmt.pr "daisyd: serving on %s (%d workers, queue %d)@."
          (Serve.Server.string_of_address address)
          config.Serve.Server.jobs config.Serve.Server.queue_capacity)
      config
  with
  | server ->
      let c = Serve.Server.counters server in
      Fmt.pr
        "daisyd: drained; served %d, shed %d, degraded %d, quarantined %d@."
        (Atomic.get c.Serve.Server.served)
        (Atomic.get c.Serve.Server.shed)
        (Atomic.get c.Serve.Server.degraded)
        (Atomic.get c.Serve.Server.quarantined)
  | exception Daisy.Support.Diag.Error d ->
      Fmt.epr "daisyd: %a@." Daisy.Support.Diag.pp d;
      exit 1
  | exception Unix.Unix_error (e, fn, arg) ->
      Fmt.epr "daisyd: %s: %s (%s)@." fn (Unix.error_message e) arg;
      exit 1

let () =
  let info =
    Cmd.info "daisyd" ~version:"1.0.0"
      ~doc:"Fault-tolerant loop-scheduling daemon (see docs/serving.md)"
  in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(const run $ socket_arg $ tcp_arg $ db_arg $ jobs_arg
                $ queue_arg $ degrade_arg $ quota_arg $ eval_budget_arg
                $ eval_deadline_arg $ idle_timeout_arg $ checkpoint_arg
                $ default_size_arg $ threads_arg $ sample_outer_arg
                $ compact_depth_arg $ scrub_interval_arg)))
