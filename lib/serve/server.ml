(** daisyd's server loop: a long-lived scheduling service that survives
    slow, hostile and crashing requests (docs/serving.md).

    Architecture: one accept loop (the calling thread) plus
    [config.jobs] worker domains. The accept loop only ever accepts and
    enqueues raw connections — it never reads from a socket, so a slow
    or hostile client cannot stall admission. Admission control is the
    bounded {!Rqueue}: when it is full the connection is shed with a
    [busy] error immediately (deterministic load-shedding, never an
    unbounded backlog). Workers pop connections and serve their
    requests serially under a per-connection read timeout.

    Robustness contract, per request:
    - fuel: every candidate evaluation runs under [eval_steps] step
      budget ([fuel] error);
    - wall deadline: the whole request runs under [Util.with_deadline]
      ([deadline] error);
    - transient failures (injected ["serve_eval"] faults, engine
      crashes) are retried once after a backoff; a second crash poisons
      the request's content hash so the same program is {e never}
      retried into a crash loop ([quarantined] on resubmission). No
      other engine answers for a failing trace walk: [Cost.evaluate]
      lets its error reach this handler once;
    - under pressure (queue depth >= [degrade_depth]) evaluation
      degrades to the [Approx] cost engine and the response carries a
      [degraded] flag — never a silently wrong recipe;
    - SIGTERM/shutdown drains queued connections, then checkpoints the
      poison set and counters to the journal so a restarted daemon
      keeps refusing known-poison programs. *)

module Util = Daisy_support.Util
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault
module Budget = Daisy_support.Budget
module Checkpoint = Daisy_support.Checkpoint
module Cost = Daisy_machine.Cost
module Trace_bc = Daisy_machine.Trace_bc
module Interp = Daisy_interp.Interp
module S_common = Daisy_scheduler.Common
module S_daisy = Daisy_scheduler.Daisy
module Recipe = Daisy_transforms.Recipe
module Ir = Daisy_loopir.Ir
module P = Protocol

type address = [ `Unix of string | `Tcp of string * int ]

type config = {
  address : address;
  jobs : int;  (** worker domains serving requests *)
  queue_capacity : int;  (** admission bound: beyond it requests shed *)
  degrade_depth : int;  (** queue depth at which evaluation degrades *)
  client_quota : int;  (** max concurrent serving connections per client *)
  eval_steps : int option;  (** server-side per-evaluation fuel cap *)
  eval_deadline_s : float option;  (** server-side per-request deadline cap *)
  idle_timeout_s : float;  (** per-connection frame read timeout *)
  retry_backoff_s : float;  (** backoff before the single transient retry *)
  db_path : string option;  (** warm store (hot-reloadable) *)
  checkpoint : string option;  (** poison set + counters journal *)
  default_size : int;  (** value for size parameters a request omits *)
  max_frame : int;
  threads : int;  (** simulated core count of the machine model *)
  sample_outer : int;
  compact_depth : int;
      (** sharded store: background-compact once this many WAL entries
          are pending (0 disables the compactor) *)
  scrub_interval_s : float;
      (** sharded store: background-scrub this often (0 disables) *)
}

let default_config address =
  {
    address;
    jobs = 2;
    queue_capacity = 64;
    degrade_depth = 8;
    client_quota = 8;
    eval_steps = Some 200_000_000;
    eval_deadline_s = Some 30.0;
    idle_timeout_s = 10.0;
    retry_backoff_s = 0.05;
    db_path = None;
    checkpoint = None;
    default_size = 64;
    max_frame = P.default_max_frame;
    threads = 12;
    sample_outer = 12;
    compact_depth = 64;
    scrub_interval_s = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Counters — atomic, exported through the [stats] verb                *)

type counters = {
  accepted : int Atomic.t;  (** connections admitted to the queue *)
  served : int Atomic.t;  (** schedule requests answered with a recipe *)
  shed : int Atomic.t;  (** connections refused with [busy] *)
  degraded : int Atomic.t;  (** schedule replies served in degraded mode *)
  retried : int Atomic.t;  (** transient-failure retries spent *)
  failed : int Atomic.t;  (** schedule requests answered with an error *)
  quarantined : int Atomic.t;  (** requests refused by the poison set *)
  poisoned : int Atomic.t;  (** programs added to the poison set *)
  quota_refused : int Atomic.t;  (** connections refused by client quota *)
  protocol_errors : int Atomic.t;  (** framing/parse failures observed *)
  hangups : int Atomic.t;  (** peers that vanished while we responded *)
  reloads : int Atomic.t;  (** warm-store snapshots swapped in *)
  compactions : int Atomic.t;  (** background shard compactions run *)
  scrubs : int Atomic.t;  (** background shard scrubs run *)
}

let make_counters () =
  {
    accepted = Atomic.make 0;
    served = Atomic.make 0;
    shed = Atomic.make 0;
    degraded = Atomic.make 0;
    retried = Atomic.make 0;
    failed = Atomic.make 0;
    quarantined = Atomic.make 0;
    poisoned = Atomic.make 0;
    quota_refused = Atomic.make 0;
    protocol_errors = Atomic.make 0;
    hangups = Atomic.make 0;
    reloads = Atomic.make 0;
    compactions = Atomic.make 0;
    scrubs = Atomic.make 0;
  }

let counter_kvs (c : counters) ~queue_depth ~poison_size =
  [
    ("accepted", Atomic.get c.accepted);
    ("served", Atomic.get c.served);
    ("shed", Atomic.get c.shed);
    ("degraded", Atomic.get c.degraded);
    ("retried", Atomic.get c.retried);
    ("failed", Atomic.get c.failed);
    ("quarantined", Atomic.get c.quarantined);
    ("poisoned", Atomic.get c.poisoned);
    ("quota_refused", Atomic.get c.quota_refused);
    ("protocol_errors", Atomic.get c.protocol_errors);
    ("hangups", Atomic.get c.hangups);
    ("reloads", Atomic.get c.reloads);
    ("compactions", Atomic.get c.compactions);
    ("scrubs", Atomic.get c.scrubs);
    ("queue_depth", queue_depth);
    ("poison_size", poison_size);
  ]

(* Sharded-store gauges, appended to the [stats] reply when the warm
   store is a store directory. Timestamps are unix seconds (0 = never). *)
let shard_kvs store ~shard_swaps =
  match Store.shard_stats store with
  | None -> []
  | Some s ->
      let ts f = if Float.is_nan f then 0 else int_of_float f in
      [
        ("shards", s.Daisy_scheduler.Shardstore.st_shards);
        ("shard_entries", s.Daisy_scheduler.Shardstore.st_entries);
        ("wal_depth", s.Daisy_scheduler.Shardstore.st_wal_depth);
        ("shards_quarantined", s.Daisy_scheduler.Shardstore.st_quarantined);
        ("shard_gen", s.Daisy_scheduler.Shardstore.st_gen);
        ("shard_swaps", shard_swaps);
        ("last_compaction", ts s.Daisy_scheduler.Shardstore.st_compacted);
        ("last_scrub", ts s.Daisy_scheduler.Shardstore.st_scrubbed);
      ]

type t = {
  config : config;
  store : Store.t;
  queue : Unix.file_descr Rqueue.t;
  counters : counters;
  base_ctx : S_common.ctx;
  (* content hash -> reason; requests matching an entry are refused *)
  poison : (string, string) Hashtbl.t;
  (* client id -> connections currently being served *)
  clients : (string, int) Hashtbl.t;
  reg_lock : Mutex.t;
  stop : bool Atomic.t;
  journal : Checkpoint.journal option;
  maint_busy : bool Atomic.t;  (** one background maintenance at a time *)
  mutable last_scrub_check : float;  (** monotonic; gates the scrub cadence *)
}

(* ------------------------------------------------------------------ *)
(* Poison set persistence (checkpoint journal, kind "daisyd")          *)

let poison_key_prefix = "poison/"

let restore_state t =
  match t.journal with
  | None -> ()
  | Some j ->
      List.iter
        (fun key ->
          match Checkpoint.find j key with
          | Some [ reason ]
            when String.length key > String.length poison_key_prefix
                 && String.sub key 0 (String.length poison_key_prefix)
                    = poison_key_prefix ->
              let hash =
                String.sub key
                  (String.length poison_key_prefix)
                  (String.length key - String.length poison_key_prefix)
              in
              Hashtbl.replace t.poison hash reason
          | _ -> ())
        (Checkpoint.keys j)

let checkpoint_state t =
  match t.journal with
  | None -> ()
  | Some j ->
      let records =
        Mutex.lock t.reg_lock;
        let r =
          Hashtbl.fold
            (fun hash reason acc ->
              (poison_key_prefix ^ hash, [ reason ]) :: acc)
            t.poison []
        in
        Mutex.unlock t.reg_lock;
        List.sort compare r
      in
      let kvs = counter_kvs t.counters ~queue_depth:0 ~poison_size:0 in
      let counters_record =
        List.map (fun (k, v) -> Printf.sprintf "%s %d" k v) kvs
      in
      Checkpoint.set_many j ~remove:[]
        (("counters", counters_record) :: records)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

let action_string : S_daisy.action -> string = function
  | `Blas k -> "blas " ^ k
  | `Recipe r -> "recipe " ^ Recipe.to_string r
  | `Unoptimized -> "unoptimized"
  | `Unliftable -> "unliftable"

(* The poison key: content hash of the exact (source, sizes) pair — the
   unit that crashed is the unit that stays quarantined. *)
let program_key (r : P.schedule_request) : string =
  Util.fnv1a64
    (String.concat "\n"
       (r.P.source
       :: List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (List.sort compare r.P.sizes)))

let min_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let poisoned t key =
  Mutex.lock t.reg_lock;
  let r = Hashtbl.find_opt t.poison key in
  Mutex.unlock t.reg_lock;
  r

let add_poison t key reason =
  Mutex.lock t.reg_lock;
  let fresh = not (Hashtbl.mem t.poison key) in
  if fresh then Hashtbl.replace t.poison key reason;
  Mutex.unlock t.reg_lock;
  if fresh then Atomic.incr t.counters.poisoned

let err ?(retryable = false) code message =
  P.Error_reply { code; message; retryable }

(* One scheduling attempt. The ["serve_eval"] fault point models a
   transient evaluator crash (armed from DAISY_FAULT in tests/CI). *)
let attempt_schedule t ~engine ~eval_steps ~eval_deadline ~sizes program =
  Fault.inject "serve_eval";
  S_daisy.schedule_request ~base:t.base_ctx ~engine ?eval_steps
    ?eval_deadline ~sizes ~db:(Store.db t.store) program

let handle_schedule t (r : P.schedule_request) : P.response =
  if Atomic.get t.stop then
    err ~retryable:true P.Shutting_down "server is draining"
  else
    let key = program_key r in
    match poisoned t key with
    | Some reason ->
        Atomic.incr t.counters.quarantined;
        err P.Quarantined
          (Printf.sprintf "program %s is quarantined: %s" key reason)
    | None -> (
        match
          Daisy_lang.Lower.program_of_string
            ~source:("client:" ^ r.P.client) r.P.source
        with
        | exception Diag.Error d -> err P.Bad_request (Diag.to_string d)
        | exception Invalid_argument m -> err P.Bad_request m
        | program ->
            let sizes =
              List.map
                (fun name ->
                  match List.assoc_opt name r.P.sizes with
                  | Some v -> (name, v)
                  | None -> (name, t.config.default_size))
                program.Ir.size_params
            in
            let queue_depth = Rqueue.length t.queue in
            let degraded = queue_depth >= t.config.degrade_depth in
            let engine =
              if degraded then Cost.Approx Trace_bc.default_approx
              else t.base_ctx.S_common.engine
            in
            let eval_steps = min_opt r.P.budget t.config.eval_steps in
            let eval_deadline =
              min_opt r.P.deadline_s t.config.eval_deadline_s
            in
            let t0 = Util.monotonic_s () in
            let attempt () =
              attempt_schedule t ~engine ~eval_steps ~eval_deadline ~sizes
                program
            in
            let finish ~retries (outcome : S_daisy.request_outcome) =
              Atomic.incr t.counters.served;
              if degraded then Atomic.incr t.counters.degraded;
              P.Schedule_reply
                {
                  P.degraded;
                  engine = Cost.string_of_engine outcome.S_daisy.engine_used;
                  cost_ms = outcome.S_daisy.predicted_ms;
                  eval_s = Util.monotonic_s () -. t0;
                  retries;
                  queue_depth;
                  blas_calls =
                    outcome.S_daisy.report.S_daisy.blas_calls;
                  decisions =
                    List.map
                      (fun (d : S_daisy.nest_decision) ->
                        {
                          P.label = d.S_daisy.label;
                          action = action_string d.S_daisy.action;
                        })
                      outcome.S_daisy.report.S_daisy.decisions;
                }
            in
            let fail code message =
              Atomic.incr t.counters.failed;
              err code message
            in
            (* semantic and resource failures are deterministic — they are
               answered, not retried; anything else is a transient
               evaluator crash: back off, retry once, then poison. *)
            match attempt () with
            | outcome -> finish ~retries:0 outcome
            | exception Budget.Exhausted ->
                fail P.Fuel "evaluation step budget exhausted"
            | exception Util.Deadline_exceeded ->
                fail P.Deadline "request wall deadline exceeded"
            | exception Interp.Runtime_error m ->
                fail P.Eval_failed ("runtime error: " ^ m)
            | exception Diag.Error d ->
                fail P.Eval_failed (Diag.to_string d)
            | exception first -> (
                Atomic.incr t.counters.retried;
                Unix.sleepf t.config.retry_backoff_s;
                match attempt () with
                | outcome -> finish ~retries:1 outcome
                | exception Budget.Exhausted ->
                    fail P.Fuel "evaluation step budget exhausted"
                | exception Util.Deadline_exceeded ->
                    fail P.Deadline "request wall deadline exceeded"
                | exception second ->
                    let reason =
                      Printf.sprintf "evaluator crashed twice (%s; then %s)"
                        (Printexc.to_string first)
                        (Printexc.to_string second)
                    in
                    add_poison t key reason;
                    fail P.Eval_failed (reason ^ "; program quarantined")))

let handle_request t (req : P.request) : P.response * [ `Keep | `Stop ] =
  match req with
  | P.Ping -> (P.Pong, `Keep)
  | P.Stats ->
      let poison_size =
        Mutex.lock t.reg_lock;
        let n = Hashtbl.length t.poison in
        Mutex.unlock t.reg_lock;
        n
      in
      ( P.Stats_reply
          (counter_kvs t.counters ~queue_depth:(Rqueue.length t.queue)
             ~poison_size
          @ shard_kvs t.store ~shard_swaps:(Store.shard_swaps t.store)),
        `Keep )
  | P.Reload ->
      let status =
        match Store.reload_if_changed ~force:true t.store with
        | `Reloaded fp ->
            Atomic.incr t.counters.reloads;
            "reloaded " ^ fp
        | `Unchanged -> "unchanged"
        | `Failed reason -> "failed " ^ reason
      in
      (P.Reload_reply status, `Keep)
  | P.Shutdown ->
      Atomic.set t.stop true;
      (P.Shutdown_reply, `Stop)
  | P.Schedule r -> (handle_schedule t r, `Keep)

(* ------------------------------------------------------------------ *)
(* Connection handling (worker side)                                   *)

(* Best-effort response write: a peer hanging up mid-response must
   never take the worker (or, via SIGPIPE, the whole daemon) down. *)
let try_respond t fd response =
  match P.write_frame fd (P.encode_response response) with
  | () -> true
  | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      Atomic.incr t.counters.hangups;
      false
  | exception Unix.Unix_error (_, _, _) ->
      Atomic.incr t.counters.hangups;
      false

(* Per-connection client-quota registration: a connection occupies one
   slot of its client's quota from its first [schedule] request until
   the connection closes. *)
let register_client t client =
  Mutex.lock t.reg_lock;
  let n = Option.value ~default:0 (Hashtbl.find_opt t.clients client) in
  let ok = n < t.config.client_quota in
  if ok then Hashtbl.replace t.clients client (n + 1);
  Mutex.unlock t.reg_lock;
  ok

let release_client t client =
  Mutex.lock t.reg_lock;
  (match Hashtbl.find_opt t.clients client with
  | Some n when n > 1 -> Hashtbl.replace t.clients client (n - 1)
  | Some _ -> Hashtbl.remove t.clients client
  | None -> ());
  Mutex.unlock t.reg_lock

let serve_connection t fd =
  let registered = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (release_client t) !registered;
      try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
    (fun () ->
      let rec loop () =
        match
          P.read_frame ~max_frame:t.config.max_frame
            ~timeout_s:t.config.idle_timeout_s fd
        with
        | Error P.Eof -> ()
        | Error P.Disconnect ->
            (* mid-frame hangup: nobody to answer — count and close *)
            Atomic.incr t.counters.protocol_errors
        | Error (P.Timeout | P.Oversized _ | P.Bad_magic) as e ->
            (* framing is unrecoverable on this connection: one
               structured error, then close — the listener stays up *)
            let msg =
              match e with
              | Error fe -> P.string_of_frame_error fe
              | Ok _ -> assert false
            in
            Atomic.incr t.counters.protocol_errors;
            ignore (try_respond t fd (err P.Protocol msg))
        | Ok payload -> (
            match P.parse_request payload with
            | Error m ->
                (* well-framed but unparseable: answer and keep going *)
                Atomic.incr t.counters.protocol_errors;
                if try_respond t fd (err P.Bad_request m) then loop ()
            | Ok req -> (
                (* client quota: enforced at the first schedule request
                   of the connection *)
                let quota_ok =
                  match (req, !registered) with
                  | P.Schedule r, None ->
                      if register_client t r.P.client then begin
                        registered := Some r.P.client;
                        true
                      end
                      else false
                  | _ -> true
                in
                if not quota_ok then begin
                  Atomic.incr t.counters.quota_refused;
                  let client =
                    match req with P.Schedule r -> r.P.client | _ -> "?"
                  in
                  if
                    try_respond t fd
                      (err ~retryable:true P.Quota
                         (Printf.sprintf
                            "client %s is over its quota of %d concurrent \
                             connections"
                            client t.config.client_quota))
                  then loop ()
                end
                else
                  let response, continue = handle_request t req in
                  let wrote = try_respond t fd response in
                  match continue with
                  | `Stop -> ()
                  | `Keep -> if wrote then loop ()))
      in
      loop ())

let worker_loop t () =
  let rec go () =
    match Rqueue.pop t.queue with
    | None -> ()
    | Some fd ->
        (try serve_connection t fd
         with e ->
           (* a defect in connection handling must not kill the worker *)
           Diag.warn_throttled ~label:"serve_worker"
             "connection handler failed: %s" (Printexc.to_string e));
        go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Listener + accept loop                                              *)

let bind_listener (address : address) : Unix.file_descr =
  match address with
  | `Unix path ->
      if Sys.file_exists path then (try Unix.unlink path with _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.bind fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with _ -> ()); raise e);
      Unix.listen fd 64;
      fd
  | `Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_loopback
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (try Unix.bind fd (Unix.ADDR_INET (addr, port))
       with e -> (try Unix.close fd with _ -> ()); raise e);
      Unix.listen fd 64;
      fd

let string_of_address = function
  | `Unix path -> "unix:" ^ path
  | `Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* Shed an over-admission connection: a tiny best-effort [busy] frame
   (fits any socket buffer), then close. *)
let shed t fd =
  Atomic.incr t.counters.shed;
  (try
     P.write_frame fd
       (P.encode_response
          (err ~retryable:true P.Busy "request queue is full"))
   with _ -> ());
  try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let create (config : config) : t =
  Util.ignore_sigpipe ();
  let store = Store.create ?path:config.db_path () in
  let journal =
    match config.checkpoint with
    | None -> None
    | Some path ->
        let fingerprint =
          Checkpoint.fingerprint
            [
              ("kind", "daisyd");
              ("address", string_of_address config.address);
              ("db", Option.value ~default:"none" config.db_path);
            ]
        in
        let open_j resume =
          Checkpoint.open_journal ~path ~kind:"daisyd" ~fingerprint ~resume ()
        in
        let j =
          if Sys.file_exists path then
            try open_j true
            with Diag.Error d ->
              Diag.warn_throttled ~label:"serve_checkpoint"
                "cannot resume serve checkpoint %s (%s); starting fresh" path
                (Diag.to_string d);
              open_j false
          else open_j false
        in
        List.iter
          (fun w -> Diag.warn_throttled ~label:"serve_checkpoint" "%s" w)
          (Checkpoint.warnings j);
        Some j
  in
  let base_ctx =
    S_common.make_ctx ~threads:config.threads
      ~sample_outer:config.sample_outer ?eval_steps:config.eval_steps
      ?eval_deadline:config.eval_deadline_s
      ~sizes:[]
      ()
  in
  let t =
    {
      config;
      store;
      queue = Rqueue.create ~capacity:config.queue_capacity;
      counters = make_counters ();
      base_ctx;
      poison = Hashtbl.create 16;
      clients = Hashtbl.create 16;
      reg_lock = Mutex.create ();
      stop = Atomic.make false;
      journal;
      maint_busy = Atomic.make false;
      last_scrub_check = Util.monotonic_s ();
    }
  in
  restore_state t;
  t

(* ------------------------------------------------------------------ *)
(* Background shard maintenance (sharded warm store only)              *)

(* Called from the accept loop's 1 s tick; never blocks it. Compaction
   folds the pending WAL into the affected shards once it is
   [compact_depth] deep; scrubbing re-verifies every segment each
   [scrub_interval_s]. Both run on a detached thread — the
   request path only ever contends on the store's own lock, for the
   duration of the affected segments' rewrite. A failed run is warned
   (throttled) and the handle self-heals from disk; the daemon keeps
   serving. *)
let maybe_maintain t =
  match Store.sharded t.store with
  | None -> ()
  | Some st ->
      let due_compact =
        t.config.compact_depth > 0
        && Daisy_scheduler.Shardstore.wal_depth st >= t.config.compact_depth
      in
      let now = Util.monotonic_s () in
      let due_scrub =
        t.config.scrub_interval_s > 0.0
        && now -. t.last_scrub_check >= t.config.scrub_interval_s
      in
      if
        (due_compact || due_scrub)
        && Atomic.compare_and_set t.maint_busy false true
      then begin
        if due_scrub then t.last_scrub_check <- now;
        ignore
          (Thread.create
             (fun () ->
               Fun.protect
                 ~finally:(fun () -> Atomic.set t.maint_busy false)
                 (fun () ->
                   let wall = Unix.gettimeofday () in
                   (if due_compact then
                      match
                        Daisy_scheduler.Shardstore.compact ~now:wall st
                      with
                      | rewritten ->
                          if rewritten > 0 then
                            Atomic.incr t.counters.compactions
                      | exception e ->
                          Diag.warn_throttled ~label:"serve_maint"
                            "background compaction failed: %s"
                            (Printexc.to_string e));
                   if due_scrub then
                     match Daisy_scheduler.Shardstore.scrub ~now:wall st with
                     | (_ : Daisy_scheduler.Shardstore.scrub_report) ->
                         Atomic.incr t.counters.scrubs
                     | exception e ->
                         Diag.warn_throttled ~label:"serve_maint"
                           "background scrub failed: %s"
                           (Printexc.to_string e)))
             ())
      end

let request_stop t = Atomic.set t.stop true

(** [run ?on_ready config] — bind, spawn workers, and serve until
    shutdown (SIGTERM/SIGINT via [Checkpoint.install_signal_handlers],
    the protocol [shutdown] verb, or {!request_stop}). Blocks the
    calling thread; [on_ready] fires once the listener is bound.
    Returns the server handle after a graceful drain (queued
    connections served, poison set and counters checkpointed). *)
let run ?on_ready (config : config) : t =
  let t = create config in
  let listener = bind_listener config.address in
  let workers =
    List.init (max 1 config.jobs) (fun _ -> Domain.spawn (worker_loop t))
  in
  Option.iter (fun f -> f ()) on_ready;
  let last_reload_check = ref (Util.monotonic_s ()) in
  let rec accept_loop () =
    if Atomic.get t.stop || Checkpoint.interrupted () then ()
    else begin
      (* hot-reload poll: cheap stat pre-check at most once a second *)
      let now = Util.monotonic_s () in
      if now -. !last_reload_check >= 1.0 then begin
        last_reload_check := now;
        (match Store.reload_if_changed t.store with
        | `Reloaded _ -> Atomic.incr t.counters.reloads
        | `Unchanged | `Failed _ -> ());
        maybe_maintain t
      end;
      let ready =
        match Util.retry_eintr (fun () -> Unix.select [ listener ] [] [] 0.1)
        with
        | r, _, _ -> r
        | exception Unix.Unix_error (_, _, _) -> []
      in
      (match ready with
      | [] -> ()
      | _ -> (
          match Util.retry_eintr (fun () -> Unix.accept listener) with
          | fd, _ ->
              if Rqueue.try_push t.queue fd then
                Atomic.incr t.counters.accepted
              else shed t fd
          | exception Unix.Unix_error (_, _, _) -> ()));
      accept_loop ()
    end
  in
  accept_loop ();
  Atomic.set t.stop true;
  (try Unix.close listener with Unix.Unix_error (_, _, _) -> ());
  (match config.address with
  | `Unix path -> ( try Unix.unlink path with _ -> ())
  | `Tcp _ -> ());
  (* drain: no further pushes; workers finish queued connections *)
  Rqueue.close t.queue;
  List.iter Domain.join workers;
  checkpoint_state t;
  t

let counters t = t.counters
let queue_depth t = Rqueue.length t.queue
let store t = t.store
