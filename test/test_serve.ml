(** Tests for the daisyd serving stack (docs/serving.md): framing and
    payload round-trips, the admission queue, end-to-end scheduling over
    a real socket, hostile-client framing edge cases, load shedding,
    quotas, graceful degradation, evaluator-crash quarantine with
    checkpointed persistence, warm-store hot reload, and the SIGPIPE /
    EINTR / warning-throttle support satellites. *)

module Serve = Daisy.Serve
module P = Serve.Protocol
module Client = Serve.Client
module Server = Serve.Server
module Rqueue = Serve.Rqueue
module Store = Serve.Store
module Util = Daisy_support.Util
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault
module S = Daisy_scheduler
module Shardstore = S.Shardstore
module Embedding = Daisy_embedding.Embedding
module Rng = Daisy_support.Rng

let gemm_src =
  {|void f(int n, double C[n][n], double A[n][n], double B[n][n]) {
      for (int i = 0; i < n; i++)
        for (int k = 0; k < n; k++)
          for (int j = 0; j < n; j++)
            C[i][j] += A[i][k] * B[k][j];
    }|}

let axpy_src =
  {|void f(int n, double y[n], double x[n]) {
      for (int i = 0; i < n; i++)
        y[i] = y[i] + 2.0 * x[i];
    }|}

let submit ?(client = "test") ?(sizes = [ ("n", 24) ]) source =
  { P.client; sizes; budget = None; deadline_s = Some 30.0; source }

let with_faults f =
  Fun.protect ~finally:Fault.clear (fun () -> Fault.clear (); f ())

let contains_sub ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec go i = i + lsub <= ls && (String.sub s i lsub = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Server harness: run a real daisyd on a private Unix socket          *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "daisyd-test-%d-%d.sock" (Unix.getpid ()) !n)

let test_config ?(jobs = 2) ?(queue = 8) ?(degrade_depth = 1000)
    ?(quota = 64) ?(idle_timeout = 2.0) ?checkpoint ?db socket =
  {
    (Server.default_config (`Unix socket)) with
    Server.jobs;
    queue_capacity = queue;
    degrade_depth;
    client_quota = quota;
    idle_timeout_s = idle_timeout;
    retry_backoff_s = 0.01;
    checkpoint;
    db_path = db;
    threads = 4;
    sample_outer = 4;
  }

(** Every wait on another domain in this file gives up after this many
    seconds and fails the test, instead of hanging the suite. *)
let join_deadline_s = 30.0

(** [f ()] on a new domain, with a flag it sets when it returns. *)
let spawn_flagged f =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Fun.protect ~finally:(fun () -> Atomic.set finished true) f)
  in
  (d, finished)

(** Poll [flag] until it is set or [deadline] passes; its final value. *)
let await ~deadline flag =
  while (not (Atomic.get flag)) && Util.monotonic_s () < deadline do
    Unix.sleepf 0.01
  done;
  Atomic.get flag

(** Join a {!spawn_flagged} domain, failing the test with [what] if it
    has not returned within {!join_deadline_s}. *)
let join_within ~what (d, finished) =
  if not (await ~deadline:(Util.monotonic_s () +. join_deadline_s) finished)
  then Alcotest.failf "%s did not finish within %.0f s" what join_deadline_s;
  Domain.join d

(** Run [f address] against a live server; shuts the server down through
    the protocol [shutdown] verb afterwards (exercising the drain path
    on every test). The shutdown is retried while the server sheds it
    as [busy], and a server that has not stopped within
    {!join_deadline_s} fails the test instead of hanging the suite. *)
let with_server config f =
  let address = config.Server.address in
  let ready = Atomic.make false in
  let d, stopped =
    spawn_flagged (fun () ->
        Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  Alcotest.(check bool) "server came up" true
    (await ~deadline:(Util.monotonic_s () +. 10.0) ready);
  let result =
    try Ok (f address) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let deadline = Util.monotonic_s () +. join_deadline_s in
  let rec shut_down () =
    match Client.with_connection address Client.shutdown with
    | () -> ()
    | exception Client.Server_error (P.Busy, _)
      when Util.monotonic_s () < deadline ->
        Unix.sleepf 0.05;
        shut_down ()
    | exception _ -> ()
  in
  shut_down ();
  if not (await ~deadline stopped) then
    Alcotest.failf "daisyd at %s did not stop within %.0f s of its shutdown%s"
      (Server.string_of_address address) join_deadline_s
      (match result with
      | Ok _ -> ""
      | Error (e, _) -> "; the test had raised " ^ Printexc.to_string e);
  ignore (Domain.join d);
  match result with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(** Raw connected socket, for speaking garbage at the server. *)
let raw_connect address =
  match address with
  | `Unix path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | `Tcp _ -> assert false

let stat_of address name =
  match List.assoc_opt name (Client.with_connection address Client.stats) with
  | Some v -> v
  | None -> Alcotest.failf "stats verb is missing %s" name

(* ------------------------------------------------------------------ *)
(* Framing + payload round trips                                       *)

let test_frame_roundtrip () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let close fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> () in
  Fun.protect
    ~finally:(fun () -> close a; close b)
    (fun () ->
      List.iter
        (fun payload ->
          P.write_frame a payload;
          match P.read_frame b with
          | Ok got -> Alcotest.(check string) "payload" payload got
          | Error e -> Alcotest.failf "frame error: %s"
                         (P.string_of_frame_error e))
        [ ""; "x"; "daisy1 ping\n\n"; String.make 100_000 'z';
          "bin\x00\x01\xff\ndata" ];
      (* clean EOF between frames *)
      Unix.close a;
      match P.read_frame b with
      | Error P.Eof -> ()
      | Ok _ | Error _ -> Alcotest.fail "expected Eof after close")

let test_payload_roundtrip () =
  let reqs =
    [
      P.Ping;
      P.Stats;
      P.Reload;
      P.Shutdown;
      P.Schedule
        {
          P.client = "alice";
          sizes = [ ("n", 64); ("m", 128) ];
          budget = Some 1_000_000;
          deadline_s = Some 2.5;
          source = gemm_src;
        };
      P.Schedule
        { P.client = "b"; sizes = []; budget = None; deadline_s = None;
          source = "void f(int n) {\n}\n" };
    ]
  in
  List.iter
    (fun r ->
      match P.parse_request (P.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error m -> Alcotest.failf "parse_request: %s" m)
    reqs;
  let reps =
    [
      P.Pong;
      P.Stats_reply [ ("served", 3); ("shed", 0) ];
      P.Reload_reply "unchanged";
      P.Shutdown_reply;
      P.Schedule_reply
        {
          P.degraded = true;
          engine = "approx";
          cost_ms = 0.1254367890123;
          eval_s = 1.5e-3;
          retries = 1;
          queue_depth = 7;
          blas_calls = 1;
          decisions =
            [
              { P.label = "nest#1"; action = "blas gemm" };
              { P.label = "nest#2"; action = "recipe interchange(0,1)" };
            ];
        };
      P.Error_reply
        { code = P.Busy; message = "queue is full"; retryable = true };
      P.Error_reply
        { code = P.Quarantined; message = "crashed twice"; retryable = false };
    ]
  in
  List.iter
    (fun r ->
      match P.parse_response (P.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error m -> Alcotest.failf "parse_response: %s" m)
    reps;
  (* %h float rendering is exact *)
  (match
     P.parse_response
       (P.encode_response
          (P.Schedule_reply
             { P.degraded = false; engine = "bytecode"; cost_ms = 1.0 /. 3.0;
               eval_s = 0.0; retries = 0; queue_depth = 0; blas_calls = 0;
               decisions = [] }))
   with
  | Ok (P.Schedule_reply r) ->
      Alcotest.(check bool) "float exact" true (r.P.cost_ms = 1.0 /. 3.0)
  | _ -> Alcotest.fail "schedule reply did not round-trip")

(* ------------------------------------------------------------------ *)
(* Admission queue                                                     *)

let test_rqueue () =
  let q = Rqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Rqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Rqueue.try_push q 2);
  Alcotest.(check bool) "full refuses" false (Rqueue.try_push q 3);
  Alcotest.(check int) "length" 2 (Rqueue.length q);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Rqueue.pop q);
  Alcotest.(check bool) "room again" true (Rqueue.try_push q 4);
  Rqueue.close q;
  Alcotest.(check bool) "closed refuses" false (Rqueue.try_push q 5);
  (* drain semantics: queued items still come out after close *)
  Alcotest.(check (option int)) "drain 2" (Some 2) (Rqueue.pop q);
  Alcotest.(check (option int)) "drain 4" (Some 4) (Rqueue.pop q);
  Alcotest.(check (option int)) "then None" None (Rqueue.pop q);
  (* close wakes a blocked popper *)
  let q2 = Rqueue.create ~capacity:1 in
  let popper = spawn_flagged (fun () -> Rqueue.pop q2) in
  Unix.sleepf 0.05;
  Rqueue.close q2;
  Alcotest.(check (option int)) "woken with None" None
    (join_within
       ~what:"the popper blocked in Rqueue.pop (Rqueue.close must wake it)"
       popper);
  Alcotest.check_raises "capacity >= 1"
    (Invalid_argument "Rqueue.create: capacity must be >= 1") (fun () ->
      ignore (Rqueue.create ~capacity:0))

(* ------------------------------------------------------------------ *)
(* End-to-end scheduling                                               *)

let test_end_to_end () =
  with_server (test_config (fresh_socket ())) (fun address ->
      Client.with_connection address (fun c ->
          Client.ping c;
          let r1 = Client.schedule c (submit gemm_src) in
          Alcotest.(check bool) "not degraded" false r1.P.degraded;
          Alcotest.(check int) "blas call found" 1 r1.P.blas_calls;
          Alcotest.(check bool) "has decisions" true
            (List.length r1.P.decisions > 0);
          (* resubmission is bit-identical: same decisions, same cost *)
          let r2 = Client.schedule c (submit gemm_src) in
          Alcotest.(check bool) "decisions identical" true
            (r1.P.decisions = r2.P.decisions);
          Alcotest.(check bool) "cost identical" true
            (r1.P.cost_ms = r2.P.cost_ms));
      (* a parse error in the kernel is a structured bad-request, and
         the connection survives it *)
      Client.with_connection address (fun c ->
          (match Client.schedule c (submit "void f(int n) { garbage") with
          | _ -> Alcotest.fail "expected Bad_request"
          | exception Client.Server_error (P.Bad_request, _) -> ());
          Client.ping c))

(* ------------------------------------------------------------------ *)
(* Hostile framing: each case one structured error (or a counted
   disconnect), and the server keeps accepting afterwards              *)

let test_framing_edges () =
  with_server
    (test_config ~idle_timeout:0.4 (fresh_socket ()))
    (fun address ->
      let expect_error what fd =
        match P.read_frame ~timeout_s:5.0 fd with
        | Ok payload -> (
            match P.parse_response payload with
            | Ok (P.Error_reply { code = P.Protocol; _ }) -> ()
            | Ok _ -> Alcotest.failf "%s: expected protocol error" what
            | Error m -> Alcotest.failf "%s: unparseable response: %s" what m)
        | Error (P.Eof | P.Disconnect) ->
            (* server may also just close after answering; acceptable
               only if it did answer — so reaching here means it closed
               without answering *)
            Alcotest.failf "%s: server closed without a structured error" what
        | Error e ->
            Alcotest.failf "%s: %s" what (P.string_of_frame_error e)
      in
      (* garbage where the magic should be *)
      let fd = raw_connect address in
      ignore (Unix.write_substring fd "GARBAGE!" 0 8);
      expect_error "garbage" fd;
      Unix.close fd;
      (* oversized declared length *)
      let fd = raw_connect address in
      let b = Bytes.create 8 in
      Bytes.blit_string P.magic 0 b 0 4;
      Bytes.set_int32_be b 4 0x7fff_ffffl;
      ignore (Unix.write fd b 0 8);
      expect_error "oversized" fd;
      Unix.close fd;
      (* truncated frame: declare 100 bytes, send 10, stall *)
      let fd = raw_connect address in
      Bytes.blit_string P.magic 0 b 0 4;
      Bytes.set_int32_be b 4 100l;
      ignore (Unix.write fd b 0 8);
      ignore (Unix.write_substring fd "0123456789" 0 10);
      expect_error "truncated" fd;
      Unix.close fd;
      (* mid-frame disconnect: no one to answer, but the server counts
         it and keeps accepting *)
      let before = stat_of address "protocol_errors" in
      let fd = raw_connect address in
      ignore (Unix.write fd b 0 8);
      ignore (Unix.write_substring fd "01234" 0 5);
      Unix.close fd;
      Unix.sleepf 0.2;
      let after = stat_of address "protocol_errors" in
      Alcotest.(check bool) "disconnect counted" true (after > before);
      (* after all that abuse, a well-behaved client is still served *)
      Client.with_connection address (fun c ->
          let r = Client.schedule c (submit gemm_src) in
          Alcotest.(check int) "still schedules" 1 r.P.blas_calls))

(* The SIGPIPE regression: a client that submits work and hangs up
   before reading the response must not kill the daemon. *)
let test_client_hangup () =
  with_server (test_config (fresh_socket ())) (fun address ->
      for _ = 1 to 3 do
        let fd = raw_connect address in
        P.write_frame fd (P.encode_request (P.Schedule (submit gemm_src)));
        (* vanish without reading the (large) response *)
        Unix.close fd
      done;
      Unix.sleepf 0.5;
      (* daemon alive and serving *)
      Client.with_connection address (fun c ->
          let r = Client.schedule c (submit gemm_src) in
          Alcotest.(check int) "survived hangups" 1 r.P.blas_calls))

(* ------------------------------------------------------------------ *)
(* Admission control: deterministic shedding                           *)

let test_shed () =
  with_server
    (test_config ~jobs:1 ~queue:1 ~idle_timeout:3.0 (fresh_socket ()))
    (fun address ->
      (* occupy the only worker with a connection that sends nothing *)
      let stall = raw_connect address in
      Unix.sleepf 0.3;
      (* fills the 1-slot queue *)
      let queued = raw_connect address in
      Unix.sleepf 0.3;
      (* over admission: must be shed with a busy error immediately *)
      let c = Client.connect address in
      (match Client.schedule c (submit gemm_src) with
      | _ -> Alcotest.fail "expected Busy"
      | exception Client.Server_error (P.Busy, _) -> ()
      | exception Failure m ->
          (* the shed frame is best-effort; a raced close is also a
             refusal, never a hang *)
          Alcotest.(check bool) ("refused: " ^ m) true true);
      Client.close c;
      (* free the worker; the queued connection gets served *)
      Unix.close stall;
      P.write_frame queued (P.encode_request P.Ping);
      (match P.read_frame ~timeout_s:5.0 queued with
      | Ok payload ->
          Alcotest.(check bool) "queued connection served" true
            (P.parse_response payload = Ok P.Pong)
      | Error e ->
          Alcotest.failf "queued connection: %s" (P.string_of_frame_error e));
      Unix.close queued;
      Alcotest.(check bool) "shed counted" true (stat_of address "shed" >= 1))

(* Per-client quotas *)
let test_quota () =
  with_server
    (test_config ~jobs:2 ~quota:1 ~idle_timeout:5.0 (fresh_socket ()))
    (fun address ->
      let c1 = Client.connect address in
      Fun.protect
        ~finally:(fun () -> Client.close c1)
        (fun () ->
          let r1 = Client.schedule c1 (submit ~client:"greedy" axpy_src) in
          Alcotest.(check bool) "first served" true (r1.P.blas_calls >= 0);
          (* same client id on a second concurrent connection: refused *)
          Client.with_connection address (fun c2 ->
              (match Client.schedule c2 (submit ~client:"greedy" axpy_src) with
              | _ -> Alcotest.fail "expected Quota"
              | exception Client.Server_error (P.Quota, _) -> ());
              (* the connection survives the refusal, and a different
                 client id is under its own quota *)
              let r =
                Client.schedule c2 (submit ~client:"polite" axpy_src)
              in
              Alcotest.(check bool) "other client served" true
                (r.P.blas_calls >= 0))))

(* ------------------------------------------------------------------ *)
(* Transient faults: retry once, then poison; quarantine persists      *)

let test_retry_and_poison () =
  with_faults (fun () ->
      let checkpoint = Filename.temp_file "daisyd-test" ".ckpt" in
      Sys.remove checkpoint;
      let socket = fresh_socket () in
      with_server
        (test_config ~checkpoint socket)
        (fun address ->
          (* one transient crash: retried once, transparently *)
          Fault.arm_nth "serve_eval" 1;
          Client.with_connection address (fun c ->
              let r = Client.schedule c (submit gemm_src) in
              Alcotest.(check int) "one retry spent" 1 r.P.retries);
          Fault.clear ();
          (* persistent crash: fails twice -> poisoned *)
          Fault.arm_always "serve_eval";
          Client.with_connection address (fun c ->
              match Client.schedule c (submit gemm_src) with
              | _ -> Alcotest.fail "expected Eval_failed"
              | exception Client.Server_error (P.Eval_failed, m) ->
                  Alcotest.(check bool) "mentions quarantine" true
                    (contains_sub ~sub:"quarantined" m));
          Fault.clear ();
          (* the fault is gone, but the poison entry protects the
             evaluator: the same program is refused without evaluation *)
          Client.with_connection address (fun c ->
              (match Client.schedule c (submit gemm_src) with
              | _ -> Alcotest.fail "expected Quarantined"
              | exception Client.Server_error (P.Quarantined, _) -> ());
              (* a different program (or different sizes) is unaffected *)
              let r = Client.schedule c (submit axpy_src) in
              Alcotest.(check bool) "others unaffected" true
                (r.P.blas_calls >= 0);
              let r2 =
                Client.schedule c (submit ~sizes:[ ("n", 16) ] gemm_src)
              in
              Alcotest.(check bool) "other sizes unaffected" true
                (r2.P.blas_calls >= 0)));
      (* graceful shutdown checkpointed the poison set: a restarted
         daemon keeps refusing the poison program *)
      with_server
        (test_config ~checkpoint socket)
        (fun address ->
          Client.with_connection address (fun c ->
              (match Client.schedule c (submit gemm_src) with
              | _ -> Alcotest.fail "expected Quarantined after restart"
              | exception Client.Server_error (P.Quarantined, _) -> ());
              let r = Client.schedule c (submit axpy_src) in
              Alcotest.(check bool) "fresh programs still served" true
                (r.P.blas_calls >= 0)));
      if Sys.file_exists checkpoint then Sys.remove checkpoint)

(* ------------------------------------------------------------------ *)
(* Graceful degradation under pressure                                 *)

let test_degraded () =
  (* degrade_depth = 0: every request is over the pressure threshold *)
  let config =
    test_config ~degrade_depth:0 ~jobs:1 (fresh_socket ())
  in
  let t = Server.create config in
  (match Server.handle_schedule t (submit gemm_src) with
  | P.Schedule_reply r ->
      Alcotest.(check bool) "degraded flag" true r.P.degraded;
      Alcotest.(check string) "approx engine" "approx" r.P.engine;
      Alcotest.(check bool) "still a real answer" true
        (List.length r.P.decisions > 0)
  | P.Error_reply { message; _ } -> Alcotest.failf "error: %s" message
  | _ -> Alcotest.fail "expected a schedule reply");
  (* under the default threshold the same request is not degraded *)
  let t2 = Server.create (test_config ~jobs:1 (fresh_socket ())) in
  match Server.handle_schedule t2 (submit gemm_src) with
  | P.Schedule_reply r ->
      Alcotest.(check bool) "not degraded" false r.P.degraded;
      Alcotest.(check bool) "full-fidelity engine" true
        (r.P.engine <> "approx")
  | _ -> Alcotest.fail "expected a schedule reply"

(* ------------------------------------------------------------------ *)
(* Warm store: fingerprint-checked hot reload                          *)

let test_store_reload () =
  with_faults (fun () ->
      let path = Filename.temp_file "daisyd-test" ".db" in
      let db = S.Database.create () in
      S.Database.save db path;
      let store = Store.create ~path () in
      let fp0 = Store.fingerprint store in
      (* rewrite with identical contents: the stat changes, the
         fingerprint does not -> Unchanged *)
      S.Database.save db path;
      (match Store.reload_if_changed ~force:true store with
      | `Unchanged -> ()
      | `Reloaded _ -> Alcotest.fail "identical contents must not swap"
      | `Failed m -> Alcotest.failf "reload failed: %s" m);
      (* a corrupt rewrite never takes the store down *)
      let oc = open_out path in
      output_string oc "NOT A DATABASE\n";
      close_out oc;
      (match Store.reload_if_changed ~force:true store with
      | `Failed _ -> ()
      | `Reloaded _ | `Unchanged ->
          Alcotest.fail "corrupt file must fail the reload");
      Alcotest.(check string) "old snapshot kept" fp0
        (Store.fingerprint store);
      Alcotest.(check int) "failure counted" 1 (Store.failed_reloads store);
      (* a valid new database is swapped in *)
      S.Database.save (S.Database.create ()) path;
      (* ... same contents as fp0 again, so force a distinguishable one:
         an injected fault also keeps the old snapshot *)
      Fault.arm_always "serve_reload";
      (match Store.reload_if_changed ~force:true store with
      | `Failed _ -> ()
      | _ -> Alcotest.fail "injected fault must fail the reload");
      Fault.clear ();
      Alcotest.(check string) "snapshot still intact" fp0
        (Store.fingerprint store);
      Sys.remove path)

(* Warm store over a sharded store directory: the entries a test store
   starts with, one entry the external writer adds per step (each a new
   exact match for hash 7, alone at its own point), and the two reads a
   request makes *)

let dir_base =
  let rng = Rng.of_string "serve-store-dir" in
  List.init 60 (fun i ->
      {
        S.Database.source = Printf.sprintf "base:%d" i;
        embedding =
          Array.init Embedding.dim (fun _ -> float_of_int (Rng.int rng 4));
        recipe = [];
        canon_hash = i;
        cost_ms = 1.0;
      })

let dir_entry step : S.Database.entry =
  let recipe = Printf.sprintf "[parallel(%d)]" step in
  {
    S.Database.source = Printf.sprintf "external:%d" step;
    embedding = Array.make Embedding.dim (0.5 +. float_of_int step);
    recipe = Result.get_ok (Daisy_transforms.Recipe.of_string recipe);
    canon_hash = 7;
    cost_ms = 1.0;
  }

let exact db =
  List.map
    (fun (e : S.Database.entry) -> e.source)
    (S.Database.exact_matches_hash db 7)

let top5 db q =
  List.map
    (fun (d, (e : S.Database.entry)) -> (d, e.source))
    (S.Database.query_embedding db ~k:5 q)

let with_store_dir f =
  Test_shardstore.with_dir (fun dir ->
      let path = Filename.concat dir "store" in
      ignore
        (Shardstore.create ~shard_cap:8 path
           (S.Database.of_entries (List.rev dir_base)));
      f (Store.create ~path ()) (Shardstore.open_ path))

let parts_are_shards what store =
  Alcotest.(check int) (what ^ ": one index part per shard")
    (Option.get (Store.shard_stats store)).Shardstore.st_shards
    (S.Database.index_parts (Store.db store))

let test_store_dir_reload () =
  with_faults (fun () ->
      with_store_dir (fun store writer ->
          parts_are_shards "at open" store;
          let fp0 = Store.fingerprint store in
          Alcotest.(check string) "the directory's fingerprint" fp0
            (Shardstore.fingerprint writer);
          (* an external append + compact: the new entry answers *)
          let e1 = dir_entry 1 in
          Shardstore.append writer [ e1 ];
          ignore (Shardstore.compact writer);
          (match Store.reload_if_changed store with
          | `Reloaded fp ->
              Alcotest.(check string) "reported fingerprint"
                (Shardstore.fingerprint writer) fp
          | `Unchanged -> Alcotest.fail "append + compact not picked up"
          | `Failed m -> Alcotest.failf "reload failed: %s" m);
          Alcotest.(check (list string)) "new exact match"
            [ "base:7"; "external:1" ]
            (List.sort compare (exact (Store.db store)));
          (match top5 (Store.db store) e1.embedding with
          | (0.0, "external:1") :: _ -> ()
          | _ -> Alcotest.fail "the appended entry is not its own top-1");
          parts_are_shards "after a reload" store;
          (* an external pure compaction: files change, content does not *)
          Shardstore.append writer [ dir_entry 2 ];
          (match Store.reload_if_changed ~force:true store with
          | `Reloaded _ -> ()
          | _ -> Alcotest.fail "append not picked up from the WAL");
          let fp2 = Store.fingerprint store and swaps = Store.shard_swaps store in
          ignore (Shardstore.compact writer);
          (match Store.reload_if_changed ~force:true store with
          | `Unchanged -> ()
          | _ -> Alcotest.fail "a pure compaction must not republish");
          Alcotest.(check string) "same fingerprint" fp2 (Store.fingerprint store);
          Alcotest.(check bool) "the compacted shards were swapped" true
            (Store.shard_swaps store > swaps);
          (* an armed serve_reload fault keeps the previous snapshot *)
          Shardstore.append writer [ dir_entry 3 ];
          let db = Store.db store in
          Fault.arm_always "serve_reload";
          (match Store.reload_if_changed ~force:true store with
          | `Failed _ -> ()
          | _ -> Alcotest.fail "injected fault must fail the reload");
          Fault.clear ();
          Alcotest.(check bool) "previous snapshot kept" true (Store.db store == db);
          Alcotest.(check string) "previous fingerprint kept" fp2
            (Store.fingerprint store);
          Alcotest.(check int) "failure counted" 1 (Store.failed_reloads store);
          (match Store.reload_if_changed ~force:true store with
          | `Reloaded _ -> ()
          | _ -> Alcotest.fail "the retry must pick the append up");
          Alcotest.(check int) "three reloads" 3 (Store.reloads store)))

(* A snapshot taken before a reload keeps answering as it did: one
   request never mixes two states of the store. *)
let test_store_dir_snapshot () =
  with_store_dir (fun store writer ->
      let e1 = dir_entry 1 in
      let before = Store.db store in
      let size = S.Database.size before
      and matches = exact before
      and near = top5 before e1.embedding in
      Shardstore.append writer [ e1 ];
      ignore (Shardstore.compact writer);
      (match Store.reload_if_changed store with
      | `Reloaded _ -> ()
      | _ -> Alcotest.fail "append + compact not picked up");
      Alcotest.(check int) "size" size (S.Database.size before);
      Alcotest.(check (list string)) "exact matches" matches (exact before);
      Alcotest.(check (list (pair (float 0.0) string))) "top-5" near
        (top5 before e1.embedding);
      Alcotest.(check int) "the new snapshot holds the entry" (size + 1)
        (S.Database.size (Store.db store)))

(* ------------------------------------------------------------------ *)
(* Satellites: per-label warning throttle, EINTR-safe IO               *)

let test_warn_throttle () =
  Diag.reset_warn ();
  Fun.protect ~finally:(fun () -> Diag.reset_warn ()) (fun () ->
      for _ = 1 to 5 do
        Diag.warn_throttled ~label:"test_serve_a" "warning a"
      done;
      Diag.warn_throttled ~label:"test_serve_b" "warning b";
      (* power-of-two emission: calls 1, 2, 4 of 5 emit *)
      Alcotest.(check int) "a calls" 5 (Diag.warn_calls "test_serve_a");
      Alcotest.(check int) "a emitted" 3 (Diag.warn_emitted "test_serve_a");
      (* labels are independent: b's single call always emits *)
      Alcotest.(check int) "b calls" 1 (Diag.warn_calls "test_serve_b");
      Alcotest.(check int) "b emitted" 1 (Diag.warn_emitted "test_serve_b");
      (* exactly-one assertions reset per label *)
      Diag.reset_warn ~label:"test_serve_a" ();
      Alcotest.(check int) "a reset" 0 (Diag.warn_calls "test_serve_a");
      Alcotest.(check int) "b untouched" 1 (Diag.warn_calls "test_serve_b"))

let test_eintr_io () =
  (* retry_eintr retries EINTR and only EINTR *)
  let attempts = ref 0 in
  let v =
    Util.retry_eintr (fun () ->
        incr attempts;
        if !attempts < 3 then
          raise (Unix.Unix_error (Unix.EINTR, "read", ""))
        else 42)
  in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check int) "retried twice" 3 !attempts;
  Alcotest.check_raises "other errors propagate"
    (Unix.Unix_error (Unix.EBADF, "read", "")) (fun () ->
      Util.retry_eintr (fun () ->
          raise (Unix.Unix_error (Unix.EBADF, "read", ""))));
  (* really_read / write_all across a pipe, including short reads *)
  let r, w = Unix.pipe () in
  let payload = Bytes.of_string (String.init 70_000 (fun i -> Char.chr (i land 0xff))) in
  let writer =
    spawn_flagged (fun () ->
        Util.write_all w payload 0 (Bytes.length payload);
        Unix.close w)
  in
  let buf = Bytes.create (Bytes.length payload) in
  Alcotest.(check bool) "really_read completes" true
    (Util.really_read r buf 0 (Bytes.length buf));
  Alcotest.(check bool) "payload intact" true (Bytes.equal payload buf);
  (* EOF mid-read reports false, not an exception *)
  Alcotest.(check bool) "eof is false" false
    (Util.really_read r (Bytes.create 4) 0 4);
  Unix.close r;
  join_within ~what:"the pipe writer" writer

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
    Alcotest.test_case "payload round-trip" `Quick test_payload_roundtrip;
    Alcotest.test_case "admission queue" `Quick test_rqueue;
    Alcotest.test_case "end-to-end schedule" `Quick test_end_to_end;
    Alcotest.test_case "hostile framing" `Quick test_framing_edges;
    Alcotest.test_case "client hangup (sigpipe)" `Quick test_client_hangup;
    Alcotest.test_case "load shedding" `Quick test_shed;
    Alcotest.test_case "client quota" `Quick test_quota;
    Alcotest.test_case "retry, poison, quarantine" `Quick test_retry_and_poison;
    Alcotest.test_case "graceful degradation" `Quick test_degraded;
    Alcotest.test_case "warm-store reload" `Quick test_store_reload;
    Alcotest.test_case "warm-store reload (directory)" `Quick
      test_store_dir_reload;
    Alcotest.test_case "warm-store snapshot outlives a reload" `Quick
      test_store_dir_snapshot;
    Alcotest.test_case "warning throttle" `Quick test_warn_throttle;
    Alcotest.test_case "eintr-safe io" `Quick test_eintr_io;
  ]
