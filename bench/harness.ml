(** Shared infrastructure for the experiment reproductions: contexts,
    database seeding, schedulers-by-name, and table printing. *)

module Ir = Daisy_loopir.Ir
module S = Daisy_scheduler
module Pb = Daisy_benchmarks.Polybench
module Variants = Daisy_benchmarks.Variants
module Cost = Daisy_machine.Cost

module Pool = Daisy_support.Pool
module Checkpoint = Daisy_support.Checkpoint

let threads = 12

let sample = ref 8
(** Outer-iteration sample budget for the trace walk (set by
    [--sample-outer] in {!Main}). *)

let engine = ref Cost.Bytecode
(** Trace engine used by every experiment context (set by
    [--trace-engine] in {!Main}): [bytecode] (bit-identical, default) or
    [approx] (sampled, see docs/performance.md). *)

let jobs = ref 1
(** Worker domains for database seeding (set by [--jobs] in {!Main});
    results are bit-identical at any job count. *)

let checkpoint : string option ref = ref None
(** Journal path for crash-safe database seeding (set by [--checkpoint]
    in {!Main}): completed per-benchmark shards are checkpointed and a
    rerun with the same path and configuration resumes from them. *)

let ctx_for (sizes : (string * int) list) : S.Common.ctx =
  S.Common.make_ctx ~threads ~sample_outer:!sample ~engine:!engine ~sizes ()

(* ------------------------------------------------------------------ *)
(* A/B variants *)

let variant_a (b : Pb.benchmark) = Pb.program b

let variant_b (b : Pb.benchmark) =
  Variants.generate ~seed:("bvariant-" ^ b.Pb.name) (Pb.program b)

(* ------------------------------------------------------------------ *)
(* Database: seeded once from all normalized A variants (paper §4) *)

let shared_db : S.Database.t option ref = ref None

(* Shard records in the harness checkpoint: each benchmark's entries as
   flat fixed-size line chunks ({!S.Database.entry_to_lines},
   {!S.Database.entry_lines} lines each); the round-trip is exact, so a
   resumed harness merges the same shards bit-for-bit. *)

let shard_to_lines (shard : S.Database.t) : string list =
  List.concat_map S.Database.entry_to_lines (S.Database.entries shard)

let shard_of_lines (lines : string list) : S.Database.t option =
  let chunk = S.Database.entry_lines in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | lines when List.length lines >= chunk -> (
        let body = Daisy_support.Util.take chunk lines in
        match S.Database.entry_of_lines body with
        | Ok e -> go (e :: acc) (Daisy_support.Util.drop chunk lines)
        | Error _ -> None)
    | _ -> None
  in
  Option.map S.Database.of_entries (go [] lines)

let open_harness_journal path : Checkpoint.journal =
  Checkpoint.install_signal_handlers ();
  let fingerprint =
    Checkpoint.fingerprint
      [
        ("kind", "bench-harness");
        ("benchmarks", String.concat "," (List.map (fun b -> b.Pb.name) Pb.all));
        ("threads", string_of_int threads);
        ("sample", string_of_int !sample);
        ("engine", Cost.string_of_engine !engine);
        ("epochs", "2");
        ("population", "6");
        ("iterations", "2");
      ]
  in
  (* auto-resume: an existing file with a matching fingerprint continues
     the previous run; a mismatch is a one-line Diag error *)
  let j =
    Checkpoint.open_journal ~path ~kind:"bench-harness" ~fingerprint
      ~resume:(Sys.file_exists path) ()
  in
  List.iter
    (fun w -> Format.eprintf "  [checkpoint warning: %s]@." w)
    (Checkpoint.warnings j);
  j

let database () : S.Database.t =
  match !shared_db with
  | Some db -> db
  | None ->
      let db = S.Database.create () in
      let journal = Option.map open_harness_journal !checkpoint in
      Format.printf "  [seeding the scheduling database from A variants (%d jobs)...]@."
        (max 1 !jobs);
      (* each benchmark seeds its own shard (its ctx carries its problem
         sizes); merging the shards in benchmark order reproduces the
         sequential database bit-for-bit *)
      Pool.with_pool ~jobs:!jobs (fun pool ->
          Pool.map ?pool
            (fun (b : Pb.benchmark) ->
              Checkpoint.check_interrupt ();
              let key = "shard/" ^ b.Pb.name in
              let cached =
                Option.bind journal (fun j ->
                    Option.bind (Checkpoint.find j key) shard_of_lines)
              in
              match cached with
              | Some shard -> shard (* completed before the crash *)
              | None ->
                  let shard = S.Database.create () in
                  let ctx = ctx_for b.Pb.sim_sizes in
                  S.Seed.seed_database ~epochs:2 ~population:6 ~iterations:2
                    ?pool ctx ~db:shard
                    [ (b.Pb.name, variant_a b) ];
                  Option.iter
                    (fun j -> Checkpoint.set j key (shard_to_lines shard))
                    journal;
                  shard)
            Pb.all
          |> List.iter (fun shard -> S.Database.merge ~into:db shard));
      (* the database is complete: the checkpoint is consumed *)
      Option.iter Checkpoint.delete journal;
      Format.printf "  [database ready: %d entries]@." (S.Database.size db);
      shared_db := Some db;
      db

(* ------------------------------------------------------------------ *)
(* Schedulers by name *)

type sched_result = Time of float | X  (** X = scheduler not applicable *)

let run_scheduler (name : string) (ctx : S.Common.ctx) (p : Ir.program) :
    sched_result =
  match name with
  | "clang" -> Time (S.Common.runtime_ms ctx (S.Baselines.clang_like p))
  | "icc" -> Time (S.Common.runtime_ms ctx (S.Baselines.icc_like p))
  | "polly" -> Time (S.Common.runtime_ms ctx (S.Baselines.polly_like p))
  | "tiramisu" -> (
      match S.Tiramisu.schedule ctx p with
      | S.Tiramisu.Scheduled p' -> Time (S.Common.runtime_ms ctx p')
      | S.Tiramisu.Unsupported _ -> X)
  | "daisy" ->
      let r = S.Daisy.schedule ctx ~db:(database ()) p in
      Time (S.Common.runtime_ms ctx r.S.Daisy.program)
  | "daisy-nonorm" ->
      let r =
        S.Daisy.schedule
          ~options:{ S.Daisy.normalize = false; transfer = true }
          ctx ~db:(database ()) p
      in
      Time (S.Common.runtime_ms ctx r.S.Daisy.program)
  | "daisy-notransfer" ->
      let r =
        S.Daisy.schedule
          ~options:{ S.Daisy.normalize = true; transfer = false }
          ctx ~db:(database ()) p
      in
      Time (S.Common.runtime_ms ctx r.S.Daisy.program)
  | _ -> invalid_arg ("unknown scheduler " ^ name)

(* ------------------------------------------------------------------ *)
(* Pretty tables *)

let hline width = String.make width '-'

let print_table ~(title : string) ~(header : string list)
    (rows : string list list) : unit =
  let ncol = List.length header in
  let widths = Array.make ncol 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    (header :: rows);
  let pad i s = Printf.sprintf "%-*s" widths.(i) s in
  let total = Array.fold_left ( + ) 0 widths + (3 * (ncol - 1)) in
  Format.printf "@.%s@.%s@." title (hline total);
  Format.printf "%s@." (String.concat " | " (List.mapi pad header));
  Format.printf "%s@." (hline total);
  List.iter
    (fun row -> Format.printf "%s@." (String.concat " | " (List.mapi pad row)))
    rows;
  Format.printf "%s@." (hline total)

let fms = Printf.sprintf "%.3f"
let fx = Printf.sprintf "%.2f"

let cell = function Time t -> fms t | X -> "X"

let rel base = function
  | Time t -> fx (t /. base)
  | X -> "X"

let geomean_of xs = Daisy_support.Util.geomean xs
