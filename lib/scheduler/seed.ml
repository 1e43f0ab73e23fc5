(** Database seeding (paper §4): collect all loop nests from the normalized
    A variants; BLAS-3 nests get idiom-detection recipes (handled directly
    by {!Daisy_blas.Patterns} at scheduling time); the rest are optimized by
    the evolutionary search — epoch 1 seeded from Tiramisu-style proposals,
    epochs 2 and 3 re-seeded from the current best recipes of the ten most
    similar loop nests (Euclidean distance of performance embeddings).

    Each epoch reads the best recipes as they stood at the {e start} of the
    epoch and commits all updates at the end (Jacobi-style, not
    Gauss-Seidel): every nest's search within an epoch is then independent
    of the others, which is what lets [?pool] evolve them on parallel
    domains with results bit-identical to the sequential path.

    With [?journal], seeding is crash-safe and resumable: each nest's
    search checkpoints a generation snapshot under ["search/<epoch>/<label>"],
    completed nests move to ["done/<epoch>/<label>"], and each committed
    epoch collapses into a single ["epoch"] record. Every record
    round-trips exactly ([%h] floats, [Recipe.to_string]/[of_string]), so
    a resumed run finishes with the same database, bit for bit, as an
    uninterrupted one. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Recipe = Daisy_transforms.Recipe
module Pipeline = Daisy_normalize.Pipeline
module Patterns = Daisy_blas.Patterns
module Embedding = Daisy_embedding.Embedding

type nest_state = {
  label : string;
  program : Ir.program;  (** single-unit program for evaluation *)
  outer : Ir.loop list;  (** sequential loops enclosing the unit *)
  nest : Ir.loop;
  embedding : Embedding.t;
  mutable best : Recipe.t;
  mutable best_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Journal record (de)serialization. Every value round-trips exactly:
   floats via %h, recipes via to_string/of_string, labels via %S. A
   record that fails to parse is treated as absent — re-doing that slice
   of work is always safe. *)

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.equal (String.sub s 0 lp) p then
    Some (String.sub s lp (String.length s - lp))
  else None

let snapshot_to_lines (s : Evolve.snapshot) : string list =
  (Printf.sprintf "gen %d" s.Evolve.gen)
  :: Printf.sprintf "rng %016Lx" s.Evolve.rng_state
  :: (List.map (fun r -> "pop " ^ Recipe.to_string r) s.Evolve.pop
     @ List.map (fun (rs, t) -> Printf.sprintf "fit %h %s" t rs) s.Evolve.fits)

let snapshot_of_lines (lines : string list) : Evolve.snapshot option =
  let gen = ref (-1)
  and rng = ref None
  and pop = ref []
  and fits = ref [] in
  try
    List.iter
      (fun line ->
        match String.index_opt line ' ' with
        | None -> raise Exit
        | Some i -> (
            let tag = String.sub line 0 i in
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match tag with
            | "gen" -> gen := int_of_string rest
            | "rng" -> rng := Some (Int64.of_string ("0x" ^ rest))
            | "pop" -> (
                match Recipe.of_string rest with
                | Ok r -> pop := r :: !pop
                | Error _ -> raise Exit)
            | "fit" -> (
                match String.index_opt rest ' ' with
                | None -> raise Exit
                | Some j ->
                    let t = float_of_string (String.sub rest 0 j) in
                    let rs =
                      String.sub rest (j + 1) (String.length rest - j - 1)
                    in
                    fits := (rs, t) :: !fits)
            | _ -> raise Exit))
      lines;
    match !rng with
    | Some rng_state when !gen >= 0 ->
        Some
          {
            Evolve.gen = !gen;
            pop = List.rev !pop;
            rng_state;
            fits = List.rev !fits;
          }
    | _ -> None
  with _ -> None

let done_to_lines (best : Recipe.t) (ms : float) : string list =
  [ Printf.sprintf "ms %h" ms; "best " ^ Recipe.to_string best ]

let done_of_lines (lines : string list) : (Recipe.t * float) option =
  match lines with
  | [ ms_l; best_l ] -> (
      match (strip_prefix "ms " ms_l, strip_prefix "best " best_l) with
      | Some ms_s, Some best_s -> (
          match (float_of_string_opt ms_s, Recipe.of_string best_s) with
          | Some ms, Ok best -> Some (best, ms)
          | _ -> None)
      | _ -> None)
  | _ -> None

let epoch_to_lines (epoch : int) (states : nest_state list) : string list =
  Printf.sprintf "epoch %d" epoch
  :: List.concat_map
       (fun st ->
         [
           Printf.sprintf "label %S" st.label;
           Printf.sprintf "ms %h" st.best_ms;
           "best " ^ Recipe.to_string st.best;
         ])
       states

(** Restore the per-nest bests committed by the last completed epoch;
    returns that epoch number, or 0 (restore nothing) when the record is
    malformed or does not cover every state — a conservative full
    re-run is always correct. *)
let restore_epoch (lines : string list) (states : nest_state list) : int =
  let ( let* ) = Option.bind in
  let parsed =
    match lines with
    | [] -> None
    | first :: rest ->
        let* epoch =
          Option.bind (strip_prefix "epoch " first) int_of_string_opt
        in
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | lbl_l :: ms_l :: best_l :: tl ->
              let* label =
                try Some (Scanf.sscanf lbl_l "label %S" Fun.id)
                with _ -> None
              in
              let* ms =
                Option.bind (strip_prefix "ms " ms_l) float_of_string_opt
              in
              let* best =
                Option.bind (strip_prefix "best " best_l) (fun s ->
                    Result.to_option (Recipe.of_string s))
              in
              go ((label, ms, best) :: acc) tl
          | _ -> None
        in
        let* entries = go [] rest in
        Some (epoch, entries)
  in
  match parsed with
  | None -> 0
  | Some (epoch, entries) ->
      let lookup st =
        List.find_opt (fun (l, _, _) -> String.equal l st.label) entries
      in
      if List.for_all (fun st -> lookup st <> None) states then begin
        List.iter
          (fun st ->
            match lookup st with
            | Some (_, ms, best) ->
                st.best <- best;
                st.best_ms <- ms
            | None -> ())
          states;
        epoch
      end
      else 0

(* ------------------------------------------------------------------ *)

(** [seed_database ctx ~db programs] — normalize each (label, program),
    drop BLAS-matched nests, evolve recipes for the rest, store them. *)
let seed_database ?(epochs = 3) ?(population = 8) ?(iterations = 3) ?pool
    ?journal ?quarantine ?on_epoch (ctx : Common.ctx) ~(db : Database.t)
    (programs : (string * Ir.program) list) : unit =
  let cache = Evolve.create_cache ~size:256 () in
  let states =
    List.concat_map
      (fun (label, p) ->
        let normalized = Pipeline.normalize ~sizes:ctx.sizes p in
        (* BLAS nests are served by idiom detection, not the database *)
        let remaining, _ = Patterns.replace_all normalized in
        Common.program_units remaining
        |> List.mapi (fun i (outer, nest) ->
               {
                 label = Printf.sprintf "%s#%d" label i;
                 program =
                   Common.single_nest_program remaining
                     (Common.wrap_outer outer (Ir.Nloop nest));
                 outer;
                 nest;
                 embedding = Embedding.of_node (Ir.Nloop nest);
                 best = [];
                 best_ms = infinity;
               }))
      programs
  in
  (* resume: epochs committed before the crash restore their bests and
     are skipped outright *)
  let completed_epochs =
    match journal with
    | None -> 0
    | Some j -> (
        match Checkpoint.find j "epoch" with
        | None -> 0
        | Some lines -> restore_epoch lines states)
  in
  (* one epoch: evolve every nest from its epoch-start seeds in parallel,
     then commit the improvements *)
  let run_epoch epoch (seeds_for : nest_state -> Rng.t * Recipe.t list) :
      unit =
    Checkpoint.check_interrupt ();
    let search_key st = Printf.sprintf "search/%d/%s" epoch st.label in
    let done_key st = Printf.sprintf "done/%d/%s" epoch st.label in
    let results =
      Pool.map ?pool
        (fun st ->
          Checkpoint.check_interrupt ();
          let finished =
            match journal with
            | None -> None
            | Some j ->
                Option.bind (Checkpoint.find j (done_key st)) done_of_lines
          in
          match finished with
          | Some r -> r (* nest completed before the crash: exact replay *)
          | None ->
              let rng, seeds = seeds_for st in
              let resume =
                match journal with
                | None -> None
                | Some j ->
                    Option.bind
                      (Checkpoint.find j (search_key st))
                      snapshot_of_lines
              in
              let on_generation =
                Option.map
                  (fun j snap ->
                    Checkpoint.set j (search_key st) (snapshot_to_lines snap))
                  journal
              in
              let ((best, ms) as r) =
                Evolve.search ~population ~iterations ~cache ?pool
                  ~outer:st.outer ?quarantine ?on_generation ?resume ctx
                  st.program st.nest ~seeds ~rng
              in
              (match journal with
              | None -> ()
              | Some j ->
                  Checkpoint.set_many j ~remove:[ search_key st ]
                    [ (done_key st, done_to_lines best ms) ]);
              r)
        states
    in
    List.iter2
      (fun st (best, ms) ->
        if ms < st.best_ms then begin
          st.best <- best;
          st.best_ms <- ms
        end)
      states results;
    (* the committed epoch collapses into one record; its per-nest
       working records are consumed in the same atomic persist *)
    (match journal with
    | None -> ()
    | Some j ->
        let removes =
          List.concat_map (fun st -> [ search_key st; done_key st ]) states
        in
        Checkpoint.set_many j ~remove:removes
          [ ("epoch", epoch_to_lines epoch states) ]);
    match on_epoch with
    | None -> ()
    | Some f ->
        (* partial database of the bests so far, built exactly like the
           final one — callers flush it to disk after every epoch *)
        let partial = Database.create () in
        List.iter
          (fun st ->
            Database.add ~cost_ms:st.best_ms partial ~source:st.label
              ~nest:st.nest ~recipe:st.best)
          states;
        f epoch partial
  in
  (* epoch 1: Tiramisu-style seeds *)
  if completed_epochs < 1 then
    run_epoch 1 (fun st ->
        (Rng.of_string ("seed-epoch1-" ^ st.label), Tiramisu.proposals st.nest));
  (* epochs 2..n: re-seed from the ten most similar nests (snapshot of the
     bests at epoch start) *)
  for epoch = 2 to epochs do
    if epoch > completed_epochs then begin
      let snapshot = List.map (fun o -> (o, o.embedding, o.best)) states in
      let neighbours_of st =
        Embedding.nearest_by
          ~embed:(fun (_, emb, _) -> emb)
          10
          (List.filter (fun (o, _, _) -> o != st) snapshot)
          st.embedding
        |> List.map (fun (_, (_, _, best)) -> best)
      in
      run_epoch epoch (fun st ->
          let rng =
            Rng.of_string (Printf.sprintf "seed-epoch%d-%s" epoch st.label)
          in
          (rng, st.best :: neighbours_of st))
    end
  done;
  List.iter
    (fun st ->
      Database.add ~cost_ms:st.best_ms db ~source:st.label ~nest:st.nest
        ~recipe:st.best)
    states
