(** Evolutionary recipe search (paper §4, "Seeding a Scheduling Database").

    Epoch 1 seeds the population from Tiramisu-style proposals; it is
    refined through mutation + selection with the simulated runtime as
    fitness. Later epochs re-seed from the best recipes of the most similar
    loop nests (transfer between nests) — implemented in
    {!Seed.seed_database}.

    Fitness evaluations within a generation are independent, so they are
    the unit of parallelism: pass [?pool] to score the population across
    domains. All stochastic decisions (mutation, crossover) stay on the
    submitting thread and draw from the caller's [rng] in a fixed order,
    and {!Daisy_support.Pool.map} preserves list order, so parallel and
    sequential searches return bit-identical results. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Recipe = Daisy_transforms.Recipe
module Legality = Daisy_dependence.Legality

(** Everything the simulated runtime of a candidate depends on (besides
    the shared ctx): the canonical nest structure plus the declarations
    the cost model's memory layout reads. The key must be {e exact} — a
    lossy hash (like [Ir.hash_structure], which truncates deep trees)
    would let two different nests collide, and then the cached value
    would depend on which nest was evaluated first: deterministic-but-
    wrong sequentially, racy under a pool. [Hashtbl]'s structural key
    equality resolves hash-bucket collisions exactly. *)
type fitness_key = {
  canon : Ir.node list;
  arrays : Ir.array_decl list;
  local_scalars : string list;
  scalar_params : string list;
  recipe : string;
}

(** Fitness memoization guarded by a mutex so concurrent workers can share
    it; values are pure functions of the key, so racing recomputations
    store the same float and cache contents stay deterministic at any job
    count. *)
type fitness_cache = {
  tbl : (fitness_key, float) Hashtbl.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

let create_cache ?(size = 64) () =
  { tbl = Hashtbl.create size; lock = Mutex.create (); hits = 0; misses = 0 }

let cache_find cache key =
  Mutex.lock cache.lock;
  let v = Hashtbl.find_opt cache.tbl key in
  (match v with
  | Some _ -> cache.hits <- cache.hits + 1
  | None -> cache.misses <- cache.misses + 1);
  Mutex.unlock cache.lock;
  v

let cache_store cache key v =
  Mutex.lock cache.lock;
  Hashtbl.replace cache.tbl key v;
  Mutex.unlock cache.lock

(** [(hits, misses)] read atomically — a consistent pair even while
    workers are scoring. The fitness cache is the only cross-candidate
    memoization: every cache miss re-walks the trace through
    [Common.nest_runtime_ms]. *)
let cache_stats cache =
  Mutex.lock cache.lock;
  let r = (cache.hits, cache.misses) in
  Mutex.unlock cache.lock;
  r

(** All key fields except the recipe are fixed for a given (outer, p,
    nest) — a whole search varies only in [recipe]. *)
let base_key ~outer (p : Ir.program) (nest : Ir.loop) : fitness_key =
  {
    canon = Ir.canon_nodes [ Common.wrap_outer outer (Ir.Nloop nest) ];
    arrays = p.Ir.arrays;
    local_scalars = p.Ir.local_scalars;
    scalar_params = p.Ir.scalar_params;
    recipe = "";
  }

(** Uncached candidate evaluation — the cache-miss path, also reused by
    the quarantine shrinker's failure predicate. Passes through the
    ["eval_candidate"] fault point. *)
let eval_raw (ctx : Common.ctx) ~outer (p : Ir.program) (nest : Ir.loop)
    (r : Recipe.t) : float =
  Fault.inject "eval_candidate";
  match Recipe.apply ~outer nest r with
  | Error _ -> infinity
  | Ok nest' -> (
      (* a candidate that blows its step budget is not an error — it is
         an infinitely bad schedule *)
      try
        Common.nest_runtime_ms ctx p (Common.wrap_outer outer (Ir.Nloop nest'))
      with Budget.Exhausted -> infinity)

let eval_cached (cache : fitness_cache) (ctx : Common.ctx) ~outer
    (p : Ir.program) (nest : Ir.loop) (r : Recipe.t) : float =
  let key = { (base_key ~outer p nest) with recipe = Recipe.to_string r } in
  match cache_find cache key with
  | Some t -> t
  | None ->
      let t = eval_raw ctx ~outer p nest r in
      cache_store cache key t;
      t

(* ------------------------------------------------------------------ *)
(* Checkpointing: a [snapshot] is the complete resumable state of one
   search — the generation about to run, its population, the RNG state,
   and every fitness this search has computed (keyed by the printed
   recipe; all other key fields are fixed per search). Restoring a
   snapshot into a fresh cache and re-running produces bit-identical
   results: fitnesses are pure, floats round-trip via %h, and all
   stochastic decisions happen on the submitting thread. *)

type snapshot = {
  gen : int;
  pop : Recipe.t list;
  rng_state : int64;
  fits : (string * float) list;  (** printed recipe -> simulated ms *)
}

(** [search ctx p nest ~seeds ~rng] — refine a population of recipes for
    [nest]. Returns the best recipe and its fitness (ms).

    With [on_generation], a {!snapshot} is emitted before every
    generation (including a terminal one at [gen = iterations], so a
    resume only redoes final selection); [resume] restarts from such a
    snapshot. With [quarantine] or [ctx.eval_deadline], scoring runs
    supervised ({!Pool.map_supervised}): a candidate whose evaluation
    crashes or exceeds the deadline — after one retry — is excluded from
    selection deterministically (cached fitness [infinity]) and shipped
    to the quarantine sink instead of killing the search. *)
let search ?(population = 8) ?(iterations = 3) ?cache ?pool
    ?(outer = []) ?quarantine ?on_generation ?resume (ctx : Common.ctx)
    (p : Ir.program) (nest : Ir.loop) ~(seeds : Recipe.t list)
    ~(rng : Rng.t) : Recipe.t * float =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let base = base_key ~outer p nest in
  (* every fitness this search has seen — the payload of a snapshot *)
  let fits : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let band, _ = Legality.perfect_band nest in
  let band_size = List.length band in
  (* Quarantine reproducers are self-contained single-nest programs; the
     shrinker's predicate re-extracts the nest and re-evaluates under
     the same deadline. It never raises: an exception means "still
     failing". *)
  let repro_program = Common.single_nest_program p (Ir.Nloop nest) in
  let still_fails (p' : Ir.program) (r' : Recipe.t) =
    match p'.Ir.body with
    | [ Ir.Nloop nest' ] -> (
        match
          Util.with_deadline ctx.Common.eval_deadline (fun () ->
              eval_raw ctx ~outer:[] p' nest' r')
        with
        | (_ : float) -> false
        | exception _ -> true)
    | _ -> false
  in
  let fatal = function
    | Checkpoint.Interrupted _ | Diag.Error _ -> true
    | _ -> false
  in
  let supervised = ctx.Common.eval_deadline <> None || quarantine <> None in
  let score pop =
    let scored =
      if not supervised then
        Pool.map ?pool (fun r -> (eval_cached cache ctx ~outer p nest r, r)) pop
      else
        Pool.map_supervised ?pool ?deadline_s:ctx.Common.eval_deadline ~fatal
          (fun r -> eval_cached cache ctx ~outer p nest r)
          pop
        |> List.map2
             (fun r -> function
               | Ok t -> (t, r)
               | Error e ->
                   (* deterministic exclusion: the failed candidate
                      scores [infinity] (cached, so it is never re-run)
                      and its shrunk reproducer goes to quarantine *)
                   cache_store cache
                     { base with recipe = Recipe.to_string r }
                     infinity;
                   (match quarantine with
                   | None -> ()
                   | Some q ->
                       ignore
                         (Quarantine.report q
                            ~reason:
                              (Printf.sprintf
                                 "candidate evaluation failed: %s"
                                 (Printexc.to_string e))
                            ~sizes:ctx.Common.sizes ~program:repro_program
                            ~recipe:r ~still_fails));
                   (infinity, r))
             pop
    in
    List.iter (fun (t, r) -> Hashtbl.replace fits (Recipe.to_string r) t) scored;
    scored
  in
  let emit gen pop =
    (match on_generation with
    | None -> ()
    | Some f ->
        let fits_list =
          Hashtbl.fold (fun k v acc -> (k, v) :: acc) fits []
          |> List.sort compare
        in
        f { gen; pop; rng_state = Rng.state rng; fits = fits_list });
    (* after the snapshot is safely out: honor a pending SIGINT/SIGTERM *)
    Checkpoint.check_interrupt ()
  in
  let initial =
    Util.dedup ~eq:Recipe.equal (([] : Recipe.t) :: seeds) |> Util.take population
  in
  let start_gen, start_pop =
    match resume with
    | None -> (0, initial)
    | Some s ->
        Rng.set_state rng s.rng_state;
        List.iter
          (fun (rs, t) ->
            Hashtbl.replace fits rs t;
            cache_store cache { base with recipe = rs } t)
          s.fits;
        (s.gen, s.pop)
  in
  let rec refine gen pop =
    emit gen pop;
    if gen >= iterations then pop
    else begin
      let scored =
        score pop |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let survivors = Util.take (max 2 (population / 2)) scored in
      let parents = List.map snd survivors in
      let children =
        List.concat_map
          (fun r ->
            [ Recipe.mutate rng band_size r;
              Recipe.crossover rng r (Rng.choose rng parents) ])
          parents
      in
      let next =
        Util.dedup ~eq:Recipe.equal (parents @ children) |> Util.take population
      in
      refine (gen + 1) next
    end
  in
  let final = refine start_gen start_pop in
  (* Final selection: score every survivor (plus the empty recipe, so the
     search never returns worse-than-unoptimized) exactly once, then take
     the minimum by (fitness, printed recipe). The string tie-break makes
     the winner independent of population order, so sequential and
     parallel runs cannot diverge on fitness ties. *)
  let candidates = Util.dedup ~eq:Recipe.equal (([] : Recipe.t) :: final) in
  let best =
    match score candidates with
    | [] -> assert false (* candidates always contains [] *)
    | first :: rest ->
        List.fold_left
          (fun ((bt, br) as acc) (t, r) ->
            if
              t < bt
              || (t = bt && Recipe.to_string r < Recipe.to_string br)
            then (t, r)
            else acc)
          first rest
  in
  (snd best, fst best)
