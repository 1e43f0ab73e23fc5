(** Evolutionary recipe search (paper §4): populations of recipes refined
    by mutation + crossover with the simulated runtime as fitness.
    Fitness evaluations are independent and can be scored in parallel via
    [?pool]; results are bit-identical to the sequential path. *)

type fitness_cache
(** Thread-safe fitness memoization, shareable across searches (and across
    pool workers). *)

val create_cache : ?size:int -> unit -> fitness_cache

val cache_stats : fitness_cache -> int * int
(** Lookup counters [(hits, misses)], read as one consistent pair: a hit
    means a candidate's simulated runtime was reused from the memo table
    instead of re-walking the trace. Keys canonicalize the nest
    ({!Daisy_loopir.Ir.canon_nodes}), so structurally identical
    candidates hit even when built with fresh loop ids. This is the only
    cross-candidate memoization: a miss re-walks the trace. *)

val eval_cached :
  fitness_cache ->
  Common.ctx ->
  outer:Daisy_loopir.Ir.loop list ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.loop ->
  Daisy_transforms.Recipe.t ->
  float
(** Apply the recipe to the nest and return its simulated runtime (ms),
    memoized in [fitness_cache]. Illegal recipes evaluate to [infinity].
    The cache-miss path passes through the ["eval_candidate"]
    [Daisy_support.Fault] injection point. *)

type snapshot = {
  gen : int;  (** the generation about to run *)
  pop : Daisy_transforms.Recipe.t list;  (** its population, in order *)
  rng_state : int64;  (** [Daisy_support.Rng.state] at that point *)
  fits : (string * float) list;
      (** every fitness this search has computed, keyed by the printed
          recipe, sorted (floats round-trip via [%h] serialization) *)
}
(** The complete resumable state of one {!search}, emitted via
    [on_generation] before each generation (and once more at
    [gen = iterations], so a resumed search only redoes final
    selection). *)

val search :
  ?population:int ->
  ?iterations:int ->
  ?cache:fitness_cache ->
  ?pool:Daisy_support.Pool.t ->
  ?outer:Daisy_loopir.Ir.loop list ->
  ?quarantine:Quarantine.t ->
  ?on_generation:(snapshot -> unit) ->
  ?resume:snapshot ->
  Common.ctx ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.loop ->
  seeds:Daisy_transforms.Recipe.t list ->
  rng:Daisy_support.Rng.t ->
  Daisy_transforms.Recipe.t * float
(** Returns the best recipe and its fitness (simulated ms).

    [resume] restarts from a {!snapshot}: restoring it into a fresh
    cache and re-running is bit-identical to the uninterrupted search at
    any job count. With [quarantine] or [ctx.eval_deadline] set, scoring
    is supervised ([Daisy_support.Pool.map_supervised]): a candidate
    that crashes or exceeds its per-evaluation wall-clock deadline is
    retried once, then deterministically excluded (fitness [infinity])
    and reported to the quarantine sink with a shrunk reproducer — the
    search itself always completes. [on_generation] also polls
    [Daisy_support.Checkpoint.check_interrupt] after each emitted
    snapshot, so interrupted runs stop with their latest state saved. *)
