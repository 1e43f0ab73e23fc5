(** Shared context and evaluation helpers for all schedulers. *)

type ctx = {
  config : Daisy_machine.Config.t;
  sizes : (string * int) list;
  threads : int;
  sample_outer : int;  (** outer-loop sampling bound; 0 = exact *)
  engine : Daisy_machine.Cost.engine;
      (** trace engine used for every evaluation (default [Bytecode]) *)
  eval_steps : int option;
      (** per-evaluation step budget; [None] = unlimited *)
  eval_deadline : float option;
      (** per-candidate wall-clock deadline in seconds, enforced
          cooperatively by supervised search evaluation
          ([Daisy_support.Pool.map_supervised]); [None] = unlimited *)
}

val make_ctx :
  ?config:Daisy_machine.Config.t ->
  ?threads:int ->
  ?sample_outer:int ->
  ?engine:Daisy_machine.Cost.engine ->
  ?eval_steps:int ->
  ?eval_deadline:float ->
  sizes:(string * int) list ->
  unit ->
  ctx

val request_ctx :
  ctx ->
  ?engine:Daisy_machine.Cost.engine ->
  ?eval_steps:int ->
  ?eval_deadline:float ->
  ?sizes:(string * int) list ->
  unit ->
  ctx
(** Derive a request-scoped context from a long-lived base context (the
    serving layer's entry point): shares config, threads and sampling
    bound; overrides engine/fuel/deadline/sizes per request. *)

val sim_memo_stats : ctx -> (int * int) option
(** Always [None]: there is no simulation memo. Kept only because
    [perfbench/bench.ml] calls it, like [Trace_compile.default_approx];
    it goes with the next change to perfbench. *)

val runtime_ms : ctx -> Daisy_loopir.Ir.program -> float
(** Simulated runtime in milliseconds, via [Daisy_machine.Cost.evaluate]:
    each evaluation is one walk under a fresh budget of [eval_steps]
    walked iterations, and every engine failure
    ([Daisy_support.Budget.Exhausted] included) escapes to the caller. *)

val report : ctx -> Daisy_loopir.Ir.program -> Daisy_machine.Cost.report
(** The full report behind {!runtime_ms}. *)

val single_nest_program :
  Daisy_loopir.Ir.program -> Daisy_loopir.Ir.node -> Daisy_loopir.Ir.program

val nest_runtime_ms : ctx -> Daisy_loopir.Ir.program -> Daisy_loopir.Ir.node -> float

val innermost_loops : Daisy_loopir.Ir.node list -> Daisy_loopir.Ir.loop list

val vector_profitable : Daisy_loopir.Ir.loop -> bool
(** Static vectorization profitability: mostly unit-stride accesses and a
    body small enough that a compiler's vectorizer does not give up. *)

val scop_compatible : Daisy_loopir.Ir.node -> bool
(** Affine subscripts/bounds and no guards — the SCoP condition. *)

val transposed_self_alias : Daisy_loopir.Ir.node -> bool
(** Stores to one array through permuted subscript vectors (e.g.
    [corr[i][j]] and [corr[j][i]]) — defeats the dataflow lifting. *)

val liftable : Daisy_loopir.Ir.node -> bool
(** Can this nest be lifted for normalization and scheduling? *)

val wrap_outer :
  Daisy_loopir.Ir.loop list -> Daisy_loopir.Ir.node -> Daisy_loopir.Ir.node
(** Rebuild the chain of enclosing loops around a single node. *)

val schedulable_units :
  outer:Daisy_loopir.Ir.loop list ->
  Daisy_loopir.Ir.loop ->
  (Daisy_loopir.Ir.loop list * Daisy_loopir.Ir.loop) list
(** The nests an auto-scheduler optimizes, each with its enclosing
    sequential loops; purely structural outer loops recurse into their
    children. *)

val program_units :
  Daisy_loopir.Ir.program -> (Daisy_loopir.Ir.loop list * Daisy_loopir.Ir.loop) list

val map_top_nests :
  (Daisy_loopir.Ir.loop -> Daisy_loopir.Ir.node) ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.program
