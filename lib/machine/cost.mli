(** Roofline-style cost model: convert trace counters into cycles and
    simulated seconds. Per top-level nest the runtime is the max of FP
    issue, L1 port, L1<->L2 bandwidth and shared DRAM bandwidth, plus
    register-spill latency, atomic updates and parallel fork/join
    overheads. Shared DRAM bandwidth produces the strong-scaling
    saturation of the CLOUDSC study. *)

type nest_cost = {
  counters : Trace.counters;
  threads_used : float;
  cycles : float;
}

type report = {
  nests : nest_cost list;
  total_cycles : float;
  seconds : float;
  total_flops : float;
  mflops : float;
  l1_loads : float;
  l1_evicts : float;
  l2_misses : float;
}

val nest_cycles : Config.t -> threads:int -> Trace.counters -> nest_cost

type engine = Tree | Bytecode | Approx of Trace_bc.approx
(** Which trace engine produces the counters. [Tree] is the original walker
    (the oracle); [Bytecode] walks the flat trace sections ({!Trace_bc}),
    bit-identical to the walker and the default; [Approx] runs the same
    bytecode walk with line-granular stepping and adaptive loop sampling,
    with bounded relative error (docs/performance.md). *)

val engine_of_string : string -> engine
(** Parse "tree" | "bytecode" | "approx"; raises [Invalid_argument]
    otherwise. *)

val string_of_engine : engine -> string

val evaluate :
  Config.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?threads:int ->
  ?sample_outer:int ->
  ?engine:engine ->
  ?budget:Daisy_support.Budget.t ->
  unit ->
  report
(** Trace and cost a program ([sample_outer] > 0 samples the outermost loop
    of each top-level nest and extrapolates; [engine] defaults to
    [Bytecode]). [budget] bounds the walked loop iterations;
    [Daisy_support.Budget.Exhausted] escapes when it runs out. *)

val evaluate_guarded :
  Config.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?threads:int ->
  ?sample_outer:int ->
  ?engine:engine ->
  ?steps:int ->
  unit ->
  report
(** The resilient entry point the scheduler uses. Each attempt gets a
    fresh budget of [steps] walked loop iterations (unlimited when
    [None]); [Budget.Exhausted] propagates so callers can map it to
    [infinity] fitness. Any other non-tree-engine failure logs a
    throttled warning, bumps {!engine_fallbacks} and transparently
    re-runs on the tree walker. *)

val engine_fallbacks : unit -> int
(** Times {!evaluate_guarded} fell back to the tree walker. *)

val reset_engine_fallbacks : unit -> unit

val milliseconds : report -> float
val pp_report : report Fmt.t
