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

type engine = Bytecode | Approx of Trace_bc.approx
(** Which trace engine produces the counters. Both walk each nest's trace
    plan ({!Trace_bc}): [Bytecode] exactly, bit-identical to the
    reference walker {!Trace.run}, and the default; [Approx] with
    line-granular stepping and adaptive loop sampling, with bounded
    relative error (docs/performance.md). *)

val engine_of_string : string -> engine
(** Parse "bytecode" | "approx"; raises [Invalid_argument] otherwise. *)

val string_of_engine : engine -> string

val evaluate :
  Config.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?threads:int ->
  ?sample_outer:int ->
  ?engine:engine ->
  ?steps:int ->
  unit ->
  report
(** Trace and cost a program with one walk ([sample_outer] > 0 samples
    the outermost loop of each top-level nest and extrapolates; [engine]
    defaults to [Bytecode]). The walk gets a fresh budget of [steps]
    walked loop iterations (unlimited when [None]). Every failure of the
    walk escapes to the caller once, unchanged:
    [Daisy_support.Budget.Exhausted] when the budget runs out,
    [Daisy_support.Util.Deadline_exceeded] past the calling domain's
    deadline, [Trace.Unsupported_trace] on a program the walk cannot
    trace, and any injected fault. *)

val engine_fallbacks : unit -> int
(** Always 0: there is no engine fallback. Kept only because
    [perfbench/bench.ml] calls it, like
    [Daisy_scheduler.Common.sim_memo_stats]; it goes with the next change
    to perfbench. *)

val reset_engine_fallbacks : unit -> unit
(** Does nothing; kept for [perfbench/bench.ml] with {!engine_fallbacks}. *)

val milliseconds : report -> float
val pp_report : report Fmt.t
