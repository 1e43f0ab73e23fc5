(** Roofline-style cost model: convert trace counters into cycles and
    seconds.

    Per top-level nest, the runtime is the maximum of four throughput
    bounds — FP issue, L1 port pressure, L1<->L2 bandwidth and shared DRAM
    bandwidth — plus serialized atomic updates and parallel fork/join
    overheads. DRAM bandwidth is shared across cores, which produces the
    strong-scaling saturation the CLOUDSC case study observes. *)

module Ir = Daisy_loopir.Ir
module Budget = Daisy_support.Budget

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
  mflops : float;  (** achieved MFLOP/s *)
  l1_loads : float;
  l1_evicts : float;
  l2_misses : float;
}

let line_bytes (config : Config.t) = float_of_int config.Config.l1.Config.line_bytes

(** Cycles for one nest under [threads] available cores. *)
let nest_cycles (config : Config.t) ~(threads : int) (c : Trace.counters) :
    nest_cost =
  let open Config in
  let p =
    if c.Trace.has_parallel && threads > 1 then
      Float.min (float_of_int threads) (Float.max 1.0 c.Trace.par_trip)
    else 1.0
  in
  let rs = config.scalar_flops_per_cycle in
  let rv = rs *. float_of_int config.vector_width in
  let ru = rs *. config.unroll_ilp_boost in
  let t_flop =
    (c.Trace.flops /. rs) +. (c.Trace.vec_flops /. rv)
    +. (c.Trace.unrolled_flops /. ru)
  in
  let t_l1 =
    (c.Trace.loads +. c.Trace.stores +. c.Trace.gather_extra)
    /. config.l1_accesses_per_cycle
  in
  let lb = line_bytes config in
  let l2_bytes = (c.Trace.l1.Cache.misses +. c.Trace.l1.Cache.writebacks) *. lb in
  let t_l2 = l2_bytes /. config.l2_bytes_per_cycle in
  let dram_bytes = (c.Trace.l2.Cache.misses +. c.Trace.l2.Cache.writebacks) *. lb in
  (* DRAM bandwidth is shared: the per-thread division is capped *)
  let t_dram_total = dram_bytes /. config.dram_bytes_per_cycle in
  (* tuned library calls: near-peak vector FMA, streaming from DRAM *)
  let t_lib_flop =
    c.Trace.libcall_flops /. (rv *. config.blas_efficiency)
  in
  let t_lib_mem = c.Trace.libcall_bytes /. config.dram_bytes_per_cycle in
  let t_spill = c.Trace.spill_ops *. config.spill_latency_cycles in
  let per_thread = (Float.max (Float.max t_flop t_l1) t_l2 +. t_spill) /. p in
  let dram_bound = t_dram_total (* not divided by p *) in
  (* tuned BLAS libraries are internally threaded *)
  let lib = Float.max (t_lib_flop /. float_of_int (max 1 threads)) t_lib_mem in
  let base = Float.max per_thread (Float.max dram_bound lib) in
  (* contended atomics serialize; uncontended ones cost extra cycles but
     run on all threads *)
  let t_atomic =
    (c.Trace.atomics *. config.atomic_cycles)
    +. (c.Trace.atomics_private *. config.atomic_cycles /. (2.0 *. p))
  in
  let overhead =
    if c.Trace.has_parallel && threads > 1 then
      c.Trace.parallel_regions
      *. (config.parallel_region_base_cycles
         +. (config.parallel_region_per_thread_cycles *. float_of_int threads))
    else 0.0
  in
  { counters = c; threads_used = p; cycles = base +. t_atomic +. overhead }

(** Which trace engine produces the counters. Both walk each nest's trace
    plan ({!Trace_bc}): [Bytecode] exactly, bit-identical to the
    reference walker [Trace.run], and the default; [Approx] with
    line-granular stepping and adaptive loop sampling (bounded relative
    error, see docs/performance.md). *)
type engine = Bytecode | Approx of Trace_bc.approx

let engine_of_string = function
  | "bytecode" -> Bytecode
  | "approx" -> Approx Trace_bc.default_approx
  | s -> invalid_arg ("unknown trace engine '" ^ s ^ "' (bytecode|approx)")

let string_of_engine = function
  | Bytecode -> "bytecode"
  | Approx _ -> "approx"

(** [evaluate config p ~sizes ?threads ?sample_outer ?engine ?steps ()] —
    trace and cost a program with one walk under a fresh budget of
    [steps] walked loop iterations (unlimited when [None]). Every failure
    of the walk, {!Daisy_support.Budget.Exhausted} included, escapes to
    the caller as it is. *)
let evaluate (config : Config.t) (p : Ir.program) ~(sizes : (string * int) list)
    ?(threads = 1) ?(sample_outer = 0) ?(engine = Bytecode) ?steps () :
    report =
  let budget =
    match steps with Some n -> Budget.make ~steps:n | None -> Budget.unlimited ()
  in
  let approx = match engine with Bytecode -> None | Approx a -> Some a in
  let counters = Trace_bc.run config p ~sizes ~sample_outer ~budget ?approx () in
  let nests = List.map (nest_cycles config ~threads) counters in
  let total_cycles =
    List.fold_left (fun acc n -> acc +. n.cycles) 0.0 nests
  in
  let total_flops =
    List.fold_left
      (fun acc n ->
        acc +. n.counters.Trace.flops +. n.counters.Trace.vec_flops
        +. n.counters.Trace.unrolled_flops +. n.counters.Trace.libcall_flops)
      0.0 nests
  in
  let seconds = total_cycles /. (config.Config.freq_ghz *. 1e9) in
  {
    nests;
    total_cycles;
    seconds;
    total_flops;
    mflops = (if seconds > 0.0 then total_flops /. seconds /. 1e6 else 0.0);
    l1_loads =
      List.fold_left (fun a n -> a +. n.counters.Trace.l1.Cache.accesses) 0.0 nests;
    l1_evicts =
      List.fold_left (fun a n -> a +. n.counters.Trace.l1.Cache.evicts) 0.0 nests;
    l2_misses =
      List.fold_left (fun a n -> a +. n.counters.Trace.l2.Cache.misses) 0.0 nests;
  }

(* Kept for [perfbench/bench.ml], its only caller, which reports a
   fallback count per run; there is no engine fallback, so the count is
   always 0. *)
let engine_fallbacks () = 0
let reset_engine_fallbacks () = ()

(** Simulated milliseconds — the unit every experiment reports. *)
let milliseconds (r : report) = r.seconds *. 1e3

let pp_report ppf (r : report) =
  Fmt.pf ppf
    "@[<v>cycles %.3e (%.3f ms)  flops %.3e  %.1f MFLOP/s@,\
     L1 loads %.3e  L1 evicts %.3e  L2 misses %.3e@]"
    r.total_cycles (milliseconds r) r.total_flops r.mflops r.l1_loads
    r.l1_evicts r.l2_misses
