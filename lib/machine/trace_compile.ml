(** Alias kept for [perfbench/bench.ml], its only caller, which names the
    approximate engine's defaults through this module. *)
let default_approx = Trace_bc.default_approx
