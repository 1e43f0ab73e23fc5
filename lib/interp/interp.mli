(** Reference interpreter for loopir programs over real [float array]
    storage — the oracle proving every transformation semantics-preserving.
    One engine: a tree walk over the program.
    Scheduling attributes do not affect interpretation. *)

type tensor = { dims : int array; data : float array }

val tensor_size : tensor -> int

type state = {
  sizes : int Daisy_support.Util.SMap.t;
  mutable scalars : float Daisy_support.Util.SMap.t;
  arrays : (string, tensor) Hashtbl.t;
}

exception Runtime_error of string

val default_init : string -> int -> float
(** Deterministic PolyBench-style initializer: bounded, array-dependent,
    identical across program variants. *)

val init :
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  ?init_fn:(string -> int -> float) ->
  unit ->
  state
(** Allocate every array (parameters via [init_fn], locals zeroed). *)

val run : ?budget:Daisy_support.Budget.t -> Daisy_loopir.Ir.program -> state -> unit
(** Execute the program body, mutating [state]. [budget] (default
    unlimited) is ticked once per executed loop iteration;
    {!Daisy_support.Budget.Exhausted} escapes when it runs out. *)

val run_fresh :
  ?budget:Daisy_support.Budget.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  ?init_fn:(string -> int -> float) ->
  unit ->
  state

type engine = Tree

val default_engine : engine ref
(** Kept for [perfbench/bench.ml], its only user, which pins the
    interpreter it verifies schedules with. There is one engine, so
    setting it changes nothing. *)

val max_rel_diff : Daisy_loopir.Ir.program -> state -> state -> float
(** Maximum relative difference between parameter arrays of two states
    (equal values, including inf/nan, count as zero). *)

val equivalent_on :
  ?tol:float ->
  arrays:string list ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  unit ->
  bool
(** Run both programs from identical initial states and compare only the
    named arrays (for cross-language checks). *)

val equivalent :
  ?tol:float ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  unit ->
  bool
(** Compare all parameter arrays. *)
