(** Reference interpreter for loopir programs over real [float array]
    storage — the oracle proving every transformation semantics-preserving.
    Two engines share the execution state: the tree-walking oracle
    ({!run}) and the flat-bytecode fast path ({!run_bytecode},
    bitwise-identical — see [docs/performance.md]).
    Scheduling attributes do not affect interpretation. *)

type tensor = Istate.tensor = { dims : int array; data : float array }

val tensor_size : tensor -> int

type state = Istate.state = {
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
(** Execute the program body with the tree-walking oracle, mutating
    [state]. [budget] (default unlimited) is ticked once per executed
    loop iteration; {!Daisy_support.Budget.Exhausted} escapes when it
    runs out. *)

val run_fresh :
  ?budget:Daisy_support.Budget.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  ?init_fn:(string -> int -> float) ->
  unit ->
  state

val run_bytecode :
  ?budget:Daisy_support.Budget.t -> Daisy_loopir.Ir.program -> state -> unit
(** Execute with the flat-bytecode engine ({!Bc_exec} over
    {!Daisy_lir.Bytecode}): bitwise-identical final states and error
    behavior, faster than {!run} (see [docs/performance.md], "Bytecode
    engine"). *)

val run_bytecode_fresh :
  ?budget:Daisy_support.Budget.t ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  ?init_fn:(string -> int -> float) ->
  unit ->
  state
(** {!run_fresh} on the bytecode engine. *)

type engine = Tree | Bytecode
(** The two semantic engines, the oracle first — bit-identical on the
    differential suite. *)

val engine_of_string : string -> engine option
val string_of_engine : engine -> string

val default_engine : engine ref
(** Engine the {!equivalent} family runs on (default [Bytecode]). A
    failing bytecode engine degrades to the tree oracle with a throttled
    warning; semantic errors and [Budget.Exhausted] propagate. *)

val compiled_fallbacks : unit -> int
(** Number of times a guarded run (the {!equivalent} family) failed with
    a non-semantic exception and was transparently re-run on the tree
    oracle. Each fallback logs a throttled warning to stderr. Semantic
    errors ([Runtime_error], [Invalid_argument]) and [Budget.Exhausted]
    propagate instead — both engines raise those identically. *)

val reset_compiled_fallbacks : unit -> unit

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
(** Run both programs from identical initial states ({!default_engine},
    with transparent tree-oracle fallback on engine failure) and compare
    only the named arrays (for cross-language checks). *)

val equivalent :
  ?tol:float ->
  Daisy_loopir.Ir.program ->
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  unit ->
  bool
(** Compare all parameter arrays ({!default_engine}). *)
