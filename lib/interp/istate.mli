(** Shared execution state of the two loopir interpreters (the
    tree-walking oracle {!Interp} and the bytecode fast path {!Bc_exec}):
    storage, deterministic initialization, bounds-checked indexing and
    intrinsics live here so the engines cannot drift on anything but the
    walk itself. *)

type tensor = { dims : int array; data : float array }

val tensor_size : tensor -> int

type state = {
  sizes : int Daisy_support.Util.SMap.t;
  mutable scalars : float Daisy_support.Util.SMap.t;
  arrays : (string, tensor) Hashtbl.t;
}

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val default_init : string -> int -> float
(** Deterministic PolyBench-style initializer: bounded, array-dependent,
    identical across program variants. *)

val linear_index : int array -> int array -> int
(** Row-major linear index with per-dimension bounds checks
    (@raise Runtime_error on the first out-of-bounds dimension). *)

val init :
  Daisy_loopir.Ir.program ->
  sizes:(string * int) list ->
  ?scalars:(string * float) list ->
  ?init_fn:(string -> int -> float) ->
  unit ->
  state
(** Allocate every array (parameters via [init_fn], locals zeroed). *)

val eval_intrinsic : string -> float list -> float
(** @raise Runtime_error on an unknown intrinsic or wrong arity. *)
