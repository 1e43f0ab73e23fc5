(** Shared execution state of the two loopir interpreters.

    Both the tree-walking oracle ({!Interp}) and the bytecode fast path
    ({!Bc_exec}) execute programs over this state: concrete [float array]
    storage per array, an integer size environment, and a scalar
    environment. Keeping allocation, the deterministic initializer and the
    bounds-checking index arithmetic in one place guarantees the two
    engines cannot drift on anything but the walk itself. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr

type tensor = { dims : int array; data : float array }

let tensor_size t = Array.fold_left ( * ) 1 t.dims

type state = {
  sizes : int Util.SMap.t;
  mutable scalars : float Util.SMap.t;
  arrays : (string, tensor) Hashtbl.t;
}

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Initialization                                                       *)

(** Deterministic PolyBench-style initializer: a bounded, array-dependent
    value for every element, identical across program variants. *)
let default_init name i =
  let h = ref 1469598103934665603 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 1099511628211) name;
  let v = (!h lxor (i * 2654435761)) land 0xFFFF in
  (float_of_int v /. 65536.0) +. 0.01

let linear_index dims indices =
  let rank = Array.length dims in
  let rec go k acc =
    if k = rank then acc
    else begin
      let i = indices.(k) in
      if i < 0 || i >= dims.(k) then
        runtime_error "index %d out of bounds [0, %d) in dimension %d" i dims.(k) k;
      go (k + 1) ((acc * dims.(k)) + i)
    end
  in
  go 0 0

(** [init p ~sizes ~scalars ?init_fn ()] allocates every array of [p].
    Parameter arrays are filled by [init_fn] (default {!default_init});
    locals are zeroed. *)
let init (p : Ir.program) ~sizes ?(scalars = []) ?(init_fn = default_init) () =
  let sizes =
    List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty sizes
  in
  List.iter
    (fun sp ->
      if not (Util.SMap.mem sp sizes) then
        runtime_error "missing size parameter %s" sp)
    p.Ir.size_params;
  let scalar_map =
    List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty scalars
  in
  (* default any unspecified scalar parameter deterministically *)
  let scalar_map =
    List.fold_left
      (fun m sp ->
        if Util.SMap.mem sp m then m else Util.SMap.add sp (default_init sp 0) m)
      scalar_map p.Ir.scalar_params
  in
  let arrays = Hashtbl.create 16 in
  List.iter
    (fun (a : Ir.array_decl) ->
      let dims =
        Array.of_list (List.map (fun d -> Expr.eval sizes d) a.Ir.dims)
      in
      Array.iter
        (fun d ->
          if d <= 0 then
            runtime_error "array %s has non-positive dimension %d" a.Ir.name d)
        dims;
      let n = Array.fold_left ( * ) 1 dims in
      let data =
        match a.Ir.storage with
        | Ir.Sparam -> Array.init n (fun i -> init_fn a.Ir.name i)
        | Ir.Slocal -> Array.make n 0.0
      in
      Hashtbl.replace arrays a.Ir.name { dims; data })
    p.Ir.arrays;
  { sizes; scalars = scalar_map; arrays }

(* ------------------------------------------------------------------ *)
(* Intrinsics                                                           *)

let eval_intrinsic f args =
  match (f, args) with
  | "sqrt", [ x ] -> sqrt x
  | "exp", [ x ] -> exp x
  | "log", [ x ] -> log x
  | "fabs", [ x ] -> Float.abs x
  | "floor", [ x ] -> floor x
  | "ceil", [ x ] -> ceil x
  | "sin", [ x ] -> sin x
  | "cos", [ x ] -> cos x
  | "tanh", [ x ] -> tanh x
  | "pow", [ x; y ] -> Float.pow x y
  | "min", [ x; y ] -> Float.min x y
  | "max", [ x; y ] -> Float.max x y
  | _ -> runtime_error "unknown intrinsic %s/%d" f (List.length args)
