(** Reference interpreter for loopir programs.

    Executes programs over real [float array] storage; the test suite uses it
    to prove every normalization and scheduling transformation semantics-
    preserving (original and transformed programs must produce bitwise-close
    outputs from identical initial states). It is one engine — simple,
    obviously-correct recursive evaluation over string-map environments —
    and the equivalence checkers ({!equivalent}, {!equivalent_on}) run on
    it.

    Scheduling attributes ([parallel], [vectorized], [unroll]) do not affect
    interpretation — they are promises to the machine model, not semantics. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr

(* ------------------------------------------------------------------ *)
(* Execution state                                                      *)

type tensor = { dims : int array; data : float array }

let tensor_size t = Array.fold_left ( * ) 1 t.dims

type state = {
  sizes : int Util.SMap.t;
  mutable scalars : float Util.SMap.t;
  arrays : (string, tensor) Hashtbl.t;
}

exception Runtime_error of string

let runtime_error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

(** Deterministic PolyBench-style initializer: a bounded, array-dependent
    value for every element, identical across program variants. *)
let default_init name i =
  let h = ref 1469598103934665603 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 1099511628211) name;
  let v = (!h lxor (i * 2654435761)) land 0xFFFF in
  (float_of_int v /. 65536.0) +. 0.01

(** Row-major linear index with per-dimension bounds checks. *)
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

(* ------------------------------------------------------------------ *)
(* Tree-walking evaluation                                              *)

type frame = {
  state : state;
  mutable env : int Util.SMap.t;
      (** the sizes, with each enclosing loop's iterator bound over them *)
  budget : Budget.t;  (** ticked once per executed loop iteration *)
}

let int_env fr = fr.env

let read_tensor state array indices =
  match Hashtbl.find_opt state.arrays array with
  | None -> runtime_error "unknown array %s" array
  | Some t -> t.data.(linear_index t.dims indices)

let write_tensor state array indices v =
  match Hashtbl.find_opt state.arrays array with
  | None -> runtime_error "unknown array %s" array
  | Some t -> t.data.(linear_index t.dims indices) <- v

let rec eval_vexpr fr (e : Ir.vexpr) : float =
  match e with
  | Ir.Vfloat f -> f
  | Ir.Vint ie -> float_of_int (Expr.eval (int_env fr) ie)
  | Ir.Vread { array; indices } ->
      let env = int_env fr in
      let idx = Array.of_list (List.map (Expr.eval env) indices) in
      read_tensor fr.state array idx
  | Ir.Vscalar s -> (
      match Util.SMap.find_opt s fr.state.scalars with
      | Some v -> v
      | None -> runtime_error "unbound scalar %s" s)
  | Ir.Vbin (op, a, b) -> (
      let x = eval_vexpr fr a and y = eval_vexpr fr b in
      match op with
      | Ir.Vadd -> x +. y
      | Ir.Vsub -> x -. y
      | Ir.Vmul -> x *. y
      | Ir.Vdiv -> x /. y)
  | Ir.Vneg a -> -.eval_vexpr fr a
  | Ir.Vcall (f, args) -> eval_intrinsic f (List.map (eval_vexpr fr) args)
  | Ir.Vselect (p, a, b) -> if eval_pred fr p then eval_vexpr fr a else eval_vexpr fr b

and eval_pred fr (p : Ir.pred) : bool =
  match p with
  | Ir.Pcmp (op, a, b) -> (
      let x = eval_vexpr fr a and y = eval_vexpr fr b in
      match op with
      | Ir.Clt -> x < y
      | Ir.Cle -> x <= y
      | Ir.Cgt -> x > y
      | Ir.Cge -> x >= y
      | Ir.Ceq -> x = y
      | Ir.Cne -> x <> y)
  | Ir.Pand (a, b) -> eval_pred fr a && eval_pred fr b
  | Ir.Por (a, b) -> eval_pred fr a || eval_pred fr b
  | Ir.Pnot a -> not (eval_pred fr a)

let exec_comp fr (c : Ir.comp) =
  let run =
    match c.Ir.guard with None -> true | Some g -> eval_pred fr g
  in
  if run then
    let v = eval_vexpr fr c.Ir.rhs in
    match c.Ir.dest with
    | Ir.Dscalar s -> fr.state.scalars <- Util.SMap.add s v fr.state.scalars
    | Ir.Darray { array; indices } ->
        let env = int_env fr in
        let idx = Array.of_list (List.map (Expr.eval env) indices) in
        write_tensor fr.state array idx v

let tensor_of fr name =
  match Hashtbl.find_opt fr.state.arrays name with
  | Some t -> t
  | None -> runtime_error "unknown array %s" name

let exec_libcall fr (k : Ir.libcall) =
  let env = int_env fr in
  let dims = List.map (Expr.eval env) k.Ir.dims in
  let scalar i =
    match List.nth_opt k.Ir.scalar_args i with
    | Some e -> eval_vexpr fr e
    | None -> 1.0
  in
  let data name = (tensor_of fr name).data in
  match (k.Ir.kernel, k.Ir.args, dims) with
  | "gemm", [ c; a; b ], [ m; n; kk ] ->
      Daisy_blas.Kernels.gemm ~m ~n ~k:kk ~alpha:(scalar 0) (data a) (data b) (data c)
  | "gemv", [ y; a; x ], [ m; n ] ->
      Daisy_blas.Kernels.gemv ~m ~n ~alpha:(scalar 0) (data a) (data x) (data y)
  | "gemvt", [ y; a; x ], [ m; n ] ->
      Daisy_blas.Kernels.gemvt ~m ~n ~alpha:(scalar 0) (data a) (data x) (data y)
  | "syrk", [ c; a ], [ n; m ] ->
      Daisy_blas.Kernels.syrk ~n ~m ~alpha:(scalar 0) (data a) (data c)
  | "syr2k", [ c; a; b ], [ n; m ] ->
      Daisy_blas.Kernels.syr2k ~n ~m ~alpha:(scalar 0) (data a) (data b) (data c)
  | kern, args, dims ->
      runtime_error "unsupported library call %s/%d arrays/%d dims" kern
        (List.length args) (List.length dims)

let rec exec_nodes fr (nodes : Ir.node list) =
  List.iter
    (fun n ->
      match n with
      | Ir.Ncomp c -> exec_comp fr c
      | Ir.Ncall k -> exec_libcall fr k
      | Ir.Nloop l ->
          let env = int_env fr in
          let lo = Expr.eval env l.Ir.lo and hi = Expr.eval env l.Ir.hi in
          let saved = fr.env in
          if l.Ir.step > 0 then begin
            let i = ref lo in
            while !i <= hi do
              Budget.tick fr.budget;
              fr.env <- Util.SMap.add l.Ir.iter !i saved;
              exec_nodes fr l.Ir.body;
              i := !i + l.Ir.step
            done
          end
          else begin
            let i = ref lo in
            while !i >= hi do
              Budget.tick fr.budget;
              fr.env <- Util.SMap.add l.Ir.iter !i saved;
              exec_nodes fr l.Ir.body;
              i := !i + l.Ir.step
            done
          end;
          fr.env <- saved)
    nodes

(** [run p state] executes the body of [p], mutating [state]. *)
let run ?(budget = Budget.unlimited ()) (p : Ir.program) (state : state) =
  exec_nodes { state; env = state.sizes; budget } p.Ir.body

(** [run_fresh p ~sizes ...] allocates a fresh state and runs [p] in it. *)
let run_fresh ?budget (p : Ir.program) ~sizes ?(scalars = []) ?init_fn () =
  let state = init p ~sizes ~scalars ?init_fn () in
  run ?budget p state;
  state

(* perfbench pins the interpreter through this reference; with one
   engine there is nothing to choose *)
type engine = Tree

let default_engine = ref Tree

(* ------------------------------------------------------------------ *)
(* Comparison                                                           *)

(** Maximum relative difference between parameter arrays of two states
    (locals are scratch and excluded). *)
let max_rel_diff (p : Ir.program) (s1 : state) (s2 : state) =
  List.fold_left
    (fun acc (a : Ir.array_decl) ->
      match a.Ir.storage with
      | Ir.Slocal -> acc
      | Ir.Sparam -> (
          match
            (Hashtbl.find_opt s1.arrays a.Ir.name, Hashtbl.find_opt s2.arrays a.Ir.name)
          with
          | Some t1, Some t2 ->
              let n = min (tensor_size t1) (tensor_size t2) in
              let m = ref acc in
              for i = 0 to n - 1 do
                let x = t1.data.(i) and y = t2.data.(i) in
                (* identical values (including inf = inf, nan = nan) count
                   as zero difference *)
                if not (x = y || (Float.is_nan x && Float.is_nan y)) then begin
                  let scale =
                    Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
                  in
                  m := Float.max !m (Float.abs (x -. y) /. scale)
                end
              done;
              !m
          | _ -> infinity))
    0.0 p.Ir.arrays

(** [equivalent_on ~arrays p1 p2 ~sizes] — run both programs from identical
    initial states and compare only the named arrays (for cross-language
    checks where the programs declare different temporaries). *)
let equivalent_on ?(tol = 1e-9) ~(arrays : string list) (p1 : Ir.program)
    (p2 : Ir.program) ~sizes ?(scalars = []) () =
  let s1 = run_fresh p1 ~sizes ~scalars () in
  let s2 = run_fresh p2 ~sizes ~scalars () in
  List.for_all
    (fun name ->
      match (Hashtbl.find_opt s1.arrays name, Hashtbl.find_opt s2.arrays name) with
      | Some t1, Some t2 ->
          let nn = min (tensor_size t1) (tensor_size t2) in
          let ok = ref true in
          for i = 0 to nn - 1 do
            let x = t1.data.(i) and y = t2.data.(i) in
            if not (x = y || (Float.is_nan x && Float.is_nan y)) then begin
              let scale =
                Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
              in
              if Float.abs (x -. y) /. scale > tol then ok := false
            end
          done;
          !ok
      | _ -> false)
    arrays

(** [equivalent p1 p2 ~sizes] runs both programs from identical initial
    states and checks parameter arrays agree within [tol]. *)
let equivalent ?(tol = 1e-9) (p1 : Ir.program) (p2 : Ir.program) ~sizes
    ?(scalars = []) () =
  let s1 = run_fresh p1 ~sizes ~scalars () in
  let s2 = run_fresh p2 ~sizes ~scalars () in
  max_rel_diff p1 s1 s2 <= tol
