(** Reference interpreter for loopir programs.

    Executes programs over real [float array] storage; the test suite uses it
    to prove every normalization and scheduling transformation semantics-
    preserving (original and transformed programs must produce bitwise-close
    outputs from identical initial states).

    Two engines share the execution state ({!Istate}):

    - {!run} — the tree-walking oracle: simple, obviously-correct recursive
      evaluation over string-map environments;
    - {!run_bytecode} — the flat-bytecode engine ({!Bc_exec}),
      differential-tested to produce bitwise-identical states (see
      [test/test_bytecode.ml] and [docs/performance.md]).

    The equivalence checkers ({!equivalent}, {!equivalent_on}) run on the
    bytecode engine and transparently fall back to the oracle if it fails
    with a non-semantic exception (see {!compiled_fallbacks}); the oracle
    remains the ground truth the bytecode engine is itself validated
    against.

    Scheduling attributes ([parallel], [vectorized], [unroll]) do not affect
    interpretation — they are promises to the machine model, not semantics. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr

(* ------------------------------------------------------------------ *)
(* Shared execution state (re-exported from Istate)                     *)

type tensor = Istate.tensor = { dims : int array; data : float array }

let tensor_size = Istate.tensor_size

type state = Istate.state = {
  sizes : int Util.SMap.t;
  mutable scalars : float Util.SMap.t;
  arrays : (string, tensor) Hashtbl.t;
}

exception Runtime_error = Istate.Runtime_error

let runtime_error = Istate.runtime_error
let default_init = Istate.default_init
let linear_index = Istate.linear_index
let init = Istate.init
let eval_intrinsic = Istate.eval_intrinsic

(* ------------------------------------------------------------------ *)
(* Tree-walking evaluation (the oracle)                                 *)

type frame = {
  state : state;
  mutable iters : int Util.SMap.t;
  budget : Budget.t;  (** ticked once per executed loop iteration *)
}

let int_env fr =
  Util.SMap.union (fun _ i _ -> Some i) fr.iters fr.state.sizes

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
          let saved = fr.iters in
          if l.Ir.step > 0 then begin
            let i = ref lo in
            while !i <= hi do
              Budget.tick fr.budget;
              fr.iters <- Util.SMap.add l.Ir.iter !i saved;
              exec_nodes fr l.Ir.body;
              i := !i + l.Ir.step
            done
          end
          else begin
            let i = ref lo in
            while !i >= hi do
              Budget.tick fr.budget;
              fr.iters <- Util.SMap.add l.Ir.iter !i saved;
              exec_nodes fr l.Ir.body;
              i := !i + l.Ir.step
            done
          end;
          fr.iters <- saved)
    nodes

(** [run p state] executes the body of [p] with the tree-walking oracle,
    mutating [state]. *)
let run ?(budget = Budget.unlimited ()) (p : Ir.program) (state : state) =
  exec_nodes { state; iters = Util.SMap.empty; budget } p.Ir.body

(** [run_fresh p ~sizes ...] allocates a fresh state and runs [p] in it
    (tree-walking oracle). *)
let run_fresh ?budget (p : Ir.program) ~sizes ?(scalars = []) ?init_fn () =
  let state = init p ~sizes ~scalars ?init_fn () in
  run ?budget p state;
  state

(* ------------------------------------------------------------------ *)
(* Bytecode fast path                                                   *)

(** [run_bytecode p state] executes [p] with the flat-bytecode engine
    ({!Bc_exec} over {!Daisy_lir.Bytecode}) — bitwise identical to {!run}. *)
let run_bytecode ?budget (p : Ir.program) (state : state) =
  Bc_exec.run ?budget p state

(** [run_bytecode_fresh p ~sizes ...] — {!run_fresh} on the bytecode
    engine. *)
let run_bytecode_fresh ?budget (p : Ir.program) ~sizes ?(scalars = [])
    ?init_fn () =
  Bc_exec.run_fresh ?budget p ~sizes ~scalars ?init_fn ()

(* ------------------------------------------------------------------ *)
(* Engine selection                                                     *)

(** The two semantic engines, the obviously correct oracle first. Both
    are bit-identical on the differential suite; {!engine} picks which one
    the {!equivalent} family runs. *)
type engine = Tree | Bytecode

let engine_of_string = function
  | "tree" -> Some Tree
  | "bytecode" -> Some Bytecode
  | _ -> None

let string_of_engine = function Tree -> "tree" | Bytecode -> "bytecode"

let default_engine = ref Bytecode

(* ------------------------------------------------------------------ *)
(* Guarded runs: degrade bytecode -> tree on engine failure            *)

let fallbacks = Atomic.make 0

let compiled_fallbacks () = Atomic.get fallbacks
let reset_compiled_fallbacks () = Atomic.set fallbacks 0

let warn_fallback exn =
  let n = Atomic.fetch_and_add fallbacks 1 + 1 in
  (* throttled (Diag.warn_throttled): a hot loop of bytecode failures
     cannot flood stderr *)
  Diag.warn_throttled ~label:"interp_fallback:bytecode"
    "bytecode engine failed (%s); falling back to tree engine (fallback #%d)"
    (Printexc.to_string exn) n

(* [Runtime_error] and [Invalid_argument] are semantic — all engines
   raise them identically for the same program — so they propagate; any
   other exception is an engine defect and triggers a re-run on the tree
   oracle. [Budget.Exhausted] also propagates: the oracle would exhaust
   too. *)
let checked_run_fresh ?budget (p : Ir.program) ~sizes ~scalars () =
  match !default_engine with
  | Tree -> run_fresh ?budget p ~sizes ~scalars ()
  | Bytecode -> (
      try run_bytecode_fresh ?budget p ~sizes ~scalars ()
      with
      | (Runtime_error _ | Invalid_argument _ | Budget.Exhausted) as e ->
          raise e
      | e ->
          warn_fallback e;
          run_fresh ?budget p ~sizes ~scalars ())

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
    checks where the programs declare different temporaries). Runs on
    {!default_engine}. *)
let equivalent_on ?(tol = 1e-9) ~(arrays : string list) (p1 : Ir.program)
    (p2 : Ir.program) ~sizes ?(scalars = []) () =
  let s1 = checked_run_fresh p1 ~sizes ~scalars () in
  let s2 = checked_run_fresh p2 ~sizes ~scalars () in
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
    states and checks parameter arrays agree within [tol]. Runs on
    {!default_engine}. *)
let equivalent ?(tol = 1e-9) (p1 : Ir.program) (p2 : Ir.program) ~sizes
    ?(scalars = []) () =
  let s1 = checked_run_fresh p1 ~sizes ~scalars () in
  let s2 = checked_run_fresh p2 ~sizes ~scalars () in
  max_rel_diff p1 s1 s2 <= tol
