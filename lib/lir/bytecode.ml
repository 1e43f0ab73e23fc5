(** Flat bytecode: the single lowered program format shared by the
    semantic interpreter backend ([Interp] engine [Bytecode], executed by
    [lib/interp/bc_exec.ml]) and the cost-model trace backend ([Cost]
    engine [Bytecode], executed by [lib/machine/trace_bc.ml]).

    One pass over {!Daisy_loopir.Ir.program} produces:

    - a contiguous opcode stream ([code : int array]) plus operand pools
      ([pool] for affine address terms, [xpool] for compiled non-affine
      integer expressions, [fpool] for float constants, [names] for
      interned strings);
    - a register file layout: every loop gets two integer registers (the
      iterator and its evaluated upper bound), scalars get slots in a
      float register file with bound flags;
    - affine subscripts fused into address-generation descriptors
      ([Ix_aff]: [base + sum coeff*reg] as one table-driven operand)
      with an [Ix_code] RPN fallback for everything else;
    - superinstructions: a static peephole pass rewrites innermost loops
      whose body is straight-line float code (loads/stores/arithmetic)
      into one [FUSE] opcode; the executing backend runs the whole loop
      out of a fused closure (with direct-indexed FMA/accumulator
      specializations) after a side-effect-free safety precheck, and
      falls back to the generic instruction loop otherwise;
    - when trace hooks are supplied, a parallel {e trace section} per
      top-level node: a compact 5-opcode stream with per-occurrence
      computation descriptors, precomputed byte-address generators and
      compile-time error strings, driving the cache simulator with
      bit-identical counters to the tree walker {!Daisy_machine.Trace}.

    Exactness contract: the semantic stream replicates the tree oracle's
    observable behavior (evaluation order, error messages, raise points);
    the trace section replicates the trace walker's counter arithmetic,
    float-addition order included. The differential suite in
    [test/test_bytecode.ml] enforces both.

    Lowering passes through the ["bc_compile"] {!Daisy_support.Fault}
    injection point; under [DAISY_VALIDATE] ({!Daisy_loopir.Ir.validation_enabled})
    the input program is validated before lowering and the produced
    artifact is checked by {!verify} after. *)

open Daisy_support
module L = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Affine = Daisy_poly.Affine

(* ------------------------------------------------------------------ *)
(* Growable vectors                                                     *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }
  let len v = v.n

  let push v x =
    if v.n = Array.length v.a then begin
      let a' = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a' 0 v.n;
      v.a <- a'
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x
  let to_array v = Array.sub v.a 0 v.n
end

(** Growable list-with-count used for record tables; [gpush] returns the
    index of the pushed element. *)
type 'a gvec = { mutable items : 'a list; mutable count : int }

let gvec () = { items = []; count = 0 }

let gpush g x =
  let i = g.count in
  g.items <- x :: g.items;
  g.count <- i + 1;
  i

let garr g = Array.of_list (List.rev g.items)

(* ------------------------------------------------------------------ *)
(* The semantic ISA                                                     *)

(* opcode = code.(pc); operands follow inline. Lengths in [op_len]. *)
let op_halt = 0 (* [] end of stream *)
let op_loop = 1 (* [ireg; hireg; lo_ix; hi_ix; step; end_pc] loop entry *)
let op_loopbk = 2 (* [ireg; hireg; step; body_pc] loop back-edge *)
let op_fconst = 3 (* [fpool id] push float constant *)
let op_fscalar = 4 (* [slot] push scalar register (checked bound) *)
let op_fload = 5 (* [site id] push array element *)
let op_fstore = 6 (* [site id] pop value, store to array element *)
let op_fstore_s = 7 (* [slot] pop value, store to scalar register *)
let op_fadd = 8 (* [] pop b, a; push a +. b *)
let op_fsub = 9 (* [] pop b, a; push a -. b *)
let op_fmul = 10 (* [] pop b, a; push a *. b *)
let op_fdiv = 11 (* [] pop b, a; push a /. b *)
let op_fneg = 12 (* [] negate top of stack *)
let op_fint = 13 (* [ix id] push float_of_int of an integer expression *)
let op_fintr1 = 14 (* [kind] unary intrinsic on top of stack *)
let op_fintr2 = 15 (* [kind] binary intrinsic *)
let op_fbadcall = 16 (* [name id; nargs] unknown intrinsic: raises *)
let op_fcmp = 17 (* [kind] pop b, a; set flag from comparison *)
let op_jf = 18 (* [target] jump if flag is false *)
let op_jt = 19 (* [target] jump if flag is true *)
let op_jmp = 20 (* [target] unconditional jump *)
let op_notf = 21 (* [] invert flag *)
let op_callk = 22 (* [call id] library kernel call *)
let op_fuse = 23 (* [fuse id; 5 stale words] fused innermost loop *)
let op_ret = 24 (* [] end of an alpha fragment *)
let n_ops = 25

let op_len =
  [| 1; 7; 5; 2; 2; 2; 2; 2; 1; 1; 1; 1; 1; 2; 2; 2; 3; 2; 2; 2; 2; 1; 2; 7; 1 |]

let op_name =
  [|
    "HALT"; "LOOP"; "LOOPBK"; "FCONST"; "FSCALAR"; "FLOAD"; "FSTORE";
    "FSTORE_S"; "FADD"; "FSUB"; "FMUL"; "FDIV"; "FNEG"; "FINT"; "FINTR1";
    "FINTR2"; "FBADCALL"; "FCMP"; "JF"; "JT"; "JMP"; "NOTF"; "CALLK"; "FUSE";
    "RET";
  |]

(* unary intrinsic kinds (FINTR1) *)
let intr1_names =
  [| "sqrt"; "exp"; "log"; "fabs"; "floor"; "ceil"; "sin"; "cos"; "tanh" |]

(* binary intrinsic kinds (FINTR2) *)
let intr2_names = [| "pow"; "min"; "max" |]

(* comparison kinds (FCMP) *)
let cmp_names = [| "lt"; "le"; "gt"; "ge"; "eq"; "ne" |]

(* ------------------------------------------------------------------ *)
(* The xcode mini-ISA: compiled non-affine integer expressions           *)

(* RPN streams in [xpool], evaluated atomically on a scratch int stack.
   Operand order is chosen so a stream replicates the observable
   evaluation order (which subexpression raises first) of the reference
   walkers. *)
let x_push = 0 (* [imm] push constant *)
let x_reg = 1 (* [reg] push integer register *)
let x_err = 2 (* [name id] unbound variable: raises like Expr.eval *)
let x_add = 3
let x_sub = 4
let x_mul = 5
let x_neg = 6
let x_min = 7
let x_max = 8
let x_divf = 9 (* checked floor division (Expr.eval semantics) *)
let x_modf = 10 (* checked floor modulo *)
let x_divt = 11 (* unchecked floor division (trace semantics) *)
let x_modt = 12 (* unchecked floor modulo *)
let n_xops = 13

let xop_len = [| 2; 2; 2; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1 |]

let xop_name =
  [|
    "push"; "reg"; "err"; "add"; "sub"; "mul"; "neg"; "min"; "max"; "divf";
    "modf"; "divt"; "modt";
  |]

(* ------------------------------------------------------------------ *)
(* The trace ISA                                                        *)

let t_halt = 0 (* [] *)
let t_loop = 1 (* [loop id; end_pc] *)
let t_loopbk = 2 (* [loop id; body_pc] *)
let t_comp = 3 (* [comp id] *)
let t_call = 4 (* [call id] *)
let n_tops = 5

let top_len = [| 1; 3; 3; 2; 2 |]
let top_name = [| "THALT"; "TLOOP"; "TLOOPBK"; "TCOMP"; "TCALL" |]

(* ------------------------------------------------------------------ *)
(* Artifact types                                                       *)

(** An integer-expression operand. Registers index the semantic integer
    register file (or, inside a trace section, the node's slot file). *)
type ix =
  | Ix_const of int
  | Ix_reg of int
  | Ix_aff of int * int
      (** [pool] offset and term count; layout [base; (reg, coeff)...] *)
  | Ix_code of int * int  (** [xpool] offset and length (RPN stream) *)

(** A semantic array-access site. *)
type site = { s_array : int;  (** name id *) s_ixs : int array  (** ix ids *) }

(** A lowered library call. [ck_kind]: 0 gemm, 1 gemv, 2 gemvt, 3 syrk,
    4 syr2k, 5 unsupported. [ck_alpha] is the pc of a [RET]-terminated
    fragment computing the first scalar argument (emitted after [HALT]),
    or -1 for the implicit 1.0. *)
type callk = {
  ck_kind : int;
  ck_kernel : int;  (** name id *)
  ck_args : int array;  (** name ids, in source order *)
  ck_dims : int array;  (** ix ids, in source order *)
  mutable ck_alpha : int;
  ck_na : int;
  ck_nd : int;
}

(** A fused innermost loop (superinstruction). The original [LOOP] words
    are overwritten in place ([FUSE fid] + five stale words) and the
    terminating [LOOPBK] is retained, so the generic-dispatch slow path
    simply enters the body at [fu_body_pc]. [fu_ops] is the straight-line
    body as (opcode, operand) pairs (operand -1 for zero-operand ops). *)
type fuse = {
  fu_ireg : int;
  fu_hireg : int;
  fu_lo : int;  (** ix id *)
  fu_hi : int;  (** ix id *)
  fu_step : int;
  fu_body_pc : int;
  fu_end_pc : int;
  fu_ops : (int * int) array;
}

(** A trace-section byte-address generator. *)
type taccess =
  | Ta_aff of int * int
      (** node-pool offset, term count; layout [byte_base; (slot,
          byte_coeff)...] — the whole multi-dim row-major address fused
          into one linear form *)
  | Ta_gen of int * int array * int array
      (** base, declared dims, index ix ids — row-major fold with the
          trace walker's rank-mismatch behavior *)

type tsite = {
  ts_acc : taccess;
  ts_write : bool;
  ts_strided : bool;
  ts_inner_dd : int;
      (** |byte delta| per iteration of this occurrence's innermost
          enclosing loop, [0] outside any loop or when the subscripts are
          not affine in its iterator — approx line-stepping eligibility *)
}

(** One computation occurrence in a trace stream. The [y_cid]-keyed memo
    at runtime replicates the trace walker's: the first executed
    occurrence provides sites, flop class and atomics for every later
    occurrence; only [y_in_simd] and the sites' [ts_inner_dd] stay
    per-occurrence. *)
type tcomp = {
  y_cid : int;
  y_err : string option;  (** compile-time error, raised at every execution *)
  y_sites : tsite array;  (** non-register accesses: reads then write *)
  y_flops : float;
  y_class : int;  (** 0 scalar, 1 vector, 2 unrolled *)
  y_atomic : bool;
  y_contended : bool;
  y_in_simd : bool;
}

type tcall = {
  z_err : string option;
  z_kernel : int;  (** name id *)
  z_dims : int array;  (** ix ids *)
}

type tloop = {
  w_err : string option;
  w_slot : int;
  w_lid : int;
  w_step : int;
  w_lo : int;  (** ix id *)
  w_hi : int;  (** ix id *)
  w_spills : int;  (** spill estimate (leaf loops; 0 otherwise) *)
  w_is_leaf : bool;
  w_starts_parallel : bool;
  w_depth0 : bool;
  mutable w_body : int array option;
      (** [Some ids] iff the loop body is a straight-line run of [t_comp]
          instructions only (no nested loops, no calls): the comp ids in
          execution order. Patched after the body is emitted; the trace
          replay uses it as the static precheck for batched stream
          replay. *)
}

(** The trace section for one top-level node. *)
type tnode = {
  t_code : int array;
  t_nslots : int;
  t_ixs : ix array;
  t_loops : tloop array;
  t_comps : tcomp array;
  t_calls : tcall array;
  t_pool : int array;
  t_xpool : int array;
}

(** Hooks supplied by the machine model so the trace section can be
    lowered without a dependency on [lib/machine]. *)
type trace_hooks = {
  th_base_of : string -> int option;  (** byte base, [None] if unknown *)
  th_dims_of : string -> int array;  (** [[||]] for scalar containers *)
  th_spills : L.loop -> int;
  th_comp_flops : L.comp -> float;  (** rhs + guard flops, un-clamped *)
  th_simd_stride : int array -> Expr.t list -> string -> int option;
}

(** The lowered artifact. *)
type t = {
  bc_pname : string;
  code : int array;
  pool : int array;
  xpool : int array;
  fpool : float array;
  names : string array;
  ixs : ix array;
  sites : site array;
  calls : callk array;
  fuses : fuse array;
  n_iregs : int;
  scalar_names : string array;
  max_stack : int;
  max_xstack : int;
  tnodes : tnode array;
}

(* ------------------------------------------------------------------ *)
(* Shared runtime helpers                                               *)

(** Evaluate an xcode stream. [regs] is the integer register file the
    stream was lowered against; [stack] is caller-provided scratch (xcode
    evaluation is atomic, so one per evaluator is enough). *)
let eval_xcode ~(xpool : int array) ~(names : string array)
    ~(regs : int array) ~(stack : int array) ~off ~len : int =
  let p = ref off in
  let fin = off + len in
  let sp = ref 0 in
  while !p < fin do
    let op = xpool.(!p) in
    if op <= x_err then begin
      (if op = x_push then stack.(!sp) <- xpool.(!p + 1)
       else if op = x_reg then stack.(!sp) <- regs.(xpool.(!p + 1))
       else
         invalid_arg
           (Printf.sprintf "Expr.eval: unbound variable %s"
              names.(xpool.(!p + 1))));
      incr sp;
      p := !p + 2
    end
    else if op = x_neg then begin
      stack.(!sp - 1) <- -stack.(!sp - 1);
      incr p
    end
    else begin
      (* binary: t = top, u = below *)
      decr sp;
      let t = stack.(!sp) in
      let u = stack.(!sp - 1) in
      let r =
        if op = x_add then t + u
        else if op = x_sub then t - u
        else if op = x_mul then t * u
        else if op = x_min then min t u
        else if op = x_max then max t u
        else if op = x_divf then begin
          (* dividend below, divisor on top (Expr.eval order) *)
          if t = 0 then invalid_arg "Expr.eval: division by zero";
          let q = u / t and r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then q - 1 else q
        end
        else if op = x_modf then begin
          if t = 0 then invalid_arg "Expr.eval: modulo by zero";
          let r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then r + t else r
        end
        else if op = x_divt then begin
          let q = u / t and r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then q - 1 else q
        end
        else begin
          (* x_modt *)
          let r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then r + t else r
        end
      in
      stack.(!sp - 1) <- r;
      incr p
    end
  done;
  stack.(0)

(** Bind an {!ix} to a thunk over a register file, specialized by
    operand form (constant, register, affine, xcode). *)
let binder ~(pool : int array) ~(xpool : int array) ~(names : string array)
    ~(regs : int array) ~(xstack : int array) (ix : ix) : unit -> int =
  match ix with
  | Ix_const n -> fun () -> n
  | Ix_reg r -> fun () -> regs.(r)
  | Ix_aff (off, nterms) ->
      let b = pool.(off) in
      if nterms = 1 then begin
        let r = pool.(off + 1) and c = pool.(off + 2) in
        if c = 1 then fun () -> regs.(r) + b
        else fun () -> (c * regs.(r)) + b
      end
      else if nterms = 2 then begin
        let r1 = pool.(off + 1) and c1 = pool.(off + 2) in
        let r2 = pool.(off + 3) and c2 = pool.(off + 4) in
        fun () -> (c1 * regs.(r1)) + (c2 * regs.(r2)) + b
      end
      else
        fun () ->
          let acc = ref b in
          for k = 0 to nterms - 1 do
            acc := !acc + (pool.(off + 2 + (2 * k)) * regs.(pool.(off + 1 + (2 * k))))
          done;
          !acc
  | Ix_code (off, len) ->
      fun () -> eval_xcode ~xpool ~names ~regs ~stack:xstack ~off ~len

(* ------------------------------------------------------------------ *)
(* Lowering: shared emitter state                                       *)

type resolution = Rreg of int | Rconst of int | Runbound

(** One code section (the semantic stream or one trace node). *)
type section = {
  sc_code : Ivec.t;
  sc_pool : Ivec.t;
  sc_xpool : Ivec.t;
  sc_ixs : ix gvec;
}

let section () =
  { sc_code = Ivec.create (); sc_pool = Ivec.create ();
    sc_xpool = Ivec.create (); sc_ixs = gvec () }

(** Global lowering state: string/float interners and stack-depth
    accounting shared by every section. *)
type emitter = {
  name_tbl : (string, int) Hashtbl.t;
  names : string gvec;
  f_tbl : (int64, int) Hashtbl.t;
  fpool : float gvec;
  mutable xdepth : int;
  mutable max_xstack : int;
}

let emitter () =
  {
    name_tbl = Hashtbl.create 16;
    names = gvec ();
    f_tbl = Hashtbl.create 16;
    fpool = gvec ();
    xdepth = 0;
    max_xstack = 0;
  }

let intern_name em s =
  match Hashtbl.find_opt em.name_tbl s with
  | Some i -> i
  | None ->
      let i = gpush em.names s in
      Hashtbl.add em.name_tbl s i;
      i

let intern_float em f =
  let bits = Int64.bits_of_float f in
  match Hashtbl.find_opt em.f_tbl bits with
  | Some i -> i
  | None ->
      let i = gpush em.fpool f in
      Hashtbl.add em.f_tbl bits i;
      i

(* ------------------------------------------------------------------ *)
(* Integer-expression lowering                                          *)

let xpush_depth em =
  em.xdepth <- em.xdepth + 1;
  if em.xdepth > em.max_xstack then em.max_xstack <- em.xdepth

(* Emission order matches the reference walkers' evaluation order:
   [fa it + fb it] applies [fb] first (OCaml right-to-left), while
   div/mod bind [let x = fa it and y = fb it] left-to-right. *)
let rec emit_x em sec resolve ~checked (e : Expr.t) : unit =
  let pushx v = Ivec.push sec.sc_xpool v in
  match e with
  | Expr.Const n ->
      pushx x_push;
      pushx n;
      xpush_depth em
  | Expr.Var v ->
      (match resolve v with
      | Rreg r ->
          pushx x_reg;
          pushx r
      | Rconst n ->
          pushx x_push;
          pushx n
      | Runbound ->
          pushx x_err;
          pushx (intern_name em v));
      xpush_depth em
  | Expr.Add (a, b) ->
      emit_x em sec resolve ~checked b;
      emit_x em sec resolve ~checked a;
      pushx x_add;
      em.xdepth <- em.xdepth - 1
  | Expr.Sub (a, b) ->
      emit_x em sec resolve ~checked b;
      emit_x em sec resolve ~checked a;
      pushx x_sub;
      em.xdepth <- em.xdepth - 1
  | Expr.Mul (a, b) ->
      emit_x em sec resolve ~checked b;
      emit_x em sec resolve ~checked a;
      pushx x_mul;
      em.xdepth <- em.xdepth - 1
  | Expr.Min (a, b) ->
      emit_x em sec resolve ~checked b;
      emit_x em sec resolve ~checked a;
      pushx x_min;
      em.xdepth <- em.xdepth - 1
  | Expr.Max (a, b) ->
      emit_x em sec resolve ~checked b;
      emit_x em sec resolve ~checked a;
      pushx x_max;
      em.xdepth <- em.xdepth - 1
  | Expr.Div (a, b) ->
      emit_x em sec resolve ~checked a;
      emit_x em sec resolve ~checked b;
      pushx (if checked then x_divf else x_divt);
      em.xdepth <- em.xdepth - 1
  | Expr.Mod (a, b) ->
      emit_x em sec resolve ~checked a;
      emit_x em sec resolve ~checked b;
      pushx (if checked then x_modf else x_modt);
      em.xdepth <- em.xdepth - 1
  | Expr.Neg a -> emit_x em sec resolve ~checked a; pushx x_neg

let lower_xcode em sec resolve ~checked e : ix =
  let off = Ivec.len sec.sc_xpool in
  em.xdepth <- 0;
  emit_x em sec resolve ~checked e;
  Ix_code (off, Ivec.len sec.sc_xpool - off)

(** Lower an integer expression: affine fast path with all variables
    resolved (size parameters folded into the base), whole-expression
    xcode fallback otherwise.
    Returns the new ix id in [sec]. *)
let lower_ix em sec resolve ~checked (e : Expr.t) : int =
  let ix =
    match Affine.of_expr e with
    | None -> lower_xcode em sec resolve ~checked e
    | Some aff ->
        let base = ref aff.Affine.const in
        let terms = ref [] in
        let ok = ref true in
        Util.SMap.iter
          (fun v c ->
            match resolve v with
            | Rreg r -> terms := (r, c) :: !terms
            | Rconst n -> base := !base + (c * n)
            | Runbound -> ok := false)
          aff.Affine.terms;
        if not !ok then lower_xcode em sec resolve ~checked e
        else begin
          match !terms with
          | [] -> Ix_const !base
          | [ (r, 1) ] when !base = 0 -> Ix_reg r
          | ts ->
              let off = Ivec.len sec.sc_pool in
              Ivec.push sec.sc_pool !base;
              List.iter
                (fun (r, c) ->
                  Ivec.push sec.sc_pool r;
                  Ivec.push sec.sc_pool c)
                ts;
              Ix_aff (off, List.length ts)
        end
  in
  gpush sec.sc_ixs ix

(* ------------------------------------------------------------------ *)
(* Semantic lowering                                                    *)

type sem_state = {
  em : emitter;
  sec : section;
  sites : site gvec;
  calls : callk gvec;
  fuses : fuse gvec;
  scalar_tbl : (string, int) Hashtbl.t;
  sizes : int Util.SMap.t;
  mutable slots : (string * int) list;  (** lexically scoped iter -> ireg *)
  mutable nregs : int;
  mutable depth : int;
  mutable maxdepth : int;
  mutable pending : (callk * (string * int) list * L.vexpr) list;
}

let sem_resolve ss v =
  match List.assoc_opt v ss.slots with
  | Some r -> Rreg r
  | None -> (
      match Util.SMap.find_opt v ss.sizes with
      | Some n -> Rconst n
      | None -> Runbound)

let emit ss w = Ivec.push ss.sec.sc_code w
let here ss = Ivec.len ss.sec.sc_code
let patch ss at v = Ivec.set ss.sec.sc_code at v

let push_f ss =
  ss.depth <- ss.depth + 1;
  if ss.depth > ss.maxdepth then ss.maxdepth <- ss.depth

let lower_int ss e = lower_ix ss.em ss.sec (sem_resolve ss) ~checked:true e

let lower_site ss (a : L.access) : int =
  let ixs = List.map (lower_int ss) a.L.indices in
  gpush ss.sites { s_array = intern_name ss.em a.L.array; s_ixs = Array.of_list ixs }

let scalar_slot ss s =
  match Hashtbl.find_opt ss.scalar_tbl s with
  | Some i -> i
  | None ->
      (* the prepass collects every scalar name, so this is unreachable
         for well-formed programs *)
      Diag.errorf "bytecode lowering: unbound scalar %s" s

let intr1_kind f =
  let rec go i =
    if i >= Array.length intr1_names then -1
    else if intr1_names.(i) = f then i
    else go (i + 1)
  in
  go 0

let intr2_kind f =
  let rec go i =
    if i >= Array.length intr2_names then -1
    else if intr2_names.(i) = f then i
    else go (i + 1)
  in
  go 0

(* Stack effect discipline matches the tree oracle's evaluation order:
   binary operands left then right, intrinsic arguments left to right,
   guard before rhs before destination indices. *)
let rec emit_vexpr ss (e : L.vexpr) : unit =
  match e with
  | L.Vfloat f ->
      emit ss op_fconst;
      emit ss (intern_float ss.em f);
      push_f ss
  | L.Vint ie ->
      let id = lower_int ss ie in
      emit ss op_fint;
      emit ss id;
      push_f ss
  | L.Vread a ->
      let sid = lower_site ss a in
      emit ss op_fload;
      emit ss sid;
      push_f ss
  | L.Vscalar s ->
      emit ss op_fscalar;
      emit ss (scalar_slot ss s);
      push_f ss
  | L.Vbin (op, a, b) ->
      emit_vexpr ss a;
      emit_vexpr ss b;
      emit ss
        (match op with
        | L.Vadd -> op_fadd
        | L.Vsub -> op_fsub
        | L.Vmul -> op_fmul
        | L.Vdiv -> op_fdiv);
      ss.depth <- ss.depth - 1
  | L.Vneg a ->
      emit_vexpr ss a;
      emit ss op_fneg
  | L.Vcall (f, args) -> (
      let n = List.length args in
      match args with
      | [ a ] when intr1_kind f >= 0 ->
          emit_vexpr ss a;
          emit ss op_fintr1;
          emit ss (intr1_kind f)
      | [ a; b ] when intr2_kind f >= 0 ->
          emit_vexpr ss a;
          emit_vexpr ss b;
          emit ss op_fintr2;
          emit ss (intr2_kind f);
          ss.depth <- ss.depth - 1
      | _ ->
          List.iter (emit_vexpr ss) args;
          emit ss op_fbadcall;
          emit ss (intern_name ss.em f);
          emit ss n;
          (* raises after evaluating its arguments; net effect on the
             depth simulation is pop n, push 1 *)
          ss.depth <- ss.depth - n;
          push_f ss)
  | L.Vselect (p, a, b) ->
      emit_pred ss p;
      emit ss op_jf;
      let l_else = here ss in
      emit ss 0;
      let d0 = ss.depth in
      emit_vexpr ss a;
      emit ss op_jmp;
      let l_end = here ss in
      emit ss 0;
      patch ss l_else (here ss);
      ss.depth <- d0;
      emit_vexpr ss b;
      patch ss l_end (here ss)

and emit_pred ss (p : L.pred) : unit =
  match p with
  | L.Pcmp (op, a, b) ->
      emit_vexpr ss a;
      emit_vexpr ss b;
      emit ss op_fcmp;
      emit ss
        (match op with
        | L.Clt -> 0
        | L.Cle -> 1
        | L.Cgt -> 2
        | L.Cge -> 3
        | L.Ceq -> 4
        | L.Cne -> 5);
      ss.depth <- ss.depth - 2
  | L.Pand (a, b) ->
      (* short-circuit: if a is false, the flag is already false *)
      emit_pred ss a;
      emit ss op_jf;
      let l = here ss in
      emit ss 0;
      emit_pred ss b;
      patch ss l (here ss)
  | L.Por (a, b) ->
      emit_pred ss a;
      emit ss op_jt;
      let l = here ss in
      emit ss 0;
      emit_pred ss b;
      patch ss l (here ss)
  | L.Pnot a ->
      emit_pred ss a;
      emit ss op_notf

let emit_comp ss (c : L.comp) : unit =
  let l_end = ref (-1) in
  (match c.L.guard with
  | None -> ()
  | Some g ->
      emit_pred ss g;
      emit ss op_jf;
      l_end := here ss;
      emit ss 0);
  emit_vexpr ss c.L.rhs;
  (match c.L.dest with
  | L.Dscalar s ->
      emit ss op_fstore_s;
      emit ss (scalar_slot ss s)
  | L.Darray a ->
      let sid = lower_site ss a in
      emit ss op_fstore;
      emit ss sid);
  ss.depth <- ss.depth - 1;
  if !l_end >= 0 then patch ss !l_end (here ss)

let emit_libcall ss (k : L.libcall) : unit =
  let dims = List.map (lower_int ss) k.L.dims in
  let na = List.length k.L.args and nd = List.length k.L.dims in
  let kind =
    match (k.L.kernel, na, nd) with
    | "gemm", 3, 3 -> 0
    | "gemv", 3, 2 -> 1
    | "gemvt", 3, 2 -> 2
    | "syrk", 2, 2 -> 3
    | "syr2k", 3, 2 -> 4
    | _ -> 5
  in
  let ck =
    {
      ck_kind = kind;
      ck_kernel = intern_name ss.em k.L.kernel;
      ck_args = Array.of_list (List.map (intern_name ss.em) k.L.args);
      ck_dims = Array.of_list dims;
      ck_alpha = -1;
      ck_na = na;
      ck_nd = nd;
    }
  in
  let id = gpush ss.calls ck in
  (match k.L.scalar_args with
  | [] -> ()
  | a :: _ -> ss.pending <- (ck, ss.slots, a) :: ss.pending);
  emit ss op_callk;
  emit ss id

let rec emit_node ss (n : L.node) : unit =
  match n with
  | L.Ncomp c -> emit_comp ss c
  | L.Ncall k -> emit_libcall ss k
  | L.Nloop l ->
      (* bounds are lowered in the enclosing scope *)
      let lo = lower_int ss l.L.lo in
      let hi = lower_int ss l.L.hi in
      let ireg = ss.nregs in
      let hireg = ss.nregs + 1 in
      ss.nregs <- ss.nregs + 2;
      emit ss op_loop;
      emit ss ireg;
      emit ss hireg;
      emit ss lo;
      emit ss hi;
      emit ss l.L.step;
      let l_end = here ss in
      emit ss 0;
      let body_pc = here ss in
      let saved = ss.slots in
      ss.slots <- (l.L.iter, ireg) :: saved;
      List.iter (emit_node ss) l.L.body;
      ss.slots <- saved;
      emit ss op_loopbk;
      emit ss ireg;
      emit ss hireg;
      emit ss l.L.step;
      emit ss body_pc;
      patch ss l_end (here ss)

(* ------------------------------------------------------------------ *)
(* Peephole: superinstruction formation                                 *)

let fusable op =
  op = op_fconst || op = op_fscalar || op = op_fload || op = op_fstore
  || op = op_fadd || op = op_fsub || op = op_fmul || op = op_fdiv
  || op = op_fneg || op = op_fintr1 || op = op_fintr2

(** Rewrite innermost loops whose whole body is straight-line float code
    into [FUSE] superinstructions, in place (no pc remapping: [FUSE] has
    [LOOP]'s length and the body plus [LOOPBK] stay behind it as the
    slow path). *)
let peephole (fuses : fuse gvec) (code : int array) : unit =
  let n = Array.length code in
  let pc = ref 0 in
  while !pc < n do
    let op = code.(!pc) in
    let len = op_len.(op) in
    (if op = op_loop then begin
       let ireg = code.(!pc + 1) in
       let end_pc = code.(!pc + 6) in
       let bk = end_pc - op_len.(op_loopbk) in
       if
         bk >= !pc + 7 && end_pc <= n
         && code.(bk) = op_loopbk
         && code.(bk + 1) = ireg
         && code.(bk + 4) = !pc + 7
       then begin
         let ok = ref true in
         let ops = ref [] in
         let q = ref (!pc + 7) in
         while !ok && !q < bk do
           let o = code.(!q) in
           if fusable o then begin
             let operand = if op_len.(o) = 2 then code.(!q + 1) else -1 in
             ops := (o, operand) :: !ops;
             q := !q + op_len.(o)
           end
           else ok := false
         done;
         if !ok && !q = bk then begin
           let fu =
             {
               fu_ireg = ireg;
               fu_hireg = code.(!pc + 2);
               fu_lo = code.(!pc + 3);
               fu_hi = code.(!pc + 4);
               fu_step = code.(!pc + 5);
               fu_body_pc = !pc + 7;
               fu_end_pc = end_pc;
               fu_ops = Array.of_list (List.rev !ops);
             }
           in
           let fid = gpush fuses fu in
           code.(!pc) <- op_fuse;
           code.(!pc + 1) <- fid
         end
       end
     end);
    pc := !pc + len
  done

(* ------------------------------------------------------------------ *)
(* Trace-section lowering                                               *)

(** Depth-first left-to-right scan for the first variable that neither
    the slot table nor the parameter environment resolves — the variable
    whose compilation raises first in the trace walker. *)
let rec first_unbound resolve (e : Expr.t) : string option =
  match e with
  | Expr.Const _ -> None
  | Expr.Var v -> ( match resolve v with Runbound -> Some v | _ -> None)
  | Expr.Add (a, b)
  | Expr.Sub (a, b)
  | Expr.Mul (a, b)
  | Expr.Div (a, b)
  | Expr.Mod (a, b)
  | Expr.Min (a, b)
  | Expr.Max (a, b) -> (
      match first_unbound resolve a with
      | Some _ as s -> s
      | None -> first_unbound resolve b)
  | Expr.Neg a -> first_unbound resolve a

let unbound_err resolve e =
  Option.map (fun v -> "unbound variable " ^ v) (first_unbound resolve e)

(** The first compile-time error of a computation, scanning accesses in
    the trace walker's construction order: deduped reads (arrays then
    scalars-as-registers), then the destination; per access the container
    lookup first, then each subscript left to right (register containers
    skip subscripts entirely). *)
let comp_err (hooks : trace_hooks) resolve (c : L.comp) : string option =
  let reads =
    Util.dedup ~eq:( = )
      (L.comp_array_reads c
      @ List.map
          (fun s -> { L.array = s; indices = [] })
          (L.comp_scalar_reads c))
  in
  let writes =
    match c.L.dest with
    | L.Darray a -> [ a ]
    | L.Dscalar s -> [ { L.array = s; indices = [] } ]
  in
  let rec scan = function
    | [] -> None
    | (a : L.access) :: rest -> (
        match hooks.th_base_of a.L.array with
        | None -> Some ("unknown container " ^ a.L.array)
        | Some _ ->
            if Array.length (hooks.th_dims_of a.L.array) = 0 then scan rest
            else
              let rec iscan = function
                | [] -> scan rest
                | ie :: irest -> (
                    match unbound_err resolve ie with
                    | Some _ as s -> s
                    | None -> iscan irest)
              in
              iscan a.L.indices)
  in
  scan (reads @ writes)

let dim_stride (dims : int array) (d : int) : int =
  let s = ref 1 in
  for k = d + 1 to Array.length dims - 1 do
    s := !s * dims.(k)
  done;
  !s

(** Lower one non-register access to a byte-address generator. The fused
    [Ta_aff] form requires rank-exact, fully-affine, fully-resolved
    subscripts; anything else keeps the trace walker's row-major fold
    over per-subscript generators. *)
let lower_taccess em sec resolve ~base ~(dims : int array)
    (indices : Expr.t list) : taccess =
  let rank_ok = List.length indices = Array.length dims in
  let affs =
    if rank_ok then
      List.map
        (fun ie ->
          match Affine.of_expr ie with
          | None -> None
          | Some aff ->
              let const = ref aff.Affine.const in
              let terms = ref [] in
              let ok = ref true in
              Util.SMap.iter
                (fun v c ->
                  match resolve v with
                  | Rreg r -> terms := (r, c) :: !terms
                  | Rconst n -> const := !const + (c * n)
                  | Runbound -> ok := false)
                aff.Affine.terms;
              if !ok then Some (!const, !terms) else None)
        indices
    else []
  in
  if rank_ok && List.for_all Option.is_some affs then begin
    let byte_base = ref base in
    let coeffs = Hashtbl.create 4 in
    let order = ref [] in
    List.iteri
      (fun d a ->
        let const, terms = Option.get a in
        let stride = 8 * dim_stride dims d in
        byte_base := !byte_base + (const * stride);
        List.iter
          (fun (r, c) ->
            (if not (Hashtbl.mem coeffs r) then order := r :: !order);
            Hashtbl.replace coeffs r
              ((try Hashtbl.find coeffs r with Not_found -> 0) + (c * stride)))
          terms)
      affs;
    let off = Ivec.len sec.sc_pool in
    Ivec.push sec.sc_pool !byte_base;
    let n = ref 0 in
    List.iter
      (fun r ->
        let c = Hashtbl.find coeffs r in
        if c <> 0 then begin
          Ivec.push sec.sc_pool r;
          Ivec.push sec.sc_pool c;
          incr n
        end)
      (List.rev !order);
    Ta_aff (off, !n)
  end
  else
    Ta_gen
      ( base,
        dims,
        Array.of_list
          (List.map (fun ie -> lower_ix em sec resolve ~checked:false ie) indices)
      )

(** Lower the trace section for one top-level node. *)
let lower_tnode em (hooks : trace_hooks) ~(param_env : int Util.SMap.t)
    (node : L.node) : tnode =
  let sec = section () in
  let loops = gvec () and comps = gvec () and calls = gvec () in
  (* iterator slots: subtree pre-order, deduped by name *)
  let iter_names =
    L.loops_in [ node ]
    |> List.map (fun (l : L.loop) -> l.L.iter)
    |> Util.dedup ~eq:String.equal
  in
  let slot_tbl = Hashtbl.create 8 in
  List.iteri (fun i n -> Hashtbl.replace slot_tbl n i) iter_names;
  let resolve v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> Rreg s
    | None -> (
        match Util.SMap.find_opt v param_env with
        | Some n -> Rconst n
        | None -> Runbound)
  in
  let emit w = Ivec.push sec.sc_code w in
  let here () = Ivec.len sec.sc_code in
  let lower_i ie = lower_ix em sec resolve ~checked:false ie in
  let dummy_ix () = gpush sec.sc_ixs (Ix_const 0) in
  let rec walk nodes ~depth ~simd_iter ~unrolled ~atomic_region ~in_parallel
      ~parallel_iter ~inner =
    List.iter
      (fun n ->
        match n with
        | L.Ncomp c ->
            let err = comp_err hooks resolve c in
            let sites =
              if err <> None then [||]
              else begin
                let reads =
                  Util.dedup ~eq:( = )
                    (L.comp_array_reads c
                    @ List.map
                        (fun s -> { L.array = s; indices = [] })
                        (L.comp_scalar_reads c))
                in
                let writes =
                  match c.L.dest with
                  | L.Darray a -> [ a ]
                  | L.Dscalar s -> [ { L.array = s; indices = [] } ]
                in
                let one ~write (a : L.access) =
                  let dims = hooks.th_dims_of a.L.array in
                  if Array.length dims = 0 then None (* register *)
                  else begin
                    let base =
                      match hooks.th_base_of a.L.array with
                      | Some b -> b
                      | None -> assert false (* covered by comp_err *)
                    in
                    let strided =
                      match simd_iter with
                      | None -> false
                      | Some it -> (
                          match hooks.th_simd_stride dims a.L.indices it with
                          | Some s -> s <> 0 && s <> 1
                          | None -> true)
                    in
                    let inner_dd =
                      match inner with
                      | None -> 0
                      | Some (it, step) -> (
                          match hooks.th_simd_stride dims a.L.indices it with
                          | Some s -> abs (8 * s * step)
                          | None -> 0)
                    in
                    Some
                      {
                        ts_acc =
                          lower_taccess em sec resolve ~base ~dims a.L.indices;
                        ts_write = write;
                        ts_strided = strided;
                        ts_inner_dd = inner_dd;
                      }
                  end
                in
                Array.of_list
                  (List.filter_map (one ~write:false) reads
                  @ List.filter_map (one ~write:true) writes)
              end
            in
            (* vectorizable over all accesses; register sites are never
               strided, so restricting to memory sites is equivalent *)
            let vectorizable =
              simd_iter <> None
              && Array.for_all (fun s -> not s.ts_strided) sites
            in
            let contended =
              atomic_region
              &&
              match (parallel_iter, c.L.dest) with
              | Some it, L.Darray a ->
                  List.for_all
                    (fun idx ->
                      match Affine.of_expr idx with
                      | Some aff -> Affine.coeff it aff = 0
                      | None -> false)
                    a.L.indices
              | Some _, L.Dscalar _ -> true
              | None, _ -> true
            in
            let y =
              {
                y_cid = c.L.cid;
                y_err = err;
                y_sites = sites;
                y_flops = Float.max 1.0 (hooks.th_comp_flops c);
                y_class =
                  (if vectorizable then 1 else if unrolled then 2 else 0);
                y_atomic = atomic_region;
                y_contended = contended;
                y_in_simd = simd_iter <> None;
              }
            in
            let id = gpush comps y in
            emit t_comp;
            emit id
        | L.Ncall k ->
            let err =
              List.fold_left
                (fun acc d ->
                  match acc with Some _ -> acc | None -> unbound_err resolve d)
                None k.L.dims
            in
            let z =
              {
                z_err = err;
                z_kernel = intern_name em k.L.kernel;
                z_dims =
                  (if err <> None then
                     Array.of_list (List.map (fun _ -> dummy_ix ()) k.L.dims)
                   else Array.of_list (List.map lower_i k.L.dims));
              }
            in
            let id = gpush calls z in
            emit t_call;
            emit id
        | L.Nloop l ->
            let starts_parallel = l.L.attrs.L.parallel && not in_parallel in
            let err =
              match unbound_err resolve l.L.lo with
              | Some _ as s -> s
              | None -> unbound_err resolve l.L.hi
            in
            let is_leaf = L.loops_in l.L.body = [] in
            let w =
              {
                w_err = err;
                w_slot = Hashtbl.find slot_tbl l.L.iter;
                w_lid = l.L.lid;
                w_step = l.L.step;
                w_lo = (if err <> None then dummy_ix () else lower_i l.L.lo);
                w_hi = (if err <> None then dummy_ix () else lower_i l.L.hi);
                w_spills = (if is_leaf then hooks.th_spills l else 0);
                w_is_leaf = is_leaf;
                w_starts_parallel = starts_parallel;
                w_depth0 = depth = 0;
                w_body = None;
              }
            in
            let id = gpush loops w in
            emit t_loop;
            emit id;
            let l_end = here () in
            emit 0;
            let body_pc = here () in
            walk l.L.body ~depth:(depth + 1)
              ~simd_iter:
                (if l.L.attrs.L.vectorized then Some l.L.iter else simd_iter)
              ~unrolled:(unrolled || l.L.attrs.L.unroll > 1)
              ~atomic_region:
                (atomic_region || (starts_parallel && l.L.attrs.L.atomic))
              ~in_parallel:(in_parallel || starts_parallel)
              ~parallel_iter:
                (if starts_parallel then Some l.L.iter else parallel_iter)
              ~inner:(Some (l.L.iter, l.L.step));
            (* straight-line body: a run of [t_comp] only — record the
               comp ids so the trace replay can batch the whole trip *)
            let body_end = here () in
            let straight = ref true in
            let ids = ref [] in
            let p = ref body_pc in
            while !straight && !p < body_end do
              if Ivec.get sec.sc_code !p = t_comp then begin
                ids := Ivec.get sec.sc_code (!p + 1) :: !ids;
                p := !p + top_len.(t_comp)
              end
              else straight := false
            done;
            if !straight then w.w_body <- Some (Array.of_list (List.rev !ids));
            emit t_loopbk;
            emit id;
            emit body_pc;
            Ivec.set sec.sc_code l_end (here ()))
      nodes
  in
  walk [ node ] ~depth:0 ~simd_iter:None ~unrolled:false ~atomic_region:false
    ~in_parallel:false ~parallel_iter:None ~inner:None;
  emit t_halt;
  {
    t_code = Ivec.to_array sec.sc_code;
    t_nslots = List.length iter_names;
    t_ixs = garr sec.sc_ixs;
    t_loops = garr loops;
    t_comps = garr comps;
    t_calls = garr calls;
    t_pool = Ivec.to_array sec.sc_pool;
    t_xpool = Ivec.to_array sec.sc_xpool;
  }

(* ------------------------------------------------------------------ *)
(* Verifier                                                             *)

(** Structural checks on a lowered artifact: every operand in range,
    operand-pool and register-file bounds respected, jump targets on
    instruction boundaries, xcode streams well-formed (no stack
    underflow, one result). Returns human-readable problems. *)
let verify (a : t) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n_names = Array.length a.names in
  let check_ix_table ~what ~(ixs : ix array) ~(pool : int array)
      ~(xpool : int array) ~nregs =
    Array.iteri
      (fun i ix ->
        match ix with
        | Ix_const _ -> ()
        | Ix_reg r ->
            if r < 0 || r >= nregs then
              err "%s: ix %d: register %d out of file [0, %d)" what i r nregs
        | Ix_aff (off, nt) ->
            if nt < 1 || off < 0 || off + 1 + (2 * nt) > Array.length pool then
              err "%s: ix %d: affine slice [%d, %d) outside pool" what i off
                (off + 1 + (2 * nt))
            else
              for k = 0 to nt - 1 do
                let r = pool.(off + 1 + (2 * k)) in
                if r < 0 || r >= nregs then
                  err "%s: ix %d: affine register %d out of file [0, %d)" what
                    i r nregs
              done
        | Ix_code (off, len) ->
            if off < 0 || len < 1 || off + len > Array.length xpool then
              err "%s: ix %d: xcode slice [%d, %d) outside xpool" what i off
                (off + len)
            else begin
              let depth = ref 0 in
              let p = ref off in
              let bad = ref false in
              while (not !bad) && !p < off + len do
                let op = xpool.(!p) in
                if op < 0 || op >= n_xops then begin
                  err "%s: ix %d: bad xcode opcode %d" what i op;
                  bad := true
                end
                else begin
                  (if op = x_push then ()
                   else if op = x_reg then begin
                     let r = xpool.(!p + 1) in
                     if r < 0 || r >= nregs then begin
                       err "%s: ix %d: xcode register %d out of file [0, %d)"
                         what i r nregs;
                       bad := true
                     end
                   end
                   else if op = x_err then begin
                     let nm = xpool.(!p + 1) in
                     if nm < 0 || nm >= n_names then begin
                       err "%s: ix %d: xcode name id %d out of table" what i nm;
                       bad := true
                     end
                   end);
                  if not !bad then begin
                    (if op <= x_err then incr depth
                     else if op = x_neg then begin
                       if !depth < 1 then begin
                         err "%s: ix %d: xcode stack underflow" what i;
                         bad := true
                       end
                     end
                     else if !depth < 2 then begin
                       err "%s: ix %d: xcode stack underflow" what i;
                       bad := true
                     end
                     else decr depth);
                    if !p + xop_len.(op) > off + len then begin
                      err "%s: ix %d: truncated xcode stream" what i;
                      bad := true
                    end
                    else p := !p + xop_len.(op)
                  end
                end
              done;
              if (not !bad) && !depth <> 1 then
                err "%s: ix %d: xcode leaves %d values on the stack" what i
                  !depth
            end)
      ixs
  in
  (* --- semantic stream --- *)
  check_ix_table ~what:"sem" ~ixs:a.ixs ~pool:a.pool ~xpool:a.xpool
    ~nregs:(max 1 a.n_iregs);
  let n = Array.length a.code in
  let boundary = Array.make (n + 1) false in
  let nscalars = Array.length a.scalar_names in
  let ck_ix what pc v =
    if v < 0 || v >= Array.length a.ixs then
      err "sem pc %d: %s ix id %d out of table" pc what v
  in
  let ck_reg what pc v =
    if v < 0 || v >= max 1 a.n_iregs then
      err "sem pc %d: %s register %d out of file [0, %d)" pc what v a.n_iregs
  in
  let pc = ref 0 in
  let bad = ref false in
  while (not !bad) && !pc < n do
    let p = !pc in
    boundary.(p) <- true;
    let op = a.code.(p) in
    if op < 0 || op >= n_ops then begin
      err "sem pc %d: bad opcode %d" p op;
      bad := true
    end
    else if p + op_len.(op) > n then begin
      err "sem pc %d: truncated %s" p op_name.(op);
      bad := true
    end
    else begin
      (if op = op_loop then begin
         ck_reg "iterator" p a.code.(p + 1);
         ck_reg "bound" p a.code.(p + 2);
         ck_ix "lo" p a.code.(p + 3);
         ck_ix "hi" p a.code.(p + 4);
         if a.code.(p + 5) = 0 then err "sem pc %d: zero loop step" p
       end
       else if op = op_loopbk then begin
         ck_reg "iterator" p a.code.(p + 1);
         ck_reg "bound" p a.code.(p + 2);
         if a.code.(p + 3) = 0 then err "sem pc %d: zero loop step" p
       end
       else if op = op_fconst then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length a.fpool then
           err "sem pc %d: fpool id %d out of table" p v
       end
       else if op = op_fscalar || op = op_fstore_s then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= max 1 nscalars then
           err "sem pc %d: scalar slot %d out of file [0, %d)" p v nscalars
       end
       else if op = op_fload || op = op_fstore then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length a.sites then
           err "sem pc %d: site id %d out of table" p v
         else begin
           let s = a.sites.(v) in
           if s.s_array < 0 || s.s_array >= n_names then
             err "sem pc %d: site %d: name id %d out of table" p v s.s_array;
           Array.iter (ck_ix "subscript" p) s.s_ixs
         end
       end
       else if op = op_fint then ck_ix "operand" p a.code.(p + 1)
       else if op = op_fintr1 then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length intr1_names then
           err "sem pc %d: unary intrinsic kind %d out of range" p v
       end
       else if op = op_fintr2 then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length intr2_names then
           err "sem pc %d: binary intrinsic kind %d out of range" p v
       end
       else if op = op_fbadcall then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= n_names then
           err "sem pc %d: name id %d out of table" p v;
         if a.code.(p + 2) < 0 then err "sem pc %d: negative arity" p
       end
       else if op = op_fcmp then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length cmp_names then
           err "sem pc %d: comparison kind %d out of range" p v
       end
       else if op = op_callk then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length a.calls then
           err "sem pc %d: call id %d out of table" p v
         else begin
           let ck = a.calls.(v) in
           if ck.ck_kernel < 0 || ck.ck_kernel >= n_names then
             err "sem pc %d: call %d: kernel name id out of table" p v;
           Array.iter
             (fun nm ->
               if nm < 0 || nm >= n_names then
                 err "sem pc %d: call %d: array name id out of table" p v)
             ck.ck_args;
           Array.iter (ck_ix "dim" p) ck.ck_dims
         end
       end
       else if op = op_fuse then begin
         let v = a.code.(p + 1) in
         if v < 0 || v >= Array.length a.fuses then
           err "sem pc %d: fuse id %d out of table" p v
         else begin
           let fu = a.fuses.(v) in
           ck_reg "iterator" p fu.fu_ireg;
           ck_reg "bound" p fu.fu_hireg;
           ck_ix "lo" p fu.fu_lo;
           ck_ix "hi" p fu.fu_hi;
           if fu.fu_step = 0 then err "sem pc %d: zero fused step" p;
           if fu.fu_body_pc <> p + 7 then
             err "sem pc %d: fuse body pc %d is not pc+7" p fu.fu_body_pc;
           Array.iter
             (fun (o, operand) ->
               if not (fusable o) then
                 err "sem pc %d: non-fusable opcode %d in fuse %d" p o v
               else if op_len.(o) = 2 && operand < 0 then
                 err "sem pc %d: fuse %d: missing operand for %s" p v
                   op_name.(o))
             fu.fu_ops
         end
       end);
      pc := p + op_len.(op)
    end
  done;
  if not !bad then begin
    (* jump targets on instruction boundaries *)
    let ck_target what p v =
      if v < 0 || v > n || not (if v = n then false else boundary.(v)) then
        err "sem pc %d: %s target %d is not an instruction boundary" p what v
    in
    let pc = ref 0 in
    while !pc < n do
      let p = !pc in
      let op = a.code.(p) in
      (if op = op_loop then ck_target "loop end" p a.code.(p + 6)
       else if op = op_loopbk then ck_target "back-edge" p a.code.(p + 4)
       else if op = op_jf || op = op_jt || op = op_jmp then
         ck_target "jump" p a.code.(p + 1)
       else if op = op_fuse then begin
         let fu = a.fuses.(a.code.(p + 1)) in
         ck_target "fuse body" p fu.fu_body_pc;
         ck_target "fuse end" p fu.fu_end_pc
       end);
      pc := p + op_len.(op)
    done;
    Array.iter
      (fun ck ->
        if ck.ck_alpha >= 0 && (ck.ck_alpha >= n || not boundary.(ck.ck_alpha))
        then err "call: alpha fragment pc %d is not an instruction boundary"
            ck.ck_alpha)
      a.calls
  end;
  (* --- trace sections --- *)
  Array.iteri
    (fun ti tn ->
      let what = Printf.sprintf "tnode %d" ti in
      check_ix_table ~what ~ixs:tn.t_ixs ~pool:tn.t_pool ~xpool:tn.t_xpool
        ~nregs:(max 1 tn.t_nslots);
      let ck_tix pc v =
        if v < 0 || v >= Array.length tn.t_ixs then
          err "%s pc %d: ix id %d out of table" what pc v
      in
      let m = Array.length tn.t_code in
      let tbound = Array.make (m + 1) false in
      let pc = ref 0 in
      let bad = ref false in
      while (not !bad) && !pc < m do
        let p = !pc in
        tbound.(p) <- true;
        let op = tn.t_code.(p) in
        if op < 0 || op >= n_tops then begin
          err "%s pc %d: bad opcode %d" what p op;
          bad := true
        end
        else if p + top_len.(op) > m then begin
          err "%s pc %d: truncated %s" what p top_name.(op);
          bad := true
        end
        else begin
          (if op = t_loop || op = t_loopbk then begin
             let v = tn.t_code.(p + 1) in
             if v < 0 || v >= Array.length tn.t_loops then
               err "%s pc %d: loop id %d out of table" what p v
             else begin
               let w = tn.t_loops.(v) in
               if w.w_slot < 0 || w.w_slot >= max 1 tn.t_nslots then
                 err "%s pc %d: loop slot %d out of file" what p w.w_slot;
               if w.w_step = 0 then err "%s pc %d: zero loop step" what p;
               ck_tix p w.w_lo;
               ck_tix p w.w_hi;
               match w.w_body with
               | None -> ()
               | Some ids ->
                   Array.iter
                     (fun id ->
                       if id < 0 || id >= Array.length tn.t_comps then
                         err "%s pc %d: body comp id %d out of table" what p
                           id)
                     ids
             end
           end
           else if op = t_comp then begin
             let v = tn.t_code.(p + 1) in
             if v < 0 || v >= Array.length tn.t_comps then
               err "%s pc %d: comp id %d out of table" what p v
             else
               Array.iter
                 (fun s ->
                   match s.ts_acc with
                   | Ta_aff (off, nt) ->
                       if
                         nt < 0 || off < 0
                         || off + 1 + (2 * nt) > Array.length tn.t_pool
                       then
                         err "%s pc %d: address slice [%d, %d) outside pool"
                           what p off
                           (off + 1 + (2 * nt))
                       else
                         for k = 0 to nt - 1 do
                           let r = tn.t_pool.(off + 1 + (2 * k)) in
                           if r < 0 || r >= max 1 tn.t_nslots then
                             err "%s pc %d: address slot %d out of file" what
                               p r
                         done
                   | Ta_gen (_, _, ixs) -> Array.iter (ck_tix p) ixs)
                 tn.t_comps.(v).y_sites
           end
           else if op = t_call then begin
             let v = tn.t_code.(p + 1) in
             if v < 0 || v >= Array.length tn.t_calls then
               err "%s pc %d: call id %d out of table" what p v
             else begin
               let z = tn.t_calls.(v) in
               if z.z_kernel < 0 || z.z_kernel >= n_names then
                 err "%s pc %d: kernel name id out of table" what p;
               Array.iter (ck_tix p) z.z_dims
             end
           end);
          pc := p + top_len.(op)
        end
      done;
      if not !bad then begin
        let ck_target p v =
          if v < 0 || v >= m || not tbound.(v) then
            err "%s pc %d: target %d is not an instruction boundary" what p v
        in
        let pc = ref 0 in
        while !pc < m do
          let p = !pc in
          let op = tn.t_code.(p) in
          if op = t_loop || op = t_loopbk then ck_target p tn.t_code.(p + 2);
          pc := p + top_len.(op)
        done
      end)
    a.tnodes;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Disassembler                                                         *)

let pp_ix ~(pool : int array) ppf (ix : ix) =
  match ix with
  | Ix_const n -> Fmt.pf ppf "%d" n
  | Ix_reg r -> Fmt.pf ppf "r%d" r
  | Ix_aff (off, nt) ->
      Fmt.pf ppf "%d" pool.(off);
      for k = 0 to nt - 1 do
        Fmt.pf ppf "+%d*r%d" pool.(off + 2 + (2 * k)) pool.(off + 1 + (2 * k))
      done
  | Ix_code (off, len) -> Fmt.pf ppf "x[%d..%d]" off (off + len - 1)

let pp_sem_operand (a : t) ppf ~pc ~op =
  let ix i = Fmt.str "%a" (pp_ix ~pool:a.pool) a.ixs.(i) in
  if op = op_loop then
    Fmt.pf ppf " r%d r%d lo=%s hi=%s step=%d end=%d" a.code.(pc + 1)
      a.code.(pc + 2)
      (ix a.code.(pc + 3))
      (ix a.code.(pc + 4))
      a.code.(pc + 5)
      a.code.(pc + 6)
  else if op = op_loopbk then
    Fmt.pf ppf " r%d r%d step=%d body=%d" a.code.(pc + 1) a.code.(pc + 2)
      a.code.(pc + 3)
      a.code.(pc + 4)
  else if op = op_fconst then
    Fmt.pf ppf " %h" a.fpool.(a.code.(pc + 1))
  else if op = op_fscalar || op = op_fstore_s then
    Fmt.pf ppf " %s" a.scalar_names.(a.code.(pc + 1))
  else if op = op_fload || op = op_fstore then begin
    let s = a.sites.(a.code.(pc + 1)) in
    Fmt.pf ppf " %s[%s]" a.names.(s.s_array)
      (String.concat ", " (Array.to_list (Array.map ix s.s_ixs)))
  end
  else if op = op_fint then Fmt.pf ppf " %s" (ix a.code.(pc + 1))
  else if op = op_fintr1 then
    Fmt.pf ppf " %s" intr1_names.(a.code.(pc + 1))
  else if op = op_fintr2 then
    Fmt.pf ppf " %s" intr2_names.(a.code.(pc + 1))
  else if op = op_fbadcall then
    Fmt.pf ppf " %s/%d" a.names.(a.code.(pc + 1)) a.code.(pc + 2)
  else if op = op_fcmp then Fmt.pf ppf " %s" cmp_names.(a.code.(pc + 1))
  else if op = op_jf || op = op_jt || op = op_jmp then
    Fmt.pf ppf " %d" a.code.(pc + 1)
  else if op = op_callk then begin
    let ck = a.calls.(a.code.(pc + 1)) in
    Fmt.pf ppf " %s(%s; dims=%s%s)" a.names.(ck.ck_kernel)
      (String.concat ", "
         (Array.to_list (Array.map (fun n -> a.names.(n)) ck.ck_args)))
      (String.concat ", " (Array.to_list (Array.map ix ck.ck_dims)))
      (if ck.ck_alpha >= 0 then Fmt.str "; alpha@%d" ck.ck_alpha else "")
  end
  else if op = op_fuse then begin
    let fu = a.fuses.(a.code.(pc + 1)) in
    Fmt.pf ppf " r%d r%d lo=%s hi=%s step=%d body=%d end=%d {"
      fu.fu_ireg fu.fu_hireg (ix fu.fu_lo) (ix fu.fu_hi) fu.fu_step
      fu.fu_body_pc fu.fu_end_pc;
    Array.iteri
      (fun i (o, operand) ->
        if i > 0 then Fmt.pf ppf "; ";
        Fmt.pf ppf "%s" (String.lowercase_ascii op_name.(o));
        if op_len.(o) = 2 then begin
          if o = op_fload || o = op_fstore then begin
            let s = a.sites.(operand) in
            Fmt.pf ppf " %s[%s]" a.names.(s.s_array)
              (String.concat ", " (Array.to_list (Array.map ix s.s_ixs)))
          end
          else if o = op_fconst then Fmt.pf ppf " %h" a.fpool.(operand)
          else if o = op_fscalar then
            Fmt.pf ppf " %s" a.scalar_names.(operand)
          else if o = op_fintr1 then Fmt.pf ppf " %s" intr1_names.(operand)
          else if o = op_fintr2 then Fmt.pf ppf " %s" intr2_names.(operand)
        end)
      fu.fu_ops;
    Fmt.pf ppf "}"
  end

(** Disassemble the semantic stream (and a summary of the trace sections)
    for [daisyc schedule --dump-bc] and the golden tests. *)
let pp ppf (a : t) =
  Fmt.pf ppf "bytecode %s: %d words, %d iregs, %d scalars, stack %d@."
    a.bc_pname (Array.length a.code) a.n_iregs
    (Array.length a.scalar_names) a.max_stack;
  let n = Array.length a.code in
  let pc = ref 0 in
  while !pc < n do
    let p = !pc in
    let op = a.code.(p) in
    Fmt.pf ppf "%4d: %-8s" p op_name.(op);
    pp_sem_operand a ppf ~pc:p ~op;
    Fmt.pf ppf "@.";
    pc := p + op_len.(op)
  done;
  if Array.length a.tnodes > 0 then
    Fmt.pf ppf "trace sections: %d (%s)@." (Array.length a.tnodes)
      (String.concat ", "
         (Array.to_list
            (Array.map
               (fun tn ->
                 Printf.sprintf "%d words/%d slots" (Array.length tn.t_code)
                   tn.t_nslots)
               a.tnodes)))

let to_string (a : t) : string = Fmt.str "%a" pp a

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

(** [lower ?hooks ~sizes p] — lower [p] once. [sizes] resolves size
    parameters (the semantic engine passes the state's sizes, the trace
    engine its parameter environment). When [hooks] is given, a trace
    section is lowered per top-level node; otherwise [tnodes] is empty. *)
let lower ?(hooks : trace_hooks option) ~(sizes : int Util.SMap.t)
    (p : L.program) : t =
  Fault.inject "bc_compile";
  (if !L.validation_enabled then
     match L.validate p with
     | [] -> ()
     | errs ->
         Diag.errorf "bytecode lowering: invalid program %s: %s" p.L.pname
           (String.concat "; " errs));
  let em = emitter () in
  let sec = section () in
  let scalar_tbl = Hashtbl.create 16 in
  List.iter
    (fun n ->
      if not (Hashtbl.mem scalar_tbl n) then
        Hashtbl.add scalar_tbl n (Hashtbl.length scalar_tbl))
    (L.program_scalar_names p);
  let nscalars = Hashtbl.length scalar_tbl in
  let scalar_names = Array.make nscalars "" in
  Hashtbl.iter (fun n i -> scalar_names.(i) <- n) scalar_tbl;
  let ss =
    {
      em;
      sec;
      sites = gvec ();
      calls = gvec ();
      fuses = gvec ();
      scalar_tbl;
      sizes;
      slots = [];
      nregs = 0;
      depth = 0;
      maxdepth = 0;
      pending = [];
    }
  in
  List.iter (emit_node ss) p.L.body;
  emit ss op_halt;
  (* alpha fragments: first scalar argument of each library call, lowered
     with the call site's lexical scope and executed on demand *)
  List.iter
    (fun (ck, slots, a) ->
      ck.ck_alpha <- here ss;
      ss.slots <- slots;
      let d = ss.depth in
      ss.depth <- 0;
      emit_vexpr ss a;
      emit ss op_ret;
      ss.depth <- d)
    (List.rev ss.pending);
  ss.slots <- [];
  let code = Ivec.to_array sec.sc_code in
  peephole ss.fuses code;
  let tnodes =
    match hooks with
    | None -> [||]
    | Some hooks ->
        Array.of_list
          (List.map (lower_tnode em hooks ~param_env:sizes) p.L.body)
  in
  let art =
    {
      bc_pname = p.L.pname;
      code;
      pool = Ivec.to_array sec.sc_pool;
      xpool = Ivec.to_array sec.sc_xpool;
      fpool = garr em.fpool;
      names = garr em.names;
      ixs = garr sec.sc_ixs;
      sites = garr ss.sites;
      calls = garr ss.calls;
      fuses = garr ss.fuses;
      n_iregs = ss.nregs;
      scalar_names;
      max_stack = ss.maxdepth;
      max_xstack = em.max_xstack;
      tnodes;
    }
  in
  (if !L.validation_enabled then
     match verify art with
     | [] -> ()
     | errs ->
         Diag.errorf "bytecode verifier: %s: %s" p.L.pname
           (String.concat "; " errs));
  art
