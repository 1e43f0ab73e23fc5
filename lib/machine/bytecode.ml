(** Trace lowering: the flat program format the cost model walks
    ({!Trace_bc}, the [Cost] engines [Bytecode] and [Approx]).

    One pass over {!Daisy_loopir.Ir.program} produces a {e trace section}
    per top-level node: a compact 5-opcode stream whose operands index side
    tables of pre-resolved loop bounds, per-occurrence computation
    descriptors, precomputed byte-address generators and compile-time
    error strings. Each section has its own operand pools ([t_pool] for
    affine terms, [t_xpool] for compiled non-affine integer expressions)
    and its own slot file (one slot per iterator name of the node). Affine
    subscripts fold into address-generation descriptors ([Ix_aff] and
    [Ta_aff]: [base + sum coeff*slot] as one table-driven operand), with
    an [Ix_code] RPN fallback for everything else.

    Layout, spill, flop and SIMD-stride facts come straight from {!Trace},
    so the walk replicates the tree walker's counter arithmetic, float
    addition order included; the differential suites in
    [test/test_bytecode.ml] and [test/test_trace.ml] enforce it.

    Under [DAISY_VALIDATE] ({!Daisy_loopir.Ir.validation_enabled}) the
    input program is validated before lowering and the produced artifact
    is checked by {!verify} after. *)

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
(* The xcode mini-ISA: compiled non-affine integer expressions           *)

(* RPN streams in [t_xpool], evaluated atomically on a scratch int stack.
   Division and modulo floor like the tree walker's closures
   ([Trace.compile_expr]). *)
let x_push = 0 (* [imm] push constant *)
let x_reg = 1 (* [slot] push iterator slot *)
let x_add = 2
let x_sub = 3
let x_mul = 4
let x_neg = 5
let x_min = 6
let x_max = 7
let x_div = 8 (* floor division *)
let x_mod = 9 (* floor modulo *)
let n_xops = 10

let xop_len = [| 2; 2; 1; 1; 1; 1; 1; 1; 1; 1 |]

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

(** An integer-expression operand. Registers index the section's slot
    file. *)
type ix =
  | Ix_const of int
  | Ix_reg of int
  | Ix_aff of int * int
      (** [pool] offset and term count; layout [base; (reg, coeff)...] *)
  | Ix_code of int * int  (** [xpool] offset and length (RPN stream) *)

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
  z_kernel : string;
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

(** The lowered artifact. *)
type t = {
  max_xstack : int;  (** deepest xcode evaluation stack of any section *)
  tnodes : tnode array;
}

(* ------------------------------------------------------------------ *)
(* Runtime helpers                                                      *)

(** Evaluate an xcode stream. [regs] is the slot file the stream was
    lowered against; [stack] is caller-provided scratch (xcode evaluation
    is atomic, so one per evaluator is enough). *)
let eval_xcode ~(xpool : int array) ~(regs : int array) ~(stack : int array)
    ~off ~len : int =
  let p = ref off in
  let fin = off + len in
  let sp = ref 0 in
  while !p < fin do
    let op = xpool.(!p) in
    if op <= x_reg then begin
      stack.(!sp) <-
        (if op = x_push then xpool.(!p + 1) else regs.(xpool.(!p + 1)));
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
        else if op = x_div then begin
          (* dividend below, divisor on top *)
          let q = u / t and r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then q - 1 else q
        end
        else begin
          (* x_mod *)
          let r = u mod t in
          if r <> 0 && r < 0 <> (t < 0) then r + t else r
        end
      in
      stack.(!sp - 1) <- r;
      incr p
    end
  done;
  stack.(0)

(** Bind an {!ix} to a thunk over a slot file, specialized by operand
    form (constant, register, affine, xcode). *)
let binder ~(pool : int array) ~(xpool : int array) ~(regs : int array)
    ~(xstack : int array) (ix : ix) : unit -> int =
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
      fun () -> eval_xcode ~xpool ~regs ~stack:xstack ~off ~len

(* ------------------------------------------------------------------ *)
(* Integer-expression lowering                                          *)

type resolution = Rreg of int | Rconst of int | Runbound

(** One trace section under construction. *)
type section = {
  sc_code : Ivec.t;
  sc_pool : Ivec.t;
  sc_xpool : Ivec.t;
  sc_ixs : ix gvec;
}

let section () =
  { sc_code = Ivec.create (); sc_pool = Ivec.create ();
    sc_xpool = Ivec.create (); sc_ixs = gvec () }

(** xcode stack-depth accounting shared by every section. *)
type emitter = { mutable xdepth : int; mutable max_xstack : int }

let xpush_depth em =
  em.xdepth <- em.xdepth + 1;
  if em.xdepth > em.max_xstack then em.max_xstack <- em.xdepth

(* Emission order matches the tree walker's evaluation order:
   [fa it + fb it] applies [fb] first (OCaml right-to-left), while
   div/mod bind [let x = fa it and y = fb it] left-to-right; [binary op
   first second] emits [first] below [second]. Every expression lowered
   here was first scanned by [first_unbound], so no variable is
   unbound. *)
let rec emit_x em sec resolve (e : Expr.t) : unit =
  let pushx v = Ivec.push sec.sc_xpool v in
  let binary op first second =
    emit_x em sec resolve first;
    emit_x em sec resolve second;
    pushx op;
    em.xdepth <- em.xdepth - 1
  in
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
      | Runbound -> raise (Trace.Unsupported_trace ("unbound variable " ^ v)));
      xpush_depth em
  | Expr.Add (a, b) -> binary x_add b a
  | Expr.Sub (a, b) -> binary x_sub b a
  | Expr.Mul (a, b) -> binary x_mul b a
  | Expr.Min (a, b) -> binary x_min b a
  | Expr.Max (a, b) -> binary x_max b a
  | Expr.Div (a, b) -> binary x_div a b
  | Expr.Mod (a, b) -> binary x_mod a b
  | Expr.Neg a -> emit_x em sec resolve a; pushx x_neg

let lower_xcode em sec resolve e : ix =
  let off = Ivec.len sec.sc_xpool in
  em.xdepth <- 0;
  emit_x em sec resolve e;
  Ix_code (off, Ivec.len sec.sc_xpool - off)

(** Lower an integer expression: affine fast path with all variables
    resolved (size parameters folded into the base), whole-expression
    xcode fallback otherwise.
    Returns the new ix id in [sec]. *)
let lower_ix em sec resolve (e : Expr.t) : int =
  let ix =
    match Affine.of_expr e with
    | None -> lower_xcode em sec resolve e
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
        if not !ok then lower_xcode em sec resolve e
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

(** Byte base of a container, [None] where the trace walker would raise
    "unknown container". *)
let base_of (layout : Trace.layout) name =
  match layout.Trace.base_of name with
  | b -> Some b
  | exception Trace.Unsupported_trace _ -> None

(** The first compile-time error of a computation, scanning accesses in
    the trace walker's construction order: deduped reads (arrays then
    scalars-as-registers), then the destination; per access the container
    lookup first, then each subscript left to right (register containers
    skip subscripts entirely). *)
let comp_err (layout : Trace.layout) resolve (c : L.comp) : string option =
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
        match base_of layout a.L.array with
        | None -> Some ("unknown container " ^ a.L.array)
        | Some _ ->
            if Array.length (layout.Trace.dims_of a.L.array) = 0 then scan rest
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
        Array.of_list (List.map (fun ie -> lower_ix em sec resolve ie) indices)
      )

(** Lower the trace section for one top-level node. *)
let lower_tnode em (layout : Trace.layout) ~(param_env : int Util.SMap.t)
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
  let lower_i ie = lower_ix em sec resolve ie in
  let dummy_ix () = gpush sec.sc_ixs (Ix_const 0) in
  let rec walk nodes ~depth ~simd_iter ~unrolled ~atomic_region ~in_parallel
      ~parallel_iter ~inner =
    List.iter
      (fun n ->
        match n with
        | L.Ncomp c ->
            let err = comp_err layout resolve c in
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
                  let dims = layout.Trace.dims_of a.L.array in
                  if Array.length dims = 0 then None (* register *)
                  else begin
                    let base = layout.Trace.base_of a.L.array in
                    let strided =
                      match simd_iter with
                      | None -> false
                      | Some it -> (
                          match Trace.simd_stride dims a.L.indices it with
                          | Some s -> s <> 0 && s <> 1
                          | None -> true)
                    in
                    let inner_dd =
                      match inner with
                      | None -> 0
                      | Some (it, step) -> (
                          match Trace.simd_stride dims a.L.indices it with
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
                y_flops = Float.max 1.0 (Trace.comp_flops c);
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
                z_kernel = k.L.kernel;
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
                w_spills = (if is_leaf then Trace.spill_estimate l else 0);
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

(** Structural checks on a lowered artifact, per trace section: every
    operand in range, operand-pool and slot-file bounds respected, loop
    targets on instruction boundaries, xcode streams well-formed (no
    stack underflow, one result). Returns human-readable problems. *)
let verify (a : t) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  Array.iteri
    (fun ti tn ->
      let what = Printf.sprintf "tnode %d" ti in
      let nslots = max 1 tn.t_nslots in
      let pool = tn.t_pool and xpool = tn.t_xpool in
      (* --- integer operands --- *)
      Array.iteri
        (fun i ix ->
          match ix with
          | Ix_const _ -> ()
          | Ix_reg r ->
              if r < 0 || r >= nslots then
                err "%s: ix %d: slot %d out of file [0, %d)" what i r nslots
          | Ix_aff (off, nt) ->
              if nt < 1 || off < 0 || off + 1 + (2 * nt) > Array.length pool
              then
                err "%s: ix %d: affine slice [%d, %d) outside pool" what i off
                  (off + 1 + (2 * nt))
              else
                for k = 0 to nt - 1 do
                  let r = pool.(off + 1 + (2 * k)) in
                  if r < 0 || r >= nslots then
                    err "%s: ix %d: affine slot %d out of file [0, %d)" what i
                      r nslots
                done
          | Ix_code (off, len) ->
              if off < 0 || len < 1 || off + len > Array.length xpool then
                err "%s: ix %d: xcode slice [%d, %d) outside xpool" what i off
                  (off + len)
              else begin
                let depth = ref 0 in
                let p = ref off in
                let bad = ref false in
                let fail fmt =
                  bad := true;
                  err fmt
                in
                while (not !bad) && !p < off + len do
                  let op = xpool.(!p) in
                  if op < 0 || op >= n_xops then
                    fail "%s: ix %d: bad xcode opcode %d" what i op
                  else if !p + xop_len.(op) > off + len then
                    fail "%s: ix %d: truncated xcode stream" what i
                  else if op = x_reg
                          && (xpool.(!p + 1) < 0 || xpool.(!p + 1) >= nslots)
                  then
                    fail "%s: ix %d: xcode slot %d out of file [0, %d)" what i
                      xpool.(!p + 1) nslots
                  else if !depth < (if op <= x_reg then 0
                                    else if op = x_neg then 1
                                    else 2)
                  then fail "%s: ix %d: xcode stack underflow" what i
                  else begin
                    (if op <= x_reg then incr depth
                     else if op <> x_neg then decr depth);
                    p := !p + xop_len.(op)
                  end
                done;
                if (not !bad) && !depth <> 1 then
                  err "%s: ix %d: xcode leaves %d values on the stack" what i
                    !depth
              end)
        tn.t_ixs;
      (* --- the instruction stream --- *)
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
               if w.w_slot < 0 || w.w_slot >= nslots then
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
                       if nt < 0 || off < 0 || off + 1 + (2 * nt) > Array.length pool
                       then
                         err "%s pc %d: address slice [%d, %d) outside pool"
                           what p off
                           (off + 1 + (2 * nt))
                       else
                         for k = 0 to nt - 1 do
                           let r = pool.(off + 1 + (2 * k)) in
                           if r < 0 || r >= nslots then
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
             else Array.iter (ck_tix p) tn.t_calls.(v).z_dims
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
(* Entry point                                                          *)

(** [lower layout ~sizes p] — lower [p] once: one trace section per
    top-level node, with byte addresses from [layout] (the
    {!Trace.layout_of} of [p] at [sizes]) and size parameters resolved
    from [sizes]. *)
let lower (layout : Trace.layout) ~(sizes : int Util.SMap.t) (p : L.program)
    : t =
  (if !L.validation_enabled then
     match L.validate p with
     | [] -> ()
     | errs ->
         Diag.errorf "bytecode lowering: invalid program %s: %s" p.L.pname
           (String.concat "; " errs));
  let em = { xdepth = 0; max_xstack = 0 } in
  let tnodes =
    Array.of_list (List.map (lower_tnode em layout ~param_env:sizes) p.L.body)
  in
  let art = { max_xstack = em.max_xstack; tnodes } in
  (if !L.validation_enabled then
     match verify art with
     | [] -> ()
     | errs ->
         Diag.errorf "bytecode verifier: %s: %s" p.L.pname
           (String.concat "; " errs));
  art
