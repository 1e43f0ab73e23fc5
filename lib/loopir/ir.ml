(** The symbolic loop-nest IR ("loopir").

    This is the representation the paper lifts from LLVM IR (§3): a tree of
    {e loop} and {e computation} nodes where iterators, domains and data
    accesses are symbolic expressions ({!Daisy_poly.Expr}). A computation is
    a unit of work with exactly one write to a data container (paper §2);
    loops carry scheduling attributes (parallel / vectorized / unroll) that
    the machine model interprets.

    The IR is immutable; transformations rebuild nodes. Fresh node ids come
    from {!fresh_id} so rebuilt nodes remain distinguishable in dependence
    graphs. *)

open Daisy_support
module Expr = Daisy_poly.Expr

(* ------------------------------------------------------------------ *)
(* Value expressions (floating-point computation language)             *)

type access = { array : string; indices : Expr.t list }

type vbinop = Vadd | Vsub | Vmul | Vdiv

type cmpop = Clt | Cle | Cgt | Cge | Ceq | Cne

type vexpr =
  | Vfloat of float
  | Vint of Expr.t  (** integer expression used as a floating value *)
  | Vread of access
  | Vscalar of string  (** scalar parameter or local scalar *)
  | Vbin of vbinop * vexpr * vexpr
  | Vneg of vexpr
  | Vcall of string * vexpr list  (** intrinsic: sqrt, exp, pow, min, max, ... *)
  | Vselect of pred * vexpr * vexpr

and pred =
  | Pcmp of cmpop * vexpr * vexpr
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred

(* ------------------------------------------------------------------ *)
(* Computations, loops, programs                                        *)

type dest = Darray of access | Dscalar of string

type comp = {
  cid : int;
  dest : dest;
  rhs : vexpr;
  guard : pred option;  (** computation executes only when the guard holds *)
}

type attrs = {
  parallel : bool;  (** execute iterations across threads *)
  atomic : bool;  (** parallel reduction via atomic updates *)
  vectorized : bool;  (** execute iterations in SIMD lanes *)
  unroll : int;  (** unroll factor; 1 = none *)
}

let no_attrs = { parallel = false; atomic = false; vectorized = false; unroll = 1 }

type node =
  | Ncomp of comp
  | Nloop of loop
  | Ncall of libcall
      (** an idiom-detected library call replacing a loop nest *)

and loop = {
  lid : int;
  iter : string;
  lo : Expr.t;  (** first value (inclusive) *)
  hi : Expr.t;  (** last value (inclusive) *)
  step : int;  (** non-zero; negative for downward loops *)
  body : node list;
  attrs : attrs;
}

and libcall = {
  kid : int;
  kernel : string;  (** e.g. "gemm", "syrk" *)
  args : string list;  (** array operands in kernel-specific order *)
  scalar_args : vexpr list;
  dims : Expr.t list;  (** problem dimensions in kernel-specific order *)
  writes_to : string list;  (** output arrays *)
}

type storage = Sparam | Slocal

type elem_ty = Fdouble

type array_decl = {
  name : string;
  elem : elem_ty;
  dims : Expr.t list;
  storage : storage;
}

type program = {
  pname : string;
  size_params : string list;  (** symbolic integer parameters *)
  scalar_params : string list;  (** floating scalar parameters *)
  arrays : array_decl list;  (** parameter and local arrays *)
  local_scalars : string list;  (** scalar temporaries *)
  body : node list;
}

(* ------------------------------------------------------------------ *)
(* Fresh ids                                                            *)

(* atomic so transformations may rebuild nodes concurrently on several
   domains (Support.Pool) without ever handing out a duplicate id *)
let id_counter = Atomic.make 0

let fresh_id () = Atomic.fetch_and_add id_counter 1 + 1

let mk_comp ?guard dest rhs = { cid = fresh_id (); dest; rhs; guard }

let mk_loop ?(attrs = no_attrs) ~iter ~lo ~hi ?(step = 1) body =
  { lid = fresh_id (); iter; lo; hi; step; body; attrs }

(* ------------------------------------------------------------------ *)
(* Traversals                                                           *)

let rec fold_nodes f acc nodes =
  List.fold_left
    (fun acc n ->
      let acc = f acc n in
      match n with Nloop l -> fold_nodes f acc l.body | _ -> acc)
    acc nodes

(** [comps_in nodes] lists all computations in syntactic order. *)
let comps_in nodes =
  fold_nodes (fun acc n -> match n with Ncomp c -> c :: acc | _ -> acc) [] nodes
  |> List.rev

(** [loops_in nodes] lists all loops in pre-order. *)
let loops_in nodes =
  fold_nodes (fun acc n -> match n with Nloop l -> l :: acc | _ -> acc) [] nodes
  |> List.rev

(** [comps_with_context nodes] pairs each computation with its enclosing
    loops, outermost first. *)
let comps_with_context nodes =
  let rec go ctx acc nodes =
    List.fold_left
      (fun acc n ->
        match n with
        | Ncomp c -> (List.rev ctx, c) :: acc
        | Nloop l -> go (l :: ctx) acc l.body
        | Ncall _ -> acc)
      acc nodes
  in
  List.rev (go [] [] nodes)

(** [map_loops f nodes] rebuilds the tree, applying [f] bottom-up to every
    loop. *)
let rec map_loops f nodes =
  List.map
    (fun n ->
      match n with
      | Nloop l -> Nloop (f { l with body = map_loops f l.body })
      | other -> other)
    nodes

(** Depth of the deepest loop nest. *)
let rec depth nodes =
  List.fold_left
    (fun acc n ->
      match n with Nloop l -> max acc (1 + depth l.body) | _ -> acc)
    0 nodes

(* ------------------------------------------------------------------ *)
(* Reads / writes                                                       *)

let rec vexpr_reads (e : vexpr) : access list =
  match e with
  | Vfloat _ | Vint _ | Vscalar _ -> []
  | Vread a -> [ a ]
  | Vbin (_, a, b) -> vexpr_reads a @ vexpr_reads b
  | Vneg a -> vexpr_reads a
  | Vcall (_, args) -> List.concat_map vexpr_reads args
  | Vselect (p, a, b) -> pred_reads p @ vexpr_reads a @ vexpr_reads b

and pred_reads (p : pred) : access list =
  match p with
  | Pcmp (_, a, b) -> vexpr_reads a @ vexpr_reads b
  | Pand (a, b) | Por (a, b) -> pred_reads a @ pred_reads b
  | Pnot a -> pred_reads a

let rec vexpr_scalars (e : vexpr) : string list =
  match e with
  | Vfloat _ | Vint _ | Vread _ -> []
  | Vscalar s -> [ s ]
  | Vbin (_, a, b) -> vexpr_scalars a @ vexpr_scalars b
  | Vneg a -> vexpr_scalars a
  | Vcall (_, args) -> List.concat_map vexpr_scalars args
  | Vselect (p, a, b) -> pred_scalars p @ vexpr_scalars a @ vexpr_scalars b

and pred_scalars (p : pred) : string list =
  match p with
  | Pcmp (_, a, b) -> vexpr_scalars a @ vexpr_scalars b
  | Pand (a, b) | Por (a, b) -> pred_scalars a @ pred_scalars b
  | Pnot a -> pred_scalars a

(** Array reads of a computation (rhs + guard + subscripts don't read
    arrays; target subscript reads none either). *)
let comp_array_reads (c : comp) : access list =
  vexpr_reads c.rhs
  @ (match c.guard with Some g -> pred_reads g | None -> [])

let comp_array_writes (c : comp) : access list =
  match c.dest with Darray a -> [ a ] | Dscalar _ -> []

let comp_scalar_reads (c : comp) : string list =
  vexpr_scalars c.rhs
  @ (match c.guard with Some g -> pred_scalars g | None -> [])

let comp_scalar_writes (c : comp) : string list =
  match c.dest with Dscalar s -> [ s ] | Darray _ -> []

(** All array reads/writes of a node (recursively), including library
    calls, which conservatively read all argument arrays with unknown
    subscripts (represented with empty index lists). *)
let rec node_array_reads = function
  | Ncomp c -> comp_array_reads c
  | Nloop l -> List.concat_map node_array_reads l.body
  | Ncall k -> List.map (fun a -> { array = a; indices = [] }) k.args

let rec node_array_writes = function
  | Ncomp c -> comp_array_writes c
  | Nloop l -> List.concat_map node_array_writes l.body
  | Ncall k -> List.map (fun a -> { array = a; indices = [] }) k.writes_to

let rec node_scalar_reads = function
  | Ncomp c -> comp_scalar_reads c
  | Nloop l -> List.concat_map node_scalar_reads l.body
  | Ncall k -> List.concat_map vexpr_scalars k.scalar_args

let rec node_scalar_writes = function
  | Ncomp c -> comp_scalar_writes c
  | Nloop l -> List.concat_map node_scalar_writes l.body
  | Ncall _ -> []

(** Every scalar name a program can touch — declared parameters and
    locals first, then any name read or written in the body — deduplicated
    preserving first occurrence. This is the slot-assignment universe of
    the compiled interpreter. *)
let program_scalar_names (p : program) : string list =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add s =
    if not (Hashtbl.mem seen s) then begin
      Hashtbl.add seen s ();
      out := s :: !out
    end
  in
  List.iter add p.scalar_params;
  List.iter add p.local_scalars;
  List.iter (fun n -> List.iter add (node_scalar_reads n)) p.body;
  List.iter (fun n -> List.iter add (node_scalar_writes n)) p.body;
  List.rev !out

(** Iterators of the loops enclosing nothing — i.e. the iterators a node
    itself binds, in-order. *)
let rec bound_iters = function
  | Ncomp _ | Ncall _ -> []
  | Nloop l -> l.iter :: List.concat_map bound_iters l.body

(* ------------------------------------------------------------------ *)
(* Substitution in value expressions                                    *)

let rec vexpr_subst_idx env (e : vexpr) : vexpr =
  match e with
  | Vfloat _ | Vscalar _ -> e
  | Vint ie -> Vint (Expr.subst env ie)
  | Vread a -> Vread { a with indices = List.map (Expr.subst env) a.indices }
  | Vbin (op, a, b) -> Vbin (op, vexpr_subst_idx env a, vexpr_subst_idx env b)
  | Vneg a -> Vneg (vexpr_subst_idx env a)
  | Vcall (f, args) -> Vcall (f, List.map (vexpr_subst_idx env) args)
  | Vselect (p, a, b) ->
      Vselect (pred_subst_idx env p, vexpr_subst_idx env a, vexpr_subst_idx env b)

and pred_subst_idx env (p : pred) : pred =
  match p with
  | Pcmp (op, a, b) -> Pcmp (op, vexpr_subst_idx env a, vexpr_subst_idx env b)
  | Pand (a, b) -> Pand (pred_subst_idx env a, pred_subst_idx env b)
  | Por (a, b) -> Por (pred_subst_idx env a, pred_subst_idx env b)
  | Pnot a -> Pnot (pred_subst_idx env a)

(** [comp_subst_idx env c] substitutes integer expressions for iterators in
    every subscript, guard and [Vint] of [c] (fresh id). *)
let comp_subst_idx env (c : comp) : comp =
  {
    cid = fresh_id ();
    dest =
      (match c.dest with
      | Darray a -> Darray { a with indices = List.map (Expr.subst env) a.indices }
      | Dscalar s -> Dscalar s);
    rhs = vexpr_subst_idx env c.rhs;
    guard = Option.map (pred_subst_idx env) c.guard;
  }

(** [subst_idx_nodes env nodes] substitutes integer expressions for
    iterators throughout a subtree: subscripts, guards, [Vint]s, loop
    bounds and libcall dims. Fresh ids on rebuilt computations. *)
let rec subst_idx_nodes env nodes =
  List.map
    (fun n ->
      match n with
      | Ncomp c -> Ncomp (comp_subst_idx env c)
      | Ncall k ->
          Ncall
            {
              k with
              dims = List.map (Expr.subst env) k.dims;
              scalar_args = List.map (vexpr_subst_idx env) k.scalar_args;
            }
      | Nloop l ->
          Nloop
            {
              l with
              lo = Expr.subst env l.lo;
              hi = Expr.subst env l.hi;
              body = subst_idx_nodes env l.body;
            })
    nodes

(** [rename_scalar_to_array mapping c] turns reads/writes of scalars in
    [mapping] into array accesses with the given subscripts — the core of
    scalar expansion. *)
let rec vexpr_scalar_to_array mapping (e : vexpr) : vexpr =
  match e with
  | Vscalar s -> (
      match Util.SMap.find_opt s mapping with
      | Some access -> Vread access
      | None -> e)
  | Vfloat _ | Vint _ | Vread _ -> e
  | Vbin (op, a, b) ->
      Vbin (op, vexpr_scalar_to_array mapping a, vexpr_scalar_to_array mapping b)
  | Vneg a -> Vneg (vexpr_scalar_to_array mapping a)
  | Vcall (f, args) -> Vcall (f, List.map (vexpr_scalar_to_array mapping) args)
  | Vselect (p, a, b) ->
      Vselect
        ( pred_scalar_to_array mapping p,
          vexpr_scalar_to_array mapping a,
          vexpr_scalar_to_array mapping b )

and pred_scalar_to_array mapping (p : pred) : pred =
  match p with
  | Pcmp (op, a, b) ->
      Pcmp (op, vexpr_scalar_to_array mapping a, vexpr_scalar_to_array mapping b)
  | Pand (a, b) ->
      Pand (pred_scalar_to_array mapping a, pred_scalar_to_array mapping b)
  | Por (a, b) ->
      Por (pred_scalar_to_array mapping a, pred_scalar_to_array mapping b)
  | Pnot a -> Pnot (pred_scalar_to_array mapping a)

(* ------------------------------------------------------------------ *)
(* Counting                                                             *)

(** Floating-point operation count of a value expression (adds, muls,
    divisions and intrinsic calls; selects count their predicate). *)
let rec flops_of_vexpr = function
  | Vfloat _ | Vint _ | Vscalar _ | Vread _ -> 0
  | Vbin (_, a, b) -> 1 + flops_of_vexpr a + flops_of_vexpr b
  | Vneg a -> 1 + flops_of_vexpr a
  | Vcall (_, args) ->
      (* intrinsics modeled as several flops; refined by the cost model *)
      1 + Util.sum_by flops_of_vexpr args
  | Vselect (p, a, b) -> flops_of_pred p + flops_of_vexpr a + flops_of_vexpr b

and flops_of_pred = function
  | Pcmp (_, a, b) -> 1 + flops_of_vexpr a + flops_of_vexpr b
  | Pand (a, b) | Por (a, b) -> 1 + flops_of_pred a + flops_of_pred b
  | Pnot a -> 1 + flops_of_pred a

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                      *)

let string_of_vbinop = function
  | Vadd -> "+" | Vsub -> "-" | Vmul -> "*" | Vdiv -> "/"

let string_of_cmpop = function
  | Clt -> "<" | Cle -> "<=" | Cgt -> ">" | Cge -> ">=" | Ceq -> "==" | Cne -> "!="

let pp_access ppf { array; indices } =
  Fmt.pf ppf "%s%a" array
    (Fmt.list ~sep:Fmt.nop (fun ppf i -> Fmt.pf ppf "[%a]" Expr.pp i))
    indices

let rec pp_vexpr_prec prec ppf e =
  match e with
  | Vfloat f ->
      if Float.is_integer f && Float.abs f < 1e15 then Fmt.pf ppf "%.1f" f
      else Fmt.pf ppf "%.17g" f
  | Vint ie -> Fmt.pf ppf "(double)%a" (Expr.pp_prec 2) ie
  | Vread a -> pp_access ppf a
  | Vscalar s -> Fmt.string ppf s
  | Vbin (op, a, b) ->
      let p = match op with Vadd | Vsub -> 1 | Vmul | Vdiv -> 2 in
      let body ppf =
        Fmt.pf ppf "%a %s %a" (pp_vexpr_prec p) a (string_of_vbinop op)
          (pp_vexpr_prec (p + 1)) b
      in
      if prec > p then Fmt.pf ppf "(%t)" body else body ppf
  | Vneg a -> Fmt.pf ppf "-%a" (pp_vexpr_prec 3) a
  | Vcall (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_vexpr_prec 0)) args
  | Vselect (p, a, b) ->
      Fmt.pf ppf "(%a ? %a : %a)" pp_pred p (pp_vexpr_prec 1) a (pp_vexpr_prec 1) b

and pp_pred ppf = function
  | Pcmp (op, a, b) ->
      Fmt.pf ppf "%a %s %a" (pp_vexpr_prec 1) a (string_of_cmpop op)
        (pp_vexpr_prec 1) b
  | Pand (a, b) -> Fmt.pf ppf "(%a && %a)" pp_pred a pp_pred b
  | Por (a, b) -> Fmt.pf ppf "(%a || %a)" pp_pred a pp_pred b
  | Pnot a -> Fmt.pf ppf "!(%a)" pp_pred a

let pp_vexpr = pp_vexpr_prec 0

let pp_dest ppf = function
  | Darray a -> pp_access ppf a
  | Dscalar s -> Fmt.string ppf s

let pp_comp ppf c =
  match c.guard with
  | None -> Fmt.pf ppf "%a = %a;" pp_dest c.dest pp_vexpr c.rhs
  | Some g -> Fmt.pf ppf "if (%a) %a = %a;" pp_pred g pp_dest c.dest pp_vexpr c.rhs

let pp_attrs ppf a =
  let tags =
    (if a.parallel then [ (if a.atomic then "parallel-atomic" else "parallel") ]
     else [])
    @ (if a.vectorized then [ "vector" ] else [])
    @ if a.unroll > 1 then [ Fmt.str "unroll(%d)" a.unroll ] else []
  in
  if tags <> [] then Fmt.pf ppf " @@%a" (Fmt.list ~sep:(Fmt.any " @@") Fmt.string) tags

let rec pp_node ind ppf n =
  let pad = String.make (2 * ind) ' ' in
  match n with
  | Ncomp c -> Fmt.pf ppf "%s%a" pad pp_comp c
  | Ncall k ->
      Fmt.pf ppf "%scall %s(%a | dims %a);" pad k.kernel
        (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
        k.args
        (Fmt.list ~sep:(Fmt.any ", ") Expr.pp)
        k.dims
  | Nloop l ->
      let range ppf () =
        if l.step = 1 then Fmt.pf ppf "%a .. %a" Expr.pp l.lo Expr.pp l.hi
        else Fmt.pf ppf "%a .. %a step %d" Expr.pp l.lo Expr.pp l.hi l.step
      in
      Fmt.pf ppf "%sfor %s in %a%a {@\n%a@\n%s}" pad l.iter range () pp_attrs
        l.attrs (pp_nodes (ind + 1)) l.body pad

and pp_nodes ind ppf nodes = Fmt.list ~sep:Fmt.cut (pp_node ind) ppf nodes

let pp_program ppf p =
  Fmt.pf ppf "@[<v>program %s(%a | %a)@,%a@,%a@]" p.pname
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    p.size_params
    (Fmt.list ~sep:(Fmt.any ", ") Fmt.string)
    p.scalar_params
    (Fmt.list ~sep:Fmt.cut (fun ppf (a : array_decl) ->
         Fmt.pf ppf "%s %s%a;"
           (match a.storage with Sparam -> "array" | Slocal -> "local")
           a.name
           (Fmt.list ~sep:Fmt.nop (fun ppf d -> Fmt.pf ppf "[%a]" Expr.pp d))
           a.dims))
    p.arrays (pp_nodes 1) p.body

let program_to_string p = Fmt.str "%a" pp_program p
let node_to_string n = Fmt.str "%a" (pp_node 0) n

(* ------------------------------------------------------------------ *)
(* Canonical structural form (for database matching)                    *)

(** [canon_nodes nodes] renames iterators to [_c0, _c1, ...] by pre-order
    binding position and zeroes node ids, so two structurally identical
    nests compare equal with [=]. *)
let canon_nodes nodes =
  let counter = ref 0 in
  let rec go env nodes =
    List.map
      (fun n ->
        match n with
        | Ncomp c ->
            Ncomp { (comp_subst_idx env c) with cid = 0 }
        | Ncall k -> Ncall { k with kid = 0 }
        | Nloop l ->
            let fresh = Printf.sprintf "_c%d" !counter in
            incr counter;
            let env' = Util.SMap.add l.iter (Expr.var fresh) env in
            Nloop
              {
                l with
                lid = 0;
                iter = fresh;
                lo = Expr.subst env l.lo;
                hi = Expr.subst env l.hi;
                body = go env' l.body;
              })
      nodes
  in
  go Util.SMap.empty nodes

let equal_structure a b = canon_nodes a = canon_nodes b

(** Structural hash of a node list (canonical form). *)
let hash_structure nodes = Hashtbl.hash (canon_nodes nodes)

(** [equal_up_to_ids a b] walks both trees in step. Each kind of id keeps
    one bijection, grown at first occurrence, so two ids match iff they
    get the same first-occurrence number; everything else compares with
    [=]. No copy, no string. *)
let equal_up_to_ids (a : node list) (b : node list) : bool =
  let bijection () = (Hashtbl.create 16, Hashtbl.create 16) in
  let cids = bijection () and lids = bijection () and kids = bijection () in
  let same_id (fwd, bwd) (x : int) (y : int) =
    match Hashtbl.find_opt fwd x with
    | Some y' -> y' = y
    | None when Hashtbl.mem bwd y -> false
    | None ->
        Hashtbl.add fwd x y;
        Hashtbl.add bwd y x;
        true
  in
  let rec nodes xs ys =
    match (xs, ys) with
    | [], [] -> true
    | x :: xs, y :: ys -> node x y && nodes xs ys
    | _ -> false
  and node x y =
    match (x, y) with
    | Ncomp c, Ncomp d ->
        same_id cids c.cid d.cid && c.dest = d.dest && c.rhs = d.rhs
        && c.guard = d.guard
    | Nloop l, Nloop m ->
        same_id lids l.lid m.lid && String.equal l.iter m.iter
        && l.lo = m.lo && l.hi = m.hi && l.step = m.step && l.attrs = m.attrs
        && nodes l.body m.body
    | Ncall k, Ncall j ->
        same_id kids k.kid j.kid && { k with kid = 0 } = { j with kid = 0 }
    | _ -> false
  in
  nodes a b

(* ------------------------------------------------------------------ *)
(* Structural validation                                                *)

(** When true, {!Daisy_normalize.Pipeline} and
    {!Daisy_transforms.Recipe.apply} re-validate their output and raise
    [Diag.Error] on a violation — a debug net for transformation bugs.
    Initialized from the [DAISY_VALIDATE] environment variable (unset,
    empty or ["0"] = off). *)
let validation_enabled =
  ref
    (match Sys.getenv_opt "DAISY_VALIDATE" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

let rec vexpr_int_exprs (e : vexpr) : Expr.t list =
  match e with
  | Vfloat _ | Vscalar _ -> []
  | Vint ie -> [ ie ]
  | Vread a -> a.indices
  | Vbin (_, a, b) -> vexpr_int_exprs a @ vexpr_int_exprs b
  | Vneg a -> vexpr_int_exprs a
  | Vcall (_, args) -> List.concat_map vexpr_int_exprs args
  | Vselect (p, a, b) ->
      pred_int_exprs p @ vexpr_int_exprs a @ vexpr_int_exprs b

and pred_int_exprs (p : pred) : Expr.t list =
  match p with
  | Pcmp (_, a, b) -> vexpr_int_exprs a @ vexpr_int_exprs b
  | Pand (a, b) | Por (a, b) -> pred_int_exprs a @ pred_int_exprs b
  | Pnot a -> pred_int_exprs a

(** Free integer variables of a subtree: every variable of a bound,
    subscript, guard, [Vint] or libcall dim not bound by an enclosing
    loop of the subtree itself — i.e. the names an environment must
    provide (size parameters and outer iterators). *)
let free_index_vars (nodes : node list) : Util.SSet.t =
  let acc = ref Util.SSet.empty in
  let add scope e =
    acc := Util.SSet.union !acc (Util.SSet.diff (Expr.free_vars e) scope)
  in
  let add_vexpr scope e = List.iter (add scope) (vexpr_int_exprs e) in
  let rec go scope nodes =
    List.iter
      (fun n ->
        match n with
        | Ncomp c ->
            (match c.dest with
            | Darray a -> List.iter (add scope) a.indices
            | Dscalar _ -> ());
            add_vexpr scope c.rhs;
            Option.iter
              (fun g -> List.iter (add scope) (pred_int_exprs g))
              c.guard
        | Ncall k ->
            List.iter (add scope) k.dims;
            List.iter (add_vexpr scope) k.scalar_args
        | Nloop l ->
            add scope l.lo;
            add scope l.hi;
            go (Util.SSet.add l.iter scope) l.body)
      nodes
  in
  go Util.SSet.empty nodes;
  !acc

(** [validate_nodes ?arrays ?params nodes] — check the structural
    invariants of a subtree and return human-readable violations (empty =
    valid): unique positive node ids, non-zero loop steps, every integer
    expression closed over enclosing iterators and [params], and — when
    [arrays] is given — every access naming a declared array with
    subscript arity matching its declared rank. *)
let validate_nodes ?arrays ?(params = Util.SSet.empty) (nodes : node list) :
    string list =
  let violations = ref [] in
  let violate fmt = Fmt.kstr (fun m -> violations := m :: !violations) fmt in
  let seen_ids : (int, string) Hashtbl.t = Hashtbl.create 64 in
  let check_id kind id =
    (* ids <= 0 are canonical/zeroed forms, exempt from uniqueness *)
    if id > 0 then
      match Hashtbl.find_opt seen_ids id with
      | Some kind' -> violate "duplicate id %d (%s and %s)" id kind' kind
      | None -> Hashtbl.add seen_ids id kind
  in
  let rank_tbl =
    Option.map
      (fun decls ->
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (a : array_decl) ->
            Hashtbl.replace tbl a.name (List.length a.dims))
          decls;
        tbl)
      arrays
  in
  let check_array ~where name nidx =
    match rank_tbl with
    | None -> ()
    | Some tbl -> (
        match Hashtbl.find_opt tbl name with
        | None -> violate "%s: undeclared array %s" where name
        | Some rank -> (
            match nidx with
            | Some n when n <> rank ->
                violate "%s: array %s has rank %d but %d subscripts" where
                  name rank n
            | _ -> ()))
  in
  let check_expr ~where scope e =
    Util.SSet.iter
      (fun v -> violate "%s: unbound variable %s" where v)
      (Util.SSet.diff (Expr.free_vars e) (Util.SSet.union scope params))
  in
  let rec check_vexpr ~where scope (e : vexpr) =
    match e with
    | Vfloat _ | Vscalar _ -> ()
    | Vint ie -> check_expr ~where scope ie
    | Vread a ->
        check_array ~where a.array (Some (List.length a.indices));
        List.iter (check_expr ~where scope) a.indices
    | Vbin (_, a, b) ->
        check_vexpr ~where scope a;
        check_vexpr ~where scope b
    | Vneg a -> check_vexpr ~where scope a
    | Vcall (_, args) -> List.iter (check_vexpr ~where scope) args
    | Vselect (p, a, b) ->
        check_pred ~where scope p;
        check_vexpr ~where scope a;
        check_vexpr ~where scope b
  and check_pred ~where scope (p : pred) =
    match p with
    | Pcmp (_, a, b) ->
        check_vexpr ~where scope a;
        check_vexpr ~where scope b
    | Pand (a, b) | Por (a, b) ->
        check_pred ~where scope a;
        check_pred ~where scope b
    | Pnot a -> check_pred ~where scope a
  in
  let rec go scope nodes =
    List.iter
      (fun n ->
        match n with
        | Ncomp c ->
            check_id "computation" c.cid;
            let where = Fmt.str "computation %d" c.cid in
            (match c.dest with
            | Darray a ->
                check_array ~where a.array (Some (List.length a.indices));
                List.iter (check_expr ~where scope) a.indices
            | Dscalar _ -> ());
            check_vexpr ~where scope c.rhs;
            Option.iter (check_pred ~where scope) c.guard
        | Ncall k ->
            check_id "libcall" k.kid;
            let where = Fmt.str "libcall %s" k.kernel in
            List.iter
              (fun a -> check_array ~where a None)
              (Util.dedup ~eq:String.equal (k.args @ k.writes_to));
            List.iter (check_expr ~where scope) k.dims;
            List.iter (check_vexpr ~where scope) k.scalar_args
        | Nloop l ->
            check_id "loop" l.lid;
            let where = Fmt.str "loop %s (lid %d)" l.iter l.lid in
            if l.step = 0 then violate "%s: zero step" where;
            (* a loop's iterator is NOT in scope for its own bounds *)
            check_expr ~where scope l.lo;
            check_expr ~where scope l.hi;
            go (Util.SSet.add l.iter scope) l.body)
      nodes
  in
  go Util.SSet.empty nodes;
  List.rev !violations

(** [validate p] — {!validate_nodes} over a whole program, with its array
    declarations and size parameters in scope. *)
let validate (p : program) : string list =
  validate_nodes ~arrays:p.arrays
    ~params:(Util.SSet.of_list p.size_params)
    p.body
