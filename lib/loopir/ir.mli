(** The symbolic loop-nest IR ("loopir") — the representation the paper
    lifts from LLVM IR (§3): a tree of loop and computation nodes where
    iterators, domains and data accesses are symbolic expressions. The IR
    is immutable; transformations rebuild nodes with fresh ids. *)

module Expr = Daisy_poly.Expr

(** {1 Value expressions} *)

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
  | Vcall of string * vexpr list  (** intrinsic: sqrt, exp, min, max, ... *)
  | Vselect of pred * vexpr * vexpr

and pred =
  | Pcmp of cmpop * vexpr * vexpr
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred

(** {1 Computations, loops, programs} *)

type dest = Darray of access | Dscalar of string

(** A computation: a unit of work with exactly one write to a data
    container (paper §2). *)
type comp = {
  cid : int;
  dest : dest;
  rhs : vexpr;
  guard : pred option;
}

(** Scheduling attributes, interpreted by the machine model. *)
type attrs = {
  parallel : bool;
  atomic : bool;  (** parallel reduction via atomic updates *)
  vectorized : bool;
  unroll : int;  (** 1 = none *)
}

val no_attrs : attrs

type node =
  | Ncomp of comp
  | Nloop of loop
  | Ncall of libcall  (** an idiom-detected library call *)

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
  kernel : string;  (** e.g. "gemm" — see {!Daisy_blas.Kernels} *)
  args : string list;
  scalar_args : vexpr list;
  dims : Expr.t list;
  writes_to : string list;
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
  size_params : string list;
  scalar_params : string list;
  arrays : array_decl list;
  local_scalars : string list;
  body : node list;
}

(** {1 Construction} *)

val fresh_id : unit -> int

val mk_comp : ?guard:pred -> dest -> vexpr -> comp

val mk_loop :
  ?attrs:attrs -> iter:string -> lo:Expr.t -> hi:Expr.t -> ?step:int ->
  node list -> loop

(** {1 Traversals} *)

val fold_nodes : ('a -> node -> 'a) -> 'a -> node list -> 'a
val comps_in : node list -> comp list
val loops_in : node list -> loop list

val comps_with_context : node list -> (loop list * comp) list
(** Each computation with its enclosing loops, outermost first. *)

val map_loops : (loop -> loop) -> node list -> node list
(** Rebuild the tree, applying the function bottom-up to every loop. *)

val depth : node list -> int
val bound_iters : node -> string list

(** {1 Dataflow summaries} *)

val vexpr_reads : vexpr -> access list
val pred_reads : pred -> access list
val vexpr_scalars : vexpr -> string list
val pred_scalars : pred -> string list
val comp_array_reads : comp -> access list
val comp_array_writes : comp -> access list
val comp_scalar_reads : comp -> string list
val comp_scalar_writes : comp -> string list
val node_array_reads : node -> access list
val node_array_writes : node -> access list
val node_scalar_reads : node -> string list
val node_scalar_writes : node -> string list

val program_scalar_names : program -> string list
(** Every scalar name a program can touch (params, locals, body reads and
    writes), deduplicated preserving first occurrence — the slot universe
    of the compiled interpreter. *)

(** {1 Substitution} *)

val vexpr_subst_idx : Expr.t Daisy_support.Util.SMap.t -> vexpr -> vexpr
val pred_subst_idx : Expr.t Daisy_support.Util.SMap.t -> pred -> pred

val comp_subst_idx : Expr.t Daisy_support.Util.SMap.t -> comp -> comp
(** Substitute iterators in subscripts, guards and [Vint]s (fresh id). *)

val subst_idx_nodes : Expr.t Daisy_support.Util.SMap.t -> node list -> node list
(** Substitute throughout a subtree, including loop bounds and call dims. *)

val vexpr_scalar_to_array : access Daisy_support.Util.SMap.t -> vexpr -> vexpr
val pred_scalar_to_array : access Daisy_support.Util.SMap.t -> pred -> pred

(** {1 Counting} *)

val flops_of_vexpr : vexpr -> int
val flops_of_pred : pred -> int

(** {1 Printing} *)

val string_of_vbinop : vbinop -> string
val string_of_cmpop : cmpop -> string
val pp_access : access Fmt.t
val pp_vexpr_prec : int -> vexpr Fmt.t
val pp_vexpr : vexpr Fmt.t
val pp_pred : pred Fmt.t
val pp_dest : dest Fmt.t
val pp_comp : comp Fmt.t
val pp_attrs : attrs Fmt.t
val pp_node : int -> node Fmt.t
val pp_nodes : int -> node list Fmt.t
val pp_program : program Fmt.t
val program_to_string : program -> string
val node_to_string : node -> string

(** {1 Canonical structural form}

    Iterators renamed by pre-order binding position and node ids zeroed —
    two structurally identical nests compare equal. This is the database
    key of the paper's transfer tuning. *)

val canon_nodes : node list -> node list
val equal_structure : node list -> node list -> bool
val hash_structure : node list -> int

val equal_up_to_ids : node list -> node list -> bool
(** Equal once [cid]s, [lid]s and [kid]s are each renumbered by first
    occurrence in pre-order; iterator names and everything else must
    match exactly. Unlike {!equal_structure} this keeps which nodes
    share an id, which the trace walk's per-[cid] and per-[lid] memos
    read: two programs equal up to ids simulate to the same bits. *)

(** {1 Structural validation}

    A debug net for transformation bugs: checks that every integer
    expression is closed over enclosing iterators (plus the given
    parameters), positive node ids are unique, loop steps are non-zero,
    and accessed arrays are declared with matching subscript arity. *)

val validation_enabled : bool ref
(** When true, the normalization pipeline and [Recipe.apply] re-validate
    their output and raise [Daisy_support.Diag.Error] on a violation.
    Initialized from the [DAISY_VALIDATE] environment variable (unset,
    empty or ["0"] = off). *)

val free_index_vars : node list -> Daisy_support.Util.SSet.t
(** Free integer variables of a subtree: names its bounds, subscripts,
    guards and call dims require from the environment (size parameters
    and outer iterators). *)

val validate_nodes :
  ?arrays:array_decl list ->
  ?params:Daisy_support.Util.SSet.t ->
  node list ->
  string list
(** Human-readable invariant violations (empty = valid). Array
    declaration / rank checks only run when [?arrays] is given; node ids
    [<= 0] (canonical forms) are exempt from the uniqueness check. *)

val validate : program -> string list
(** {!validate_nodes} over a whole program, with its array declarations
    and size parameters in scope. *)
