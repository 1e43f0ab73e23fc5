(** Shared context and evaluation helpers for all schedulers. *)

module Ir = Daisy_loopir.Ir
module Config = Daisy_machine.Config
module Cost = Daisy_machine.Cost
module Legality = Daisy_dependence.Legality
module Affine = Daisy_poly.Affine

type ctx = {
  config : Config.t;
  sizes : (string * int) list;  (** concrete problem sizes for simulation *)
  threads : int;
  sample_outer : int;  (** outer-loop sampling bound, 0 = exact *)
  engine : Cost.engine;  (** trace engine used for every evaluation *)
  eval_steps : int option;
      (** per-evaluation step budget; [None] = unlimited *)
  eval_deadline : float option;
      (** per-candidate wall-clock deadline in seconds for supervised
          search evaluation; [None] = unlimited *)
}

let make_ctx ?(config = Config.default) ?(threads = config.Config.cores)
    ?(sample_outer = 12) ?(engine = Cost.Bytecode) ?eval_steps ?eval_deadline
    ~sizes () =
  { config; sizes; threads; sample_outer; engine; eval_steps; eval_deadline }

(** Derive a per-request evaluation context from a long-lived base
    context — the serving layer's entry point. The derived context
    shares the machine config, thread count and sampling bound, while
    the evaluation knobs — trace engine, step fuel, wall deadline,
    problem sizes — are overridden per request. *)
let request_ctx (base : ctx) ?engine ?eval_steps ?eval_deadline ?sizes () :
    ctx =
  {
    base with
    engine = Option.value ~default:base.engine engine;
    eval_steps =
      (match eval_steps with Some _ -> eval_steps | None -> base.eval_steps);
    eval_deadline =
      (match eval_deadline with
      | Some _ -> eval_deadline
      | None -> base.eval_deadline);
    sizes = Option.value ~default:base.sizes sizes;
  }

(** Full report (for L1 statistics, FLOP/s): one {!Cost.evaluate} walk
    under a fresh budget of [eval_steps]; every engine failure
    ([Budget.Exhausted] included) escapes for the caller to handle. *)
let report (ctx : ctx) (p : Ir.program) : Cost.report =
  Cost.evaluate ctx.config p ~sizes:ctx.sizes ~threads:ctx.threads
    ~sample_outer:ctx.sample_outer ~engine:ctx.engine ?steps:ctx.eval_steps
    ()

(** Simulated runtime in milliseconds, from {!report}. *)
let runtime_ms (ctx : ctx) (p : Ir.program) : float =
  Cost.milliseconds (report ctx p)

(* Kept for [perfbench/bench.ml], its only caller, which reports a memo
   hit share per read; there is no simulation memo, so the answer is
   always [None]. *)
let sim_memo_stats (_ : ctx) : (int * int) option = None

(** A program containing a single top-level node, sharing the array
    declarations of [p] — used to evaluate candidate schedules per nest. *)
let single_nest_program (p : Ir.program) (n : Ir.node) : Ir.program =
  { p with Ir.body = [ n ] }

(** Runtime of one nest in isolation. *)
let nest_runtime_ms (ctx : ctx) (p : Ir.program) (n : Ir.node) : float =
  runtime_ms ctx (single_nest_program p n)

(* ------------------------------------------------------------------ *)
(* Static helpers shared by the baseline models                         *)

(** Innermost loops of a subtree (loops containing no loops). *)
let rec innermost_loops (nodes : Ir.node list) : Ir.loop list =
  List.concat_map
    (fun n ->
      match n with
      | Ir.Nloop l ->
          let inner = innermost_loops l.Ir.body in
          if inner = [] then [ l ] else inner
      | _ -> [])
    nodes

(** A cheap static profitability test for vectorization: the majority of
    array accesses must be unit-stride or invariant w.r.t. [iter], and the
    body must be small enough for the compiler's vectorizer not to give up
    (register pressure and control complexity defeat auto-vectorization of
    very large inlined bodies — the CLOUDSC situation, paper §5.1). *)
let vector_profitable (l : Ir.loop) : bool =
  let comps = Ir.comps_in l.Ir.body in
  List.length comps <= 10 &&
  let accesses =
    List.concat_map
      (fun c -> Ir.comp_array_reads c @ Ir.comp_array_writes c)
      comps
  in
  if accesses = [] then false
  else
    let friendly =
      List.length
        (List.filter
           (fun (a : Ir.access) ->
             match a.Ir.indices with
             | [] -> true
             | idx -> (
                 let affs = List.map Affine.of_expr idx in
                 if List.exists (fun o -> o = None) affs then false
                 else
                   let coeffs =
                     List.map
                       (function
                         | Some aff -> Affine.coeff l.Ir.iter aff
                         | None -> 0)
                       affs
                   in
                   let rec last = function
                     | [] -> 0
                     | [ x ] -> x
                     | _ :: r -> last r
                   in
                   let rec init_ = function
                     | [] | [ _ ] -> []
                     | x :: r -> x :: init_ r
                   in
                   abs (last coeffs) <= 1
                   && List.for_all (fun c -> c = 0) (init_ coeffs)))
           accesses)
    in
    2 * friendly >= List.length accesses

(** All subscripts and bounds of a nest are affine and no computation is
    guarded — the SCoP condition a Polly-style lifter needs. *)
let scop_compatible (n : Ir.node) : bool =
  let ok_expr e = Affine.of_expr e <> None in
  let rec ok = function
    | Ir.Ncomp c ->
        c.Ir.guard = None
        && List.for_all
             (fun (a : Ir.access) -> List.for_all ok_expr a.Ir.indices)
             (Ir.comp_array_reads c @ Ir.comp_array_writes c)
        && no_select c.Ir.rhs
    | Ir.Ncall _ -> true
    | Ir.Nloop l ->
        ok_expr l.Ir.lo && ok_expr l.Ir.hi && List.for_all ok l.Ir.body
  and no_select = function
    | Ir.Vselect _ -> false
    | Ir.Vbin (_, a, b) -> no_select a && no_select b
    | Ir.Vneg a -> no_select a
    | Ir.Vcall (_, args) -> List.for_all no_select args
    | Ir.Vfloat _ | Ir.Vint _ | Ir.Vread _ | Ir.Vscalar _ -> true
  in
  ok n

(** Liftability of a nest to the symbolic representation (paper §3).

    Beyond the SCoP conditions, the dataflow lifting rejects loop nests that
    store to the same array through {e transposed} subscript vectors (e.g.
    [corr[i][j] = ...; corr[j][i] = corr[i][j]]): the produced-data subset
    computation cannot express the self-transposed alias. This reproduces
    the paper's §4.1 observation that the normalization passes fail to lift
    specific loop nests of correlation and covariance. *)
let transposed_self_alias (n : Ir.node) : bool =
  let writes = Ir.node_array_writes n in
  let affine_vector (a : Ir.access) =
    List.fold_left
      (fun acc e ->
        match (acc, Affine.of_expr e) with
        | Some vs, Some aff -> Some (vs @ [ aff ])
        | _ -> None)
      (Some []) a.Ir.indices
  in
  List.exists
    (fun ((w1 : Ir.access), (w2 : Ir.access)) ->
      String.equal w1.Ir.array w2.Ir.array
      &&
      match (affine_vector w1, affine_vector w2) with
      | Some v1, Some v2 ->
          (* a non-identity permutation of the same subscript multiset *)
          (not (List.equal Affine.equal v1 v2))
          && List.equal Affine.equal
               (List.sort Affine.compare v1)
               (List.sort Affine.compare v2)
      | _ -> false)
    (Daisy_support.Util.pairs writes)

(** Can this nest be lifted for normalization and scheduling? *)
let liftable (n : Ir.node) : bool =
  scop_compatible n && not (transposed_self_alias n)

(** [wrap_outer outer n] — rebuild the chain of enclosing loops around a
    single node (used to evaluate a schedulable unit in its loop context). *)
let wrap_outer (outer : Ir.loop list) (n : Ir.node) : Ir.node =
  List.fold_right
    (fun (l : Ir.loop) inner ->
      Ir.Nloop { l with Ir.lid = Ir.fresh_id (); body = [ inner ] })
    outer n

(** Schedulable units: the loop nests an auto-scheduler actually optimizes,
    each paired with the sequential loops enclosing it. A nest whose
    perfect band bottoms out in loops only (e.g. a time loop over stencil
    sweeps) is not itself a unit — its sub-loops are. *)
let rec schedulable_units ~(outer : Ir.loop list) (l : Ir.loop) :
    (Ir.loop list * Ir.loop) list =
  let band, body = Legality.perfect_band l in
  let has_comp =
    List.exists (function Ir.Ncomp _ | Ir.Ncall _ -> true | _ -> false) body
  in
  let subloops = List.filter_map (function Ir.Nloop x -> Some x | _ -> None) body in
  if subloops = [] || has_comp then [ (outer, l) ]
  else
    List.concat_map (schedulable_units ~outer:(outer @ band)) subloops

(** All schedulable units of a program. *)
let program_units (p : Ir.program) : (Ir.loop list * Ir.loop) list =
  List.concat_map
    (function Ir.Nloop l -> schedulable_units ~outer:[] l | _ -> [])
    p.Ir.body

(** Transform each top-level nest of a program. *)
let map_top_nests (f : Ir.loop -> Ir.node) (p : Ir.program) : Ir.program =
  {
    p with
    Ir.body =
      List.map
        (fun n -> match n with Ir.Nloop l -> f l | other -> other)
        p.Ir.body;
  }
