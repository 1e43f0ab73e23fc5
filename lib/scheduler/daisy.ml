(** The daisy auto-scheduler (paper §4): a priori normalization, BLAS idiom
    detection, then similarity-based transfer tuning from a recipe
    database.

    The two pipeline stages can be disabled independently for the ablation
    study (Fig. 7): [normalize = false] reproduces "transfer tuning without
    normalization", [transfer = false] reproduces "normalization without
    transfer tuning"; both disabled is plain clang.

    Loop nests that cannot be lifted to the symbolic representation
    ({!Common.liftable}) are left untouched by normalization and
    optimization; daisy's runtime still executes them in parallel, using
    atomic updates for read-modify-write computations it cannot analyze —
    reproducing the expensive atomic reductions the paper reports on
    correlation and covariance (§4.1). *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Recipe = Daisy_transforms.Recipe
module Lt = Daisy_transforms.Loop_transforms
module Legality = Daisy_dependence.Legality
module Pipeline = Daisy_normalize.Pipeline
module Iter_norm = Daisy_normalize.Iter_norm
module Patterns = Daisy_blas.Patterns
module Interp = Daisy_interp.Interp

type options = { normalize : bool; transfer : bool }

let default_options = { normalize = true; transfer = true }

type action =
  [ `Blas of string | `Recipe of Recipe.t | `Unoptimized | `Unliftable ]

type nest_decision = { label : string; action : action }

type schedule_report = {
  program : Ir.program;
  decisions : nest_decision list;
  blas_calls : int;
}

(** The unliftable fallback: the runtime executes the nest in parallel
    without analysis — atomic updates whenever the body contains
    read-modify-write computations. *)
let unliftable_fallback (nest : Ir.loop) : Ir.node =
  let has_reduction =
    List.exists Legality.is_reduction_comp (Ir.comps_in nest.Ir.body)
    || List.exists Legality.is_reduction_comp
         (match nest.Ir.body with [ Ir.Ncomp c ] -> [ c ] | _ -> [])
  in
  let attrs =
    { nest.Ir.attrs with Ir.parallel = true; atomic = has_reduction }
  in
  Ir.Nloop { nest with Ir.attrs = attrs }

(** With a quarantine sink attached, every applied database recipe is
    verified against the untransformed nest on the reference interpreter
    before it may enter the tournament ([Interp.equivalent], plus the
    ["equiv_miscompile"] fault point forcing a mismatch for tests). A
    non-equivalent candidate is excluded deterministically and reported
    with a shrunk reproducer — a miscompiling recipe can never win. *)
let verify_candidate (ctx : Common.ctx) ~quarantine ~(outer : Ir.loop list)
    (p : Ir.program) (nest : Ir.loop) (r : Recipe.t) (nest' : Ir.loop) : bool
    =
  match quarantine with
  | None -> true
  | Some q ->
      let unit_program n =
        Common.single_nest_program p (Common.wrap_outer outer (Ir.Nloop n))
      in
      let ok =
        (not (Fault.fires "equiv_miscompile"))
        && (try
              Interp.equivalent (unit_program nest) (unit_program nest')
                ~sizes:ctx.sizes ()
            with _ -> false)
      in
      if not ok then begin
        let repro = Common.single_nest_program p (Ir.Nloop nest) in
        (* "still fails" = the recipe still applies and the result is
           still not equivalent; predicate exceptions count as failing *)
        let still_fails (p' : Ir.program) (r' : Recipe.t) =
          match p'.Ir.body with
          | [ Ir.Nloop n0 ] -> (
              match Recipe.apply ~outer:[] n0 r' with
              | Error _ -> false
              | Ok n1 -> (
                  try
                    Fault.fires "equiv_miscompile"
                    || not
                         (Interp.equivalent
                            { p' with Ir.body = [ Ir.Nloop n0 ] }
                            { p' with Ir.body = [ Ir.Nloop n1 ] }
                            ~sizes:ctx.sizes ())
                  with _ -> true))
          | _ -> false
        in
        ignore
          (Quarantine.report q
             ~reason:"scheduled candidate is not equivalent to its nest"
             ~sizes:ctx.sizes ~program:repro ~recipe:r ~still_fails)
      end;
      ok

(** Candidate schedules for one liftable unit: as-is, auto-vectorized, and
    every database recipe that applies strictly; the simulated runtime
    (of the unit wrapped in its enclosing loops) picks. Also returns the
    winner's measured runtime, [None] when no candidate's cost beat
    [infinity]. *)
let transfer_nest (ctx : Common.ctx) ~(db : Database.t) ~quarantine
    ~(outer : Ir.loop list) (p : Ir.program) (nest : Ir.loop) :
    Ir.loop * action * float option =
  let candidates =
    let exact =
      List.map (fun e -> e.Database.recipe) (Database.exact_matches db nest)
    in
    let near =
      List.map (fun (_, e) -> e.Database.recipe) (Database.query db ~k:10 nest)
    in
    Util.dedup ~eq:Recipe.equal (exact @ near)
  in
  let baseline =
    (nest, `Unoptimized)
    ::
    (match Lt.vectorize ~outer nest with
    | Ok n -> [ (n, `Unoptimized) ]
    | Error _ -> [])
  in
  let applied =
    List.filter_map
      (fun r ->
        match Recipe.apply ~outer nest r with
        | Ok nest' when verify_candidate ctx ~quarantine ~outer p nest r nest'
          ->
            Some (nest', `Recipe r)
        | Ok _ | Error _ -> None)
      candidates
  in
  (* Recipes often rebuild a nest already in the list ([], [vectorize],
     a step repeated). A unit equal up to ids to one already costed
     simulates to the same bits, and the fold keeps the first strict
     minimum, so it cannot win: each distinct unit is costed once. *)
  let costed = ref [] in
  let bt, n, a =
    List.fold_left
      (fun ((bt, _, _) as best) (n, a) ->
        let unit = Common.wrap_outer outer (Ir.Nloop n) in
        if List.exists (fun u -> Ir.equal_up_to_ids [ u ] [ unit ]) !costed
        then best
        else begin
          costed := unit :: !costed;
          let t = Common.nest_runtime_ms ctx p unit in
          if t < bt then (t, n, a) else best
        end)
      (infinity, nest, (`Unoptimized : action))
      (baseline @ applied)
  in
  (n, a, if bt < infinity then Some bt else None)

(** Recursively optimize the schedulable units of a nest (see
    {!Common.schedulable_units}): leaf units get transfer tuning; purely
    structural outer loops recurse. The runtime is [transfer_nest]'s
    measurement when the nest is one leaf unit, [None] otherwise. *)
let rec optimize_nest (ctx : Common.ctx) ~db ~options ~quarantine ~decide
    ~counter ~(outer : Ir.loop list) (sub : Ir.program) (nest : Ir.loop) :
    Ir.loop * float option =
  let band, body = Daisy_dependence.Legality.perfect_band nest in
  let has_comp =
    List.exists (function Ir.Ncomp _ | Ir.Ncall _ -> true | _ -> false) body
  in
  let subloops = List.exists (function Ir.Nloop _ -> true | _ -> false) body in
  if subloops && not has_comp then begin
    (* structural outer loops: recurse into the children *)
    let body' =
      List.map
        (function
          | Ir.Nloop sub_nest ->
              Ir.Nloop
                (fst
                   (optimize_nest ctx ~db ~options ~quarantine ~decide
                      ~counter ~outer:(outer @ band) sub sub_nest))
          | other -> other)
        body
    in
    (Daisy_normalize.Stride.rebuild_band band body', None)
  end
  else begin
    incr counter;
    let label = Printf.sprintf "nest#%d" !counter in
    if options.transfer then begin
      let nest', action, t =
        transfer_nest ctx ~db ~quarantine ~outer sub nest
      in
      decide label action;
      (nest', t)
    end
    else begin
      decide label `Unoptimized;
      match Lt.vectorize ~outer nest with
      | Ok nest' -> (nest', None)
      | Error _ -> (nest, None)
    end
  end

(** Leaf-unit scheduling including idiom detection: the BLAS replacement is
    one more candidate, adopted only when the simulated runtime prefers it
    (a tuned library is not automatically the best choice — e.g. a
    memory-bound rank-2 update may lose to a fused parallel nest). *)
let schedule_unit (ctx : Common.ctx) ~db ~options ~quarantine ~decide
    ~counter ~outer sub (nest : Ir.loop) : Ir.node =
  let transfer_result () =
    Ir.Nloop
      (fst
         (optimize_nest ctx ~db ~options ~quarantine ~decide ~counter ~outer
            sub nest))
  in
  if not options.transfer then transfer_result ()
  else
    match Patterns.detect_nest nest with
    | None -> transfer_result ()
    | Some call ->
        let call_node = Ir.Ncall call in
        let t_call =
          Common.nest_runtime_ms ctx sub (Common.wrap_outer outer call_node)
        in
        (* evaluate the transfer path without emitting decisions yet *)
        let silent = ref [] in
        let silent_decide label action = silent := (label, action) :: !silent in
        let counter' = ref !counter in
        let transfer_loop, measured =
          optimize_nest ctx ~db ~options ~quarantine ~decide:silent_decide
            ~counter:counter' ~outer sub nest
        in
        let transfer_node = Ir.Nloop transfer_loop in
        (* a leaf unit's winner was costed as this very program *)
        let t_transfer =
          match measured with
          | Some t -> t
          | None ->
              Common.nest_runtime_ms ctx sub
                (Common.wrap_outer outer transfer_node)
        in
        if t_call <= t_transfer then begin
          incr counter;
          decide (Printf.sprintf "nest#%d" !counter) (`Blas call.Ir.kernel);
          call_node
        end
        else begin
          counter := !counter';
          List.iter (fun (l, a) -> decide l a) (List.rev !silent);
          transfer_node
        end

(** [schedule ctx ~db p] — run the daisy pipeline on a program. *)
let schedule ?(options = default_options) ?quarantine (ctx : Common.ctx)
    ~(db : Database.t) (p : Ir.program) : schedule_report =
  let decisions = ref [] in
  let blas_calls = ref 0 in
  let decide label action = decisions := { label; action } :: !decisions in
  let counter = ref 0 in
  (* collect the extra local arrays normalization introduces *)
  let extra_arrays = ref [] in
  let schedule_liftable_node (n : Ir.node) : Ir.node list =
    (* normalize (or just canonicalize iterators) this node in isolation *)
    let sub = Common.single_nest_program p n in
    let sub =
      if options.normalize then Pipeline.normalize ~sizes:ctx.sizes sub
      else Iter_norm.run sub
    in
    List.iter
      (fun (a : Ir.array_decl) ->
        if
          not
            (List.exists
               (fun (b : Ir.array_decl) -> String.equal a.Ir.name b.Ir.name)
               p.Ir.arrays)
        then extra_arrays := a :: !extra_arrays)
      sub.Ir.arrays;
    (* idiom detection is one of the database's optimization recipes
       (paper §4): each detected call competes with the transfer path on
       simulated runtime *)
    List.map
      (fun n ->
        match n with
        | Ir.Ncall k ->
            incr counter;
            decide (Printf.sprintf "nest#%d" !counter) (`Blas k.Ir.kernel);
            n
        | Ir.Ncomp _ -> n
        | Ir.Nloop nest ->
            let result =
              schedule_unit ctx ~db ~options ~quarantine ~decide ~counter
                ~outer:[] sub nest
            in
            (match result with
            | Ir.Ncall _ -> incr blas_calls
            | _ -> ());
            result)
      sub.Ir.body
  in
  let body =
    List.concat_map
      (fun n ->
        match n with
        | Ir.Nloop nest when not (Common.liftable n) ->
            incr counter;
            decide (Printf.sprintf "nest#%d" !counter) `Unliftable;
            [ unliftable_fallback nest ]
        | Ir.Nloop _ -> schedule_liftable_node n
        | other -> [ other ])
      p.Ir.body
  in
  {
    program = { p with Ir.body; arrays = p.Ir.arrays @ List.rev !extra_arrays };
    decisions = List.rev !decisions;
    blas_calls = !blas_calls;
  }

(* ------------------------------------------------------------------ *)
(* Request-scoped scheduling: the serving layer's entry point            *)

type request_outcome = {
  report : schedule_report;
  predicted_ms : float;
  engine_used : Daisy_machine.Cost.engine;
}

(** [schedule_request ~base ~db p] — run one scheduling request under a
    context derived from [base] ({!Common.request_ctx}): per-request
    trace [engine] (a loaded server degrades to [Cost.Approx]),
    per-evaluation step fuel [eval_steps] ([Budget.Exhausted] escapes),
    and a wall-clock [eval_deadline] covering the {e whole} request —
    normalization, every candidate evaluation, and the final cost — via
    [Util.with_deadline] on the calling domain
    ([Util.Deadline_exceeded] escapes). The returned [predicted_ms] is
    the simulated runtime of the scheduled program under the same
    request context. *)
let schedule_request ?options ?quarantine ~(base : Common.ctx) ?engine
    ?eval_steps ?eval_deadline ?sizes ~(db : Database.t) (p : Ir.program) :
    request_outcome =
  let ctx =
    Common.request_ctx base ?engine ?eval_steps ?eval_deadline ?sizes ()
  in
  Util.with_deadline ctx.Common.eval_deadline (fun () ->
      let report = schedule ?options ?quarantine ctx ~db p in
      let predicted_ms = Common.runtime_ms ctx report.program in
      { report; predicted_ms; engine_used = ctx.Common.engine })

let pp_decision ppf (d : nest_decision) =
  match d.action with
  | `Blas k -> Fmt.pf ppf "%s: BLAS call %s" d.label k
  | `Recipe r -> Fmt.pf ppf "%s: recipe %a" d.label Recipe.pp r
  | `Unoptimized -> Fmt.pf ppf "%s: unoptimized (-O3 only)" d.label
  | `Unliftable -> Fmt.pf ppf "%s: UNLIFTABLE (parallel fallback)" d.label
