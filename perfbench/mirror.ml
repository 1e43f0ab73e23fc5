(* The traced re-drive of [Daisy.Scheduler.Daisy.schedule]: the same
   public calls, in the same order, each inside a span named after its
   layer. [Bench] asserts that it reaches the same decisions and the
   bit-identical predicted cost, so the per-layer numbers describe the
   work the untraced run measured. Keep in step with
   lib/scheduler/daisy.ml. *)

module S = Daisy.Scheduler
module Ir = Daisy.Loopir.Ir
module Recipe = Daisy.Transforms.Recipe
module Lt = Daisy.Transforms.Loop_transforms
module Legality = Daisy.Dependence.Legality
module Stride = Daisy.Normalize.Stride
module Pipeline = Daisy.Normalize.Pipeline
module Patterns = Daisy.Blas.Patterns
module C = S.Common
module Db = S.Database

let eval ctx p n =
  Span.count "machine.evals";
  Span.with_ "machine.eval" (fun () -> C.nest_runtime_ms ctx p n)

let unliftable_fallback (nest : Ir.loop) : Ir.node =
  let has_reduction =
    List.exists Legality.is_reduction_comp (Ir.comps_in nest.Ir.body)
    || List.exists Legality.is_reduction_comp
         (match nest.Ir.body with [ Ir.Ncomp c ] -> [ c ] | _ -> [])
  in
  Ir.Nloop
    { nest with Ir.attrs = { nest.Ir.attrs with Ir.parallel = true; atomic = has_reduction } }

let apply f =
  let r = Span.with_ "transforms.apply" f in
  Span.count "transforms.applies";
  (match r with Ok _ -> Span.count "transforms.applied" | Error _ -> ());
  r

let transfer_nest ctx ~db ~outer p (nest : Ir.loop) : Ir.loop * S.Daisy.action =
  let candidates =
    Span.count "database.queries";
    Span.with_ "database.query" (fun () ->
        let exact = List.map (fun e -> e.Db.recipe) (Db.exact_matches db nest) in
        let near = List.map (fun (_, e) -> e.Db.recipe) (Db.query db ~k:10 nest) in
        Daisy.Support.Util.dedup ~eq:Recipe.equal (exact @ near))
  in
  let baseline =
    (nest, `Unoptimized)
    :: (match apply (fun () -> Lt.vectorize ~outer nest) with
       | Ok n -> [ (n, `Unoptimized) ]
       | Error _ -> [])
  in
  let applied =
    List.filter_map
      (fun r ->
        match apply (fun () -> Recipe.apply ~outer nest r) with
        | Ok n' -> Some (n', `Recipe r)
        | Error _ -> None)
      candidates
  in
  let _, n, a =
    List.fold_left
      (fun ((bt, _, _) as best) (n, a) ->
        let t = eval ctx p (C.wrap_outer outer (Ir.Nloop n)) in
        if t < bt then (t, n, a) else best)
      (infinity, nest, (`Unoptimized : S.Daisy.action))
      (baseline @ applied)
  in
  (n, a)

let rec optimize_nest ctx ~db ~decide ~counter ~outer sub (nest : Ir.loop) :
    Ir.loop =
  let band, body = Legality.perfect_band nest in
  let has_comp =
    List.exists (function Ir.Ncomp _ | Ir.Ncall _ -> true | _ -> false) body
  in
  let subloops = List.exists (function Ir.Nloop _ -> true | _ -> false) body in
  if subloops && not has_comp then
    Stride.rebuild_band band
      (List.map
         (function
           | Ir.Nloop sub_nest ->
               Ir.Nloop
                 (optimize_nest ctx ~db ~decide ~counter ~outer:(outer @ band)
                    sub sub_nest)
           | other -> other)
         body)
  else begin
    incr counter;
    let label = Printf.sprintf "nest#%d" !counter in
    let nest', action = transfer_nest ctx ~db ~outer sub nest in
    decide label action;
    nest'
  end

let schedule_unit ctx ~db ~decide ~counter ~outer sub (nest : Ir.loop) : Ir.node
    =
  match Span.with_ "blas.detect" (fun () -> Patterns.detect_nest nest) with
  | None -> Ir.Nloop (optimize_nest ctx ~db ~decide ~counter ~outer sub nest)
  | Some call ->
      let call_node = Ir.Ncall call in
      let t_call = eval ctx sub (C.wrap_outer outer call_node) in
      let silent = ref [] in
      let counter' = ref !counter in
      let transfer_node =
        Ir.Nloop
          (optimize_nest ctx ~db
             ~decide:(fun l a -> silent := (l, a) :: !silent)
             ~counter:counter' ~outer sub nest)
      in
      let t_transfer = eval ctx sub (C.wrap_outer outer transfer_node) in
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

(** [schedule ctx ~db p] — [Daisy.schedule] with default options and no
    quarantine, traced. *)
let schedule (ctx : C.ctx) ~(db : Db.t) (p : Ir.program) : S.Daisy.schedule_report =
  let decisions = ref [] in
  let blas_calls = ref 0 in
  let decide label action = decisions := { S.Daisy.label; action } :: !decisions in
  let counter = ref 0 in
  let extra_arrays = ref [] in
  let schedule_liftable_node n =
    let sub =
      Span.count "normalize.nests";
      Span.with_ "normalize" (fun () ->
          Pipeline.normalize ~sizes:ctx.C.sizes (C.single_nest_program p n))
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
    List.map
      (fun n ->
        match n with
        | Ir.Ncall k ->
            incr counter;
            decide (Printf.sprintf "nest#%d" !counter) (`Blas k.Ir.kernel);
            n
        | Ir.Ncomp _ -> n
        | Ir.Nloop nest ->
            let result = schedule_unit ctx ~db ~decide ~counter ~outer:[] sub nest in
            (match result with Ir.Ncall _ -> incr blas_calls | _ -> ());
            result)
      sub.Ir.body
  in
  let body =
    List.concat_map
      (fun n ->
        match n with
        | Ir.Nloop nest when not (C.liftable n) ->
            incr counter;
            decide (Printf.sprintf "nest#%d" !counter) `Unliftable;
            [ unliftable_fallback nest ]
        | Ir.Nloop _ -> schedule_liftable_node n
        | other -> [ other ])
      p.Ir.body
  in
  {
    S.Daisy.program = { p with Ir.body; arrays = p.Ir.arrays @ List.rev !extra_arrays };
    decisions = List.rev !decisions;
    blas_calls = !blas_calls;
  }

(** The whole request as [Daisy.schedule_request] runs it (without the
    deadline wrapper): traced schedule, then the final cost. *)
let request ctx ~db p : S.Daisy.schedule_report * float =
  let report = schedule ctx ~db p in
  Span.count "machine.evals";
  let cost =
    Span.with_ "machine.eval" (fun () -> C.runtime_ms ctx report.S.Daisy.program)
  in
  (report, cost)
