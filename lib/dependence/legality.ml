(** Legality predicates built on the dependence tests: loop permutation,
    parallelization, vectorization and reduction recognition.

    Permutation works on the {e perfect band} of a nest — the maximal chain
    of loops where each loop's body is exactly one inner loop. After maximal
    fission, the vast majority of nests are perfectly nested, which is what
    makes the paper's enumeration-based stride minimization tractable.

    All predicates are conservative: "false" may be a false negative (a
    legal transformation rejected because the tests could not prove it),
    never the other way around. *)

open Daisy_support
module Ir = Daisy_loopir.Ir

(** [perfect_band nest] — the maximal perfectly-nested chain of loops
    starting at [nest], and the body of the innermost band loop. *)
let rec perfect_band (nest : Ir.loop) : Ir.loop list * Ir.node list =
  match nest.Ir.body with
  | [ Ir.Nloop inner ] ->
      let band, body = perfect_band inner in
      (nest :: band, body)
  | body -> ([ nest ], body)

(** All execution-order-valid dependence direction vectors over the loops of
    [band], for computations in [body] (which may contain further non-band
    loops), with [outer] loops held equal.

    Every returned vector is lexicographically non-negative: its first
    non-[Eq] component is [Lt]. All-[Eq] vectors represent loop-independent
    dependences; they are reported too (they matter for fusion, not for
    permutation). *)
let band_dep_vectors ~(outer : Ir.loop list) (band : Ir.loop list)
    (body : Ir.node list) : Test.direction list list =
  let comps = Ir.comps_with_context body in
  let indexed = List.mapi (fun i (inner, c) -> (i, inner, c)) comps in
  let n_outer = List.length outer in
  let vectors = ref [] in
  let seen = Hashtbl.create 16 in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.add seen v ();
      vectors := v :: !vectors
    end
  in
  let flip v =
    List.map
      (function Test.Lt -> Test.Gt | Test.Gt -> Test.Lt | Test.Eq -> Test.Eq)
      v
  in
  List.iter
    (fun (i, inner_a, ca) ->
      List.iter
        (fun (j, inner_b, cb) ->
          if j >= i then begin
            let src_ctx = outer @ band @ inner_a in
            let dst_ctx = outer @ band @ inner_b in
            let common = outer @ band in
            let vs = Test.comp_directions ~common (src_ctx, ca) (dst_ctx, cb) in
            List.iter
              (fun v ->
                let outer_part = Util.take n_outer v in
                if List.for_all (fun d -> d = Test.Eq) outer_part then begin
                  let bv = Util.drop n_outer v in
                  match Test.src_executes_first bv with
                  | Some true -> add bv
                  | Some false ->
                      (* the dependence actually flows cb -> ca *)
                      if i <> j then add (flip bv)
                      (* self-pair: mirrored vectors already enumerated *)
                  | None ->
                      (* loop-independent within the band *)
                      if i <> j then add bv
                end)
              vs
          end)
        indexed)
    indexed;
  !vectors

(** [legal_permutation vectors perm] — is applying permutation [perm] to the
    band legal? [perm] maps new position [p] to old position [perm.(p)].
    Legal iff every permuted dependence vector remains lexicographically
    non-negative. *)
let legal_permutation (vectors : Test.direction list list) (perm : int array) :
    bool =
  List.for_all
    (fun v ->
      let varr = Array.of_list v in
      let permuted = Array.to_list (Array.map (fun old -> varr.(old)) perm) in
      match List.find_opt (fun d -> d <> Test.Eq) permuted with
      | None | Some Test.Lt -> true
      | Some _ -> false)
    vectors

(** [parallel_positions vectors n] — band positions whose loop carries no
    dependence (safely parallelizable and vectorizable). Position [p]
    carries a dependence iff some vector has its first non-[Eq] at [p]. *)
let parallel_positions (vectors : Test.direction list list) (n : int) :
    bool array =
  let parallel = Array.make n true in
  List.iter
    (fun v ->
      let rec first_non_eq k = function
        | [] -> None
        | Test.Eq :: rest -> first_non_eq (k + 1) rest
        | _ :: _ -> Some k
      in
      match first_non_eq 0 v with
      | Some k when k < n -> parallel.(k) <- false
      | _ -> ())
    vectors;
  parallel

(** [loop_carries_dependence ~outer l] — does loop [l] carry any dependence
    between the computations of its subtree? Conflicts through containers
    in [ignore_containers] (privatizable scalars) are disregarded. *)
let loop_carries_dependence ?(ignore_containers = Util.SSet.empty)
    ~(outer : Ir.loop list) (l : Ir.loop) : bool =
  let comps = Ir.comps_with_context l.Ir.body in
  let common = outer @ [ l ] in
  let n_outer = List.length outer in
  List.exists
    (fun (inner_a, ca) ->
      List.exists
        (fun (inner_b, cb) ->
          let src_ctx = common @ inner_a and dst_ctx = common @ inner_b in
          let vs =
            Test.comp_directions ~ignore_containers ~common (src_ctx, ca)
              (dst_ctx, cb)
          in
          List.exists
            (fun v ->
              List.for_all (fun d -> d = Test.Eq) (Util.take n_outer v)
              && List.nth v n_outer <> Test.Eq)
            vs)
        comps)
    comps

(* ------------------------------------------------------------------ *)
(* Reductions                                                           *)

(** [reduction_op c] — [Some op] when [c] is an update of its destination
    with an associative-commutative operator: [dest = dest op e] (or
    [e op dest]) where [e] does not read [dest]. *)
let reduction_op (c : Ir.comp) : Ir.vbinop option =
  let dest_container =
    match c.Ir.dest with
    | Ir.Darray a -> a.Ir.array
    | Ir.Dscalar s -> s
  in
  let reads_dest e =
    List.exists
      (fun (a : Ir.access) -> String.equal a.Ir.array dest_container)
      (Ir.vexpr_reads e)
    || List.exists (String.equal dest_container) (Ir.vexpr_scalars e)
  in
  let same_cell e =
    match (c.Ir.dest, e) with
    | Ir.Darray a, Ir.Vread b -> a = b
    | Ir.Dscalar s, Ir.Vscalar s' -> String.equal s s'
    | _ -> false
  in
  match c.Ir.rhs with
  | Ir.Vbin (((Ir.Vadd | Ir.Vmul) as op), l, r) when same_cell l && not (reads_dest r)
    -> Some op
  | Ir.Vbin ((Ir.Vadd as op), l, r) when same_cell r && not (reads_dest l) ->
      Some op
  | _ -> None

let is_reduction_comp c = reduction_op c <> None

(** [carried_only_by_reductions ~outer l] — [l] carries dependences, but all
    of them are self-dependences of reduction computations on their own
    destination (so the loop can run in parallel with atomic updates, the
    expensive fallback the paper observes on correlation/covariance). *)
let carried_only_by_reductions ?(ignore_containers = Util.SSet.empty)
    ~(outer : Ir.loop list) (l : Ir.loop) : bool =
  let comps = Ir.comps_with_context l.Ir.body in
  let common = outer @ [ l ] in
  let n_outer = List.length outer in
  let carried_pairs = ref [] in
  List.iter
    (fun (inner_a, ca) ->
      List.iter
        (fun (inner_b, cb) ->
          let src_ctx = common @ inner_a and dst_ctx = common @ inner_b in
          let vs =
            Test.comp_directions ~ignore_containers ~common (src_ctx, ca)
              (dst_ctx, cb)
          in
          if
            List.exists
              (fun v ->
                List.for_all (fun d -> d = Test.Eq) (Util.take n_outer v)
                && List.nth v n_outer <> Test.Eq)
              vs
          then carried_pairs := (ca, cb) :: !carried_pairs)
        comps)
    comps;
  !carried_pairs <> []
  && List.for_all
       (fun ((ca : Ir.comp), (cb : Ir.comp)) ->
         ca.Ir.cid = cb.Ir.cid && is_reduction_comp ca)
       !carried_pairs
