(** Pairwise dependence testing: feasible direction vectors.

    Given two computation instances in their loop contexts, we build an
    affine system over renamed source/destination iterators (shared symbolic
    parameters stay shared), add subscript-equality constraints, and probe
    the three directions per common loop hierarchically (Goff–Kennedy–Tseng
    style pruning on the {!Daisy_poly.System} emptiness test).

    Non-affine subscripts or bounds make the test answer "all directions"
    — the conservative superset, matching the paper's behaviour of not
    optimizing loop nests it cannot lift precisely. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Affine = Daisy_poly.Affine
module System = Daisy_poly.System

type direction = Lt | Eq | Gt

let string_of_direction = function Lt -> "<" | Eq -> "=" | Gt -> ">"

let pp_dirvec ppf v =
  Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ",") Fmt.string)
    (List.map string_of_direction v)

(** Renaming applied to one side of the test: loop iterators get a prefix,
    everything else (parameters) is shared. *)
let side_rename ~iters ~prefix e =
  let env =
    Util.SSet.fold
      (fun it env -> Util.SMap.add it (Expr.var (prefix ^ it)) env)
      iters Util.SMap.empty
  in
  Expr.subst env e

exception Non_affine

let affine_exn e =
  match Affine.of_expr e with Some a -> a | None -> raise Non_affine

(** Domain constraints of one side: each loop in [ctx] bounds its (renamed)
    iterator; bounds may reference renamed outer iterators and parameters. *)
let side_domain ~prefix (ctx : Ir.loop list) sys =
  let iters =
    List.fold_left (fun s (l : Ir.loop) -> Util.SSet.add l.Ir.iter s)
      Util.SSet.empty ctx
  in
  List.fold_left
    (fun sys (l : Ir.loop) ->
      let it = Affine.var (prefix ^ l.Ir.iter) in
      let lo = affine_exn (side_rename ~iters ~prefix l.Ir.lo) in
      let hi = affine_exn (side_rename ~iters ~prefix l.Ir.hi) in
      if l.Ir.step > 0 then System.ge it lo (System.le it hi sys)
      else System.le it lo (System.ge it hi sys))
    sys ctx

(** The base conflict system for a pair of references: both instances in
    their domains and touching the same element. *)
let conflict_system ~(src_ctx : Ir.loop list) ~(dst_ctx : Ir.loop list)
    (src : Refs.t) (dst : Refs.t) : System.t =
  let src_iters =
    List.fold_left (fun s (l : Ir.loop) -> Util.SSet.add l.Ir.iter s)
      Util.SSet.empty src_ctx
  in
  let dst_iters =
    List.fold_left (fun s (l : Ir.loop) -> Util.SSet.add l.Ir.iter s)
      Util.SSet.empty dst_ctx
  in
  let sys = System.empty_sys in
  let sys = side_domain ~prefix:"s$" src_ctx sys in
  let sys = side_domain ~prefix:"d$" dst_ctx sys in
  List.fold_left2
    (fun sys si di ->
      let sa = affine_exn (side_rename ~iters:src_iters ~prefix:"s$" si) in
      let da = affine_exn (side_rename ~iters:dst_iters ~prefix:"d$" di) in
      System.eq sa da sys)
    sys src.Refs.indices dst.Refs.indices

(** The direction vectors of a conflicting pair, computed afresh. *)
let fresh_directions ~(common : Ir.loop list) ~src_ctx ~dst_ctx
    (src : Refs.t) (dst : Refs.t) : direction list list =
  let all_vectors () =
    let rec go k = if k = 0 then [ [] ] else
      let rest = go (k - 1) in
      List.concat_map (fun v -> [ Lt :: v; Eq :: v; Gt :: v ]) rest
    in
    go (List.length common)
  in
  if
    (* classic ZIV/SIV/GCD filters: a provably never-aliasing subscript
       dimension kills the pair without touching Fourier-Motzkin *)
    Fastpath.independent_accesses
      ~extents:
        (List.fold_left
           (fun m (l : Ir.loop) ->
             match
               (Expr.to_const l.Ir.lo, Expr.to_const l.Ir.hi)
             with
             | Some lo, Some hi when l.Ir.step <> 0 ->
                 Util.SMap.add l.Ir.iter
                   (max 0 (((hi - lo) / l.Ir.step) + 1))
                   m
             | _ -> m)
           Util.SMap.empty src_ctx)
      src.Refs.indices dst.Refs.indices
  then []
  else
    match conflict_system ~src_ctx ~dst_ctx src dst with
    | exception Non_affine -> all_vectors ()
    | base ->
        (* hierarchical DFS with pruning *)
        let rec probe sys prefix loops acc =
          match loops with
          | [] -> List.rev prefix :: acc
          | (l : Ir.loop) :: rest ->
              let s = Affine.var ("s$" ^ l.Ir.iter) in
              let d = Affine.var ("d$" ^ l.Ir.iter) in
              (* for downward loops, "earlier" means a larger iterator value *)
              let earlier, later =
                if l.Ir.step > 0 then (System.lt, System.gt)
                else (System.gt, System.lt)
              in
              List.fold_left
                (fun acc (dir, constr) ->
                  let sys' = constr s d sys in
                  if System.is_empty sys' then acc
                  else probe sys' (dir :: prefix) rest acc)
                acc
                [ (Lt, earlier); (Eq, System.eq); (Gt, later) ]
        in
        probe base [] common []

(* ------------------------------------------------------------------ *)
(* The pair memo                                                        *)

(* Once [Refs.conflict] has passed, [fresh_directions] reads exactly this:
   each loop's iterator, bounds and step in the three loop lists, and the
   two subscript lists. Never the [Ir.loop] records themselves: their
   [lid]s are fresh after every transformation and their [body] is a
   whole subtree. *)
type loop_key = string * Expr.t * Expr.t * int

type key = {
  k_common : loop_key list;
  k_src_ctx : loop_key list;
  k_dst_ctx : loop_key list;
  k_src : Expr.t list;
  k_dst : Expr.t list;
}

let loop_key (l : Ir.loop) : loop_key = (l.Ir.iter, l.Ir.lo, l.Ir.hi, l.Ir.step)

module Memo = Hashtbl.Make (struct
  type t = key

  let equal (a : key) b = a = b

  (* the whole key: [Hashtbl.hash] stops after 10 meaningful words, so
     keys sharing a loop prefix would pile into one bucket *)
  let mix h (x : int) = Hashtbl.seeded_hash h x

  let rec expr h (e : Expr.t) =
    match e with
    | Expr.Const c -> mix (mix h 1) c
    | Expr.Var v -> Hashtbl.seeded_hash (mix h 2) v
    | Expr.Add (a, b) -> expr (expr (mix h 3) a) b
    | Expr.Sub (a, b) -> expr (expr (mix h 4) a) b
    | Expr.Mul (a, b) -> expr (expr (mix h 5) a) b
    | Expr.Div (a, b) -> expr (expr (mix h 6) a) b
    | Expr.Mod (a, b) -> expr (expr (mix h 7) a) b
    | Expr.Neg a -> expr (mix h 8) a
    | Expr.Min (a, b) -> expr (expr (mix h 9) a) b
    | Expr.Max (a, b) -> expr (expr (mix h 10) a) b

  let list f h l = List.fold_left f (mix h (List.length l)) l

  let loop h ((iter, lo, hi, step) : loop_key) =
    mix (expr (expr (Hashtbl.seeded_hash h iter) lo) hi) step

  let hash k =
    let h = list loop 0 k.k_common in
    let h = list loop h k.k_src_ctx in
    let h = list loop h k.k_dst_ctx in
    list expr (list expr h k.k_src) k.k_dst
end)

(* One table for every domain and thread; a miss is computed outside the
   lock, so two callers racing on one key store equal values. *)
let memo : direction list list Memo.t = Memo.create 256
let memo_lock = Mutex.create ()

(* The table is cleared when it reaches this many entries. A CLOUDSC
   full-model read asks 8 distinct questions and a whole PolyBench seeding
   122, so the bound only caps a long-lived process's memory. *)
let memo_capacity = 4096

let clear_memo () = Mutex.protect memo_lock (fun () -> Memo.reset memo)

(** [directions ~common ~src_ctx ~dst_ctx src dst] — the set of feasible
    direction vectors over the [common] loops for conflicting instances
    (source iteration REL destination iteration per component). Assumes
    [common] is a prefix of both contexts. Returns the full 3^n set when the
    pair is non-affine. A repeated question is answered from the memo. *)
let directions ~(common : Ir.loop list) ~src_ctx ~dst_ctx (src : Refs.t)
    (dst : Refs.t) : direction list list =
  if not (Refs.conflict src dst) then []
  else
    let key =
      {
        k_common = List.map loop_key common;
        k_src_ctx = List.map loop_key src_ctx;
        k_dst_ctx = List.map loop_key dst_ctx;
        k_src = src.Refs.indices;
        k_dst = dst.Refs.indices;
      }
    in
    match Mutex.protect memo_lock (fun () -> Memo.find_opt memo key) with
    | Some vs -> vs
    | None ->
        let vs = fresh_directions ~common ~src_ctx ~dst_ctx src dst in
        Mutex.protect memo_lock (fun () ->
            if Memo.length memo >= memo_capacity then Memo.reset memo;
            Memo.replace memo key vs);
        vs

(** [comp_directions ~common (ctxA, cA) (ctxB, cB)] — union of feasible
    direction vectors over all conflicting reference pairs between two
    computations, each vector once, in first-occurrence order. Containers
    in [ignore_containers] (e.g. privatizable scalars) are excluded from
    conflict detection. *)
let comp_directions ?(ignore_containers = Util.SSet.empty) ~common
    (src_ctx, (cA : Ir.comp)) (dst_ctx, (cB : Ir.comp)) :
    direction list list =
  let keep r = not (Util.SSet.mem r.Refs.container ignore_containers) in
  let refs_a = List.filter keep (Refs.of_comp cA)
  and refs_b = List.filter keep (Refs.of_comp cB) in
  (* hashed: a non-affine pair answers all 3^depth vectors *)
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun ra ->
      List.concat_map
        (fun rb ->
          if Refs.conflict ra rb then
            directions ~common ~src_ctx ~dst_ctx ra rb
          else [])
        refs_b)
    refs_a
  |> List.filter (fun v ->
         if Hashtbl.mem seen v then false
         else begin
           Hashtbl.add seen v ();
           true
         end)

(** [distance_at ~common ~src_ctx ~dst_ctx src dst loop] — the constant
    dependence distance at [loop] (a member of [common]) when it is unique:
    bounds of [d$it - s$it] over the conflict system. [None] when the pair
    is independent, non-affine, or the distance is not a single constant. *)
let distance_at ~(common : Ir.loop list) ~src_ctx ~dst_ctx (src : Refs.t)
    (dst : Refs.t) (loop : Ir.loop) : int option =
  ignore common;
  if not (Refs.conflict src dst) then None
  else
    match conflict_system ~src_ctx ~dst_ctx src dst with
    | exception Non_affine -> None
    | base ->
        if System.is_empty base then None
        else begin
          let delta = "delta$" ^ loop.Ir.iter in
          let sys =
            System.eq
              (Affine.var delta)
              (Affine.sub
                 (Affine.var ("d$" ^ loop.Ir.iter))
                 (Affine.var ("s$" ^ loop.Ir.iter)))
              base
          in
          match System.const_bounds delta sys with
          | Some lo, Some hi when lo = hi -> Some lo
          | _ -> None
        end

(** Classification of a direction vector (execution order of the two
    instances at the common-loop level). *)
let leading_direction (v : direction list) : direction =
  match List.find_opt (fun d -> d <> Eq) v with Some d -> d | None -> Eq

(** [src_executes_first v] — [Some true] if the vector implies the source
    instance runs before the destination instance, [Some false] for after,
    [None] for the same iteration (decided by textual order). *)
let src_executes_first v =
  match leading_direction v with
  | Lt -> Some true
  | Gt -> Some false
  | Eq -> None
