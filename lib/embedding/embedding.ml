(** Performance embeddings: fixed-length feature vectors of loop nests.

    The daisy scheduler's transfer tuning matches normalized loop nests to
    database entries by Euclidean distance between these vectors (paper §4,
    after Trümper et al., "Performance Embeddings", ICS'23). The features
    are static, structure- and access-pattern-centric, and deliberately
    invariant under iterator renaming — after normalization, semantically
    equivalent nests land (near-)identically in embedding space. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Affine = Daisy_poly.Affine
module Expr = Daisy_poly.Expr

let dim = 16

type t = float array (* length = dim *)

(* feature indices *)
let f_depth = 0
let f_n_comps = 1
let f_n_loops = 2
let f_flops = 3
let f_reads = 4
let f_writes = 5
let f_unit_stride = 6
let f_const_stride = 7
let f_big_stride = 8
let f_invariant = 9
let f_reduction = 10
let f_guarded = 11
let f_intrinsics = 12
let f_arrays = 13
let f_rank = 14
let f_triangular = 15

(** Per-access classification of the innermost-iterator stride. *)
let classify_stride (band_iters : string list) (a : Ir.access) :
    [ `Unit | `Const | `Big | `Invariant | `Unknown ] =
  match List.rev band_iters with
  | [] -> `Invariant
  | innermost :: _ -> (
      let affine_all =
        List.map Affine.of_expr a.Ir.indices
      in
      if List.exists (fun o -> o = None) affine_all then `Unknown
      else
        let coeffs =
          List.mapi
            (fun i o ->
              match o with
              | Some aff -> (i, Affine.coeff innermost aff)
              | None -> (i, 0))
            affine_all
        in
        let rank = List.length a.Ir.indices in
        let weighted =
          List.fold_left (fun acc (i, c) -> if c <> 0 then max acc (rank - i) else acc) 0 coeffs
        in
        if weighted = 0 then `Invariant
        else if weighted = 1 then
          (* innermost iterator appears only in the last dimension *)
          let _, c = List.nth coeffs (rank - 1) in
          if abs c = 1 then `Unit else `Const
        else `Big)

(** Embed a loop nest (or any node). *)
let of_node (n : Ir.node) : t =
  let v = Array.make dim 0.0 in
  let comps = Ir.comps_with_context [ n ] in
  let loops = Ir.loops_in [ n ] in
  v.(f_depth) <- float_of_int (Ir.depth [ n ]);
  v.(f_n_comps) <- float_of_int (List.length comps);
  v.(f_n_loops) <- float_of_int (List.length loops);
  let arrays = ref Util.SSet.empty in
  let max_rank = ref 0 in
  List.iter
    (fun (ctx, (c : Ir.comp)) ->
      let band_iters = List.map (fun (l : Ir.loop) -> l.Ir.iter) ctx in
      v.(f_flops) <- v.(f_flops) +. float_of_int (Ir.flops_of_vexpr c.Ir.rhs);
      let reads = Ir.comp_array_reads c in
      let writes = Ir.comp_array_writes c in
      v.(f_reads) <- v.(f_reads) +. float_of_int (List.length reads);
      v.(f_writes) <- v.(f_writes) +. float_of_int (List.length writes);
      List.iter
        (fun (a : Ir.access) ->
          arrays := Util.SSet.add a.Ir.array !arrays;
          max_rank := max !max_rank (List.length a.Ir.indices);
          match classify_stride band_iters a with
          | `Unit -> v.(f_unit_stride) <- v.(f_unit_stride) +. 1.0
          | `Const -> v.(f_const_stride) <- v.(f_const_stride) +. 1.0
          | `Big | `Unknown -> v.(f_big_stride) <- v.(f_big_stride) +. 1.0
          | `Invariant -> v.(f_invariant) <- v.(f_invariant) +. 1.0)
        (reads @ writes);
      if Daisy_dependence.Legality.is_reduction_comp c then
        v.(f_reduction) <- v.(f_reduction) +. 1.0;
      if c.Ir.guard <> None then v.(f_guarded) <- v.(f_guarded) +. 1.0;
      let rec intrinsics e =
        match e with
        | Ir.Vcall (_, args) -> 1 + Util.sum_by intrinsics args
        | Ir.Vbin (_, a, b) -> intrinsics a + intrinsics b
        | Ir.Vneg a -> intrinsics a
        | Ir.Vselect (_, a, b) -> intrinsics a + intrinsics b
        | _ -> 0
      in
      v.(f_intrinsics) <- v.(f_intrinsics) +. float_of_int (intrinsics c.Ir.rhs))
    comps;
  v.(f_arrays) <- float_of_int (Util.SSet.cardinal !arrays);
  v.(f_rank) <- float_of_int !max_rank;
  (* triangular: some loop bound references another iterator *)
  let iter_names = Util.SSet.of_list (List.map (fun (l : Ir.loop) -> l.Ir.iter) loops) in
  v.(f_triangular) <-
    (if
       List.exists
         (fun (l : Ir.loop) ->
           not
             (Util.SSet.is_empty
                (Util.SSet.inter iter_names
                   (Util.SSet.union (Expr.free_vars l.Ir.lo) (Expr.free_vars l.Ir.hi)))))
         loops
     then 1.0
     else 0.0);
  (* log-compress count features so big nests don't dominate distance *)
  Array.map (fun x -> if x > 1.0 then 1.0 +. log x else x) v

let distance (a : t) (b : t) : float =
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc

(** Total order on [(distance, embedding)] ranking keys: by distance
    first, then lexicographically by embedding coordinates. This is the
    tie-break contract every top-k path in the toolchain (the linear scan
    below and {!Ann}'s k-d tree) agrees on: entries at equal
    distance rank by their embedding, so the result is independent of the
    order the database happens to store them in. Only entries with
    bit-equal embeddings remain order-dependent — they are broken by
    arrival order (the scan) / entry index (the index), which coincide. *)
let compare_key ((d1 : float), (e1 : t)) ((d2 : float), (e2 : t)) : int =
  if d1 < d2 then -1
  else if d1 > d2 then 1
  else
    let n1 = Array.length e1 and n2 = Array.length e2 in
    let rec go i =
      if i >= n1 || i >= n2 then compare n1 n2
      else if e1.(i) < e2.(i) then -1
      else if e1.(i) > e2.(i) then 1
      else go (i + 1)
    in
    go 0

(** [nearest_by ~embed k entries q] — the [k] entries closest to query
    [q], closest first. O(n*k) bounded insertion instead of sorting the
    whole database. Ranking is by {!compare_key} — distance, then the
    embedding lexicographically — so the returned list is the same for
    any permutation of [entries]; only bit-equal embeddings fall back to
    keeping the earlier entry first (like a stable full sort). *)
let nearest_by ~(embed : 'a -> t) (k : int) (entries : 'a list) (q : t) :
    (float * 'a) list =
  if k <= 0 then []
  else begin
    (* [best] is ascending by (distance, embedding, arrival), at most [k]
       long; [worst] is the ranking key of its last element once full *)
    let best = ref [] in
    let count = ref 0 in
    let worst = ref None in
    let rec insert key payload l =
      match l with
      | [] -> [ (key, payload) ]
      | ((key', _) as hd) :: tl ->
          (* strict [<]: an equal-key newcomer goes after — stable *)
          if compare_key key key' < 0 then (key, payload) :: l
          else hd :: insert key payload tl
    in
    List.iter
      (fun entry ->
        let e = embed entry in
        let key = (distance e q, e) in
        match !worst with
        | None ->
            best := insert key entry !best;
            incr count;
            if !count = k then worst := Some (fst (List.nth !best (k - 1)))
        | Some w ->
            if compare_key key w < 0 then begin
              best := Util.take k (insert key entry !best);
              worst := Some (fst (List.nth !best (k - 1)))
            end)
      entries;
    List.map (fun ((d, _), payload) -> (d, payload)) !best
  end

(** [nearest k db q] — the [k] database entries closest to query [q]. *)
let nearest (k : int) (db : (t * 'a) list) (q : t) : (float * 'a) list =
  List.map (fun (d, (_, payload)) -> (d, payload)) (nearest_by ~embed:fst k db q)

let pp ppf (t : t) =
  Fmt.pf ppf "[%a]"
    (Fmt.list ~sep:(Fmt.any " ") (fun ppf x -> Fmt.pf ppf "%.2f" x))
    (Array.to_list t)
