(** Sub-linear nearest-neighbour index over performance embeddings.

    [Embedding.nearest_by] is a linear scan — fine at benchmark-suite
    size, disqualifying at the million-entry recipe databases the serving
    roadmap targets. This module provides a bucket {b k-d tree} with one
    non-negotiable contract: a query returns {e exactly} the same top-k
    (distances and order) as the linear scan, for every database of
    finite vectors (box bounds only bound finite distances: {!build}
    refuses others) and every query.

    Leaves hold up to {!leaf_cap} entries, internal nodes carry the
    bounding box of their subtree, and queries run best-bin-first — a
    min-heap of (lower-bound, subtree) visited in bound order, bounded by
    pruning against the current k-th best distance. The search prunes
    with {e strict} comparisons against the k-th best distance and ranks
    candidates with {!Embedding.compare_key} extended by the entry index,
    so ties resolve exactly as the scan's stable ordering does.

    The index lives in memory only: it is built from the entries when a
    database is loaded and never written to disk (docs/performance.md,
    "Why there is no index file"). *)

open Daisy_support

(** Leaf capacity of the k-d tree. *)
let leaf_cap = 64

type entry = { eidx : int; vec : float array }

type node =
  | Leaf of { lo : float array; hi : float array; es : entry array }
  | Split of { lo : float array; hi : float array; left : node; right : node }

type t = {
  n : int;
  dim : int;
  root : node option;  (** [None] for an empty index *)
  leaves : int;
}

let n t = t.n
let dim t = t.dim
let describe t = Printf.sprintf "kd, %d entries, %d leaves" t.n t.leaves

(* ------------------------------------------------------------------ *)
(* Shared small pieces *)

let bbox (es : entry array) ~dim : float array * float array =
  let lo = Array.make dim infinity and hi = Array.make dim neg_infinity in
  Array.iter
    (fun e ->
      for i = 0 to dim - 1 do
        if e.vec.(i) < lo.(i) then lo.(i) <- e.vec.(i);
        if e.vec.(i) > hi.(i) then hi.(i) <- e.vec.(i)
      done)
    es;
  (lo, hi)

(** Distance from [q] to the axis-aligned box [lo, hi] — a lower bound on
    the distance from [q] to any point inside. *)
let box_lb (q : float array) (lo : float array) (hi : float array) : float =
  let acc = ref 0.0 in
  for i = 0 to Array.length lo - 1 do
    let d =
      if q.(i) < lo.(i) then lo.(i) -. q.(i)
      else if q.(i) > hi.(i) then q.(i) -. hi.(i)
      else 0.0
    in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

(* ------------------------------------------------------------------ *)
(* The bounded top-k accumulator: exactly [Embedding.nearest_by]'s
   ordering — (distance, embedding lexicographic) via
   [Embedding.compare_key], with the entry index as the final tie-break
   (the scan's arrival order and our entry index coincide). *)

type topk = {
  k : int;
  mutable xs : (float * entry) list;  (* ascending by ranking key *)
  mutable size : int;
  mutable worst : (float * float array * int) option;
      (* ranking key of the k-th element once full *)
}

let topk_create k = { k; xs = []; size = 0; worst = None }

let key_lt (d1, v1, i1) (d2, v2, i2) =
  let c = Embedding.compare_key (d1, v1) (d2, v2) in
  if c <> 0 then c < 0 else i1 < i2

(** Distance the search bound must stay within to still matter: entries
    strictly farther than this cannot enter the top-k (equal distance
    still can, through the lexicographic tie-break — hence all pruning
    below compares strictly). *)
let topk_bound tk =
  match tk.worst with Some (d, _, _) -> d | None -> infinity

let topk_full tk = tk.size >= tk.k

let topk_offer tk (q : float array) (e : entry) : unit =
  let d = Embedding.distance e.vec q in
  let key = (d, e.vec, e.eidx) in
  let admit = match tk.worst with None -> true | Some w -> key_lt key w in
  if admit then begin
    let rec ins l =
      match l with
      | [] -> [ (d, e) ]
      | ((d', e') as hd) :: tl ->
          if key_lt key (d', e'.vec, e'.eidx) then (d, e) :: l
          else hd :: ins tl
    in
    tk.xs <- ins tk.xs;
    if tk.size < tk.k then tk.size <- tk.size + 1
    else tk.xs <- Util.take tk.k tk.xs;
    if tk.size = tk.k then begin
      match List.nth_opt tk.xs (tk.k - 1) with
      | Some (d', e') -> tk.worst <- Some (d', e'.vec, e'.eidx)
      | None -> ()
    end
  end

let topk_result tk = List.map (fun (d, e) -> (d, e.eidx)) tk.xs

(* ------------------------------------------------------------------ *)
(* Building *)

(** Bucket k-d tree: split the widest dimension at the median until a
    subtree fits in a leaf. Duplicate-heavy inputs that cannot be split
    (zero spread on every dimension) become one oversized leaf. *)
let build_kd ~dim (es : entry array) : node * int =
  let leaves = ref 0 in
  let leaf lo hi es =
    incr leaves;
    Leaf { lo; hi; es }
  in
  let rec go (es : entry array) : node =
    let lo, hi = bbox es ~dim in
    if Array.length es <= leaf_cap then leaf lo hi es
    else begin
      (* widest dimension *)
      let d = ref 0 and spread = ref neg_infinity in
      for i = 0 to dim - 1 do
        let s = hi.(i) -. lo.(i) in
        if s > !spread then begin
          spread := s;
          d := i
        end
      done;
      if !spread <= 0.0 then
        (* every entry identical: no split exists *)
        leaf lo hi es
      else begin
        let d = !d in
        let es = Array.copy es in
        Array.sort
          (fun a b ->
            let c = Float.compare a.vec.(d) b.vec.(d) in
            if c <> 0 then c else compare a.eidx b.eidx)
          es;
        let len = Array.length es in
        let m = ref (len / 2) in
        (* keep both sides non-empty under duplicates: advance the split
           past the run of minimum values if the median sits inside it *)
        while es.(!m).vec.(d) = es.(0).vec.(d) do
          incr m
        done;
        let left = Array.sub es 0 !m and right = Array.sub es !m (len - !m) in
        Split { lo; hi; left = go left; right = go right }
      end
    end
  in
  let root = go es in
  (root, !leaves)

let build ~dim (vectors : float array array) : t =
  if dim <= 0 then invalid_arg "Ann.build: dim must be positive";
  Array.iteri
    (fun i v ->
      if Array.length v <> dim then
        invalid_arg
          (Printf.sprintf "Ann.build: vector %d has %d coordinates, not %d" i
             (Array.length v) dim);
      if not (Array.for_all Float.is_finite v) then
        invalid_arg
          (Printf.sprintf "Ann.build: vector %d has a non-finite coordinate" i))
    vectors;
  let n = Array.length vectors in
  let es = Array.mapi (fun eidx vec -> { eidx; vec }) vectors in
  if n = 0 then { n; dim; root = None; leaves = 0 }
  else
    let root, leaves = build_kd ~dim es in
    { n; dim; root = Some root; leaves }

(* ------------------------------------------------------------------ *)
(* Querying *)

(* A monomorphic binary min-heap of (lower bound, subtree), the
   best-bin-first frontier. Ordering on the float only: tie order among
   equal bounds does not affect results (pruning is strict and the top-k
   comparator is total), and the heap is deterministic regardless. *)
module Frontier = struct
  type h = { mutable a : (float * node) array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push h p x =
    if h.len = Array.length h.a then begin
      let grown =
        Array.make (max 16 (2 * h.len)) (p, x)
      in
      Array.blit h.a 0 grown 0 h.len;
      h.a <- grown
    end;
    h.a.(h.len) <- (p, x);
    h.len <- h.len + 1;
    let i = ref (h.len - 1) in
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      fst h.a.(!i) < fst h.a.(parent)
      &&
      (let tmp = h.a.(!i) in
       h.a.(!i) <- h.a.(parent);
       h.a.(parent) <- tmp;
       i := parent;
       true)
    do
      ()
    done

  let pop h : (float * node) option =
    if h.len = 0 then None
    else begin
      let top = h.a.(0) in
      h.len <- h.len - 1;
      if h.len > 0 then begin
        h.a.(0) <- h.a.(h.len);
        let i = ref 0 in
        let continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < h.len && fst h.a.(l) < fst h.a.(!smallest) then smallest := l;
          if r < h.len && fst h.a.(r) < fst h.a.(!smallest) then smallest := r;
          if !smallest = !i then continue := false
          else begin
            let tmp = h.a.(!i) in
            h.a.(!i) <- h.a.(!smallest);
            h.a.(!smallest) <- tmp;
            i := !smallest
          end
        done
      end;
      Some top
    end
end

let node_box = function
  | Leaf { lo; hi; _ } -> (lo, hi)
  | Split { lo; hi; _ } -> (lo, hi)

let query_kd root tk (q : float array) : unit =
  let frontier = Frontier.create () in
  let lo, hi = node_box root in
  Frontier.push frontier (box_lb q lo hi) root;
  let stop = ref false in
  while not !stop do
    match Frontier.pop frontier with
    | None -> stop := true
    | Some (lb, node) ->
        (* frontier bounds pop in non-decreasing order (a child's box is
           inside its parent's), so the first bound strictly past the
           k-th best distance ends the search — bounded best-bin-first *)
        if topk_full tk && lb > topk_bound tk then stop := true
        else (
          match node with
          | Leaf { es; _ } -> Array.iter (topk_offer tk q) es
          | Split { left; right; _ } ->
              let llo, lhi = node_box left and rlo, rhi = node_box right in
              Frontier.push frontier (box_lb q llo lhi) left;
              Frontier.push frontier (box_lb q rlo rhi) right)
  done

(** [query t ~k q] — the [k] entries nearest to [q]: exactly
    [Embedding.nearest_by]'s result (distances and order) over the
    indexed vectors, as [(distance, entry index)] pairs. *)
let query t ~k (q : float array) : (float * int) list =
  if Array.length q <> t.dim then
    invalid_arg
      (Printf.sprintf "Ann.query: query has %d coordinates, index has %d"
         (Array.length q) t.dim);
  if k <= 0 then []
  else
    let tk = topk_create k in
    Option.iter (fun root -> query_kd root tk q) t.root;
    topk_result tk
