(** Sub-linear nearest-neighbour indexes over performance embeddings.

    [Embedding.nearest_by] is a linear scan — fine at benchmark-suite
    size, disqualifying at the million-entry recipe databases the serving
    roadmap targets. This module provides two index structures with one
    non-negotiable contract: a query returns {e exactly} the same top-k
    (distances and order) as the linear scan, for every database of
    finite vectors (box bounds only bound finite distances: {!build}
    refuses others, a page carrying one is corrupt) and every query.

    - a bucket {b k-d tree} (the low-dimensional exact workhorse):
      leaves hold up to {!page_cap} entries, internal nodes carry the
      bounding box of their subtree, and queries run best-bin-first — a
      min-heap of (lower-bound, subtree) visited in bound order, bounded
      by pruning against the current k-th best distance;
    - {b LSH buckets} (selected automatically past a dimensionality or
      entry-count threshold, see {!auto_algo}): entries are quantized by
      deterministic unit projections into buckets, and a query scans
      buckets in increasing order of a per-bucket distance lower bound
      (a projection is 1-Lipschitz, so the projection-space gap to a
      bucket's cell lower-bounds the true distance), stopping once the
      bound exceeds the k-th best.

    Both searches prune with {e strict} comparisons against the k-th
    best distance and rank candidates with {!Embedding.compare_key}
    extended by the entry index, so ties resolve exactly as the scan's
    stable ordering does.

    Indexes persist in a versioned [DAISYANN 1] file written atomically
    next to the DAISYDB file, with FNV-1a-64 checksums per section and
    per page, a content fingerprint for staleness detection, and a paged
    loader: {!load} reads only the header, tree and page table; leaf
    pages are fetched (and checksum-verified) on demand, so a query
    never materialises the full database. Corruption discovered at any
    point raises {!Corrupt}, which callers (see [Database.query]) turn
    into a one-warning fallback to the linear scan. *)

open Daisy_support

exception Corrupt of string

let () =
  Printexc.register_printer (function
    | Corrupt m -> Some (Printf.sprintf "Daisy_embedding.Ann.Corrupt(%S)" m)
    | _ -> None)

let magic = "DAISYANN"
let version = 1

(** Leaf capacity of the k-d tree and target LSH bucket occupancy. *)
let page_cap = 64

(** Number of LSH projections. *)
let lsh_projs = 8

type algo = Kd | Lsh

let string_of_algo = function Kd -> "kd" | Lsh -> "lsh"

let algo_of_string = function
  | "kd" -> Some Kd
  | "lsh" -> Some Lsh
  | _ -> None

(** [auto_algo ~n ~dim] — the k-d tree is exact and fast while the
    dimensionality stays low and the tree fits comfortably; past either
    threshold the bucketed path wins. *)
let auto_algo ~n ~dim = if dim > 24 || n > 250_000 then Lsh else Kd

type entry = { eidx : int; vec : float array }

type node =
  | Leaf of { lo : float array; hi : float array; page : int }
  | Split of { lo : float array; hi : float array; left : node; right : node }

type lsh = {
  projs : float array array;  (** [lsh_projs] unit directions *)
  mins : float array;  (** per-projection minimum over all entries *)
  width : float;  (** quantization cell width (> 0) *)
  codes : int array array;  (** bucket code of each page *)
}

type structure =
  | Empty
  | Kdtree of node
  | Buckets of lsh

type pages =
  | Mem of entry array array
  | Paged of {
      path : string;
      offsets : (int * int) array;  (** (byte offset, entry count) per page *)
      cache : (int, entry array) Hashtbl.t;
      lock : Mutex.t;
    }

type t = {
  algo : algo;
  n : int;
  dim : int;
  fingerprint : string;
  structure : structure;
  npages : int;
  pages : pages;
}

let n t = t.n
let dim t = t.dim
let fingerprint t = t.fingerprint
let algo t = t.algo
let pages t = t.npages

let describe t =
  Printf.sprintf "%s, %d entries, %d pages" (string_of_algo t.algo) t.n
    t.npages

(* ------------------------------------------------------------------ *)
(* Shared small pieces *)

let dot (a : float array) (b : float array) : float =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

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

type build_pages = { mutable rev : entry array list; mutable count : int }

let add_page bp es =
  bp.rev <- es :: bp.rev;
  bp.count <- bp.count + 1;
  bp.count - 1

(** Bucket k-d tree: split the widest dimension at the median until a
    subtree fits in a page. Duplicate-heavy inputs that cannot be split
    (zero spread on every dimension) become one oversized page. *)
let build_kd bp ~dim (es : entry array) : node =
  let rec go (es : entry array) : node =
    let lo, hi = bbox es ~dim in
    if Array.length es <= page_cap then Leaf { lo; hi; page = add_page bp es }
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
        Leaf { lo; hi; page = add_page bp es }
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
  go es

(** Deterministic unit projection directions: derived from a named
    stream, so build and every rebuild agree bit-for-bit. *)
let make_projs ~dim : float array array =
  Array.init lsh_projs (fun i ->
      let rng = Rng.of_string (Printf.sprintf "daisyann-proj-%d-%d" dim i) in
      let v = Array.init dim (fun _ -> Rng.float rng -. 0.5) in
      let norm = sqrt (dot v v) in
      if norm > 0.0 then Array.map (fun x -> x /. norm) v
      else Array.init dim (fun j -> if j = 0 then 1.0 else 0.0))

let build_lsh bp ~dim (es : entry array) : lsh =
  let projs = make_projs ~dim in
  let n = Array.length es in
  let vals =
    Array.map (fun u -> Array.map (fun e -> dot u e.vec) es) projs
  in
  let mins = Array.map (fun col -> Array.fold_left min infinity col) vals in
  let maxs =
    Array.map (fun col -> Array.fold_left max neg_infinity col) vals
  in
  (* target ~n/page_cap occupied buckets: b cells per projection *)
  let b =
    max 1
      (int_of_float
         (ceil
            (Float.pow
               (float_of_int (max 1 n) /. float_of_int page_cap)
               (1.0 /. float_of_int lsh_projs))))
  in
  let range =
    Array.fold_left max 0.0 (Array.map2 (fun a b -> b -. a) mins maxs)
  in
  let width = if range > 0.0 then range /. float_of_int b else 1.0 in
  let code_of i =
    Array.init lsh_projs (fun j ->
        int_of_float (floor ((vals.(j).(i) -. mins.(j)) /. width)))
  in
  let tbl : (int array, entry list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i e ->
      let c = code_of i in
      Hashtbl.replace tbl c (e :: (Option.value ~default:[] (Hashtbl.find_opt tbl c))))
    es;
  let buckets =
    Hashtbl.fold (fun c es acc -> (c, es) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let codes =
    List.map
      (fun (c, es) ->
        (* entries in index order within the bucket *)
        let arr = Array.of_list es in
        Array.sort (fun a b -> compare a.eidx b.eidx) arr;
        ignore (add_page bp arr);
        c)
      buckets
    |> Array.of_list
  in
  { projs; mins; width; codes }

let build ?algo ~fingerprint ~dim (vectors : float array array) : t =
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
  let algo = match algo with Some a -> a | None -> auto_algo ~n ~dim in
  let es = Array.mapi (fun eidx vec -> { eidx; vec }) vectors in
  let bp = { rev = []; count = 0 } in
  let structure =
    if n = 0 then Empty
    else
      match algo with
      | Kd -> Kdtree (build_kd bp ~dim es)
      | Lsh -> Buckets (build_lsh bp ~dim es)
  in
  {
    algo;
    n;
    dim;
    fingerprint;
    structure;
    npages = bp.count;
    pages = Mem (Array.of_list (List.rev bp.rev));
  }

(* ------------------------------------------------------------------ *)
(* Page access *)

let parse_entry_line ~dim (line : string) : entry option =
  match String.split_on_char ' ' line with
  | "e" :: idx :: floats when List.length floats = dim -> (
      match int_of_string_opt idx with
      | None -> None
      | Some eidx ->
          let vals = List.filter_map float_of_string_opt floats in
          if List.length vals <> dim || not (List.for_all Float.is_finite vals)
          then None
          else Some { eidx; vec = Array.of_list vals })
  | _ -> None

let entry_line (e : entry) : string =
  Printf.sprintf "e %d %s" e.eidx
    (String.concat " "
       (List.map (Printf.sprintf "%h") (Array.to_list e.vec)))

(** Fetch one page, loading (and checksum-verifying) it on demand for
    file-backed indexes. Thread-safe: parallel queries share the cache
    under a mutex. Raises {!Corrupt} on any mismatch. *)
let fetch_page t (page : int) : entry array =
  match t.pages with
  | Mem arr ->
      if page < 0 || page >= Array.length arr then
        raise (Corrupt (Printf.sprintf "page %d out of range" page))
      else arr.(page)
  | Paged { path; offsets; cache; lock } ->
      Mutex.lock lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock lock)
        (fun () ->
          match Hashtbl.find_opt cache page with
          | Some es -> es
          | None ->
              if page < 0 || page >= Array.length offsets then
                raise (Corrupt (Printf.sprintf "page %d out of range" page));
              let offset, count = offsets.(page) in
              let ic =
                try open_in_bin path
                with Sys_error m -> raise (Corrupt m)
              in
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () ->
                  let header, body =
                    try
                      seek_in ic offset;
                      let header = input_line ic in
                      (header, List.init count (fun _ -> input_line ic))
                    with End_of_file ->
                      raise
                        (Corrupt
                           (Printf.sprintf "page %d: truncated file" page))
                  in
                  let ck =
                    match String.split_on_char ' ' header with
                    | [ "page"; id; ck; cnt ]
                      when int_of_string_opt id = Some page
                           && int_of_string_opt cnt = Some count ->
                        ck
                    | _ ->
                        raise
                          (Corrupt
                             (Printf.sprintf "page %d: bad page header %S"
                                page header))
                  in
                  if
                    not
                      (String.equal ck
                         (Util.fnv1a64 (String.concat "\n" body)))
                  then
                    raise
                      (Corrupt
                         (Printf.sprintf "page %d: checksum mismatch" page));
                  let es =
                    List.map
                      (fun l ->
                        match parse_entry_line ~dim:t.dim l with
                        | Some e -> e
                        | None ->
                            raise
                              (Corrupt
                                 (Printf.sprintf
                                    "page %d: malformed entry line %S" page l)))
                      body
                    |> Array.of_list
                  in
                  Hashtbl.add cache page es;
                  es))

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

let query_kd t root tk (q : float array) : unit =
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
          | Leaf { page; _ } -> Array.iter (topk_offer tk q) (fetch_page t page)
          | Split { left; right; _ } ->
              let llo, lhi = node_box left and rlo, rhi = node_box right in
              Frontier.push frontier (box_lb q llo lhi) left;
              Frontier.push frontier (box_lb q rlo rhi) right)
  done

let query_lsh t (l : lsh) tk (q : float array) : unit =
  let qp = Array.map (fun u -> dot u q) l.projs in
  (* lower bound on the true distance from q to anything in the page's
     bucket: each projection is 1-Lipschitz, so the largest
     projection-space gap to the bucket's cell bounds from below *)
  let page_lb (code : int array) : float =
    let m = ref 0.0 in
    for j = 0 to lsh_projs - 1 do
      let ilo = l.mins.(j) +. (float_of_int code.(j) *. l.width) in
      let ihi = ilo +. l.width in
      let d =
        if qp.(j) < ilo then ilo -. qp.(j)
        else if qp.(j) > ihi then qp.(j) -. ihi
        else 0.0
      in
      if d > !m then m := d
    done;
    !m
  in
  let order = Array.mapi (fun i code -> (page_lb code, i)) l.codes in
  Array.sort
    (fun (a, i) (b, j) ->
      if a < b then -1 else if a > b then 1 else compare i j)
    order;
  (try
     Array.iter
       (fun (lb, page) ->
         if topk_full tk && lb > topk_bound tk then raise Exit
         else Array.iter (topk_offer tk q) (fetch_page t page))
       order
   with Exit -> ())

(** [query t ~k q] — the [k] entries nearest to [q]: exactly
    [Embedding.nearest_by]'s result (distances and order) over the
    indexed vectors, as [(distance, entry index)] pairs. Raises
    {!Corrupt} if a file-backed page fails its checksum (or the armed
    ["ann_query"] fault point fires). *)
let query t ~k (q : float array) : (float * int) list =
  if Fault.fires "ann_query" then
    raise (Corrupt "injected fault at ann_query");
  if Array.length q <> t.dim then
    invalid_arg
      (Printf.sprintf "Ann.query: query has %d coordinates, index has %d"
         (Array.length q) t.dim);
  if k <= 0 then []
  else
    let tk = topk_create k in
    (match t.structure with
    | Empty -> ()
    | Kdtree root -> query_kd t root tk q
    | Buckets l -> query_lsh t l tk q);
    topk_result tk

(* ------------------------------------------------------------------ *)
(* Persistence: DAISYANN 1.

   Line-based, like DAISYDB/DAISYCKPT, plus a seekable page layout:

   {v
   DAISYANN 1
   algo kd|lsh
   n <entries>
   dim <coordinates>
   fingerprint <16-hex FNV-1a-64 of the database contents>
   section params <16-hex checksum> <nlines>     (LSH only; empty for kd)
   ...
   section tree <16-hex checksum> <nlines>       (kd splits/leaves, pre-order)
   ...
   page <id> <16-hex checksum> <count>           (one block per page)
   e <entry index> <dim %h floats>
   ...
   section table <16-hex checksum> <npages>
   page <id> <byte offset> <count>
   trailer <table byte offset, %012d>
   v}

   The loader reads the header and tree, seeks to the trailer (fixed
   21 bytes) for the page table's offset, and never touches page blocks
   — those are fetched and verified on demand by {!fetch_page}. *)

let floats_str (v : float array) =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list v))

let floats_of_str ~expect (s : string) : float array option =
  let toks = String.split_on_char ' ' s |> List.filter (fun t -> t <> "") in
  let vals = List.filter_map float_of_string_opt toks in
  if List.length toks <> expect || List.length vals <> expect then None
  else Some (Array.of_list vals)

let tree_lines (root : node) : string list =
  let rec go acc = function
    | Leaf { lo; hi; page } ->
        Printf.sprintf "leaf %d %s %s" page (floats_str lo) (floats_str hi)
        :: acc
    | Split { lo; hi; left; right } ->
        let acc = go acc right in
        let acc = go acc left in
        Printf.sprintf "split %s %s" (floats_str lo) (floats_str hi) :: acc
  in
  go [] root

let tree_of_lines ~dim (lines : string list) : node option =
  let arr = Array.of_list lines in
  let pos = ref 0 in
  let split2 s =
    match floats_of_str ~expect:(2 * dim) s with
    | None -> None
    | Some both ->
        Some (Array.sub both 0 dim, Array.sub both dim dim)
  in
  let rec go () : node option =
    if !pos >= Array.length arr then None
    else begin
      let line = arr.(!pos) in
      incr pos;
      match String.index_opt line ' ' with
      | None -> None
      | Some i -> (
          let tag = String.sub line 0 i in
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          match tag with
          | "split" -> (
              match split2 rest with
              | None -> None
              | Some (lo, hi) -> (
                  match go () with
                  | None -> None
                  | Some left -> (
                      match go () with
                      | None -> None
                      | Some right -> Some (Split { lo; hi; left; right }))))
          | "leaf" -> (
              match String.index_opt rest ' ' with
              | None -> None
              | Some j -> (
                  match
                    ( int_of_string_opt (String.sub rest 0 j),
                      split2
                        (String.sub rest (j + 1) (String.length rest - j - 1))
                    )
                  with
                  | Some page, Some (lo, hi) -> Some (Leaf { lo; hi; page })
                  | _ -> None))
          | _ -> None)
    end
  in
  match go () with
  | Some root when !pos = Array.length arr -> Some root
  | _ -> None

let params_lines (l : lsh) : string list =
  (Printf.sprintf "projs %d" (Array.length l.projs))
  :: (Array.to_list l.projs |> List.map (fun p -> "p " ^ floats_str p))
  @ [ "mins " ^ floats_str l.mins; Printf.sprintf "width %h" l.width ]
  @ (Array.to_list l.codes
    |> List.mapi (fun i c ->
           Printf.sprintf "code %d %s" i
             (String.concat " " (List.map string_of_int (Array.to_list c)))))

let params_of_lines ~dim ~npages (lines : string list) : lsh option =
  let ( let* ) = Option.bind in
  match lines with
  | [] -> None
  | projs_l :: rest ->
      let strip p s =
        let lp = String.length p in
        if String.length s >= lp && String.equal (String.sub s 0 lp) p then
          Some (String.sub s lp (String.length s - lp))
        else None
      in
      let* np = Option.bind (strip "projs " projs_l) int_of_string_opt in
      if np <> lsh_projs || List.length rest < np + 2 + npages then None
      else begin
        let proj_ls = Util.take np rest in
        let rest = Util.drop np rest in
        let* projs =
          List.fold_left
            (fun acc l ->
              let* acc = acc in
              let* s = strip "p " l in
              let* v = floats_of_str ~expect:dim s in
              Some (v :: acc))
            (Some []) proj_ls
        in
        let projs = Array.of_list (List.rev projs) in
        match rest with
        | mins_l :: width_l :: code_ls when List.length code_ls = npages ->
            let* mins =
              Option.bind (strip "mins " mins_l)
                (floats_of_str ~expect:lsh_projs)
            in
            let* width =
              Option.bind (strip "width " width_l) float_of_string_opt
            in
            let* codes =
              List.fold_left
                (fun acc (i, l) ->
                  let* acc = acc in
                  let* s = strip "code " l in
                  match String.split_on_char ' ' s with
                  | id :: toks
                    when int_of_string_opt id = Some i
                         && List.length toks = lsh_projs ->
                      let vals = List.filter_map int_of_string_opt toks in
                      if List.length vals <> lsh_projs then None
                      else Some (Array.of_list vals :: acc)
                  | _ -> None)
                (Some [])
                (List.mapi (fun i l -> (i, l)) code_ls)
            in
            Some
              {
                projs;
                mins;
                width;
                codes = Array.of_list (List.rev codes);
              }
        | _ -> None
      end

let section_str name (lines : string list) : string =
  Printf.sprintf "section %s %s %d\n%s" name
    (Util.fnv1a64 (String.concat "\n" lines))
    (List.length lines)
    (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(** [save t path] — write the index atomically (write-temp, fsync,
    rename): a crash at any instant — including one injected at the
    per-page ["ann_build"] fault point — leaves any previous index file
    intact. *)
let save (t : t) (path : string) : unit =
  let page_arrays = Array.init t.npages (fun i -> fetch_page t i) in
  let params =
    match t.structure with
    | Buckets l -> params_lines l
    | Empty | Kdtree _ -> []
  in
  let tree =
    match t.structure with
    | Empty -> [ "empty" ]
    | Kdtree root -> tree_lines root
    | Buckets _ -> [ "buckets" ]
  in
  let header =
    Printf.sprintf "%s %d\nalgo %s\nn %d\ndim %d\nfingerprint %s\n" magic
      version (string_of_algo t.algo) t.n t.dim t.fingerprint
  in
  let prefix =
    header ^ section_str "params" params ^ section_str "tree" tree
  in
  let blocks =
    Array.mapi
      (fun i es ->
        let body = Array.to_list es |> List.map entry_line in
        Printf.sprintf "page %d %s %d\n%s" i
          (Util.fnv1a64 (String.concat "\n" body))
          (List.length body)
          (String.concat "" (List.map (fun l -> l ^ "\n") body)))
      page_arrays
  in
  (* byte offsets of each page block, then of the table *)
  let offsets = Array.make t.npages 0 in
  let pos = ref (String.length prefix) in
  Array.iteri
    (fun i block ->
      offsets.(i) <- !pos;
      pos := !pos + String.length block)
    blocks;
  let table_offset = !pos in
  let table =
    Array.to_list
      (Array.mapi
         (fun i es ->
           Printf.sprintf "page %d %d %d" i offsets.(i) (Array.length es))
         page_arrays)
  in
  let table_str = section_str "table" table in
  let trailer = Printf.sprintf "trailer %012d\n" table_offset in
  Checkpoint.atomic_write path (fun oc ->
      output_string oc prefix;
      Array.iter
        (fun block ->
          Fault.inject "ann_build";
          output_string oc block)
        blocks;
      output_string oc table_str;
      output_string oc trailer)

let trailer_len = String.length (Printf.sprintf "trailer %012d\n" 0)

(** [load ~path ~fingerprint] — open a saved index without materialising
    its pages. [Error reason] covers a missing/unreadable file, any
    header/tree/table corruption, a version mismatch, and — the
    staleness rule — a stored fingerprint different from [fingerprint]
    (the current database contents); the caller rebuilds or falls back
    to the scan. Page corruption is only discovered when a query
    actually touches the page, as {!Corrupt}. *)
let load ~path ~fingerprint:(expect_fp : string) : (t, string) result =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let line () =
            match input_line ic with
            | l -> Ok l
            | exception End_of_file -> fail "truncated index"
          in
          let* l0 = line () in
          let* () =
            match String.split_on_char ' ' l0 with
            | [ m; v ] when String.equal m magic -> (
                match int_of_string_opt v with
                | Some ver when ver = version -> Ok ()
                | _ ->
                    fail "unsupported index version %S (this build reads %d)"
                      v version)
            | _ -> fail "not a daisy ANN index (bad magic line %S)" l0
          in
          let read_field name =
            let* l = line () in
            let p = name ^ " " in
            let lp = String.length p in
            if String.length l > lp && String.equal (String.sub l 0 lp) p
            then Ok (String.sub l lp (String.length l - lp))
            else fail "expected '%s ...', got %S" name l
          in
          let* algo_s = read_field "algo" in
          let* algo =
            match algo_of_string algo_s with
            | Some a -> Ok a
            | None -> fail "unknown algo %S" algo_s
          in
          let* n_s = read_field "n" in
          let* n =
            match int_of_string_opt n_s with
            | Some n when n >= 0 -> Ok n
            | _ -> fail "malformed n line"
          in
          let* dim_s = read_field "dim" in
          let* dim =
            match int_of_string_opt dim_s with
            | Some d when d > 0 -> Ok d
            | _ -> fail "malformed dim line"
          in
          let* fp = read_field "fingerprint" in
          let* () =
            if String.equal fp expect_fp then Ok ()
            else
              fail
                "stale index: built for database fingerprint %s, current is \
                 %s"
                fp expect_fp
          in
          let read_section name =
            let* l = line () in
            match String.split_on_char ' ' l with
            | [ "section"; nm; ck; cnt ] when String.equal nm name -> (
                match int_of_string_opt cnt with
                | Some cnt when cnt >= 0 ->
                    let* body =
                      let rec go acc i =
                        if i = 0 then Ok (List.rev acc)
                        else
                          let* l = line () in
                          go (l :: acc) (i - 1)
                      in
                      go [] cnt
                    in
                    if
                      String.equal ck
                        (Util.fnv1a64 (String.concat "\n" body))
                    then Ok body
                    else fail "section %s: checksum mismatch" name
                | _ -> fail "section %s: malformed count" name)
            | _ -> fail "expected 'section %s ...', got %S" name l
          in
          let* params = read_section "params" in
          let* tree = read_section "tree" in
          (* the page table lives at the end; its offset in the trailer *)
          let len = in_channel_length ic in
          let* () =
            if len < trailer_len then fail "truncated index" else Ok ()
          in
          seek_in ic (len - trailer_len);
          let* tl = line () in
          let* table_offset =
            match String.split_on_char ' ' tl with
            | [ "trailer"; off ] -> (
                match int_of_string_opt off with
                | Some o when o >= 0 && o < len -> Ok o
                | _ -> fail "malformed trailer %S" tl)
            | _ -> fail "malformed trailer %S" tl
          in
          seek_in ic table_offset;
          let* table = read_section "table" in
          let* offsets =
            List.fold_left
              (fun acc (i, l) ->
                let* acc = acc in
                match String.split_on_char ' ' l with
                | [ "page"; id; off; cnt ]
                  when int_of_string_opt id = Some i -> (
                    match (int_of_string_opt off, int_of_string_opt cnt) with
                    | Some o, Some c when o >= 0 && c >= 0 ->
                        Ok ((o, c) :: acc)
                    | _ -> fail "malformed table line %S" l)
                | _ -> fail "malformed table line %S" l)
              (Ok [])
              (List.mapi (fun i l -> (i, l)) table)
          in
          let offsets = Array.of_list (List.rev offsets) in
          let npages = Array.length offsets in
          let* () =
            let total =
              Array.fold_left (fun acc (_, c) -> acc + c) 0 offsets
            in
            if total = n then Ok ()
            else fail "page table covers %d entries, header says %d" total n
          in
          let* structure =
            if n = 0 then Ok Empty
            else
              match algo with
              | Kd -> (
                  match tree_of_lines ~dim tree with
                  | None -> fail "malformed tree section"
                  | Some root ->
                      (* every leaf must reference a real page *)
                      let ok = ref true in
                      let rec check = function
                        | Leaf { page; _ } ->
                            if page < 0 || page >= npages then ok := false
                        | Split { left; right; _ } ->
                            check left;
                            check right
                      in
                      check root;
                      if !ok then Ok (Kdtree root)
                      else fail "tree references missing pages")
              | Lsh -> (
                  match params_of_lines ~dim ~npages params with
                  | None -> fail "malformed params section"
                  | Some l -> Ok (Buckets l))
          in
          Ok
            {
              algo;
              n;
              dim;
              fingerprint = fp;
              structure;
              npages;
              pages =
                Paged
                  {
                    path;
                    offsets;
                    cache = Hashtbl.create 16;
                    lock = Mutex.create ();
                  };
            })

(** [verify ~path ~fingerprint] — the scrubber's deep integrity check:
    {!load} the index (header, tree, table), then fetch and
    checksum-verify {e every} page — corruption that {!load} alone would
    only surface mid-query. *)
let verify ~path ~fingerprint : (string, string) result =
  match load ~path ~fingerprint with
  | Error _ as e -> e
  | Ok t -> (
      try
        for p = 0 to t.npages - 1 do
          ignore (fetch_page t p)
        done;
        Ok (describe t)
      with Corrupt m -> Error (path ^ ": " ^ m))
