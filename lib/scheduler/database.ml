(** The transfer-tuning database: pairs of performance embeddings and
    optimization recipes (paper §4, after "Performance Embeddings",
    ICS'23).

    The database is seeded from normalized A variants and queried with
    normalized B variants (or Python-translated variants); the Euclidean
    distance of embeddings picks candidate recipes. *)

module Ir = Daisy_loopir.Ir
module Recipe = Daisy_transforms.Recipe
module Embedding = Daisy_embedding.Embedding
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault

type entry = {
  source : string;  (** benchmark/nest label, for reporting *)
  embedding : Embedding.t;
  recipe : Recipe.t;
  canon_hash : int;  (** canonical structure hash of the normalized nest *)
  cost_ms : float;  (** predicted runtime of the recipe; [nan] = unknown *)
}

(* Facts derived from [entries], computed on first use. Racing domains
   may both compute one; they store the same value. *)
type memo = {
  mutable fp : string option;  (* content fingerprint *)
  mutable bounds : (float array * float array) option;
      (* bounding box of the embeddings *)
}

type t = {
  mutable entries : entry list;
  mutable index : t list option;
      (* the parts [build_index] split [entries] into, or the parts
         [of_parts] was given; any mutation of [entries] detaches them *)
  mutable memo : memo;  (* any mutation of [entries] clears it *)
}

let no_memo () = { fp = None; bounds = None }
let of_entries entries = { entries; index = None; memo = no_memo () }
let create () = of_entries []
let size db = List.length db.entries

(* ------------------------------------------------------------------ *)
(* Content-keyed dedup: one entry per (normalized structure, recipe).

   The key is the pair (canonical structure hash, recipe string); a
   duplicate keeps whichever entry has the {e better} (lower) cost — an
   unknown cost ([nan]) always loses to a known one, and ties keep the
   incumbent. Replacement happens {e in place}, so the entry order (and
   therefore every query tie-break and the content fingerprint) is
   independent of how many times a duplicate arrives — [add] replays and
   shard [merge]s are idempotent, which is what makes WAL replay after a
   mid-compaction crash safe (docs/robustness.md, "Sharded warm
   store"). *)

let dedup_key (e : entry) : string =
  Printf.sprintf "%d/%s" e.canon_hash (Recipe.to_string e.recipe)

(** [better_cost a b] — is cost [a] strictly better than [b]? *)
let better_cost (a : float) (b : float) : bool =
  match (Float.is_nan a, Float.is_nan b) with
  | true, _ -> false
  | false, true -> true
  | false, false -> a < b

(* Replace the first entry matching [key] when [e] improves on it;
   [None] when no entry matches (the caller appends). *)
let rec replace_dup key e = function
  | [] -> None
  | hd :: tl ->
      if String.equal (dedup_key hd) key then
        Some (if better_cost e.cost_ms hd.cost_ms then e :: tl else hd :: tl)
      else Option.map (fun tl' -> hd :: tl') (replace_dup key e tl)

let add_entry db (e : entry) =
  (match replace_dup (dedup_key e) e db.entries with
  | Some entries -> db.entries <- entries
  | None -> db.entries <- e :: db.entries);
  db.index <- None;
  db.memo <- no_memo ()

let add ?(cost_ms = nan) db ~source ~(nest : Ir.loop) ~(recipe : Recipe.t) =
  add_entry db
    {
      source;
      embedding = Embedding.of_node (Ir.Nloop nest);
      recipe;
      canon_hash = Ir.hash_structure [ Ir.Nloop nest ];
      cost_ms;
    }

let entries db = db.entries

(** [merge ~into src] — append the entries of [src] to [into], exactly as
    if [src]'s adds had been replayed on [into] in their original order:
    duplicates (same structure hash + recipe string) keep the
    better-cost entry in the incumbent's position, so repeated merges
    and WAL replays are idempotent. Lets independent shards be seeded in
    parallel and combined in a fixed order, reproducing the sequential
    database bit-for-bit. One key table replaces [add]'s walk: each
    entry's key is formatted once, so a merge is linear in both sizes. *)
let merge ~into src =
  let arrivals = List.rev src.entries in
  let n = List.length into.entries in
  (* [into]'s entries, then a slot per arrival that no key matches *)
  let slots = Array.of_list (into.entries @ arrivals) in
  let slot_of = Hashtbl.create (Array.length slots) in
  (* a key's slot is its first entry in list order: the one [add] replaces *)
  for i = n - 1 downto 0 do
    Hashtbl.replace slot_of (dedup_key slots.(i)) i
  done;
  let next = ref n in
  List.iter
    (fun e ->
      let key = dedup_key e in
      match Hashtbl.find_opt slot_of key with
      | Some i -> if better_cost e.cost_ms slots.(i).cost_ms then slots.(i) <- e
      | None ->
          slots.(!next) <- e;
          Hashtbl.add slot_of key !next;
          incr next)
    arrivals;
  into.entries <-
    List.rev_append
      (Array.to_list (Array.sub slots n (!next - n)))
      (Array.to_list (Array.sub slots 0 n));
  into.index <- None;
  into.memo <- no_memo ()

(** Entries whose normalized structure is identical to [nest] — exact
    transfer hits. *)
let exact_matches_hash db (h : int) : entry list =
  List.filter (fun e -> e.canon_hash = h) db.entries

let exact_matches db (nest : Ir.loop) : entry list =
  exact_matches_hash db (Ir.hash_structure [ Ir.Nloop nest ])

let pp ppf db =
  Fmt.pf ppf "@[<v>database: %d entries@,%a@]" (size db)
    (Fmt.list ~sep:Fmt.cut (fun ppf e ->
         Fmt.pf ppf "  %s: %a" e.source Recipe.pp e.recipe))
    (entries db)

(* ------------------------------------------------------------------ *)
(* Persistence: versioned, checksummed, corruption-tolerant.

   Line-based text format (see docs/robustness.md):

   {v
   DAISYDB 1
   entry <16-hex FNV-1a-64 checksum of the 5 body lines joined by \n>
   source "gemm:nest0"
   hash 129386423
   cost 0x1.8p+1 (predicted ms, %h; nan = unknown)
   embedding 0x1.8p+1 0x0p+0 ... (dim %h-printed floats, exact round-trip)
   recipe [interchange(1 0); vectorize]
   end
   ...
   v}

   Files written before the cost column (4-line bodies) still load:
   their entries parse with an unknown cost.

   Entries are written head-first and loaded in file order, so a
   round-trip reproduces the in-memory entry list — and therefore every
   [query]/[exact_matches] result — bit for bit. *)

let magic = "DAISYDB"
let version = 1

(* FNV-1a 64-bit, rendered as 16 hex digits *)
let checksum = Daisy_support.Util.fnv1a64

let entry_body (e : entry) : string list =
  [
    Printf.sprintf "source %S" e.source;
    Printf.sprintf "hash %d" e.canon_hash;
    Printf.sprintf "cost %h" e.cost_ms;
    "embedding "
    ^ String.concat " "
        (List.map (Printf.sprintf "%h") (Array.to_list e.embedding));
    "recipe " ^ Recipe.to_string e.recipe;
  ]

(* Crash-safe: the file is replaced atomically (write-temp, fsync,
   rename), so a crash mid-save — including an injected one at the
   per-entry ["db_save"] fault point — leaves the previous database
   intact instead of a torn file. *)
let save (db : t) (path : string) : unit =
  Daisy_support.Checkpoint.atomic_write path (fun oc ->
      Printf.fprintf oc "%s %d\n" magic version;
      List.iter
        (fun e ->
          Fault.inject "db_save";
          let body = entry_body e in
          Printf.fprintf oc "entry %s\n" (checksum (String.concat "\n" body));
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) body;
          Printf.fprintf oc "end\n")
        (entries db))

let strip_prefix p s =
  let lp = String.length p in
  if String.length s >= lp && String.equal (String.sub s 0 lp) p then
    Some (String.sub s lp (String.length s - lp))
  else None

let parse_body (body : string list) : (entry, string) result =
  let ( let* ) = Result.bind in
  (* 5-line body (with the cost column); 4-line bodies from files written
     before it load with an unknown cost *)
  let parts =
    match body with
    | [ src_l; hash_l; cost_l; emb_l; rec_l ] ->
        Ok (src_l, hash_l, Some cost_l, emb_l, rec_l)
    | [ src_l; hash_l; emb_l; rec_l ] -> Ok (src_l, hash_l, None, emb_l, rec_l)
    | _ ->
        Error
          (Printf.sprintf "expected 5 body lines, got %d" (List.length body))
  in
  let* src_l, hash_l, cost_l, emb_l, rec_l = parts in
  let* source =
    try Ok (Scanf.sscanf src_l "source %S" Fun.id)
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      Error "malformed source line"
  in
  let* canon_hash =
    match strip_prefix "hash " hash_l with
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some h -> Ok h
        | None -> Error "malformed hash line")
    | None -> Error "malformed hash line"
  in
  let* cost_ms =
    match cost_l with
    | None -> Ok nan
    | Some l -> (
        match strip_prefix "cost " l with
        | None -> Error "malformed cost line"
        | Some s -> (
            match float_of_string_opt (String.trim s) with
            | Some c -> Ok c
            | None -> Error "malformed cost value"))
  in
  let* embedding =
    match strip_prefix "embedding " emb_l with
    | None -> Error "malformed embedding line"
    | Some s ->
        let toks =
          String.split_on_char ' ' s |> List.filter (fun t -> t <> "")
        in
        let floats = List.filter_map float_of_string_opt toks in
        if List.length floats <> List.length toks then
          Error "malformed embedding value"
        else if not (List.for_all Float.is_finite floats) then
          Error "non-finite embedding value"
        else if List.length floats <> Embedding.dim then
          Error
            (Printf.sprintf "embedding has %d values, expected %d"
               (List.length floats) Embedding.dim)
        else Ok (Array.of_list floats)
  in
  let* recipe =
    match strip_prefix "recipe " rec_l with
    | None -> Error "malformed recipe line"
    | Some s -> Recipe.of_string s
  in
  Ok { source; embedding; recipe; canon_hash; cost_ms }

let parse_entry (ck : string) (body : string list) : (entry, string) result =
  let expected = checksum (String.concat "\n" body) in
  if not (String.equal ck expected) then
    Error
      (Printf.sprintf "checksum mismatch (stored %s, computed %s)" ck expected)
  else parse_body body

(* The 5-line body framing, exposed so other persistent stores (the bench
   harness's shard checkpoints, the sharded warm store's WAL) can embed
   entries in their own records. *)
let entry_to_lines = entry_body
let entry_of_lines = parse_body
let entry_lines = 5

let load (path : string) : t * string list =
  let ic =
    try open_in path
    with Sys_error m -> Diag.errorf "cannot open database: %s" m
  in
  let lines =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        Array.of_list (List.rev !acc))
  in
  let n = Array.length lines in
  if n = 0 then Diag.errorf "%s: empty file is not a daisy database" path;
  (match String.split_on_char ' ' lines.(0) with
  | [ m; v ] when String.equal m magic -> (
      match int_of_string_opt v with
      | Some ver when ver = version -> ()
      | _ ->
          Diag.errorf "%s: unsupported database version %S (this build reads %d)"
            path v version)
  | _ -> Diag.errorf "%s: not a daisy database (bad magic line %S)" path lines.(0));
  let warnings = ref [] in
  let warn fmt =
    Printf.ksprintf (fun m -> warnings := Printf.sprintf "%s: %s" path m :: !warnings) fmt
  in
  let entries = ref [] in
  let entry_idx = ref 0 in
  let i = ref 1 in
  while !i < n do
    let line = lines.(!i) in
    if String.trim line = "" then incr i
    else
      match strip_prefix "entry " line with
      | None ->
          warn "line %d: expected 'entry <checksum>', got %S — skipping"
            (!i + 1) line;
          incr i
      | Some ck ->
          incr entry_idx;
          let start = !i + 1 in
          let j = ref start in
          while
            !j < n
            && (not (String.equal lines.(!j) "end"))
            && strip_prefix "entry " lines.(!j) = None
          do
            incr j
          done;
          let body = Array.to_list (Array.sub lines start (!j - start)) in
          if !j >= n || not (String.equal lines.(!j) "end") then begin
            warn "entry %d (line %d): truncated (no 'end') — skipping"
              !entry_idx (!i + 1);
            i := !j
          end
          else begin
            (if Fault.fires "db_load" then
               warn "entry %d (line %d): fault injected — skipping" !entry_idx
                 (!i + 1)
             else
               match parse_entry ck body with
               | Ok e -> entries := e :: !entries
               | Error m ->
                   warn "entry %d (line %d): %s — skipping" !entry_idx
                     (!i + 1) m);
            i := !j + 1
          end
  done;
  (of_entries (List.rev !entries), List.rev !warnings)

(* ------------------------------------------------------------------ *)
(* Memoized facts: fingerprint and bounding box *)

(** Fingerprint of the database contents: the checksum of every entry's
    serialized body, in order. [save]/[load] round-trip entries exactly
    ([%h] floats), so the fingerprint survives persistence. Memoized:
    a hot reload and a shard's segment check pay for one pass. *)
let fingerprint (db : t) : string =
  let m = db.memo in
  match m.fp with
  | Some fp -> fp
  | None ->
      let fp =
        checksum (String.concat "\n" (List.concat_map entry_body db.entries))
      in
      m.fp <- Some fp;
      fp

(** The embeddings' bounding box, memoized like {!fingerprint}. *)
let bounds (db : t) : (float array * float array) option =
  let m = db.memo in
  match (m.bounds, db.entries) with
  | Some box, _ -> Some box
  | None, [] -> None
  | None, e0 :: _ ->
      let lo = Array.copy e0.embedding and hi = Array.copy e0.embedding in
      let widen e =
        Array.iteri (fun i x -> lo.(i) <- Float.min lo.(i) x) e.embedding;
        Array.iteri (fun i x -> hi.(i) <- Float.max hi.(i) x) e.embedding
      in
      List.iter widen db.entries;
      m.bounds <- Some (lo, hi);
      Some (lo, hi)

(* ------------------------------------------------------------------ *)
(* Sub-linear queries: a partition of the entries into parts with
   bounding boxes, searched best-bin-first. The same partition routes
   the sharded store's entries to its shards, and the same search runs
   over its shard views. *)

(* Entries per part of an in-memory index, and the sharded store's
   default shard cap. *)
let part_cap = 512

(* Median split on the widest-spread dimension: the threshold is the
   median coordinate value, advanced past a run of minimum values so
   both sides are non-empty. Returns [None] when every dimension has
   zero spread (an oversized part is the only option). The partition is
   stable, so each side keeps input order. *)
let split_entries (es : entry array) :
    (int * float * entry array * entry array) option =
  let n = Array.length es in
  if n < 2 then None
  else
    let dim =
      Array.fold_left (fun d e -> max d (Array.length e.embedding)) 0 es
    in
    let best = ref (-1) and best_spread = ref 0. in
    for d = 0 to dim - 1 do
      let mn = ref infinity and mx = ref neg_infinity in
      Array.iter
        (fun e ->
          let v = if d < Array.length e.embedding then e.embedding.(d) else 0. in
          if v < !mn then mn := v;
          if v > !mx then mx := v)
        es;
      let s = !mx -. !mn in
      if s > !best_spread then (
        best := d;
        best_spread := s)
    done;
    if !best < 0 then None
    else
      let d = !best in
      let coord e = if d < Array.length e.embedding then e.embedding.(d) else 0. in
      let coords = Array.map coord es in
      Array.sort Float.compare coords;
      let thr = ref coords.(n / 2) in
      if Float.equal !thr coords.(0) then begin
        let i = ref (n / 2) in
        while !i < n && Float.equal coords.(!i) coords.(0) do
          incr i
        done;
        if !i < n then thr := coords.(!i)
      end;
      let left = Array.of_seq (Seq.filter (fun e -> coord e < !thr) (Array.to_seq es)) in
      let right =
        Array.of_seq (Seq.filter (fun e -> coord e >= !thr) (Array.to_seq es))
      in
      if Array.length left = 0 || Array.length right = 0 then None
      else Some (d, !thr, left, right)

let rec partition (es : entry array) : entry array list =
  if Array.length es <= part_cap then [ es ]
  else
    match split_entries es with
    | None -> [ es ]
    | Some (_, _, l, r) -> partition l @ partition r

let index_parts db =
  match db.index with Some parts -> List.length parts | None -> 0

let build_index (db : t) : unit =
  (* box bounds only bound finite distances *)
  let finite e = Array.for_all Float.is_finite e.embedding in
  if not (List.for_all finite db.entries) then
    invalid_arg "Database.build_index: non-finite embedding coordinate";
  let parts =
    partition (Array.of_list db.entries)
    |> List.map (fun es -> of_entries (Array.to_list es))
  in
  (* the boxes belong to the index: compute them now, not in a query *)
  List.iter (fun p -> ignore (bounds p)) parts;
  db.index <- Some parts

let of_parts (parts : t list) : t =
  { (of_entries (List.concat_map entries parts)) with index = Some parts }

(* parts scanned by [query_parts], across every database and store *)
let visit_count = Atomic.make 0
let visits () = Atomic.get visit_count
let reset_visits () = Atomic.set visit_count 0

let scan db ~k q =
  Embedding.nearest_by ~embed:(fun e -> e.embedding) k db.entries q

(* Exact top-k, best-bin-first: the non-empty parts in order of
   [Embedding.box_lb] to their box, each scanned for its top-k, merged
   under [Embedding.nearest_by]. The walk stops at the first bound
   strictly past the k-th best distance: with finite coordinates every
   later entry is strictly farther, while an equal one could still win
   the embedding tie-break. The split keeps bit-equal embeddings in one
   part and each part keeps arrival order: bit-identical to the scan. *)
let query_parts (parts : t list) ~k (q : Embedding.t) : (float * entry) list =
  let embed e = e.embedding in
  let pruned top lb =
    List.compare_length_with top k >= 0 && lb > fst (List.nth top (k - 1))
  in
  let rec visit top = function
    | (lb, p) :: rest when not (pruned top lb) ->
        Atomic.incr visit_count;
        let found = List.map snd (scan p ~k q) in
        visit (Embedding.nearest_by ~embed k (List.map snd top @ found) q) rest
    | _ -> top
  in
  if k <= 0 then []
  else
    parts
    |> List.filter_map (fun p ->
           Option.map (fun (lo, hi) -> (Embedding.box_lb q lo hi, p)) (bounds p))
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> visit []

(** [query_embedding db ~k q] — the [k] entries nearest to [q] in
    embedding space (closest first): over the index's parts when one is
    attached, as a linear scan otherwise, with bit-identical results
    either way. *)
let query_embedding (db : t) ~k (q : Embedding.t) : (float * entry) list =
  if k <= 0 then []
  else
    match db.index with
    | Some parts -> query_parts parts ~k q
    | None -> scan db ~k q

(** [query db ~k nest] — the [k] entries nearest to [nest] in embedding
    space (closest first). *)
let query db ~k (nest : Ir.loop) : (float * entry) list =
  query_embedding db ~k (Embedding.of_node (Ir.Nloop nest))
