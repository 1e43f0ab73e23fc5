(** The transfer-tuning database: pairs of performance embeddings and
    optimization recipes (paper §4, after "Performance Embeddings",
    ICS'23).

    The database is seeded from normalized A variants and queried with
    normalized B variants (or Python-translated variants); the Euclidean
    distance of embeddings picks candidate recipes. *)

module Ir = Daisy_loopir.Ir
module Recipe = Daisy_transforms.Recipe
module Embedding = Daisy_embedding.Embedding
module Ann = Daisy_embedding.Ann
module Diag = Daisy_support.Diag
module Fault = Daisy_support.Fault

type entry = {
  source : string;  (** benchmark/nest label, for reporting *)
  embedding : Embedding.t;
  recipe : Recipe.t;
  canon_hash : int;  (** canonical structure hash of the normalized nest *)
  cost_ms : float;  (** predicted runtime of the recipe; [nan] = unknown *)
}

(** A pluggable read path: lets a database handle serve from another
    store (the sharded warm store) without materialising a monolithic
    entry list. A backed handle is read-only. *)
type backend = {
  b_size : unit -> int;
  b_entries : unit -> entry list;
  b_query : k:int -> Embedding.t -> (float * entry) list;
  b_exact : int -> entry list;
  b_fingerprint : unit -> string;
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
  mutable index : (Ann.t * entry array) option;
      (* ANN index over [entries] plus the entry snapshot its indices
         refer to; any mutation of [entries] detaches it *)
  mutable memo : memo;  (* any mutation of [entries] clears it *)
  backend : backend option;
}

let no_memo () = { fp = None; bounds = None }

let make ?backend entries =
  { entries; index = None; memo = no_memo (); backend }

let create () = make []
let of_entries entries = make entries
let of_backend b = make ~backend:b []
let is_backed db = db.backend <> None

let size db =
  match db.backend with
  | Some b -> b.b_size ()
  | None -> List.length db.entries

let read_only db op =
  if db.backend <> None then
    invalid_arg (Printf.sprintf "Database.%s: backed database is read-only" op)

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
  read_only db "add";
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

let entries db =
  match db.backend with Some b -> b.b_entries () | None -> db.entries

(** [merge ~into src] — append the entries of [src] to [into], exactly as
    if [src]'s adds had been replayed on [into] in their original order:
    duplicates (same structure hash + recipe string) keep the
    better-cost entry in the incumbent's position, so repeated merges
    and WAL replays are idempotent. Lets independent shards be seeded in
    parallel and combined in a fixed order, reproducing the sequential
    database bit-for-bit. *)
let merge ~into src =
  read_only into "merge";
  List.iter (add_entry into) (List.rev (entries src));
  into.index <- None;
  into.memo <- no_memo ()

(** Entries whose normalized structure is identical to [nest] — exact
    transfer hits. *)
let exact_matches_hash db (h : int) : entry list =
  match db.backend with
  | Some b -> b.b_exact h
  | None -> List.filter (fun e -> e.canon_hash = h) db.entries

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
  (make (List.rev !entries), List.rev !warnings)

(* ------------------------------------------------------------------ *)
(* Sub-linear queries: an optional ANN index over the entries.

   The index is a pure accelerator — [query]'s results are bit-identical
   with and without it (Ann's contract is exact top-k agreement with
   [Embedding.nearest_by], tie order included). Staleness is detected by
   a fingerprint of the database contents; any mutation ([add]/[merge])
   detaches an attached index. A corrupt index never fails a query: the
   first page that misses its checksum detaches the index, emits one
   warning, bumps {!index_fallbacks}, and the query re-runs as a scan. *)

(** Fingerprint of the database contents: the checksum of every entry's
    serialized body, in order. [save]/[load] round-trip entries exactly
    ([%h] floats), so the fingerprint survives persistence — an index
    built before a save still attaches after the reload. Memoized:
    loading a segment and attaching its index pay for one pass. *)
let fingerprint (db : t) : string =
  let m = db.memo in
  match (db.backend, m.fp) with
  | Some b, _ -> b.b_fingerprint ()
  | None, Some fp -> fp
  | None, None ->
      let fp =
        checksum (String.concat "\n" (List.concat_map entry_body db.entries))
      in
      m.fp <- Some fp;
      fp

(** The embeddings' bounding box, memoized like {!fingerprint}. *)
let bounds (db : t) : (float array * float array) option =
  if is_backed db then invalid_arg "Database.bounds: backed database";
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

let index_fallback_count = Atomic.make 0

let index_fallbacks () = Atomic.get index_fallback_count
let reset_index_fallbacks () = Atomic.set index_fallback_count 0

let has_index db = db.index <> None
let detach_index db = db.index <- None

let index_description db =
  Option.map (fun (ann, _) -> Ann.describe ann) db.index

let build_index (db : t) : unit =
  read_only db "build_index";
  let arr = Array.of_list db.entries in
  let ann =
    Ann.build ~fingerprint:(fingerprint db) ~dim:Embedding.dim
      (Array.map (fun e -> e.embedding) arr)
  in
  db.index <- Some (ann, arr)

let save_index (db : t) (path : string) : unit =
  match db.index with
  | None -> invalid_arg "Database.save_index: no index attached"
  | Some (ann, _) -> Ann.save ann path

(** [load_index db path] — attach a persisted index to [db].
    [Ok description] on success; [Error reason] when the file is
    missing, corrupt, a different version, or stale (its stored
    fingerprint differs from [fingerprint db]) — the caller decides
    whether to rebuild or just scan. *)
let load_index (db : t) (path : string) : (string, string) result =
  read_only db "load_index";
  match Ann.load ~path ~fingerprint:(fingerprint db) with
  | Error m -> Error m
  | Ok ann ->
      if Ann.n ann <> size db then
        Error
          (Printf.sprintf "%s: index covers %d entries, database has %d" path
             (Ann.n ann) (size db))
      else begin
        db.index <- Some (ann, Array.of_list db.entries);
        Ok (Ann.describe ann)
      end

(** [rebuild_index db path] — build a fresh index over the current
    contents, persist it atomically at [path], attach it, and return its
    description. *)
let rebuild_index (db : t) (path : string) : string =
  build_index db;
  match db.index with
  | Some (ann, _) ->
      Ann.save ann path;
      Ann.describe ann
  | None -> assert false

let scan db ~k (q : Embedding.t) : (float * entry) list =
  Embedding.nearest_by ~embed:(fun e -> e.embedding) k db.entries q

(** [query_embedding db ~k q] — the [k] entries nearest to [q] in
    embedding space (closest first): through the ANN index when one is
    attached, as a linear scan otherwise, with bit-identical results
    either way. *)
let query_embedding (db : t) ~k (q : Embedding.t) : (float * entry) list =
  if k <= 0 then []
  else
    match db.backend with
    | Some b -> b.b_query ~k q
    | None -> (
    match db.index with
    | None -> scan db ~k q
    | Some (ann, arr) -> (
        try List.map (fun (d, i) -> (d, arr.(i))) (Ann.query ann ~k q)
        with Ann.Corrupt m ->
          Atomic.incr index_fallback_count;
          db.index <- None;
          Fmt.epr "%a@." Diag.pp
            (Diag.make ~severity:Diag.Warn
               "ann index unusable (%s) — falling back to linear scan" m);
          scan db ~k q))

(** [query db ~k nest] — the [k] entries nearest to [nest] in embedding
    space (closest first). *)
let query db ~k (nest : Ir.loop) : (float * entry) list =
  query_embedding db ~k (Embedding.of_node (Ir.Nloop nest))
