(** Trace-driven two-level set-associative LRU cache simulator.

    Write-allocate, write-back. The simulator tracks per-level accesses,
    misses, evictions and dirty write-backs; the cost model converts these
    to bandwidth demand.

    Geometry is normalized at construction: [line_bytes] and the set count
    are rounded down to powers of two (with one {!Daisy_support.Diag}
    warning per distinct geometry) so the hot path can use a shift for the
    line address and a mask for the set index — no division or modulo per
    access. The fused trace replay ({!Trace_bc}) additionally uses
    {!l1_probe} / {!l1_hit_run} to retire whole all-hit loop trips in one
    O(sites) step. *)

module Diag = Daisy_support.Diag

type stats = {
  mutable accesses : float;
  mutable misses : float;
  mutable evicts : float;
  mutable writebacks : float;
}

let zero_stats () = { accesses = 0.0; misses = 0.0; evicts = 0.0; writebacks = 0.0 }

let copy_stats s =
  { accesses = s.accesses; misses = s.misses; evicts = s.evicts; writebacks = s.writebacks }

let sub_stats a b =
  {
    accesses = a.accesses -. b.accesses;
    misses = a.misses -. b.misses;
    evicts = a.evicts -. b.evicts;
    writebacks = a.writebacks -. b.writebacks;
  }

type level = {
  sets : int;  (** always a power of two *)
  set_mask : int;  (** [sets - 1]; set index = [line land set_mask] *)
  assoc : int;
  line_shift : int;
  tags : int array;  (** sets * assoc; -1 = invalid *)
  dirty : bool array;
  stamp : int array;  (** LRU: higher = more recent *)
  stats : stats;
  set_epoch : int array;
      (** per set, bumped whenever a valid line leaves that set
          (eviction or flush). A (line, slot) pair
          observed at its set's epoch [e] is still resident at [slot]
          while that epoch equals [e]: lines only leave a set through an
          eviction in that set, and filling invalid ways displaces
          nothing. The fused replay memoizes per-site slots on this. *)
  mutable last_slot : int;
      (** slot used by the most recent access to this level *)
}

(* Largest power of two <= n (n clamped to >= 1), with its log2. *)
let floor_pow2 n =
  let n = max 1 n in
  let p = ref 1 and s = ref 0 in
  while !p * 2 <= n do
    p := !p * 2;
    incr s
  done;
  (!p, !s)

(* Warn once per distinct rounded geometry: cache creation sits on the
   per-candidate path, so an ill-formed Config must not flood stderr. *)
let warned : (string, unit) Hashtbl.t = Hashtbl.create 8
let warned_lock = Mutex.create ()

let warn_rounded (c : Config.cache_level) ~line_bytes ~sets_req ~sets =
  let key =
    Printf.sprintf "%s/%d/%d/%d" c.Config.name c.Config.size_bytes
      c.Config.line_bytes c.Config.assoc
  in
  let fresh =
    Mutex.protect warned_lock (fun () ->
        if Hashtbl.mem warned key then false
        else begin
          Hashtbl.add warned key ();
          true
        end)
  in
  if fresh then
    Fmt.epr "%a@." Diag.pp
      (Diag.make ~severity:Diag.Warn
         "cache %s: non-power-of-two geometry (line_bytes=%d, sets=%d) \
          rounded down to line_bytes=%d, sets=%d"
         c.Config.name c.Config.line_bytes sets_req line_bytes sets)

let make_level (c : Config.cache_level) : level =
  let line_bytes, line_shift = floor_pow2 c.Config.line_bytes in
  let assoc = max 1 c.Config.assoc in
  let lines = max 1 (c.Config.size_bytes / line_bytes) in
  let sets_req = max 1 (lines / assoc) in
  let sets, _ = floor_pow2 sets_req in
  if line_bytes <> c.Config.line_bytes || sets <> sets_req then
    warn_rounded c ~line_bytes ~sets_req ~sets;
  {
    sets;
    set_mask = sets - 1;
    assoc;
    line_shift;
    tags = Array.make (sets * assoc) (-1);
    dirty = Array.make (sets * assoc) false;
    stamp = Array.make (sets * assoc) 0;
    stats = zero_stats ();
    set_epoch = Array.make sets 0;
    last_slot = 0;
  }

type t = { l1 : level; l2 : level; mutable clock : int }

let create (c : Config.t) : t =
  { l1 = make_level c.Config.l1; l2 = make_level c.Config.l2; clock = 0 }

let l1_line_shift t = t.l1.line_shift
let clock t = t.clock

(** Access one level with a line address. Returns [`Hit] or
    [`Miss of evicted_dirty_line_option]. *)
let access_level (t : t) (lv : level) (line : int) ~(write : bool) :
    [ `Hit | `Miss of int option ] =
  lv.stats.accesses <- lv.stats.accesses +. 1.0;
  t.clock <- t.clock + 1;
  let set = line land lv.set_mask in
  let base = set * lv.assoc in
  let rec find w = if w = lv.assoc then -1
    else if lv.tags.(base + w) = line then base + w
    else find (w + 1)
  in
  let slot = find 0 in
  if slot >= 0 then begin
    lv.stamp.(slot) <- t.clock;
    if write then lv.dirty.(slot) <- true;
    lv.last_slot <- slot;
    `Hit
  end
  else begin
    lv.stats.misses <- lv.stats.misses +. 1.0;
    (* choose victim: first invalid way, else LRU *)
    let victim = ref (base) in
    let best = ref max_int in
    let invalid = ref (-1) in
    for w = 0 to lv.assoc - 1 do
      let s = base + w in
      if lv.tags.(s) = -1 then (if !invalid = -1 then invalid := s)
      else if lv.stamp.(s) < !best then begin
        best := lv.stamp.(s);
        victim := s
      end
    done;
    let slot = if !invalid >= 0 then !invalid else !victim in
    let evicted =
      if lv.tags.(slot) = -1 then None
      else begin
        lv.stats.evicts <- lv.stats.evicts +. 1.0;
        lv.set_epoch.(set) <- lv.set_epoch.(set) + 1;
        let dirty_line = if lv.dirty.(slot) then Some lv.tags.(slot) else None in
        if dirty_line <> None then
          lv.stats.writebacks <- lv.stats.writebacks +. 1.0;
        dirty_line
      end
    in
    lv.tags.(slot) <- line;
    lv.dirty.(slot) <- write;
    lv.stamp.(slot) <- t.clock;
    lv.last_slot <- slot;
    `Miss evicted
  end

(** [access_line t ~line ~write] — one memory access through the
    hierarchy, line-addressed (the fused replay precomputes lines). *)
let access_line (t : t) ~(line : int) ~(write : bool) : unit =
  match access_level t t.l1 line ~write with
  | `Hit -> ()
  | `Miss evicted_dirty ->
      (match access_level t t.l2 line ~write:false with
      | `Hit -> ()
      | `Miss _ -> ());
      (* write back a dirty L1 victim into L2 *)
      (match evicted_dirty with
      | Some dline -> ignore (access_level t t.l2 dline ~write:true)
      | None -> ())

(** [access t ~addr ~write] — one memory access through the hierarchy. *)
let access (t : t) ~(addr : int) ~(write : bool) : unit =
  access_line t ~line:(addr lsr t.l1.line_shift) ~write

(** [l1_replay_advance t ~addrs ~deltas ~writes ~n ~mline ~mslot ~mep] —
    one fused replay iteration: the [n] accesses [addrs.(i)]/[writes.(i)]
    in order, bit-identical to [n] {!access} calls, advancing each
    address by its delta afterwards. [mline]/[mslot]/[mep] form the
    caller-owned per-touch slot memo: when touch [i]'s line is unchanged
    and its set epoch still matches, residency at [mslot.(i)] is proven
    and the access charges the hit without a tag scan; otherwise the
    full access runs and the memo re-arms. An eviction inside the loop
    bumps its set's epoch, so later touches of the same set re-validate
    against the fresh value. *)
let l1_replay_advance (t : t) ~(addrs : int array) ~(deltas : int array)
    ~(writes : bool array) ~(memoable : bool array) ~(n : int)
    ~(mline : int array) ~(mslot : int array) ~(mep : int array) : unit =
  let lv = t.l1 in
  let shift = lv.line_shift in
  (* indices are bounded by [n] <= every array's length (the replay plan
     allocates them together), so unchecked indexing is safe here *)
  for i = 0 to n - 1 do
    let addr = Array.unsafe_get addrs i in
    Array.unsafe_set addrs i (addr + Array.unsafe_get deltas i);
    let line = addr lsr shift in
    if Array.unsafe_get memoable i then begin
      let set = line land lv.set_mask in
      if
        Array.unsafe_get mep i = Array.unsafe_get lv.set_epoch set
        && Array.unsafe_get mline i = line
      then begin
        lv.stats.accesses <- lv.stats.accesses +. 1.0;
        t.clock <- t.clock + 1;
        let slot = Array.unsafe_get mslot i in
        Array.unsafe_set lv.stamp slot t.clock;
        if Array.unsafe_get writes i then Array.unsafe_set lv.dirty slot true
      end
      else begin
        let write = Array.unsafe_get writes i in
        access_line t ~line ~write;
        Array.unsafe_set mline i line;
        Array.unsafe_set mslot i lv.last_slot;
        Array.unsafe_set mep i (Array.unsafe_get lv.set_epoch set)
      end
    end
    else access_line t ~line ~write:(Array.unsafe_get writes i)
  done

(* ------------------------------------------------------------------ *)
(* Fused replay fast path                                              *)

(** Pure residency probe: true iff every [lines.(0..n-1)] currently hits
    in L1, filling [slots] with each line's L1 slot index. No statistics,
    no clock movement, no LRU update — safe to call speculatively. *)
let l1_probe (t : t) ~(lines : int array) ~(n : int) ~(slots : int array) :
    bool =
  let lv = t.l1 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let line = lines.(!i) in
    let base = (line land lv.set_mask) * lv.assoc in
    let rec find w =
      if w = lv.assoc then -1
      else if lv.tags.(base + w) = line then base + w
      else find (w + 1)
    in
    let s = find 0 in
    if s < 0 then ok := false else slots.(!i) <- s;
    incr i
  done;
  !ok

(** [l1_probe_memo] — {!l1_probe} consulting (and re-arming) the
    caller's per-touch slot memo: a touch whose line is unchanged at a
    matching set epoch is proven resident without a tag scan; a scanned
    hit records its slot back into the memo (a true residency fact, so
    later accesses charging hits through it stay bit-identical). *)
let l1_probe_memo (t : t) ~(lines : int array) ~(n : int)
    ~(slots : int array) ~(mline : int array) ~(mslot : int array)
    ~(mep : int array) : bool =
  let lv = t.l1 in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    let line = Array.unsafe_get lines !i in
    let set = line land lv.set_mask in
    if
      Array.unsafe_get mep !i = Array.unsafe_get lv.set_epoch set
      && Array.unsafe_get mline !i = line
    then Array.unsafe_set slots !i (Array.unsafe_get mslot !i)
    else begin
      let base = set * lv.assoc in
      let rec find w =
        if w = lv.assoc then -1
        else if lv.tags.(base + w) = line then base + w
        else find (w + 1)
      in
      let s = find 0 in
      if s < 0 then ok := false
      else begin
        Array.unsafe_set slots !i s;
        Array.unsafe_set mline !i line;
        Array.unsafe_set mslot !i s;
        Array.unsafe_set mep !i (Array.unsafe_get lv.set_epoch set)
      end
    end;
    incr i
  done;
  !ok

(** [l1_hit_run t ~slots ~writes ~k ~n] — retire [n] iterations of a
    [k]-touch all-L1-hit pattern in O(k): bit-identical to calling
    {!access} n*k times when every touch hits (the caller must have
    proved residency with {!l1_probe}; all-hit traffic cannot evict, so
    residency over one probed iteration implies it for the whole run).

    Exactness: per-touch the generic path bumps [accesses] by 1.0 from an
    integer-valued float (exact while < 2^53, as is the single fused add),
    bumps the clock, sets the slot stamp to the clock and ORs the dirty
    bit. The final stamp of slot [slots.(j)] comes from the last
    iteration: [clock_after - k + j + 1]; writing in ascending [j]
    resolves touches sharing a slot exactly as the generic order does. *)
let l1_hit_run (t : t) ~(slots : int array) ~(writes : bool array) ~(k : int)
    ~(n : int) : unit =
  let lv = t.l1 in
  lv.stats.accesses <- lv.stats.accesses +. float_of_int (n * k);
  t.clock <- t.clock + (n * k);
  for j = 0 to k - 1 do
    let s = Array.unsafe_get slots j in
    Array.unsafe_set lv.stamp s (t.clock - k + j + 1);
    if Array.unsafe_get writes j then Array.unsafe_set lv.dirty s true
  done

let flush_level (lv : level) =
  for s = 0 to lv.sets - 1 do
    lv.set_epoch.(s) <- lv.set_epoch.(s) + 1
  done;
  Array.fill lv.tags 0 (Array.length lv.tags) (-1);
  Array.fill lv.dirty 0 (Array.length lv.dirty) false

(** Reset one level's tag state (keep statistics) — used by the approx
    trace engine when a truncated loop's skipped traffic would have cycled
    that level anyway. *)
let flush_l1 (t : t) = flush_level t.l1
let flush_l2 (t : t) = flush_level t.l2

let l1_stats t = t.l1.stats
let l2_stats t = t.l2.stats
