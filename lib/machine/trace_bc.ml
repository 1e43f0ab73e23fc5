(** Bytecode trace engine: the cost-model walk over the flat trace
    sections.

    [Bytecode.lower] produces one trace section per top-level node — a
    flat [TLOOP]/[TLOOPBK]/[TCOMP]/[TCALL] stream whose operands index
    side tables of pre-resolved loop bounds, byte-address generators and
    computation descriptors — and this module walks those streams against
    the shared [Cache] simulator.

    {b Exact contract}: bit-identical counters to the tree walker
    [Trace.run] in exact mode: the same float additions in the
    same order, the same cache accesses in the same order, the same lazy
    error behavior (per-entity descriptors are consulted at execution
    time, so a node inside a zero-trip loop never raises), the same
    first-execution spill-slot allocation order, the same cid-keyed
    first-executed-occurrence memoization of computation contexts, and the
    same depth-0 [sample_outer] semantics. [test/test_bytecode.ml] and the
    batched-replay block of [test/test_trace.ml] enforce this
    differentially at jobs 1 and 4.

    {b Batched stream replay} (the fused fast path, on by default; off via
    [~batch:false], the unfused reference the differential suites and the
    trace bench compare against): when an innermost loop body
    is a straight-line run of computations ([w_body]) whose sites are all
    affine with per-iteration byte deltas that divide the L1 line size,
    the replay precomputes per-site line addresses once per loop entry and
    bumps them by the delta instead of re-evaluating the affine form and
    re-deriving [addr lsr line_shift] per access. Whole same-line runs are
    then retired in O(sites): one leading iteration runs generically, a
    pure residency probe proves every touched line L1-resident (all-hit
    traffic cannot evict, so one probed iteration covers the run), and
    {!Cache.l1_hit_run} plus closed-form counter charging replay the rest.
    The closed form is used only when every per-iteration increment is a
    multiple of 2^-12 and magnitudes stay far below 2^53, where repeated
    float addition equals the fused multiply-add bit-for-bit; otherwise —
    and whenever the probe declines — the generic per-iteration path runs,
    so the fast path never changes a counter bit.

    {b Approx mode} ([?approx], the [Cost.Approx] engine) walks the plain
    dispatch loop with line stepping (a site whose byte delta per
    iteration of its own occurrence's innermost loop divides the cache
    line touches the simulator once per line, through a per-occurrence
    last-line memo) and adaptive block sampling below depth 0 (block
    snapshots at the back-edge after the spill charges; once two
    consecutive blocks agree within [tol] the rest of the trip is
    extrapolated). The batched replay is off; see [docs/performance.md]
    for the accuracy contract.

    This is the only engine [Cost.evaluate] runs; [Trace.run] stays as
    the oracle the differential suites and the trace bench compare
    against. A failure of the walk ([Budget.Exhausted],
    [Util.Deadline_exceeded], [Trace.Unsupported_trace], or the
    ["bc_run"] fault point that fires before every walk) escapes to the
    caller once; nothing re-runs it. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module B = Bytecode

(* ------------------------------------------------------------------ *)
(* Runtime                                                              *)

(** One bound (executable) access site of a computation occurrence.
    [cs_line] is the approx line-stepping memo: a [cs_step] site skips
    the simulator while successive addresses stay on one cache line. *)
type csite = {
  cs_fn : unit -> int;
  cs_write : bool;
  cs_gather : bool;
  cs_step : bool;
  mutable cs_line : int;
}

(** A computation occurrence bound at its first execution against the
    cid-memoized context. *)
type ccomp = {
  k_sites : csite array;
  k_port : float;
  k_class : int;
  k_flops : float;
  k_atomic : bool;
  k_contended : bool;
}

(* ------------------------------------------------------------------ *)
(* Approx mode                                                          *)

type approx = {
  line_step : bool;  (** enable line-granular cache stepping *)
  block : int;  (** iterations per stabilization block *)
  tol : float;  (** relative tolerance on per-block counter deltas *)
  min_trip : int;  (** loops with fewer iterations run exactly *)
}

(* Calibrated on the PolyBench/NPBench/CLOUDSC suite (see
   docs/performance.md): worst-case total-cycle error ~3%. A block of 8
   iterations spans one cache line of unit-stride doubles, so per-block
   miss deltas are line-phase invariant. *)
let default_approx = { line_step = true; block = 8; tol = 0.2; min_trip = 16 }

(* number of float fields snapshotted by the adaptive sampler: 12 counter
   fields + 4 L1 + 4 L2 cache statistics *)
let n_fields = 20

(** Per-loop scratch of the adaptive sampler (loops are not reentrant). *)
type sampler = {
  s_prev : float array;  (** snapshot at the previous block boundary *)
  s_cur : float array;
  d_prev : float array;  (** previous block's delta *)
  d_cur : float array;
  mutable s_on : bool;  (** the current entry is still block-sampled *)
  mutable s_have : bool;  (** [d_prev] holds a complete block *)
}

let snap (counters : Trace.counters) cache (dst : float array) =
  dst.(0) <- counters.Trace.flops;
  dst.(1) <- counters.Trace.vec_flops;
  dst.(2) <- counters.Trace.unrolled_flops;
  dst.(3) <- counters.Trace.loads;
  dst.(4) <- counters.Trace.stores;
  dst.(5) <- counters.Trace.gather_extra;
  dst.(6) <- counters.Trace.spill_ops;
  dst.(7) <- counters.Trace.atomics;
  dst.(8) <- counters.Trace.atomics_private;
  dst.(9) <- counters.Trace.parallel_regions;
  dst.(10) <- counters.Trace.libcall_flops;
  dst.(11) <- counters.Trace.libcall_bytes;
  let s1 = Cache.l1_stats cache and s2 = Cache.l2_stats cache in
  dst.(12) <- s1.Cache.accesses;
  dst.(13) <- s1.Cache.misses;
  dst.(14) <- s1.Cache.evicts;
  dst.(15) <- s1.Cache.writebacks;
  dst.(16) <- s2.Cache.accesses;
  dst.(17) <- s2.Cache.misses;
  dst.(18) <- s2.Cache.evicts;
  dst.(19) <- s2.Cache.writebacks

(** Charge [factor] more blocks of delta [d] to the counters and to the
    cache statistics. *)
let extrapolate (counters : Trace.counters) cache (d : float array)
    (factor : float) =
  counters.Trace.flops <- counters.Trace.flops +. (factor *. d.(0));
  counters.Trace.vec_flops <- counters.Trace.vec_flops +. (factor *. d.(1));
  counters.Trace.unrolled_flops <-
    counters.Trace.unrolled_flops +. (factor *. d.(2));
  counters.Trace.loads <- counters.Trace.loads +. (factor *. d.(3));
  counters.Trace.stores <- counters.Trace.stores +. (factor *. d.(4));
  counters.Trace.gather_extra <-
    counters.Trace.gather_extra +. (factor *. d.(5));
  counters.Trace.spill_ops <- counters.Trace.spill_ops +. (factor *. d.(6));
  counters.Trace.atomics <- counters.Trace.atomics +. (factor *. d.(7));
  counters.Trace.atomics_private <-
    counters.Trace.atomics_private +. (factor *. d.(8));
  counters.Trace.parallel_regions <-
    counters.Trace.parallel_regions +. (factor *. d.(9));
  counters.Trace.libcall_flops <-
    counters.Trace.libcall_flops +. (factor *. d.(10));
  counters.Trace.libcall_bytes <-
    counters.Trace.libcall_bytes +. (factor *. d.(11));
  let s1 = Cache.l1_stats cache and s2 = Cache.l2_stats cache in
  s1.Cache.accesses <- s1.Cache.accesses +. (factor *. d.(12));
  s1.Cache.misses <- s1.Cache.misses +. (factor *. d.(13));
  s1.Cache.evicts <- s1.Cache.evicts +. (factor *. d.(14));
  s1.Cache.writebacks <- s1.Cache.writebacks +. (factor *. d.(15));
  s2.Cache.accesses <- s2.Cache.accesses +. (factor *. d.(16));
  s2.Cache.misses <- s2.Cache.misses +. (factor *. d.(17));
  s2.Cache.evicts <- s2.Cache.evicts +. (factor *. d.(18));
  s2.Cache.writebacks <- s2.Cache.writebacks +. (factor *. d.(19))

let stable ~tol (a : float array) (b : float array) =
  let ok = ref true in
  for k = 0 to n_fields - 1 do
    let x = a.(k) and y = b.(k) in
    if
      Float.abs (x -. y)
      > tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
    then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Batched replay plans                                                 *)

(** One site of a batched loop: the bound address thunk (evaluated once
    per loop entry) and its per-iteration byte delta. Only consulted at
    loop entry — the replay itself runs over the plan's flat unboxed
    arrays, so the hot loops never chase record pointers or unbox the
    float fields of this mixed record. *)
type bsite = {
  b_write : bool;
  b_gather : bool;
  b_port : float;
  b_fn : unit -> int;
  b_dd : int;
  b_shift : int;  (** log2 |b_dd| — eligible deltas divide the pow2 line *)
}

(** Static replay plan for one straight-line innermost loop. *)
type bplan = {
  p_flat : bsite array;  (** all sites, execution order (entry-time only) *)
  p_nsites : int;  (** [Array.length p_flat] *)
  p_spills : int;
  p_sp_base : int;
  p_touch : int;  (** L1 touches per iteration: sites + 2*spills *)
  (* hot replay state: flat unboxed arrays, length [p_touch] unless
     noted (spill entries carry delta 0 and fixed addresses) *)
  p_addr : int array;  (** running byte address per touch *)
  p_dd : int array;  (** per-iteration byte delta per touch *)
  p_shifts : int array;  (** log2 |delta| per touch (chunked mode only) *)
  p_port : float array;  (** per site: port weight for loads/stores *)
  p_gth : bool array;  (** per site: gather site *)
  (* per body comp, in order: flop class/amount and atomic kind *)
  p_gclass : int array;
  p_gflops : float array;
  p_gatomic : bool array;
  p_gcontended : bool array;
  p_lines : int array;  (** scratch, length [p_touch] *)
  p_writes : bool array;  (** per touch, length [p_touch] *)
  p_memoable : bool array;
      (** per touch: |delta| < line size, so the slot memo can validate
          across iterations; streaming touches (|delta| >= line) change
          lines every iteration and skip the memo entirely *)
  p_slots : int array;  (** probe scratch, length [p_touch] *)
  p_striding : int array;  (** indices into [p_flat] with [b_dd <> 0] *)
  (* caller-owned per-touch slot memo for {!Cache.l1_replay_advance} *)
  p_mline : int array;
  p_mslot : int array;
  p_mep : int array;  (** -1 = not yet armed *)
  p_batchable : bool;
      (** every delta is 0 or divides the line with |dd| <= line/2, so
          run lengths are well defined and hit-runs can retire whole
          same-line spans; when false the loop still replays through the
          fused per-iteration path (incremental addresses, no closures) *)
  p_minrun : int;
      (** shortest full-line run over striding sites ([max_int] when none
          stride): hit-runs can retire at most [p_minrun - 1] iterations
          per chunk, so tiny values mean the chunk machinery churns *)
  mutable p_chunked : bool;
      (** current mode: chunk/probe/hit-run machinery vs plain fused
          per-iteration replay. Seeded from the static geometry and
          demoted adaptively when observed chunks come out too short to
          pay for the machinery (many staggered sites shrink the min
          same-line run far below [p_minrun]). Both modes are exact, so
          the switch is a pure performance decision. *)
  mutable p_iters : int;  (** iterations replayed through the chunked mode *)
  mutable p_chunks : int;  (** chunk-leading generic iterations thereof *)
  (* per-iteration counter increments, for closed-form charging *)
  p_loads : float;
  p_stores : float;
  p_gather : float;
  p_flops : float;
  p_vflops : float;
  p_uflops : float;
  p_atomics : float;
  p_atomics_priv : float;
  p_spill_f : float;
  p_dyadic : bool;  (** every increment is a multiple of 2^-12 *)
}

type bstate = Bunknown | Bineligible | Bplan of bplan

(* Closed-form charging is exact only while every accumulator stays in a
   range where float addition of 2^-12 multiples is exact: |v| < 2^40
   keeps v*4096 < 2^53 with a wide margin. *)
let dyadic_bound = 1.099511627776e12 (* 2^40 *)
let is_dyadic x = Float.is_integer (x *. 4096.0) && Float.abs x < dyadic_bound

(** Walk one trace section; returns its counters. [batch] turns on the
    fused replay; [approx] switches on line stepping and adaptive block
    sampling, and the caller must then pass [~batch:false]. *)
let trace_tnode ~batch ?approx (wctx : Trace.walk_ctx) (bc : B.t)
    (tn : B.tnode) : Trace.counters =
  let config = wctx.Trace.config in
  let cache = wctx.Trace.cache in
  let budget = wctx.Trace.budget in
  let counters = Trace.zero_counters () in
  let l1_before = Cache.copy_stats (Cache.l1_stats cache) in
  let l2_before = Cache.copy_stats (Cache.l2_stats cache) in
  let iters = Array.make (max 1 tn.B.t_nslots) 0 in
  let xstack = Array.make (max 1 bc.B.max_xstack) 0 in
  let bind ix =
    B.binder ~pool:tn.B.t_pool ~xpool:tn.B.t_xpool ~regs:iters ~xstack ix
  in
  let gather_mult = float_of_int config.Config.vector_width -. 1.0 in
  let vw = float_of_int config.Config.vector_width in
  let line_shift = Cache.l1_line_shift cache in
  let line_bytes = 1 lsl line_shift in
  (* approx line stepping tests the configured line size, not the
     simulator's power-of-two rounding of it *)
  let cfg_line = config.Config.l1.Config.line_bytes in
  let steppable (ts : B.tsite) =
    match approx with
    | Some { line_step = true; _ } ->
        let d = ts.B.ts_inner_dd in
        d <> 0 && d < cfg_line && cfg_line mod d = 0
    | _ -> false
  in
  let block, tol, min_trip =
    match approx with
    | Some ap when ap.block > 0 && ap.min_trip < max_int ->
        (ap.block, ap.tol, ap.min_trip)
    | _ -> (0, 0.0, max_int)
  in
  let l1_lines = config.Config.l1.Config.size_bytes / cfg_line in
  let l2_lines =
    config.Config.l2.Config.size_bytes / config.Config.l2.Config.line_bytes
  in
  (* loop runtime state, indexed by loop id (loops are not reentrant) *)
  let nl = Array.length tn.B.t_loops in
  let lo_fns = Array.make nl (fun () -> 0) in
  let hi_fns = Array.make nl (fun () -> 0) in
  Array.iteri
    (fun i (w : B.tloop) ->
      lo_fns.(i) <- bind tn.B.t_ixs.(w.B.w_lo);
      hi_fns.(i) <- bind tn.B.t_ixs.(w.B.w_hi))
    tn.B.t_loops;
  let rem = Array.make (max 1 nl) 0 in
  let cur = Array.make (max 1 nl) 0 in
  let trips = Array.make (max 1 nl) 0 in
  let counts = Array.make (max 1 nl) 0 in
  let plans = Array.make (max 1 nl) Bunknown in
  let samplers : sampler option array = Array.make (max 1 nl) None in
  (* spill slots: counts memoized per lid so duplicated subtrees share,
     allocation order = first-execution order, base advances only for
     loops that actually spill *)
  let sp_n = Array.make (max 1 nl) (-1) in
  let sp_base = Array.make (max 1 nl) 0 in
  let spill_tbl : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let stack_base = ref 1024 in
  (* computation occurrences: cid memo picks the first-executed occurrence
     as the shared static context *)
  let nc = Array.length tn.B.t_comps in
  let comp_rt : ccomp option array = Array.make (max 1 nc) None in
  let comp_memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let bind_site ~(in_simd : bool) ~(step : bool) (ts : B.tsite) : csite =
    let fn =
      match ts.B.ts_acc with
      | B.Ta_aff (off, n) -> bind (B.Ix_aff (off, n))
      | B.Ta_gen (base, dims, ixids) ->
          let fns = Array.map (fun i -> bind tn.B.t_ixs.(i)) ixids in
          let ni = Array.length fns and nd = Array.length dims in
          let n = if nd < ni then nd else ni in
          fun () ->
            let acc = ref 0 in
            for k = 0 to n - 1 do
              acc := (!acc * dims.(k)) + fns.(k) ()
            done;
            if nd <> ni then raise (Trace.Unsupported_trace "rank mismatch");
            base + (8 * !acc)
    in
    {
      cs_fn = fn;
      cs_write = ts.B.ts_write;
      cs_gather = ts.B.ts_strided && in_simd;
      cs_step = step;
      cs_line = -1;
    }
  in
  let bind_comp (id : int) (y : B.tcomp) : ccomp =
    let mid =
      match Hashtbl.find_opt comp_memo y.B.y_cid with
      | Some m -> m
      | None ->
          Hashtbl.replace comp_memo y.B.y_cid id;
          id
    in
    let m = tn.B.t_comps.(mid) in
    (* addresses come from the memoized occurrence, line-step eligibility
       from this occurrence's own innermost loop *)
    let step s =
      s < Array.length y.B.y_sites && steppable y.B.y_sites.(s)
    in
    let k =
      {
        k_sites =
          Array.mapi
            (fun s ts -> bind_site ~in_simd:y.B.y_in_simd ~step:(step s) ts)
            m.B.y_sites;
        k_port = (if m.B.y_class = 1 then 1.0 /. vw else 1.0);
        k_class = m.B.y_class;
        k_flops = m.B.y_flops;
        k_atomic = m.B.y_atomic;
        k_contended = m.B.y_contended;
      }
    in
    comp_rt.(id) <- Some k;
    k
  in
  (* per-iteration byte delta of one site of the memoized occurrence:
     [Some 0] for loop-invariant sites, [None] for non-affine ones *)
  let site_delta (w : B.tloop) (ts : B.tsite) : int option =
    match ts.B.ts_acc with
    | B.Ta_gen _ -> None
    | B.Ta_aff (off, nt) ->
        let c = ref 0 in
        for k = 0 to nt - 1 do
          if tn.B.t_pool.(off + 1 + (2 * k)) = w.B.w_slot then
            c := tn.B.t_pool.(off + 2 + (2 * k))
        done;
        Some (!c * w.B.w_step)
  in
  (* Build the replay plan for a straight-line loop at its first non-empty
     entry — the comps bind here, which IS their first execution, so the
     cid memo and spill allocation order are untouched. Never called for
     zero-trip entries (lazy error contract). *)
  let build_plan (id : int) (w : B.tloop) : bstate =
    match w.B.w_body with
    | None -> Bineligible
    | Some ids ->
        let ok =
          Array.for_all (fun cid -> tn.B.t_comps.(cid).B.y_err = None) ids
        in
        if not ok then Bineligible
        else begin
          let groups =
            Array.map
              (fun cid ->
                let y = tn.B.t_comps.(cid) in
                let k =
                  match comp_rt.(cid) with
                  | Some k -> k
                  | None -> bind_comp cid y
                in
                (cid, k))
              ids
          in
          let eligible = ref true in
          let batchable = ref true in
          let bgroups =
            Array.map
              (fun (cid, k) ->
                let y = tn.B.t_comps.(cid) in
                let mid =
                  match Hashtbl.find_opt comp_memo y.B.y_cid with
                  | Some m -> m
                  | None -> cid
                in
                let m = tn.B.t_comps.(mid) in
                let sites =
                  Array.mapi
                    (fun s (ts : B.tsite) ->
                      let dd =
                        match site_delta w ts with
                        | Some dd -> dd
                        | None ->
                            eligible := false;
                            0
                      in
                      let a = abs dd in
                      if
                        not
                          (dd = 0
                          || (a <= line_bytes / 2 && line_bytes mod a = 0))
                      then batchable := false;
                      (* batchable deltas divide the power-of-two line
                         size, so |dd| is itself a power of two and run
                         lengths reduce to shifts; the shift is
                         meaningless (and unused) when not batchable *)
                      let shift =
                        let s = ref 0 in
                        while a > 1 lsl !s do incr s done;
                        !s
                      in
                      {
                        b_write = k.k_sites.(s).cs_write;
                        b_gather = k.k_sites.(s).cs_gather;
                        b_port = k.k_port;
                        b_fn = k.k_sites.(s).cs_fn;
                        b_dd = dd;
                        b_shift = shift;
                      })
                    m.B.y_sites
                in
                (k, sites))
              groups
          in
          if not !eligible then Bineligible
          else begin
            let flat = Array.concat (Array.to_list (Array.map snd bgroups)) in
            let nst = Array.length flat in
            let striding = ref [] in
            let minrun = ref max_int in
            for s = nst - 1 downto 0 do
              if flat.(s).b_dd <> 0 then begin
                striding := s :: !striding;
                let r = line_bytes lsr flat.(s).b_shift in
                if r < !minrun then minrun := r
              end
            done;
            let spills = sp_n.(id) in
            let base = sp_base.(id) in
            let touch = nst + (2 * spills) in
            let lines = Array.make (max 1 touch) 0 in
            let writes = Array.make (max 1 touch) false in
            let memoable = Array.make (max 1 touch) true in
            let addrs = Array.make (max 1 touch) 0 in
            let deltas = Array.make (max 1 touch) 0 in
            let shifts = Array.make (max 1 touch) 0 in
            let ports = Array.make (max 1 nst) 0.0 in
            let gth = Array.make (max 1 nst) false in
            Array.iteri
              (fun s a ->
                writes.(s) <- a.b_write;
                deltas.(s) <- a.b_dd;
                shifts.(s) <- a.b_shift;
                ports.(s) <- a.b_port;
                gth.(s) <- a.b_gather;
                memoable.(s) <- abs a.b_dd < line_bytes)
              flat;
            for sp = 0 to spills - 1 do
              let addr = base + (sp * 8) in
              let line = addr lsr line_shift in
              lines.(nst + (2 * sp)) <- line;
              lines.(nst + (2 * sp) + 1) <- line;
              addrs.(nst + (2 * sp)) <- addr;
              addrs.(nst + (2 * sp) + 1) <- addr;
              writes.(nst + (2 * sp)) <- true
            done;
            let ng = Array.length bgroups in
            let gclass = Array.make (max 1 ng) 0 in
            let gflops = Array.make (max 1 ng) 0.0 in
            let gatomic = Array.make (max 1 ng) false in
            let gcontended = Array.make (max 1 ng) false in
            Array.iteri
              (fun g ((k : ccomp), _) ->
                gclass.(g) <- k.k_class;
                gflops.(g) <- k.k_flops;
                gatomic.(g) <- k.k_atomic;
                gcontended.(g) <- k.k_contended)
              bgroups;
            let fspills = float_of_int spills in
            let loads = ref 0.0 and stores = ref 0.0 and gather = ref 0.0 in
            Array.iter
              (fun a ->
                if a.b_write then stores := !stores +. a.b_port
                else loads := !loads +. a.b_port;
                if a.b_gather then gather := !gather +. gather_mult)
              flat;
            loads := !loads +. fspills;
            stores := !stores +. fspills;
            let flops = ref 0.0 and vflops = ref 0.0 and uflops = ref 0.0 in
            let atomics = ref 0.0 and atomics_priv = ref 0.0 in
            Array.iter
              (fun (k, _) ->
                (if k.k_class = 1 then vflops := !vflops +. k.k_flops
                 else if k.k_class = 2 then uflops := !uflops +. k.k_flops
                 else flops := !flops +. k.k_flops);
                if k.k_atomic then
                  if k.k_contended then atomics := !atomics +. 1.0
                  else atomics_priv := !atomics_priv +. 1.0)
              bgroups;
            let dyadic =
              Array.for_all (fun a -> is_dyadic a.b_port) flat
              && is_dyadic gather_mult
              && Array.for_all (fun (k, _) -> is_dyadic k.k_flops) bgroups
              && is_dyadic !loads && is_dyadic !stores && is_dyadic !gather
              && is_dyadic !flops && is_dyadic !vflops && is_dyadic !uflops
            in
            Bplan
              {
                p_flat = flat;
                p_nsites = nst;
                p_spills = spills;
                p_sp_base = base;
                p_touch = touch;
                p_addr = addrs;
                p_dd = deltas;
                p_shifts = shifts;
                p_port = ports;
                p_gth = gth;
                p_gclass = gclass;
                p_gflops = gflops;
                p_gatomic = gatomic;
                p_gcontended = gcontended;
                p_lines = lines;
                p_writes = writes;
                p_memoable = memoable;
                p_slots = Array.make (max 1 touch) 0;
                p_striding = Array.of_list !striding;
                p_mline = Array.make (max 1 touch) (-1);
                p_mslot = Array.make (max 1 touch) 0;
                p_mep = Array.make (max 1 touch) (-1);
                p_batchable = !batchable;
                p_minrun = !minrun;
                p_chunked = !batchable && !minrun >= 4;
                p_iters = 0;
                p_chunks = 0;
                p_loads = !loads;
                p_stores = !stores;
                p_gather = !gather;
                p_flops = !flops;
                p_vflops = !vflops;
                p_uflops = !uflops;
                p_atomics = !atomics;
                p_atomics_priv = !atomics_priv;
                p_spill_f = fspills;
                p_dyadic = dyadic;
              }
          end
        end
  in
  (* One generic iteration of a batched loop, at the plan's current
     addresses, advancing them by the deltas — byte-for-byte the dispatch
     loop's charges. All cache traffic runs first in touch order (the
     spill write/read pairs sit after the sites), then the counter adds:
     cache state and counters are disjoint, and per accumulator the add
     sequence is unchanged, so the split preserves bit-exactness while
     one call covers the iteration's traffic and the epoch-validated
     slot memo skips tag scans for proven hits. *)
  let generic_iteration (pl : bplan) : unit =
    Cache.l1_replay_advance cache ~addrs:pl.p_addr ~deltas:pl.p_dd
      ~writes:pl.p_writes ~memoable:pl.p_memoable ~n:pl.p_touch
      ~mline:pl.p_mline ~mslot:pl.p_mslot ~mep:pl.p_mep;
    let ports = pl.p_port in
    let wr = pl.p_writes in
    let gth = pl.p_gth in
    for s = 0 to pl.p_nsites - 1 do
      let port = Array.unsafe_get ports s in
      (if Array.unsafe_get wr s then
         counters.Trace.stores <- counters.Trace.stores +. port
       else counters.Trace.loads <- counters.Trace.loads +. port);
      if Array.unsafe_get gth s then
        counters.Trace.gather_extra <-
          counters.Trace.gather_extra +. gather_mult
    done;
    let gflops = pl.p_gflops in
    for g = 0 to Array.length gflops - 1 do
      let f = Array.unsafe_get gflops g in
      let c = Array.unsafe_get pl.p_gclass g in
      (if c = 1 then
         counters.Trace.vec_flops <- counters.Trace.vec_flops +. f
       else if c = 2 then
         counters.Trace.unrolled_flops <-
           counters.Trace.unrolled_flops +. f
       else counters.Trace.flops <- counters.Trace.flops +. f);
      if pl.p_gatomic.(g) then
        if pl.p_gcontended.(g) then
          counters.Trace.atomics <- counters.Trace.atomics +. 1.0
        else
          counters.Trace.atomics_private <-
            counters.Trace.atomics_private +. 1.0
    done;
    if pl.p_spills > 0 then begin
      counters.Trace.loads <- counters.Trace.loads +. pl.p_spill_f;
      counters.Trace.stores <- counters.Trace.stores +. pl.p_spill_f;
      counters.Trace.spill_ops <-
        counters.Trace.spill_ops +. (2.0 *. pl.p_spill_f)
    end
  in
  (* [generic_iteration] with the per-site/per-group counter loops
     collapsed into one add per accumulator. Valid only under the same
     dyadic guard that licenses the chunked closed form: every
     accumulator value and partial sum is then an exactly-represented
     2^-12 multiple, float addition on them is exact and hence
     associative, so the per-iteration totals are bit-identical to the
     site-by-site sequence (this is the chunked transform at m = 1). *)
  let light_iteration (pl : bplan) : unit =
    Cache.l1_replay_advance cache ~addrs:pl.p_addr ~deltas:pl.p_dd
      ~writes:pl.p_writes ~memoable:pl.p_memoable ~n:pl.p_touch
      ~mline:pl.p_mline ~mslot:pl.p_mslot ~mep:pl.p_mep;
    (if pl.p_loads <> 0.0 then
       counters.Trace.loads <- counters.Trace.loads +. pl.p_loads);
    (if pl.p_stores <> 0.0 then
       counters.Trace.stores <- counters.Trace.stores +. pl.p_stores);
    (if pl.p_gather <> 0.0 then
       counters.Trace.gather_extra <-
         counters.Trace.gather_extra +. pl.p_gather);
    (if pl.p_flops <> 0.0 then
       counters.Trace.flops <- counters.Trace.flops +. pl.p_flops);
    (if pl.p_vflops <> 0.0 then
       counters.Trace.vec_flops <- counters.Trace.vec_flops +. pl.p_vflops);
    (if pl.p_uflops <> 0.0 then
       counters.Trace.unrolled_flops <-
         counters.Trace.unrolled_flops +. pl.p_uflops);
    (if pl.p_atomics <> 0.0 then
       counters.Trace.atomics <- counters.Trace.atomics +. pl.p_atomics);
    (if pl.p_atomics_priv <> 0.0 then
       counters.Trace.atomics_private <-
         counters.Trace.atomics_private +. pl.p_atomics_priv);
    (if pl.p_spill_f <> 0.0 then
       counters.Trace.spill_ops <-
         counters.Trace.spill_ops +. (2.0 *. pl.p_spill_f))
  in
  (* library calls: dimension thunks bound at first execution *)
  let nk = Array.length tn.B.t_calls in
  let call_rt : (unit -> int) array option array = Array.make (max 1 nk) None in
  let scale_factor = ref 1.0 in
  let code = tn.B.t_code in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let op = code.(!pc) in
    if op = B.t_comp then begin
      let id = code.(!pc + 1) in
      let y = tn.B.t_comps.(id) in
      (match y.B.y_err with
      | Some m -> raise (Trace.Unsupported_trace m)
      | None -> ());
      let k =
        match comp_rt.(id) with Some k -> k | None -> bind_comp id y
      in
      let sites = k.k_sites in
      let port = k.k_port in
      for s = 0 to Array.length sites - 1 do
        let a = sites.(s) in
        let addr = a.cs_fn () in
        (if a.cs_step then begin
           let ln = addr lsr line_shift in
           if ln <> a.cs_line then begin
             a.cs_line <- ln;
             Cache.access cache ~addr ~write:a.cs_write
           end
         end
         else Cache.access cache ~addr ~write:a.cs_write);
        if a.cs_write then
          counters.Trace.stores <- counters.Trace.stores +. port
        else counters.Trace.loads <- counters.Trace.loads +. port;
        if a.cs_gather then
          counters.Trace.gather_extra <-
            counters.Trace.gather_extra +. gather_mult
      done;
      (if k.k_class = 1 then
         counters.Trace.vec_flops <- counters.Trace.vec_flops +. k.k_flops
       else if k.k_class = 2 then
         counters.Trace.unrolled_flops <-
           counters.Trace.unrolled_flops +. k.k_flops
       else counters.Trace.flops <- counters.Trace.flops +. k.k_flops);
      if k.k_atomic then
        if k.k_contended then
          counters.Trace.atomics <- counters.Trace.atomics +. 1.0
        else
          counters.Trace.atomics_private <-
            counters.Trace.atomics_private +. 1.0;
      pc := !pc + 2
    end
    else if op = B.t_loop then begin
      let id = code.(!pc + 1) in
      let end_pc = code.(!pc + 2) in
      let w = tn.B.t_loops.(id) in
      (match w.B.w_err with
      | Some m -> raise (Trace.Unsupported_trace m)
      | None -> ());
      let lo = lo_fns.(id) () in
      let hi = hi_fns.(id) () in
      let step = w.B.w_step in
      let trip =
        if step > 0 then max 0 (((hi - lo) / step) + 1)
        else max 0 (((lo - hi) / -step) + 1)
      in
      if w.B.w_starts_parallel then begin
        counters.Trace.has_parallel <- true;
        counters.Trace.parallel_regions <-
          counters.Trace.parallel_regions +. 1.0;
        counters.Trace.par_trip <-
          Float.max counters.Trace.par_trip (float_of_int trip)
      end;
      if sp_n.(id) < 0 then begin
        let s, b =
          if not w.B.w_is_leaf then (0, 0)
          else
            match Hashtbl.find_opt spill_tbl w.B.w_lid with
            | Some sb -> sb
            | None ->
                let s = w.B.w_spills in
                let b = !stack_base in
                if s > 0 then stack_base := !stack_base + (s * 8);
                Hashtbl.replace spill_tbl w.B.w_lid (s, b);
                (s, b)
        in
        sp_n.(id) <- s;
        sp_base.(id) <- b
      end;
      let count =
        if
          w.B.w_depth0
          && wctx.Trace.sample_outer > 0
          && trip > wctx.Trace.sample_outer
        then wctx.Trace.sample_outer
        else trip
      in
      trips.(id) <- trip;
      counts.(id) <- count;
      (* a sampled entry always ends with [s_on] cleared: by the cut, or
         at the last block boundary that leaves less than a block *)
      if block > 0 && (not w.B.w_depth0) && trip >= min_trip
         && trip >= 2 * block
      then begin
        let sm =
          match samplers.(id) with
          | Some sm -> sm
          | None ->
              let mk () = Array.make n_fields 0.0 in
              let sm =
                { s_prev = mk (); s_cur = mk (); d_prev = mk ();
                  d_cur = mk (); s_on = false; s_have = false }
              in
              samplers.(id) <- Some sm;
              sm
        in
        snap counters cache sm.s_prev;
        sm.s_on <- true;
        sm.s_have <- false
      end;
      if count = 0 then pc := end_pc
      else begin
        rem.(id) <- count;
        cur.(id) <- lo;
        Budget.tick budget;
        iters.(w.B.w_slot) <- lo;
        (match plans.(id) with
        | Bunknown when batch -> plans.(id) <- build_plan id w
        | _ -> ());
        match plans.(id) with
        | Bplan pl when batch ->
            (* fused replay of the whole trip: addresses advance
               incrementally (no per-iteration closure calls), and when
               the plan is batchable with long enough same-line runs the
               chunk machinery retires all-hit spans in closed form *)
            let flat = pl.p_flat in
            let nst = pl.p_nsites in
            for s = 0 to nst - 1 do
              pl.p_addr.(s) <- flat.(s).b_fn ()
            done;
            let guard =
              (* the closed form c +. m*inc equals m repeated adds only
                 while c is itself a 2^-12 multiple and both stay small
                 enough that every intermediate is exact: c < 2^38 and
                 count*inc < 2^38 bound every intermediate accumulator by
                 2^39 (numerators < 2^51) and every per-chunk product
                 fm *. inc by 2^38 (numerators < 2^50). Checked once per
                 loop entry so the replay loops carry no float guards.
                 The same bounds license [light_iteration]'s collapsed
                 per-iteration adds (the m = 1 case). *)
              pl.p_dyadic
              &&
              let fcount = float_of_int count in
              let mag = 2.74877906944e11 (* 2^38 *) in
              let ok c inc =
                inc = 0.0
                || (Float.is_integer (c *. 4096.0)
                    && Float.abs c < mag
                    && fcount *. inc < mag)
              in
              ok counters.Trace.loads pl.p_loads
              && ok counters.Trace.stores pl.p_stores
              && ok counters.Trace.gather_extra pl.p_gather
              && ok counters.Trace.flops pl.p_flops
              && ok counters.Trace.vec_flops pl.p_vflops
              && ok counters.Trace.unrolled_flops pl.p_uflops
              && ok counters.Trace.atomics pl.p_atomics
              && ok counters.Trace.atomics_private pl.p_atomics_priv
              && ok counters.Trace.spill_ops (2.0 *. pl.p_spill_f)
              && ok (Cache.l1_stats cache).Cache.accesses
                   (float_of_int pl.p_touch)
            in
            let chunked =
              (* statically: runs shorter than 4 iterations cap hit-run
                 spans at 3, so the per-chunk probe/min machinery costs
                 more than the per-iteration path it replaces; demoted
                 adaptively when observed chunks come out short *)
              pl.p_chunked
              && (let ok = ref true in
                  for s = 0 to nst - 1 do
                    if
                      pl.p_addr.(s) < 0
                      || pl.p_addr.(s) + ((count - 1) * pl.p_dd.(s)) < 0
                    then ok := false
                    (* lsr-based run-length math assumes non-negative
                       addresses throughout the trip *)
                  done;
                  !ok)
              && guard
            in
            if not chunked then begin
              (* fused-only replay: incremental addresses and
                 table-driven charging, the cache touched
                 access-by-access — bit-identical to the dispatch loop
                 for any stride, address sign, or accumulator value *)
              (* fuel for the whole trip at once (the entry already
                 ticked iteration one), exactly as the chunked mode
                 spends per hit-run. [Budget.spend] polls the deadline
                 when the charge passes a multiple of 4096; because the
                 charge comes before the work, a trip longer than that
                 also polls every 4096 of its own iterations *)
              Budget.spend budget (count - 1);
              if guard then
                for it = 1 to count do
                  if it land 4095 = 0 then Util.check_deadline ();
                  light_iteration pl
                done
              else
                for it = 1 to count do
                  if it land 4095 = 0 then Util.check_deadline ();
                  generic_iteration pl
                done
            end
            else begin
              let remaining = ref count in
              let chunks = ref 0 in
              let first = ref true in
              let mask = line_bytes - 1 in
              let striding = pl.p_striding in
              let ns = Array.length striding in
              while !remaining > 0 do
                (* iterations (incl. the current one) for which every
                   site stays on its current line *)
                let chunk = ref !remaining in
                for q = 0 to ns - 1 do
                  let idx = Array.unsafe_get striding q in
                  let addr = Array.unsafe_get pl.p_addr idx in
                  let sh = Array.unsafe_get pl.p_shifts idx in
                  let r =
                    if Array.unsafe_get pl.p_dd idx > 0 then
                      ((line_bytes - (addr land mask) - 1) lsr sh) + 1
                    else ((addr land mask) lsr sh) + 1
                  in
                  if r < !chunk then chunk := r
                done;
                if !first then first := false else Budget.tick budget;
                incr chunks;
                light_iteration pl;
                decr remaining;
                let m = min (!chunk - 1) !remaining in
                if m > 0 then begin
                  for s = 0 to nst - 1 do
                    pl.p_lines.(s) <- pl.p_addr.(s) lsr line_shift
                  done;
                  if
                    Cache.l1_probe_memo cache ~lines:pl.p_lines
                      ~n:pl.p_touch ~slots:pl.p_slots ~mline:pl.p_mline
                      ~mslot:pl.p_mslot ~mep:pl.p_mep
                  then begin
                    let fm = float_of_int m in
                    Budget.spend budget m;
                    Cache.l1_hit_run cache ~slots:pl.p_slots
                      ~writes:pl.p_writes ~k:pl.p_touch ~n:m;
                    (if pl.p_loads <> 0.0 then
                       counters.Trace.loads <-
                         counters.Trace.loads +. (fm *. pl.p_loads));
                    (if pl.p_stores <> 0.0 then
                       counters.Trace.stores <-
                         counters.Trace.stores +. (fm *. pl.p_stores));
                    (if pl.p_gather <> 0.0 then
                       counters.Trace.gather_extra <-
                         counters.Trace.gather_extra +. (fm *. pl.p_gather));
                    (if pl.p_flops <> 0.0 then
                       counters.Trace.flops <-
                         counters.Trace.flops +. (fm *. pl.p_flops));
                    (if pl.p_vflops <> 0.0 then
                       counters.Trace.vec_flops <-
                         counters.Trace.vec_flops +. (fm *. pl.p_vflops));
                    (if pl.p_uflops <> 0.0 then
                       counters.Trace.unrolled_flops <-
                         counters.Trace.unrolled_flops +. (fm *. pl.p_uflops));
                    (if pl.p_atomics <> 0.0 then
                       counters.Trace.atomics <-
                         counters.Trace.atomics +. (fm *. pl.p_atomics));
                    (if pl.p_atomics_priv <> 0.0 then
                       counters.Trace.atomics_private <-
                         counters.Trace.atomics_private
                         +. (fm *. pl.p_atomics_priv));
                    (* spill loads/stores are folded into p_loads/p_stores *)
                    (if pl.p_spill_f <> 0.0 then
                       counters.Trace.spill_ops <-
                         counters.Trace.spill_ops
                         +. (fm *. 2.0 *. pl.p_spill_f));
                    for s = 0 to nst - 1 do
                      pl.p_addr.(s) <- pl.p_addr.(s) + (m * pl.p_dd.(s))
                    done;
                    remaining := !remaining - m
                  end
                end
              done;
              (* demote to plain fused replay once enough evidence shows
                 chunks averaging under 2 iterations: hit-runs then
                 retire under half the traffic, and the per-chunk min
                 and probe cost more than they save *)
              pl.p_iters <- pl.p_iters + count;
              pl.p_chunks <- pl.p_chunks + !chunks;
              if pl.p_iters >= 4096 && 2 * pl.p_chunks > pl.p_iters then
                pl.p_chunked <- false
            end;
            rem.(id) <- 0;
            let last = lo + ((count - 1) * step) in
            cur.(id) <- last;
            iters.(w.B.w_slot) <- last;
            if count < trips.(id) then
              scale_factor :=
                float_of_int trips.(id) /. float_of_int counts.(id);
            pc := end_pc
        | _ -> pc := !pc + 3
      end
    end
    else if op = B.t_loopbk then begin
      let id = code.(!pc + 1) in
      let body_pc = code.(!pc + 2) in
      let spills = sp_n.(id) in
      if spills > 0 then begin
        let base = sp_base.(id) in
        for sp = 0 to spills - 1 do
          let addr = base + (sp * 8) in
          Cache.access cache ~addr ~write:true;
          Cache.access cache ~addr ~write:false
        done;
        let fs = float_of_int spills in
        counters.Trace.loads <- counters.Trace.loads +. fs;
        counters.Trace.stores <- counters.Trace.stores +. fs;
        counters.Trace.spill_ops <-
          counters.Trace.spill_ops +. (2.0 *. fs)
      end;
      let r = rem.(id) - 1 in
      rem.(id) <- r;
      (* approx: at each block boundary compare this block's delta with
         the previous one; once two agree, extrapolate the rest of the
         trip and leave the loop *)
      let cut =
        match samplers.(id) with
        | Some sm when sm.s_on ->
            let executed = counts.(id) - r in
            if executed mod block <> 0 then false
            else begin
              snap counters cache sm.s_cur;
              for k = 0 to n_fields - 1 do
                sm.d_cur.(k) <- sm.s_cur.(k) -. sm.s_prev.(k)
              done;
              if sm.s_have && stable ~tol sm.d_prev sm.d_cur then begin
                let factor =
                  float_of_int (trips.(id) - executed) /. float_of_int block
                in
                extrapolate counters cache sm.d_cur factor;
                (* if the skipped iterations would have streamed more
                   distinct lines through a level than it holds, the tag
                   state at the cut tells later code nothing: flush that
                   level (the skipped misses were already charged) *)
                if factor *. sm.d_cur.(13) >= float_of_int l1_lines then
                  Cache.flush_l1 cache;
                if factor *. sm.d_cur.(17) >= float_of_int l2_lines then
                  Cache.flush_l2 cache;
                sm.s_on <- false;
                true
              end
              else begin
                Array.blit sm.d_cur 0 sm.d_prev 0 n_fields;
                Array.blit sm.s_cur 0 sm.s_prev 0 n_fields;
                sm.s_have <- true;
                if executed + block > trips.(id) then sm.s_on <- false;
                false
              end
            end
        | _ -> false
      in
      if r > 0 && not cut then begin
        let w = tn.B.t_loops.(id) in
        let i = cur.(id) + w.B.w_step in
        cur.(id) <- i;
        Budget.tick budget;
        iters.(w.B.w_slot) <- i;
        pc := body_pc
      end
      else begin
        if counts.(id) < trips.(id) then
          scale_factor :=
            float_of_int trips.(id) /. float_of_int counts.(id);
        pc := !pc + 3
      end
    end
    else if op = B.t_call then begin
      let id = code.(!pc + 1) in
      let z = tn.B.t_calls.(id) in
      (match z.B.z_err with
      | Some m -> raise (Trace.Unsupported_trace m)
      | None -> ());
      let fns =
        match call_rt.(id) with
        | Some fns -> fns
        | None ->
            let fns = Array.map (fun i -> bind tn.B.t_ixs.(i)) z.B.z_dims in
            call_rt.(id) <- Some fns;
            fns
      in
      let n = Array.length fns in
      let rec dims k = if k = n then [] else
        let v = fns.(k) () in
        v :: dims (k + 1)
      in
      let dims = dims 0 in
      let kernel = z.B.z_kernel in
      counters.Trace.libcall_flops <-
        counters.Trace.libcall_flops
        +. (try Daisy_blas.Kernels.flops kernel dims with _ -> 0.0);
      counters.Trace.libcall_bytes <-
        counters.Trace.libcall_bytes
        +. (try Daisy_blas.Kernels.min_bytes kernel dims with _ -> 0.0);
      pc := !pc + 2
    end
    else (* t_halt *)
      running := false
  done;
  counters.Trace.l1 <- Cache.sub_stats (Cache.l1_stats cache) l1_before;
  counters.Trace.l2 <- Cache.sub_stats (Cache.l2_stats cache) l2_before;
  if !scale_factor > 1.0 then begin
    let regions = counters.Trace.parallel_regions in
    Trace.scale_counters counters !scale_factor;
    if regions > 0.0 then counters.Trace.parallel_regions <- regions
  end;
  counters

(** [run config p ~sizes ?sample_outer ?budget ?batch ?approx ()] —
    lower once, walk every trace section; per-top-level-node counters in
    order, exactly like [Trace.run]. [batch] enables the fused batched
    replay (default on). [approx] turns on line stepping and adaptive
    sampling, and turns off the batched replay. *)
let run (config : Config.t) (p : Ir.program) ~(sizes : (string * int) list)
    ?(sample_outer = 0) ?(budget = Budget.unlimited ()) ?(batch = true)
    ?approx () : Trace.counters list =
  let batch = batch && approx = None in
  Fault.inject "bc_run";
  let param_env =
    List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty sizes
  in
  let layout = Trace.layout_of p ~sizes:param_env in
  let bc = B.lower layout ~sizes:param_env p in
  let cache = Cache.create config in
  let wctx =
    { Trace.config; cache; layout; param_env; sample_outer; budget }
  in
  Array.to_list
    (Array.map (trace_tnode ~batch ?approx wctx bc) bc.B.tnodes)
