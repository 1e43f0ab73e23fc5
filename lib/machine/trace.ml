(** Trace generation: walk a loopir program over concrete sizes, feed every
    memory access through the cache simulator and accumulate operation
    counts per top-level nest.

    Guards are assumed taken (their evaluation cost is charged and the
    guarded computation executes) — the machine model has no data values, so
    this is the standard control-independent approximation.

    For tractability, the outermost loop of each top-level nest can be
    {e sampled}: only the first [sample_outer] iterations are traced and all
    counter deltas are scaled by [trip / sample_outer]. Loop nests are
    overwhelmingly iteration-homogeneous, so sampling preserves shapes. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr

type counters = {
  mutable flops : float;  (** scalar-equivalent flops outside SIMD loops *)
  mutable vec_flops : float;  (** flops executed in effective SIMD loops *)
  mutable unrolled_flops : float;  (** scalar flops with unroll ILP boost *)
  mutable loads : float;
  mutable stores : float;
  mutable gather_extra : float;  (** extra L1-port pressure from gathers *)
  mutable spill_ops : float;  (** register spill fills+stores *)
  mutable atomics : float;  (** contended atomic updates (shared cell) *)
  mutable atomics_private : float;
      (** uncontended atomics (per-iteration distinct cells) *)
  mutable parallel_regions : float;
  mutable par_trip : float;  (** iterations of the outermost parallel loop *)
  mutable has_parallel : bool;
  mutable libcall_flops : float;
  mutable libcall_bytes : float;
  mutable l1 : Cache.stats;
  mutable l2 : Cache.stats;
}

let zero_counters () =
  {
    flops = 0.0; vec_flops = 0.0; unrolled_flops = 0.0;
    loads = 0.0; stores = 0.0; gather_extra = 0.0; spill_ops = 0.0;
    atomics = 0.0; atomics_private = 0.0;
    parallel_regions = 0.0; par_trip = 0.0; has_parallel = false;
    libcall_flops = 0.0; libcall_bytes = 0.0;
    l1 = Cache.zero_stats (); l2 = Cache.zero_stats ();
  }

let scale_counters (c : counters) (f : float) =
  c.flops <- c.flops *. f;
  c.vec_flops <- c.vec_flops *. f;
  c.unrolled_flops <- c.unrolled_flops *. f;
  c.loads <- c.loads *. f;
  c.stores <- c.stores *. f;
  c.gather_extra <- c.gather_extra *. f;
  c.spill_ops <- c.spill_ops *. f;
  c.atomics <- c.atomics *. f;
  c.atomics_private <- c.atomics_private *. f;
  c.parallel_regions <- c.parallel_regions *. f;
  c.libcall_flops <- c.libcall_flops *. f;
  c.libcall_bytes <- c.libcall_bytes *. f;
  c.l1 <-
    {
      Cache.accesses = c.l1.Cache.accesses *. f;
      misses = c.l1.Cache.misses *. f;
      evicts = c.l1.Cache.evicts *. f;
      writebacks = c.l1.Cache.writebacks *. f;
    };
  c.l2 <-
    {
      Cache.accesses = c.l2.Cache.accesses *. f;
      misses = c.l2.Cache.misses *. f;
      evicts = c.l2.Cache.evicts *. f;
      writebacks = c.l2.Cache.writebacks *. f;
    }

let add_counters (a : counters) (b : counters) =
  a.flops <- a.flops +. b.flops;
  a.vec_flops <- a.vec_flops +. b.vec_flops;
  a.unrolled_flops <- a.unrolled_flops +. b.unrolled_flops;
  a.loads <- a.loads +. b.loads;
  a.stores <- a.stores +. b.stores;
  a.gather_extra <- a.gather_extra +. b.gather_extra;
  a.spill_ops <- a.spill_ops +. b.spill_ops;
  a.atomics <- a.atomics +. b.atomics;
  a.atomics_private <- a.atomics_private +. b.atomics_private;
  a.parallel_regions <- a.parallel_regions +. b.parallel_regions;
  a.par_trip <- Float.max a.par_trip b.par_trip;
  a.has_parallel <- a.has_parallel || b.has_parallel;
  a.libcall_flops <- a.libcall_flops +. b.libcall_flops;
  a.libcall_bytes <- a.libcall_bytes +. b.libcall_bytes;
  a.l1 <-
    {
      Cache.accesses = a.l1.Cache.accesses +. b.l1.Cache.accesses;
      misses = a.l1.Cache.misses +. b.l1.Cache.misses;
      evicts = a.l1.Cache.evicts +. b.l1.Cache.evicts;
      writebacks = a.l1.Cache.writebacks +. b.l1.Cache.writebacks;
    };
  a.l2 <-
    {
      Cache.accesses = a.l2.Cache.accesses +. b.l2.Cache.accesses;
      misses = a.l2.Cache.misses +. b.l2.Cache.misses;
      evicts = a.l2.Cache.evicts +. b.l2.Cache.evicts;
      writebacks = a.l2.Cache.writebacks +. b.l2.Cache.writebacks;
    }

(** Bitwise equality of two counter records (floats compared through
    [Int64.bits_of_float]) — the exact engines' contract. *)
let counters_equal (a : counters) (b : counters) : bool =
  let floats c =
    let s1 = c.l1 and s2 = c.l2 in
    [ c.flops; c.vec_flops; c.unrolled_flops; c.loads; c.stores;
      c.gather_extra; c.spill_ops; c.atomics; c.atomics_private;
      c.parallel_regions; c.par_trip; c.libcall_flops; c.libcall_bytes;
      s1.Cache.accesses; s1.Cache.misses; s1.Cache.evicts; s1.Cache.writebacks;
      s2.Cache.accesses; s2.Cache.misses; s2.Cache.evicts; s2.Cache.writebacks ]
  in
  a.has_parallel = b.has_parallel
  && List.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       (floats a) (floats b)

(* ------------------------------------------------------------------ *)
(* Expression compilation: iterator slots + closed-over parameters      *)

exception Unsupported_trace of string

type compile_ctx = {
  slot_of : string -> int option;  (** iterator name -> slot *)
  param_env : int Util.SMap.t;
}

let rec compile_expr (ctx : compile_ctx) (e : Expr.t) : int array -> int =
  match e with
  | Expr.Const n -> fun _ -> n
  | Expr.Var v -> (
      match ctx.slot_of v with
      | Some s -> fun iters -> iters.(s)
      | None -> (
          match Util.SMap.find_opt v ctx.param_env with
          | Some n -> fun _ -> n
          | None -> raise (Unsupported_trace ("unbound variable " ^ v))))
  | Expr.Add (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it -> fa it + fb it
  | Expr.Sub (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it -> fa it - fb it
  | Expr.Mul (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it -> fa it * fb it
  | Expr.Div (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it ->
        let x = fa it and y = fb it in
        let q = x / y and r = x mod y in
        if r <> 0 && (r < 0) <> (y < 0) then q - 1 else q
  | Expr.Mod (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it ->
        let x = fa it and y = fb it in
        let r = x mod y in
        if r <> 0 && (r < 0) <> (y < 0) then r + y else r
  | Expr.Neg a ->
      let fa = compile_expr ctx a in
      fun it -> -fa it
  | Expr.Min (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it -> min (fa it) (fb it)
  | Expr.Max (a, b) ->
      let fa = compile_expr ctx a and fb = compile_expr ctx b in
      fun it -> max (fa it) (fb it)

(* ------------------------------------------------------------------ *)
(* Memory layout                                                        *)

type layout = {
  base_of : string -> int;  (** byte address of element 0 *)
  dims_of : string -> int array;
}

(** Row-major layout with line-aligned bases and a guard gap between
    arrays. *)
let layout_of (p : Ir.program) ~(sizes : int Util.SMap.t) : layout =
  let tbl = Hashtbl.create 16 in
  let next = ref 4096 in
  List.iter
    (fun (a : Ir.array_decl) ->
      let dims =
        Array.of_list (List.map (fun d -> max 1 (Expr.eval sizes d)) a.Ir.dims)
      in
      let n = Array.fold_left ( * ) 1 dims in
      Hashtbl.replace tbl a.Ir.name (!next, dims);
      next := !next + (n * 8) + 256;
      next := (!next + 63) land lnot 63)
    p.Ir.arrays;
  (* local scalars live in registers / stack lines: give each its own line *)
  let scalar_tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace scalar_tbl s !next;
      next := !next + 64)
    (p.Ir.local_scalars @ p.Ir.scalar_params);
  {
    base_of =
      (fun name ->
        match Hashtbl.find_opt tbl name with
        | Some (b, _) -> b
        | None -> (
            match Hashtbl.find_opt scalar_tbl name with
            | Some b -> b
            | None -> raise (Unsupported_trace ("unknown container " ^ name))));
    dims_of =
      (fun name ->
        match Hashtbl.find_opt tbl name with
        | Some (_, d) -> d
        | None -> [||]);
  }

(* ------------------------------------------------------------------ *)
(* Compiled computations                                                *)

type compiled_access = {
  addr_fn : int array -> int;  (** byte address *)
  write : bool;
  strided_in_simd : bool;  (** non-unit, non-zero stride w.r.t. SIMD iter *)
  is_register : bool;
      (** scalar temporaries live in registers: no memory traffic unless
          spilled by the register-pressure model *)
}

type compiled_comp = {
  accesses : compiled_access list;
  comp_flops : float;  (** scalar-equivalent flops per execution *)
  flop_class : [ `Scalar | `Vector | `Unrolled ];
  is_atomic : bool;
  atomic_contended : bool;
      (** the destination cell is shared across parallel iterations *)
}

let vexpr_flops (e : Ir.vexpr) : float =
  let rec go = function
    | Ir.Vfloat _ | Ir.Vint _ | Ir.Vscalar _ | Ir.Vread _ -> 0.0
    | Ir.Vbin (_, a, b) -> 1.0 +. go a +. go b
    | Ir.Vneg a -> 1.0 +. go a
    | Ir.Vcall (f, args) ->
        Config.intrinsic_flops f +. Util.sum_byf go args
    | Ir.Vselect (p, a, b) -> go_pred p +. go a +. go b
  and go_pred = function
    | Ir.Pcmp (_, a, b) -> 1.0 +. go a +. go b
    | Ir.Pand (a, b) | Ir.Por (a, b) -> 1.0 +. go_pred a +. go_pred b
    | Ir.Pnot a -> 1.0 +. go_pred a
  in
  go e

(** Flops of one execution of a computation: its right-hand side plus its
    guard predicate, before the walkers clamp it to at least one. *)
let comp_flops (c : Ir.comp) : float =
  let rec gp = function
    | Ir.Pcmp (_, a, b) -> 1.0 +. vexpr_flops a +. vexpr_flops b
    | Ir.Pand (a, b) | Ir.Por (a, b) -> 1.0 +. gp a +. gp b
    | Ir.Pnot a -> 1.0 +. gp a
  in
  vexpr_flops c.Ir.rhs
  +. (match c.Ir.guard with Some g -> gp g | None -> 0.0)

(** Stride (in elements) of an access w.r.t. an iterator, from affine
    subscripts; [None] if non-affine. *)
let simd_stride (dims : int array) (indices : Expr.t list) (iter : string) :
    int option =
  let module Affine = Daisy_poly.Affine in
  let rec go i = function
    | [] -> Some 0
    | idx :: rest -> (
        match Affine.of_expr idx with
        | None -> None
        | Some aff -> (
            let c = Affine.coeff iter aff in
            let dim_stride =
              let s = ref 1 in
              for k = i + 1 to Array.length dims - 1 do
                s := !s * dims.(k)
              done;
              !s
            in
            match go (i + 1) rest with
            | None -> None
            | Some acc -> Some (acc + (c * dim_stride))))
  in
  go 0 indices

(* ------------------------------------------------------------------ *)
(* Register pressure                                                     *)

(** Architectural registers available to the spill model. *)
let n_registers = 16

(** Register-pressure model: an innermost loop whose live values (distinct
    memory elements + scalar temporaries, multiplied by the unroll factor)
    exceed the architectural registers spills the excess to the stack —
    extra L1 loads and stores every iteration. This is what makes the big
    inlined-and-unrolled CLOUDSC bodies expensive (paper Table 1) and what
    maximal fission repairs. Shared by the tree walker and the trace
    lowering ([Bytecode]) so their spill counts cannot drift. *)
let spill_estimate (l : Ir.loop) : int =
  let comps = Ir.comps_in l.Ir.body in
  let mem =
    Util.dedup ~eq:( = )
      (List.concat_map
         (fun c -> Ir.comp_array_reads c @ Ir.comp_array_writes c)
         comps)
  in
  let scalars =
    Util.dedup ~eq:String.equal
      (List.concat_map
         (fun c -> Ir.comp_scalar_reads c @ Ir.comp_scalar_writes c)
         comps)
  in
  let unroll = max 1 l.Ir.attrs.Ir.unroll in
  (* liveness-based estimate: named values (memory elements + scalar
     temporaries) plus expression-tree temporaries (one per ~6 flops),
     overlapped live ranges (~60% live at once), replicated by
     unrolling *)
  let flops = Util.sum_byf (fun c -> vexpr_flops c.Ir.rhs) comps in
  let named = List.length mem + List.length scalars in
  let live =
    int_of_float
      (0.6 *. (float_of_int named +. (flops /. 6.0)) *. float_of_int unroll)
  in
  max 0 (live - n_registers)

(* ------------------------------------------------------------------ *)
(* The walker                                                           *)

type walk_ctx = {
  config : Config.t;
  cache : Cache.t;
  layout : layout;
  param_env : int Util.SMap.t;
  sample_outer : int;  (** 0 = no sampling *)
  budget : Budget.t;  (** ticked once per walked loop iteration *)
}

let compile_access cctx (layout : layout) ~write ~(simd_iter : string option)
    ({ Ir.array; indices } : Ir.access) : compiled_access =
  let base = layout.base_of array in
  let dims = layout.dims_of array in
  if Array.length dims = 0 then
    (* scalar container: register-allocated *)
    { addr_fn = (fun _ -> base); write; strided_in_simd = false;
      is_register = true }
  else begin
    let index_fns = List.map (compile_expr cctx) indices in
    let dims_l = Array.to_list dims in
    let addr_fn iters =
      let rec go fns ds acc =
        match (fns, ds) with
        | [], [] -> acc
        | f :: fns', d :: ds' -> go fns' ds' ((acc * d) + f iters)
        | _ -> raise (Unsupported_trace "rank mismatch")
      in
      base + (8 * go index_fns dims_l 0)
    in
    let strided =
      match simd_iter with
      | None -> false
      | Some it -> (
          match simd_stride dims indices it with
          | Some s -> s <> 0 && s <> 1
          | None -> true)
    in
    { addr_fn; write; strided_in_simd = strided; is_register = false }
  end

(** Compile a computation given its static context. *)
let compile_comp cctx (wctx : walk_ctx) ~(simd_iter : string option)
    ~(unrolled : bool) ~(atomic_region : bool)
    ~(parallel_iter : string option) (c : Ir.comp) : compiled_comp =
  (* duplicate reads of the same element stay in a register (CSE) *)
  let reads =
    Util.dedup ~eq:( = )
      (Ir.comp_array_reads c
      @ List.map
          (fun s -> { Ir.array = s; indices = [] })
          (Ir.comp_scalar_reads c))
  in
  let writes =
    match c.Ir.dest with
    | Ir.Darray a -> [ a ]
    | Ir.Dscalar s -> [ { Ir.array = s; indices = [] } ]
  in
  let accesses =
    List.map (compile_access cctx wctx.layout ~write:false ~simd_iter) reads
    @ List.map (compile_access cctx wctx.layout ~write:true ~simd_iter) writes
  in
  let flops = comp_flops c in
  let vectorizable =
    simd_iter <> None
    && List.for_all (fun a -> not a.strided_in_simd) accesses
  in
  let atomic_contended =
    atomic_region
    &&
    match (parallel_iter, c.Ir.dest) with
    | Some it, Ir.Darray a ->
        (* contended iff the destination does not vary with the parallel
           iterator *)
        List.for_all
          (fun idx ->
            match Daisy_poly.Affine.of_expr idx with
            | Some aff -> Daisy_poly.Affine.coeff it aff = 0
            | None -> false)
          a.Ir.indices
    | Some _, Ir.Dscalar _ -> true
    | None, _ -> true
  in
  {
    accesses;
    comp_flops = Float.max 1.0 flops;
    flop_class =
      (if vectorizable then `Vector else if unrolled then `Unrolled else `Scalar);
    is_atomic = atomic_region;
    atomic_contended;
  }

(** Trace one top-level node; returns its counters. *)
let trace_node (wctx : walk_ctx) (node : Ir.node) : counters =
  let counters = zero_counters () in
  let l1_before = Cache.copy_stats (Cache.l1_stats wctx.cache) in
  let l2_before = Cache.copy_stats (Cache.l2_stats wctx.cache) in
  (* assign iterator slots by collecting loop iterators in the subtree *)
  let iter_names =
    Ir.loops_in [ node ] |> List.map (fun (l : Ir.loop) -> l.Ir.iter)
    |> Util.dedup ~eq:String.equal
  in
  let slot_tbl = Hashtbl.create 8 in
  List.iteri (fun i n -> Hashtbl.replace slot_tbl n i) iter_names;
  let cctx =
    {
      slot_of = (fun n -> Hashtbl.find_opt slot_tbl n);
      param_env = wctx.param_env;
    }
  in
  let iters = Array.make (max 1 (List.length iter_names)) 0 in
  let gather_mult = float_of_int wctx.config.Config.vector_width -. 1.0 in
  (* recursive walk; compiled computations are built lazily per static
     context and memoized by cid *)
  let comp_cache : (int, compiled_comp) Hashtbl.t = Hashtbl.create 64 in
  let spill_info : (int, int * int) Hashtbl.t = Hashtbl.create 8 in
  let stack_base = ref 1024 in
  let spills_of (l : Ir.loop) : int * int =
    match Hashtbl.find_opt spill_info l.Ir.lid with
    | Some s -> s
    | None ->
        let spills = spill_estimate l in
        let base = !stack_base in
        if spills > 0 then stack_base := !stack_base + (spills * 8);
        Hashtbl.replace spill_info l.Ir.lid (spills, base);
        (spills, base)
  in
  let scale_factor = ref 1.0 in
  let rec walk nodes ~depth ~simd_iter ~unrolled ~atomic_region ~in_parallel
      ~parallel_iter =
    List.iter
      (fun n ->
        match n with
        | Ir.Ncomp c ->
            let cc =
              match Hashtbl.find_opt comp_cache c.Ir.cid with
              | Some cc -> cc
              | None ->
                  let cc =
                    compile_comp cctx wctx ~simd_iter ~unrolled ~atomic_region
                      ~parallel_iter c
                  in
                  Hashtbl.replace comp_cache c.Ir.cid cc;
                  cc
            in
            let port_cost =
              (* a vector load/store moves vw elements per port operation *)
              if cc.flop_class = `Vector then
                1.0 /. float_of_int wctx.config.Config.vector_width
              else 1.0
            in
            List.iter
              (fun a ->
                if not a.is_register then begin
                  Cache.access wctx.cache ~addr:(a.addr_fn iters) ~write:a.write;
                  if a.write then counters.stores <- counters.stores +. port_cost
                  else counters.loads <- counters.loads +. port_cost;
                  if a.strided_in_simd && simd_iter <> None then
                    counters.gather_extra <- counters.gather_extra +. gather_mult
                end)
              cc.accesses;
            (match cc.flop_class with
            | `Vector -> counters.vec_flops <- counters.vec_flops +. cc.comp_flops
            | `Unrolled ->
                counters.unrolled_flops <- counters.unrolled_flops +. cc.comp_flops
            | `Scalar -> counters.flops <- counters.flops +. cc.comp_flops);
            if cc.is_atomic then
              if cc.atomic_contended then
                counters.atomics <- counters.atomics +. 1.0
              else counters.atomics_private <- counters.atomics_private +. 1.0
        | Ir.Ncall k ->
            let dims =
              List.map
                (fun d ->
                  (* dims may reference iterators of enclosing loops *)
                  (compile_expr cctx d) iters)
                k.Ir.dims
            in
            counters.libcall_flops <-
              counters.libcall_flops
              +. (try Daisy_blas.Kernels.flops k.Ir.kernel dims with _ -> 0.0);
            counters.libcall_bytes <-
              counters.libcall_bytes
              +. (try Daisy_blas.Kernels.min_bytes k.Ir.kernel dims with _ -> 0.0)
        | Ir.Nloop l ->
            let lo = (compile_expr cctx l.Ir.lo) iters in
            let hi = (compile_expr cctx l.Ir.hi) iters in
            let trip =
              if l.Ir.step > 0 then max 0 (((hi - lo) / l.Ir.step) + 1)
              else max 0 (((lo - hi) / -l.Ir.step) + 1)
            in
            let starts_parallel =
              l.Ir.attrs.Ir.parallel && not in_parallel
            in
            if starts_parallel then begin
              counters.has_parallel <- true;
              counters.parallel_regions <- counters.parallel_regions +. 1.0;
              counters.par_trip <- Float.max counters.par_trip (float_of_int trip)
            end;
            let simd_iter' =
              if l.Ir.attrs.Ir.vectorized then Some l.Ir.iter else simd_iter
            in
            let unrolled' = unrolled || l.Ir.attrs.Ir.unroll > 1 in
            let atomic' = atomic_region || (starts_parallel && l.Ir.attrs.Ir.atomic) in
            let parallel_iter' =
              if starts_parallel then Some l.Ir.iter else parallel_iter
            in
            let slot = Hashtbl.find slot_tbl l.Ir.iter in
            let spills, spill_base =
              if Ir.loops_in l.Ir.body = [] then spills_of l else (0, 0)
            in
            (* sampling only at the outermost level of the top-level nest *)
            let sample =
              if depth = 0 && wctx.sample_outer > 0 && trip > wctx.sample_outer
              then wctx.sample_outer
              else trip
            in
            let i = ref lo in
            for k = 0 to sample - 1 do
              ignore k;
              Budget.tick wctx.budget;
              iters.(slot) <- !i;
              walk l.Ir.body ~depth:(depth + 1) ~simd_iter:simd_iter'
                ~unrolled:unrolled' ~atomic_region:atomic'
                ~in_parallel:(in_parallel || starts_parallel)
                ~parallel_iter:parallel_iter';
              for sp = 0 to spills - 1 do
                let addr = spill_base + (sp * 8) in
                Cache.access wctx.cache ~addr ~write:true;
                Cache.access wctx.cache ~addr ~write:false
              done;
              if spills > 0 then begin
                counters.loads <- counters.loads +. float_of_int spills;
                counters.stores <- counters.stores +. float_of_int spills;
                counters.spill_ops <- counters.spill_ops +. float_of_int (2 * spills)
              end;
              i := !i + l.Ir.step
            done;
            if sample < trip then
              scale_factor := float_of_int trip /. float_of_int sample)
      nodes
  in
  walk [ node ] ~depth:0 ~simd_iter:None ~unrolled:false ~atomic_region:false
    ~in_parallel:false ~parallel_iter:None;
  counters.l1 <- Cache.sub_stats (Cache.l1_stats wctx.cache) l1_before;
  counters.l2 <- Cache.sub_stats (Cache.l2_stats wctx.cache) l2_before;
  if !scale_factor > 1.0 then begin
    let regions = counters.parallel_regions in
    scale_counters counters !scale_factor;
    (* a parallel region at the sampled (outermost) level forks once, not
       once per sampled iteration *)
    if regions > 0.0 then counters.parallel_regions <- regions
  end;
  counters

(** [run config p ~sizes ~sample_outer] — trace the whole program; returns
    the per-top-level-node counters in order. *)
let run (config : Config.t) (p : Ir.program) ~(sizes : (string * int) list)
    ?(sample_outer = 0) ?(budget = Budget.unlimited ()) () : counters list =
  let param_env =
    List.fold_left (fun m (k, v) -> Util.SMap.add k v m) Util.SMap.empty sizes
  in
  let layout = layout_of p ~sizes:param_env in
  let cache = Cache.create config in
  let wctx = { config; cache; layout; param_env; sample_outer; budget } in
  List.map (trace_node wctx) p.Ir.body
