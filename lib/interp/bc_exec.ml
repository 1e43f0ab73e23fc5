(** Bytecode execution engine for loopir: the semantic backend of the
    flat bytecode produced by {!Daisy_lir.Bytecode.lower}.

    Rather than a closure tree (one heap object and one indirect call per
    IR node), this engine walks a contiguous [int array] with a
    threaded-dispatch loop: a global table of per-opcode handlers,
    each tail-calling into the next instruction — no [match] per opcode,
    no pointer chasing between body nodes. Loop iterators and evaluated
    upper bounds live in one integer register file, scalars in a float
    register file with bound flags, expression temporaries on a
    preallocated float stack sized at lowering time.

    Fused innermost loops ([FUSE] superinstructions) execute the whole
    trip count out of one closure: after a side-effect-free safety
    precheck (all operands affine, every subscript in bounds for the full
    trip, every scalar bound), the whole trip's fuel is spent upfront and
    the body runs with per-site linear index increments instead of
    re-evaluated subscripts. The RPN body is re-parsed into one
    expression tree per store and compiled to direct-indexed closures,
    with fully unrolled loops for the dominant fma / scaled-fma /
    load-op-store statements (including the register-accumulator form
    gemm and atax reduce to, guarded by an alias check). Any precheck
    shortfall falls back to the generic dispatch loop over the retained
    body — bit-identical behavior, including mid-loop errors.

    Determinism contract: identical to {!Interp.run} (the tree oracle) —
    same float operations in the same order, same bounds checks and error
    messages, same lazily-raised errors, same total fuel per loop.
    [Budget.Exhausted] surfaces at loop back-edges, except that a fused
    fast-path loop spends its whole trip at the loop head — still within
    one innermost trip of the exact engines. Differential-tested in
    [test/test_bytecode.ml].

    Fault points: ["bc_compile"] fires inside lowering, ["bc_run"] before
    execution. *)

open Daisy_support
open Istate
module Ir = Daisy_loopir.Ir
module B = Daisy_lir.Bytecode

type vm = {
  code : int array;
  iregs : int array;
  fstk : float array;  (** expression stack *)
  mutable sp : int;
  mutable flag : bool;  (** set by FCMP/NOTF, consumed by JF/JT *)
  svals : float array;
  sbound : bool array;
  snames : string array;
  names : string array;
  fconsts : float array;
  ixfs : (unit -> int) array;  (** one evaluator per ix id *)
  readers : (unit -> float) array;  (** one per site id *)
  writers : (float -> unit) array;
  callfs : (vm -> unit) array;  (** one per library call *)
  fusefs : (unit -> int) array;  (** one per fuse; returns the next pc *)
  budget : Budget.t;
}

(* ------------------------------------------------------------------ *)
(* Threaded dispatch                                                    *)

let table : (vm -> int -> unit) array =
  Array.make B.n_ops (fun _ _ -> assert false)

let step vm pc =
  (Array.unsafe_get table (Array.unsafe_get vm.code pc)) vm pc

let () =
  let open B in
  table.(op_halt) <- (fun _ _ -> ());
  table.(op_ret) <- (fun _ _ -> ());
  table.(op_loop) <-
    (fun vm pc ->
      let code = vm.code in
      let lo = (Array.unsafe_get vm.ixfs code.(pc + 3)) () in
      let hi = (Array.unsafe_get vm.ixfs code.(pc + 4)) () in
      vm.iregs.(code.(pc + 2)) <- hi;
      let st = code.(pc + 5) in
      if if st > 0 then lo <= hi else lo >= hi then begin
        Budget.tick vm.budget;
        vm.iregs.(code.(pc + 1)) <- lo;
        step vm (pc + 7)
      end
      else step vm code.(pc + 6));
  table.(op_loopbk) <-
    (fun vm pc ->
      let code = vm.code in
      let ireg = code.(pc + 1) in
      let st = code.(pc + 3) in
      let i = vm.iregs.(ireg) + st in
      let hi = vm.iregs.(code.(pc + 2)) in
      if if st > 0 then i <= hi else i >= hi then begin
        Budget.tick vm.budget;
        vm.iregs.(ireg) <- i;
        step vm code.(pc + 4)
      end
      else step vm (pc + 5));
  table.(op_fconst) <-
    (fun vm pc ->
      Array.unsafe_set vm.fstk vm.sp
        (Array.unsafe_get vm.fconsts vm.code.(pc + 1));
      vm.sp <- vm.sp + 1;
      step vm (pc + 2));
  table.(op_fscalar) <-
    (fun vm pc ->
      let slot = vm.code.(pc + 1) in
      if Array.unsafe_get vm.sbound slot then begin
        Array.unsafe_set vm.fstk vm.sp (Array.unsafe_get vm.svals slot);
        vm.sp <- vm.sp + 1;
        step vm (pc + 2)
      end
      else runtime_error "unbound scalar %s" vm.snames.(slot));
  table.(op_fload) <-
    (fun vm pc ->
      Array.unsafe_set vm.fstk vm.sp
        ((Array.unsafe_get vm.readers vm.code.(pc + 1)) ());
      vm.sp <- vm.sp + 1;
      step vm (pc + 2));
  table.(op_fstore) <-
    (fun vm pc ->
      (* pop the value first, then evaluate the destination subscripts
         (the oracle computes the rhs before the destination indices) *)
      let sp = vm.sp - 1 in
      vm.sp <- sp;
      (Array.unsafe_get vm.writers vm.code.(pc + 1))
        (Array.unsafe_get vm.fstk sp);
      step vm (pc + 2));
  table.(op_fstore_s) <-
    (fun vm pc ->
      let slot = vm.code.(pc + 1) in
      let sp = vm.sp - 1 in
      vm.sp <- sp;
      Array.unsafe_set vm.svals slot (Array.unsafe_get vm.fstk sp);
      Array.unsafe_set vm.sbound slot true;
      step vm (pc + 2));
  table.(op_fadd) <-
    (fun vm pc ->
      let sp = vm.sp in
      Array.unsafe_set vm.fstk (sp - 2)
        (Array.unsafe_get vm.fstk (sp - 2) +. Array.unsafe_get vm.fstk (sp - 1));
      vm.sp <- sp - 1;
      step vm (pc + 1));
  table.(op_fsub) <-
    (fun vm pc ->
      let sp = vm.sp in
      Array.unsafe_set vm.fstk (sp - 2)
        (Array.unsafe_get vm.fstk (sp - 2) -. Array.unsafe_get vm.fstk (sp - 1));
      vm.sp <- sp - 1;
      step vm (pc + 1));
  table.(op_fmul) <-
    (fun vm pc ->
      let sp = vm.sp in
      Array.unsafe_set vm.fstk (sp - 2)
        (Array.unsafe_get vm.fstk (sp - 2) *. Array.unsafe_get vm.fstk (sp - 1));
      vm.sp <- sp - 1;
      step vm (pc + 1));
  table.(op_fdiv) <-
    (fun vm pc ->
      let sp = vm.sp in
      Array.unsafe_set vm.fstk (sp - 2)
        (Array.unsafe_get vm.fstk (sp - 2) /. Array.unsafe_get vm.fstk (sp - 1));
      vm.sp <- sp - 1;
      step vm (pc + 1));
  table.(op_fneg) <-
    (fun vm pc ->
      let sp = vm.sp in
      Array.unsafe_set vm.fstk (sp - 1) (-.Array.unsafe_get vm.fstk (sp - 1));
      step vm (pc + 1));
  table.(op_fint) <-
    (fun vm pc ->
      Array.unsafe_set vm.fstk vm.sp
        (float_of_int ((Array.unsafe_get vm.ixfs vm.code.(pc + 1)) ()));
      vm.sp <- vm.sp + 1;
      step vm (pc + 2));
  table.(op_fintr1) <-
    (fun vm pc ->
      let sp = vm.sp in
      let x = Array.unsafe_get vm.fstk (sp - 1) in
      let k = vm.code.(pc + 1) in
      Array.unsafe_set vm.fstk (sp - 1)
        (if k = 0 then sqrt x
         else if k = 1 then exp x
         else if k = 2 then log x
         else if k = 3 then Float.abs x
         else if k = 4 then floor x
         else if k = 5 then ceil x
         else if k = 6 then sin x
         else if k = 7 then cos x
         else tanh x);
      step vm (pc + 2));
  table.(op_fintr2) <-
    (fun vm pc ->
      let sp = vm.sp in
      let x = Array.unsafe_get vm.fstk (sp - 2) in
      let y = Array.unsafe_get vm.fstk (sp - 1) in
      let k = vm.code.(pc + 1) in
      Array.unsafe_set vm.fstk (sp - 2)
        (if k = 0 then Float.pow x y
         else if k = 1 then Float.min x y
         else Float.max x y);
      vm.sp <- sp - 1;
      step vm (pc + 2));
  table.(op_fbadcall) <-
    (fun vm pc ->
      (* arguments are already evaluated, like the oracle *)
      let nargs = vm.code.(pc + 2) in
      vm.sp <- vm.sp - nargs;
      runtime_error "unknown intrinsic %s/%d" vm.names.(vm.code.(pc + 1)) nargs);
  table.(op_fcmp) <-
    (fun vm pc ->
      let sp = vm.sp in
      let x = Array.unsafe_get vm.fstk (sp - 2) in
      let y = Array.unsafe_get vm.fstk (sp - 1) in
      vm.sp <- sp - 2;
      let k = vm.code.(pc + 1) in
      vm.flag <-
        (if k = 0 then x < y
         else if k = 1 then x <= y
         else if k = 2 then x > y
         else if k = 3 then x >= y
         else if k = 4 then x = y
         else x <> y);
      step vm (pc + 2));
  table.(op_jf) <-
    (fun vm pc -> step vm (if vm.flag then pc + 2 else vm.code.(pc + 1)));
  table.(op_jt) <-
    (fun vm pc -> step vm (if vm.flag then vm.code.(pc + 1) else pc + 2));
  table.(op_jmp) <- (fun vm pc -> step vm vm.code.(pc + 1));
  table.(op_notf) <-
    (fun vm pc ->
      vm.flag <- not vm.flag;
      step vm (pc + 1));
  table.(op_callk) <-
    (fun vm pc ->
      (Array.unsafe_get vm.callfs vm.code.(pc + 1)) vm;
      step vm (pc + 2));
  table.(op_fuse) <-
    (fun vm pc -> step vm ((Array.unsafe_get vm.fusefs vm.code.(pc + 1)) ()))

(* ------------------------------------------------------------------ *)
(* Binding: sites                                                       *)

(* Readers and writers replicate the tree oracle's array accesses
   exactly: unknown arrays evaluate all subscripts before raising, all
   subscripts are evaluated before any bounds check, bounds are checked
   dimension by dimension with identical messages, rank-1/2 fast paths,
   and {!Istate.linear_index} for everything else. *)

let bind_reader (bc : B.t) (st : state) (ixfs : (unit -> int) array)
    (s : B.site) : unit -> float =
  let fns = Array.map (fun id -> ixfs.(id)) s.B.s_ixs in
  let name = bc.B.names.(s.B.s_array) in
  match Hashtbl.find_opt st.arrays name with
  | None ->
      fun () ->
        Array.iter (fun f -> ignore (f ())) fns;
        runtime_error "unknown array %s" name
  | Some t ->
      let dims = t.dims and data = t.data in
      if Array.length fns = 1 && Array.length dims = 1 then begin
        let f0 = fns.(0) and d0 = dims.(0) in
        fun () ->
          let i0 = f0 () in
          if i0 < 0 || i0 >= d0 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i0
              d0 0;
          Array.unsafe_get data i0
      end
      else if Array.length fns = 2 && Array.length dims = 2 then begin
        let f0 = fns.(0) and f1 = fns.(1) in
        let d0 = dims.(0) and d1 = dims.(1) in
        fun () ->
          let i0 = f0 () in
          let i1 = f1 () in
          if i0 < 0 || i0 >= d0 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i0
              d0 0;
          if i1 < 0 || i1 >= d1 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i1
              d1 1;
          Array.unsafe_get data ((i0 * d1) + i1)
      end
      else begin
        let n = Array.length fns in
        let scratch = Array.make n 0 in
        fun () ->
          for k = 0 to n - 1 do
            scratch.(k) <- fns.(k) ()
          done;
          data.(linear_index dims scratch)
      end

let bind_writer (bc : B.t) (st : state) (ixfs : (unit -> int) array)
    (s : B.site) : float -> unit =
  let fns = Array.map (fun id -> ixfs.(id)) s.B.s_ixs in
  let name = bc.B.names.(s.B.s_array) in
  match Hashtbl.find_opt st.arrays name with
  | None ->
      fun _ ->
        Array.iter (fun f -> ignore (f ())) fns;
        runtime_error "unknown array %s" name
  | Some t ->
      let dims = t.dims and data = t.data in
      if Array.length fns = 1 && Array.length dims = 1 then begin
        let f0 = fns.(0) and d0 = dims.(0) in
        fun v ->
          let i0 = f0 () in
          if i0 < 0 || i0 >= d0 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i0
              d0 0;
          Array.unsafe_set data i0 v
      end
      else if Array.length fns = 2 && Array.length dims = 2 then begin
        let f0 = fns.(0) and f1 = fns.(1) in
        let d0 = dims.(0) and d1 = dims.(1) in
        fun v ->
          let i0 = f0 () in
          let i1 = f1 () in
          if i0 < 0 || i0 >= d0 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i0
              d0 0;
          if i1 < 0 || i1 >= d1 then
            runtime_error "index %d out of bounds [0, %d) in dimension %d" i1
              d1 1;
          Array.unsafe_set data ((i0 * d1) + i1) v
      end
      else begin
        let n = Array.length fns in
        let scratch = Array.make n 0 in
        fun v ->
          for k = 0 to n - 1 do
            scratch.(k) <- fns.(k) ()
          done;
          data.(linear_index dims scratch) <- v
      end

(* ------------------------------------------------------------------ *)
(* Binding: library calls                                               *)

let bind_call (bc : B.t) (st : state) (ixfs : (unit -> int) array)
    (ck : B.callk) : vm -> unit =
  let dimfs = Array.map (fun id -> ixfs.(id)) ck.B.ck_dims in
  let eval_dims () = Array.iter (fun f -> ignore (f ())) dimfs in
  let alpha vm =
    if ck.B.ck_alpha < 0 then 1.0
    else begin
      let sp0 = vm.sp in
      step vm ck.B.ck_alpha;
      vm.sp <- sp0;
      vm.fstk.(sp0)
    end
  in
  match
    Array.find_opt
      (fun nid -> not (Hashtbl.mem st.arrays bc.B.names.(nid)))
      ck.B.ck_args
  with
  | Some nid ->
      let name = bc.B.names.(nid) in
      fun _ ->
        eval_dims ();
        runtime_error "unknown array %s" name
  | None ->
      let data i = (Hashtbl.find st.arrays bc.B.names.(ck.B.ck_args.(i))).data in
      let kind = ck.B.ck_kind in
      if kind = 0 then begin
        let dc = data 0 and da = data 1 and db = data 2 in
        let fm = dimfs.(0) and fn = dimfs.(1) and fk = dimfs.(2) in
        fun vm ->
          let m = fm () in
          let n = fn () in
          let kk = fk () in
          let a = alpha vm in
          Daisy_blas.Kernels.gemm ~m ~n ~k:kk ~alpha:a da db dc
      end
      else if kind = 1 || kind = 2 then begin
        let dy = data 0 and da = data 1 and dx = data 2 in
        let fm = dimfs.(0) and fn = dimfs.(1) in
        let f = if kind = 1 then Daisy_blas.Kernels.gemv else Daisy_blas.Kernels.gemvt in
        fun vm ->
          let m = fm () in
          let n = fn () in
          let a = alpha vm in
          f ~m ~n ~alpha:a da dx dy
      end
      else if kind = 3 then begin
        let dc = data 0 and da = data 1 in
        let fn = dimfs.(0) and fm = dimfs.(1) in
        fun vm ->
          let n = fn () in
          let m = fm () in
          let a = alpha vm in
          Daisy_blas.Kernels.syrk ~n ~m ~alpha:a da dc
      end
      else if kind = 4 then begin
        let dc = data 0 and da = data 1 and db = data 2 in
        let fn = dimfs.(0) and fm = dimfs.(1) in
        fun vm ->
          let n = fn () in
          let m = fm () in
          let a = alpha vm in
          Daisy_blas.Kernels.syr2k ~n ~m ~alpha:a da db dc
      end
      else begin
        let kern = bc.B.names.(ck.B.ck_kernel) in
        let na = ck.B.ck_na and nd = ck.B.ck_nd in
        fun _ ->
          eval_dims ();
          runtime_error "unsupported library call %s/%d arrays/%d dims" kern na
            nd
      end

(* ------------------------------------------------------------------ *)
(* Binding: fused loops                                                 *)

(* Per-op compiled form of a fused body. Memory sites carry a current
   linear index advanced by a per-iteration delta instead of re-evaluated
   subscripts; the precheck below proves the rewrite unobservable. *)
type fop =
  | Fconst of float
  | Fscalar of int
  | Fload of int  (** msite index *)
  | Fstore of int
  | Farith of int  (** opcode *)
  | Fintr1 of int
  | Fintr2 of int

(* A fused body re-parsed from its RPN stream into statement trees
   (one per store), compiled once at bind time. Inside an eligible fused
   loop every leaf is error-free and side-effect-free, so tree evaluation
   order is unobservable and only the float operations themselves (kept
   in IR order) matter. *)
type ftree =
  | Tconst of float
  | Tscalar of int
  | Tload of int  (** msite index *)
  | Tbin of int * ftree * ftree  (** opcode *)
  | Tneg of ftree
  | Tintr1 of int * ftree
  | Tintr2 of int * ftree * ftree

type msite = {
  m_data : float array;
  m_dims : int array;
  m_ixs : (unit -> int) array;  (** subscript evaluators, for i = lo *)
  m_coeffs : int array;  (** per-dim coefficient of the fused iterator *)
}

(* coefficient of register [ireg] in an affine-or-simpler ix *)
let ireg_coeff (bc : B.t) ~ireg (ix : B.ix) : int =
  match ix with
  | B.Ix_const _ -> 0
  | B.Ix_reg r -> if r = ireg then 1 else 0
  | B.Ix_aff (off, nt) ->
      let c = ref 0 in
      for k = 0 to nt - 1 do
        if bc.B.pool.(off + 1 + (2 * k)) = ireg then
          c := !c + bc.B.pool.(off + 2 + (2 * k))
      done;
      !c
  | B.Ix_code _ -> assert false

let bind_fuse (bc : B.t) (st : state) (ixfs : (unit -> int) array)
    ~(svals : float array) ~(sbound : bool array) ~(iregs : int array)
    ~(budget : Budget.t) (fu : B.fuse) : unit -> int =
  let ireg = fu.B.fu_ireg and hireg = fu.B.fu_hireg in
  let stp = fu.B.fu_step in
  let flo = ixfs.(fu.B.fu_lo) and fhi = ixfs.(fu.B.fu_hi) in
  let body_pc = fu.B.fu_body_pc and end_pc = fu.B.fu_end_pc in
  (* --- bind-time eligibility + site table --- *)
  let msites = ref [] in
  let nmsites = ref 0 in
  let scalar_slots = ref [] in
  let ok = ref true in
  let plan =
    Array.map
      (fun (o, operand) ->
        if o = B.op_fload || o = B.op_fstore then begin
          let s = bc.B.sites.(operand) in
          (match Hashtbl.find_opt st.arrays bc.B.names.(s.B.s_array) with
          | None -> ok := false
          | Some t ->
              let rank = Array.length t.dims in
              let n = Array.length s.B.s_ixs in
              if n <> rank || rank < 1 then ok := false
              else if
                Array.exists
                  (fun id ->
                    match bc.B.ixs.(id) with
                    | B.Ix_code _ -> true
                    | _ -> false)
                  s.B.s_ixs
              then ok := false
              else
                msites :=
                  {
                    m_data = t.data;
                    m_dims = t.dims;
                    m_ixs = Array.map (fun id -> ixfs.(id)) s.B.s_ixs;
                    m_coeffs =
                      Array.map
                        (fun id -> ireg_coeff bc ~ireg bc.B.ixs.(id))
                        s.B.s_ixs;
                  }
                  :: !msites);
          let idx = !nmsites in
          incr nmsites;
          if o = B.op_fload then Fload idx else Fstore idx
        end
        else if o = B.op_fconst then Fconst bc.B.fpool.(operand)
        else if o = B.op_fscalar then begin
          scalar_slots := operand :: !scalar_slots;
          Fscalar operand
        end
        else if o = B.op_fintr1 then Fintr1 operand
        else if o = B.op_fintr2 then Fintr2 operand
        else Farith o)
      fu.B.fu_ops
  in
  let msites = Array.of_list (List.rev !msites) in
  let scalar_slots = Array.of_list !scalar_slots in
  let ok = !ok in
  let slow lo =
    Budget.tick budget;
    iregs.(ireg) <- lo;
    body_pc
  in
  if not ok then
    fun () ->
      let lo = flo () in
      let hi = fhi () in
      iregs.(hireg) <- hi;
      if if stp > 0 then lo <= hi else lo >= hi then slow lo else end_pc
  else begin
    (* per-site start index and delta, recomputed at each execution *)
    let n_ms = Array.length msites in
    let starts = Array.make (max 1 n_ms) 0 in
    let deltas = Array.make (max 1 n_ms) 0 in
    (* safe trip count: iterations t in [0, safe) have every subscript of
       every site in bounds (per-dimension linear bound arithmetic) *)
    let safe_trips trip =
      let safe = ref trip in
      for m = 0 to n_ms - 1 do
        let ms = msites.(m) in
        let rank = Array.length ms.m_dims in
        let lin = ref 0 and dl = ref 0 in
        for d = 0 to rank - 1 do
          let a = ms.m_ixs.(d) () in
          let b = ms.m_coeffs.(d) * stp in
          let s =
            if a < 0 || a >= ms.m_dims.(d) then 0
            else if b = 0 then trip
            else if b > 0 then ((ms.m_dims.(d) - 1 - a) / b) + 1
            else (a / -b) + 1
          in
          if s < !safe then safe := s;
          lin := (!lin * ms.m_dims.(d)) + a;
          dl := (!dl * ms.m_dims.(d)) + b
        done;
        starts.(m) <- !lin;
        deltas.(m) <- !dl
      done;
      !safe
    in
    (* --- statement trees: the RPN body re-parsed, one tree per store --- *)
    let stmts : (int * ftree) list =
      let stack = ref [] in
      let out = ref [] in
      let pop () =
        match !stack with
        | a :: r ->
            stack := r;
            a
        | [] -> assert false
      in
      Array.iter
        (fun f ->
          match f with
          | Fconst c -> stack := Tconst c :: !stack
          | Fscalar s -> stack := Tscalar s :: !stack
          | Fload m -> stack := Tload m :: !stack
          | Fstore m -> out := (m, pop ()) :: !out
          | Farith o ->
              if o = B.op_fneg then begin
                let a = pop () in
                stack := Tneg a :: !stack
              end
              else
                let b = pop () in
                let a = pop () in
                stack := Tbin (o, a, b) :: !stack
          | Fintr1 k ->
              let a = pop () in
              stack := Tintr1 (k, a) :: !stack
          | Fintr2 k ->
              let b = pop () in
              let a = pop () in
              stack := Tintr2 (k, a, b) :: !stack)
        plan;
      assert (!stack = []);
      List.rev !out
    in
    let is_store = Array.make (max 1 n_ms) false in
    Array.iter (function Fstore m -> is_store.(m) <- true | _ -> ()) plan;
    (* Deferring a reduction's store into a register is only exact when no
       other load can observe the store cell mid-loop: the feed load and
       the store must share one fixed cell, and every other load on the
       same array must either stand still elsewhere or walk a stride that
       misses the cell for the whole trip. Checked per execution — starts
       and deltas are runtime values. *)
    let acc_safe ~feed ~store trip =
      msites.(store).m_data == msites.(feed).m_data
      && starts.(store) = starts.(feed)
      && deltas.(store) = 0
      && deltas.(feed) = 0
      &&
      let ss = starts.(store) in
      let sd = msites.(store).m_data in
      let ok = ref true in
      for k = 0 to n_ms - 1 do
        if
          k <> feed && k <> store
          && (not is_store.(k))
          && msites.(k).m_data == sd
        then begin
          let d = deltas.(k) in
          if d = 0 then begin if starts.(k) = ss then ok := false end
          else
            let diff = ss - starts.(k) in
            if diff = 0 then ok := false
            else if
              (if d > 0 then diff > 0 else diff < 0)
              && diff mod d = 0
              && abs (diff / d) < trip
            then ok := false
        end
      done;
      !ok
    in
    (* --- fully unrolled bodies for the dominant statement shapes --- *)
    let spec : (int -> unit) option =
      (* mode 0: d3 <- d0 +. d1 *. d2            (fma)
         mode 1: d3 <- d0 +. (sv *. d1) *. d2    (scaled fma, gemm)
         mode 2: d3 <- d0 +. (d1 *. sv) *. d2
         mode 3: d3 <- d1 *. d2 +. d0            (mirrored fma)
         mode 4: d3 <- d0 -. d1 *. d2            (fms, trisolv) *)
      let fma ~mode ~sl l0 l1 l2 s3 =
        Some
          (fun trip ->
            let d0 = msites.(l0).m_data and d1 = msites.(l1).m_data in
            let d2 = msites.(l2).m_data and d3 = msites.(s3).m_data in
            let sv =
              if mode = 1 || mode = 2 then Array.unsafe_get svals sl else 0.0
            in
            if acc_safe ~feed:l0 ~store:s3 trip then begin
              let acc = ref (Array.unsafe_get d0 starts.(l0)) in
              let c1 = ref starts.(l1) and c2 = ref starts.(l2) in
              let dl1 = deltas.(l1) and dl2 = deltas.(l2) in
              (if mode = 0 then
                 for _ = 1 to trip do
                   acc :=
                     !acc
                     +. Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2;
                   c1 := !c1 + dl1;
                   c2 := !c2 + dl2
                 done
               else if mode = 1 then
                 for _ = 1 to trip do
                   acc :=
                     !acc
                     +. sv *. Array.unsafe_get d1 !c1
                        *. Array.unsafe_get d2 !c2;
                   c1 := !c1 + dl1;
                   c2 := !c2 + dl2
                 done
               else if mode = 2 then
                 for _ = 1 to trip do
                   acc :=
                     !acc
                     +. Array.unsafe_get d1 !c1 *. sv
                        *. Array.unsafe_get d2 !c2;
                   c1 := !c1 + dl1;
                   c2 := !c2 + dl2
                 done
               else if mode = 3 then
                 for _ = 1 to trip do
                   acc :=
                     (Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2)
                     +. !acc;
                   c1 := !c1 + dl1;
                   c2 := !c2 + dl2
                 done
               else
                 for _ = 1 to trip do
                   acc :=
                     !acc
                     -. Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2;
                   c1 := !c1 + dl1;
                   c2 := !c2 + dl2
                 done);
              Array.unsafe_set d3 starts.(s3) !acc
            end
            else begin
              let c0 = ref starts.(l0) and c1 = ref starts.(l1) in
              let c2 = ref starts.(l2) and c3 = ref starts.(s3) in
              let dl0 = deltas.(l0) and dl1 = deltas.(l1) in
              let dl2 = deltas.(l2) and dl3 = deltas.(s3) in
              if mode = 0 then
                for _ = 1 to trip do
                  Array.unsafe_set d3 !c3
                    (Array.unsafe_get d0 !c0
                    +. Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2;
                  c3 := !c3 + dl3
                done
              else if mode = 1 then
                for _ = 1 to trip do
                  Array.unsafe_set d3 !c3
                    (Array.unsafe_get d0 !c0
                    +. sv *. Array.unsafe_get d1 !c1
                       *. Array.unsafe_get d2 !c2);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2;
                  c3 := !c3 + dl3
                done
              else if mode = 2 then
                for _ = 1 to trip do
                  Array.unsafe_set d3 !c3
                    (Array.unsafe_get d0 !c0
                    +. Array.unsafe_get d1 !c1 *. sv
                       *. Array.unsafe_get d2 !c2);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2;
                  c3 := !c3 + dl3
                done
              else if mode = 3 then
                for _ = 1 to trip do
                  Array.unsafe_set d3 !c3
                    ((Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2)
                    +. Array.unsafe_get d0 !c0);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2;
                  c3 := !c3 + dl3
                done
              else
                for _ = 1 to trip do
                  Array.unsafe_set d3 !c3
                    (Array.unsafe_get d0 !c0
                    -. Array.unsafe_get d1 !c1 *. Array.unsafe_get d2 !c2);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2;
                  c3 := !c3 + dl3
                done
            end)
      in
      (* d2 <- d0 op d1, accumulator form when the store feeds load 0 *)
      let bin2 ~o l0 l1 s2 =
        Some
          (fun trip ->
            let d0 = msites.(l0).m_data and d1 = msites.(l1).m_data in
            let d2 = msites.(s2).m_data in
            if acc_safe ~feed:l0 ~store:s2 trip then begin
              let acc = ref (Array.unsafe_get d0 starts.(l0)) in
              let c1 = ref starts.(l1) in
              let dl1 = deltas.(l1) in
              (if o = B.op_fadd then
                 for _ = 1 to trip do
                   acc := !acc +. Array.unsafe_get d1 !c1;
                   c1 := !c1 + dl1
                 done
               else if o = B.op_fsub then
                 for _ = 1 to trip do
                   acc := !acc -. Array.unsafe_get d1 !c1;
                   c1 := !c1 + dl1
                 done
               else if o = B.op_fmul then
                 for _ = 1 to trip do
                   acc := !acc *. Array.unsafe_get d1 !c1;
                   c1 := !c1 + dl1
                 done
               else
                 for _ = 1 to trip do
                   acc := !acc /. Array.unsafe_get d1 !c1;
                   c1 := !c1 + dl1
                 done);
              Array.unsafe_set d2 starts.(s2) !acc
            end
            else begin
              let c0 = ref starts.(l0) and c1 = ref starts.(l1) in
              let c2 = ref starts.(s2) in
              let dl0 = deltas.(l0) and dl1 = deltas.(l1) in
              let dl2 = deltas.(s2) in
              if o = B.op_fadd then
                for _ = 1 to trip do
                  Array.unsafe_set d2 !c2
                    (Array.unsafe_get d0 !c0 +. Array.unsafe_get d1 !c1);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2
                done
              else if o = B.op_fsub then
                for _ = 1 to trip do
                  Array.unsafe_set d2 !c2
                    (Array.unsafe_get d0 !c0 -. Array.unsafe_get d1 !c1);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2
                done
              else if o = B.op_fmul then
                for _ = 1 to trip do
                  Array.unsafe_set d2 !c2
                    (Array.unsafe_get d0 !c0 *. Array.unsafe_get d1 !c1);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2
                done
              else
                for _ = 1 to trip do
                  Array.unsafe_set d2 !c2
                    (Array.unsafe_get d0 !c0 /. Array.unsafe_get d1 !c1);
                  c0 := !c0 + dl0;
                  c1 := !c1 + dl1;
                  c2 := !c2 + dl2
                done
            end)
      in
      (* d <- [c *.] (load0 +/- load1 +/- ... +/- loadk), the stencil
         shape: a left-deep add/sub chain of loads, optionally scaled or
         divided by a constant. wrap 0: bare sum, 1: c *. sum,
         2: sum *. c, 3: sum /. c (seidel) *)
      let stencil sm t =
        let rec flat t acc =
          match t with
          | Tload m -> Some ((m, false) :: acc)
          | Tbin (o, rest, Tload m) when o = B.op_fadd || o = B.op_fsub ->
              flat rest ((m, o = B.op_fsub) :: acc)
          | _ -> None
        in
        let wrap, cc, inner =
          match t with
          | Tbin (o, Tconst c, u) when o = B.op_fmul -> (1, c, u)
          | Tbin (o, u, Tconst c) when o = B.op_fmul -> (2, c, u)
          | Tbin (o, u, Tconst c) when o = B.op_fdiv -> (3, c, u)
          | u -> (0, 0.0, u)
        in
        match flat inner [] with
        | Some leaves when List.length leaves >= 2 ->
            let leaves = Array.of_list leaves in
            let nl = Array.length leaves in
            let lm = Array.map fst leaves in
            let lsub = Array.map snd leaves in
            let ldata = Array.map (fun m -> msites.(m).m_data) lm in
            let lpos = Array.make nl 0 in
            let ldelta = Array.make nl 0 in
            Some
              (fun trip ->
                for l = 0 to nl - 1 do
                  lpos.(l) <- starts.(lm.(l));
                  ldelta.(l) <- deltas.(lm.(l))
                done;
                let ds = msites.(sm).m_data in
                let cs = ref starts.(sm) in
                let dls = deltas.(sm) in
                let d0 = Array.unsafe_get ldata 0 in
                for _ = 1 to trip do
                  let s =
                    ref (Array.unsafe_get d0 (Array.unsafe_get lpos 0))
                  in
                  for l = 1 to nl - 1 do
                    let v =
                      Array.unsafe_get
                        (Array.unsafe_get ldata l)
                        (Array.unsafe_get lpos l)
                    in
                    s := (if Array.unsafe_get lsub l then !s -. v else !s +. v)
                  done;
                  Array.unsafe_set ds !cs
                    (if wrap = 0 then !s
                     else if wrap = 1 then cc *. !s
                     else if wrap = 2 then !s *. cc
                     else !s /. cc);
                  for l = 0 to nl - 1 do
                    Array.unsafe_set lpos l
                      (Array.unsafe_get lpos l + Array.unsafe_get ldelta l)
                  done;
                  cs := !cs + dls
                done)
        | _ -> None
      in
      match stmts with
      | [ (s3, Tbin (oa, Tload l0, Tbin (om, Tload l1, Tload l2))) ]
        when oa = B.op_fadd && om = B.op_fmul ->
          fma ~mode:0 ~sl:0 l0 l1 l2 s3
      | [
       ( s3,
         Tbin
           (oa, Tload l0, Tbin (om, Tbin (om2, Tscalar sl, Tload l1), Tload l2))
       );
      ]
        when oa = B.op_fadd && om = B.op_fmul && om2 = B.op_fmul ->
          fma ~mode:1 ~sl l0 l1 l2 s3
      | [
       ( s3,
         Tbin
           (oa, Tload l0, Tbin (om, Tbin (om2, Tload l1, Tscalar sl), Tload l2))
       );
      ]
        when oa = B.op_fadd && om = B.op_fmul && om2 = B.op_fmul ->
          fma ~mode:2 ~sl l0 l1 l2 s3
      | [ (s3, Tbin (oa, Tbin (om, Tload l1, Tload l2), Tload l0)) ]
        when oa = B.op_fadd && om = B.op_fmul ->
          fma ~mode:3 ~sl:0 l0 l1 l2 s3
      | [ (s3, Tbin (oa, Tload l0, Tbin (om, Tload l1, Tload l2))) ]
        when oa = B.op_fsub && om = B.op_fmul ->
          fma ~mode:4 ~sl:0 l0 l1 l2 s3
      | [ (s2, Tbin (o, Tload l0, Tload l1)) ]
        when o = B.op_fadd || o = B.op_fsub || o = B.op_fmul || o = B.op_fdiv
        ->
          bin2 ~o l0 l1 s2
      | [ (sm, t) ] -> stencil sm t
      | _ -> None
    in
    (* --- generic fused body: statement trees compiled to closures with
       direct-indexed leaves (leaf operands of a binop are inlined into
       its closure, so a k-node tree costs well under k calls) --- *)
    let body : int -> unit =
      match spec with
      | Some f -> f
      | None ->
          let curs = Array.map (fun _ -> ref 0) msites in
          let rec comp (t : ftree) : unit -> float =
            match t with
            | Tconst c -> fun () -> c
            | Tscalar s -> fun () -> Array.unsafe_get svals s
            | Tload m ->
                let d = msites.(m).m_data and c = curs.(m) in
                fun () -> Array.unsafe_get d !c
            | Tneg (Tload m) ->
                let d = msites.(m).m_data and c = curs.(m) in
                fun () -> -.Array.unsafe_get d !c
            | Tneg a ->
                let fa = comp a in
                fun () -> -.fa ()
            | Tbin (o, a, b) -> comp_bin o a b
            | Tintr1 (k, a) ->
                let fa = comp a in
                if k = 0 then fun () -> sqrt (fa ())
                else if k = 1 then fun () -> exp (fa ())
                else if k = 2 then fun () -> log (fa ())
                else if k = 3 then fun () -> Float.abs (fa ())
                else if k = 4 then fun () -> floor (fa ())
                else if k = 5 then fun () -> ceil (fa ())
                else if k = 6 then fun () -> sin (fa ())
                else if k = 7 then fun () -> cos (fa ())
                else fun () -> tanh (fa ())
            | Tintr2 (k, a, b) ->
                let fa = comp a in
                let fb = comp b in
                if k = 0 then fun () -> Float.pow (fa ()) (fb ())
                else if k = 1 then fun () -> Float.min (fa ()) (fb ())
                else fun () -> Float.max (fa ()) (fb ())
          and comp_bin o a b =
            match (a, b) with
            | Tload ma, Tload mb ->
                let da = msites.(ma).m_data and ca = curs.(ma) in
                let db = msites.(mb).m_data and cb = curs.(mb) in
                if o = B.op_fadd then fun () ->
                  Array.unsafe_get da !ca +. Array.unsafe_get db !cb
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get da !ca -. Array.unsafe_get db !cb
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get da !ca *. Array.unsafe_get db !cb
                else fun () ->
                  Array.unsafe_get da !ca /. Array.unsafe_get db !cb
            | Tconst cc, Tload mb ->
                let db = msites.(mb).m_data and cb = curs.(mb) in
                if o = B.op_fadd then fun () -> cc +. Array.unsafe_get db !cb
                else if o = B.op_fsub then fun () ->
                  cc -. Array.unsafe_get db !cb
                else if o = B.op_fmul then fun () ->
                  cc *. Array.unsafe_get db !cb
                else fun () -> cc /. Array.unsafe_get db !cb
            | Tload ma, Tconst cc ->
                let da = msites.(ma).m_data and ca = curs.(ma) in
                if o = B.op_fadd then fun () -> Array.unsafe_get da !ca +. cc
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get da !ca -. cc
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get da !ca *. cc
                else fun () -> Array.unsafe_get da !ca /. cc
            | Tscalar s, Tload mb ->
                let db = msites.(mb).m_data and cb = curs.(mb) in
                if o = B.op_fadd then fun () ->
                  Array.unsafe_get svals s +. Array.unsafe_get db !cb
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get svals s -. Array.unsafe_get db !cb
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get svals s *. Array.unsafe_get db !cb
                else fun () ->
                  Array.unsafe_get svals s /. Array.unsafe_get db !cb
            | Tload ma, Tscalar s ->
                let da = msites.(ma).m_data and ca = curs.(ma) in
                if o = B.op_fadd then fun () ->
                  Array.unsafe_get da !ca +. Array.unsafe_get svals s
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get da !ca -. Array.unsafe_get svals s
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get da !ca *. Array.unsafe_get svals s
                else fun () ->
                  Array.unsafe_get da !ca /. Array.unsafe_get svals s
            | a, Tload mb ->
                let fa = comp a in
                let db = msites.(mb).m_data and cb = curs.(mb) in
                if o = B.op_fadd then fun () ->
                  fa () +. Array.unsafe_get db !cb
                else if o = B.op_fsub then fun () ->
                  fa () -. Array.unsafe_get db !cb
                else if o = B.op_fmul then fun () ->
                  fa () *. Array.unsafe_get db !cb
                else fun () -> fa () /. Array.unsafe_get db !cb
            | Tload ma, b ->
                let da = msites.(ma).m_data and ca = curs.(ma) in
                let fb = comp b in
                if o = B.op_fadd then fun () ->
                  Array.unsafe_get da !ca +. fb ()
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get da !ca -. fb ()
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get da !ca *. fb ()
                else fun () -> Array.unsafe_get da !ca /. fb ()
            | Tconst cc, b ->
                let fb = comp b in
                if o = B.op_fadd then fun () -> cc +. fb ()
                else if o = B.op_fsub then fun () -> cc -. fb ()
                else if o = B.op_fmul then fun () -> cc *. fb ()
                else fun () -> cc /. fb ()
            | a, Tconst cc ->
                let fa = comp a in
                if o = B.op_fadd then fun () -> fa () +. cc
                else if o = B.op_fsub then fun () -> fa () -. cc
                else if o = B.op_fmul then fun () -> fa () *. cc
                else fun () -> fa () /. cc
            | Tscalar s, b ->
                let fb = comp b in
                if o = B.op_fadd then fun () ->
                  Array.unsafe_get svals s +. fb ()
                else if o = B.op_fsub then fun () ->
                  Array.unsafe_get svals s -. fb ()
                else if o = B.op_fmul then fun () ->
                  Array.unsafe_get svals s *. fb ()
                else fun () -> Array.unsafe_get svals s /. fb ()
            | a, Tscalar s ->
                let fa = comp a in
                if o = B.op_fadd then fun () ->
                  fa () +. Array.unsafe_get svals s
                else if o = B.op_fsub then fun () ->
                  fa () -. Array.unsafe_get svals s
                else if o = B.op_fmul then fun () ->
                  fa () *. Array.unsafe_get svals s
                else fun () -> fa () /. Array.unsafe_get svals s
            | _ ->
                let fa = comp a in
                let fb = comp b in
                if o = B.op_fadd then fun () -> fa () +. fb ()
                else if o = B.op_fsub then fun () -> fa () -. fb ()
                else if o = B.op_fmul then fun () -> fa () *. fb ()
                else fun () -> fa () /. fb ()
          in
          let stmt_fns =
            Array.of_list
              (List.map
                 (fun (m, t) ->
                   let d = msites.(m).m_data and c = curs.(m) in
                   let f = comp t in
                   fun () -> Array.unsafe_set d !c (f ()))
                 stmts)
          in
          let nst = Array.length stmt_fns in
          if nst = 1 then begin
            let f = Array.unsafe_get stmt_fns 0 in
            fun trip ->
              for m = 0 to n_ms - 1 do
                curs.(m) := starts.(m)
              done;
              for _ = 1 to trip do
                f ();
                for m = 0 to n_ms - 1 do
                  let c = Array.unsafe_get curs m in
                  c := !c + Array.unsafe_get deltas m
                done
              done
          end
          else
            fun trip ->
              for m = 0 to n_ms - 1 do
                curs.(m) := starts.(m)
              done;
              for _ = 1 to trip do
                for k = 0 to nst - 1 do
                  (Array.unsafe_get stmt_fns k) ()
                done;
                for m = 0 to n_ms - 1 do
                  let c = Array.unsafe_get curs m in
                  c := !c + Array.unsafe_get deltas m
                done
              done
    in
    fun () ->
      let lo = flo () in
      let hi = fhi () in
      iregs.(hireg) <- hi;
      if if stp > 0 then lo <= hi else lo >= hi then begin
        let trip =
          if stp > 0 then ((hi - lo) / stp) + 1 else ((lo - hi) / -stp) + 1
        in
        let bound = ref true in
        for k = 0 to Array.length scalar_slots - 1 do
          if not sbound.(scalar_slots.(k)) then bound := false
        done;
        (* subscripts are evaluated against the register file, so the
           iterator register must hold lo; invisible outside execution *)
        iregs.(ireg) <- lo;
        if (not !bound) || safe_trips trip < trip then slow lo
        else begin
          (* The whole nest is budgeted upfront: one [spend] equals the
             trip's worth of back-edge ticks, and [Exhausted] fires at
             the loop head — within one innermost trip of the exact
             engines. With fuel secured the body is exception-free, so
             it carries no per-iteration tick; the wall-clock deadline
             is polled once per entry instead of every 4096 ticks. *)
          Budget.spend budget trip;
          Util.check_deadline ();
          body trip;
          iregs.(ireg) <- lo + ((trip - 1) * stp);
          end_pc
        end
      end
      else end_pc
  end

(* ------------------------------------------------------------------ *)
(* Program binding and execution                                        *)

(** [compile p state] lowers [p] to bytecode against [state]'s sizes and
    binds it to [state]'s storage. The returned thunk executes the
    program, mutating [state]; it may be invoked repeatedly as long as
    [state]'s arrays are not reallocated. [budget] is ticked once per
    executed loop iteration, baked into the engine and shared across
    invocations. *)
let compile ?(budget = Budget.unlimited ()) (p : Ir.program) (st : state) :
    unit -> unit =
  let bc = B.lower ~sizes:st.sizes p in
  let iregs = Array.make (max 1 bc.B.n_iregs) 0 in
  let xstack = Array.make (max 1 bc.B.max_xstack) 0 in
  let ixfs =
    Array.map
      (B.binder ~pool:bc.B.pool ~xpool:bc.B.xpool ~names:bc.B.names
         ~regs:iregs ~xstack)
      bc.B.ixs
  in
  let nscalars = Array.length bc.B.scalar_names in
  let svals = Array.make (max 1 nscalars) 0.0 in
  let sbound = Array.make (max 1 nscalars) false in
  let readers = Array.map (bind_reader bc st ixfs) bc.B.sites in
  let writers = Array.map (bind_writer bc st ixfs) bc.B.sites in
  let callfs = Array.map (bind_call bc st ixfs) bc.B.calls in
  let fusefs =
    Array.map
      (bind_fuse bc st ixfs ~svals ~sbound ~iregs ~budget)
      bc.B.fuses
  in
  let vm =
    {
      code = bc.B.code;
      iregs;
      fstk = Array.make (max 1 bc.B.max_stack) 0.0;
      sp = 0;
      flag = false;
      svals;
      sbound;
      snames = bc.B.scalar_names;
      names = bc.B.names;
      fconsts = bc.B.fpool;
      ixfs;
      readers;
      writers;
      callfs;
      fusefs;
      budget;
    }
  in
  fun () ->
    Fault.inject "bc_run";
    for i = 0 to nscalars - 1 do
      match Util.SMap.find_opt bc.B.scalar_names.(i) st.scalars with
      | Some v ->
          svals.(i) <- v;
          sbound.(i) <- true
      | None ->
          svals.(i) <- 0.0;
          sbound.(i) <- false
    done;
    (* write slot scalars back into the map even when execution raises, so
       a post-mortem state looks like the oracle's *)
    let writeback () =
      let m = ref st.scalars in
      for i = 0 to nscalars - 1 do
        if sbound.(i) then
          m := Util.SMap.add bc.B.scalar_names.(i) svals.(i) !m
      done;
      st.scalars <- !m
    in
    vm.sp <- 0;
    vm.flag <- false;
    Fun.protect ~finally:writeback (fun () -> step vm 0)

(** [run p state] — lower, bind and execute once, mutating [state]. *)
let run ?budget (p : Ir.program) (st : state) = (compile ?budget p st) ()

(** [run_fresh p ~sizes ...] — allocate a fresh state and run [p] in it. *)
let run_fresh ?budget (p : Ir.program) ~sizes ?(scalars = []) ?init_fn () =
  let st = init p ~sizes ~scalars ?init_fn () in
  run ?budget p st;
  st
