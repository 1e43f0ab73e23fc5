(** Domain-based work pool (see the interface for the contract).

    Design: one shared FIFO of {e batches}; each batch owns an index cursor
    into its task array. Workers (and any thread blocked in [map]) claim
    the next unclaimed index of the front batch, release the lock, run the
    task, and report completion. A thread that submitted a batch keeps
    claiming indices of {e its own} batch first and only sleeps when every
    index is claimed but some are still running elsewhere — so a submitter
    always makes progress even when all domains are busy, which is what
    makes nested [map] calls deadlock-free.

    Failure poisons a batch: when a task reports failure, the batch's
    unclaimed suffix is skipped (accounted as completed) so the batch
    drains fast. Claimed tasks still run to completion, and claims are
    handed out in strictly increasing index order, so the lowest-index
    failure is always recorded before the batch finishes — which is what
    lets [map] re-raise the first error deterministically. *)

type batch = {
  run : int -> bool;  (** execute task [i]; [false] = failed; must not raise *)
  size : int;
  mutable next : int;  (** next unclaimed index *)
  mutable completed : int;
}

type t = {
  n_workers : int;
  mutex : Mutex.t;
  work : Condition.t;  (** new batch available, or shutdown *)
  finished : Condition.t;  (** some task completed *)
  pending : batch Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
}

let jobs t = t.n_workers

(* All claim/complete bookkeeping happens with [t.mutex] held. *)

let claim_any t : (batch * int) option =
  let rec go () =
    if Queue.is_empty t.pending then None
    else
      let b = Queue.peek t.pending in
      if b.next >= b.size then begin
        (* exhausted by its submitter while still queued *)
        ignore (Queue.pop t.pending);
        go ()
      end
      else begin
        let i = b.next in
        b.next <- i + 1;
        if b.next >= b.size then ignore (Queue.pop t.pending);
        Some (b, i)
      end
  in
  go ()

let complete t b =
  b.completed <- b.completed + 1;
  if b.completed >= b.size then Condition.broadcast t.finished

let run_claimed t b i =
  Mutex.unlock t.mutex;
  let ok = b.run i in
  Mutex.lock t.mutex;
  if not ok then begin
    (* Poison: skip the not-yet-claimed suffix of this batch. Already
       claimed tasks run to completion regardless. *)
    let skipped = b.size - b.next in
    b.next <- b.size;
    b.completed <- b.completed + skipped
  end;
  complete t b

let worker t =
  Mutex.lock t.mutex;
  let rec loop () =
    match claim_any t with
    | Some (b, i) ->
        run_claimed t b i;
        loop ()
    | None ->
        if t.stop then Mutex.unlock t.mutex
        else begin
          Condition.wait t.work t.mutex;
          loop ()
        end
  in
  loop ()

let create ~jobs =
  let n_workers = max 1 jobs in
  let t =
    {
      n_workers;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      pending = Queue.create ();
      stop = false;
      domains = [];
    }
  in
  t.domains <-
    List.init (n_workers - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(** With [t.mutex] held: enqueue [b] and participate until every task of
    [b] has completed. *)
let run_batch_locked t b =
  Queue.push b t.pending;
  Condition.broadcast t.work;
  let rec help () =
    if b.completed >= b.size then Mutex.unlock t.mutex
    else if b.next < b.size then begin
      let i = b.next in
      b.next <- i + 1;
      run_claimed t b i;
      help ()
    end
    else begin
      Condition.wait t.finished t.mutex;
      help ()
    end
  in
  help ()

(** Submit [b] and participate until every task of [b] has completed. *)
let run_batch t b =
  Mutex.lock t.mutex;
  if t.stop then begin
    (* pool already shut down: degrade to inline execution (still
       fail-fast — stop at the first failed task) *)
    Mutex.unlock t.mutex;
    let i = ref 0 in
    let ok = ref true in
    while !ok && !i < b.size do
      ok := b.run !i;
      incr i
    done
  end
  else run_batch_locked t b

let map_array ?pool f arr =
  match pool with
  | None -> Array.map f arr
  | Some t when t.n_workers <= 1 -> Array.map f arr
  | Some t ->
      let n = Array.length arr in
      if n = 0 then [||]
      else begin
        let results = Array.make n None in
        let b =
          {
            run =
              (fun i ->
                match
                  Fault.inject "pool_task";
                  f arr.(i)
                with
                | v ->
                    results.(i) <- Some (Ok v);
                    true
                | exception e ->
                    results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()));
                    false);
            size = n;
            next = 0;
            completed = 0;
          }
        in
        run_batch t b;
        (* A poisoned batch leaves [None] in its skipped suffix, so scan
           for the lowest-index error before unwrapping. *)
        let first_error = ref None in
        for i = n - 1 downto 0 do
          match results.(i) with
          | Some (Error (e, bt)) -> first_error := Some (e, bt)
          | _ -> ()
        done;
        match !first_error with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None ->
            Array.map
              (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
              results
      end

let map ?pool f xs =
  match pool with
  | None -> List.map f xs
  | Some _ -> Array.to_list (map_array ?pool f (Array.of_list xs))

let iter ?pool f xs =
  match pool with
  | None -> List.iter f xs
  | Some _ -> ignore (map ?pool f xs)

(* ------------------------------------------------------------------ *)
(* Supervision: per-task wall-clock deadlines with retry-once semantics.

   A deadline cannot preempt an OCaml domain, so it is cooperative: the
   task's deadline is registered in the executing domain's DLS slot
   ([Util.set_deadline]) and every engine polls it through its budget
   ([Budget.tick] and [Budget.spend]) — a supervised evaluation raises
   [Util.Deadline_exceeded] within 4096 iterations of its deadline
   passing. *)

let map_supervised ?pool ?deadline_s ?(fatal = fun _ -> false) f xs =
  let attempt x = Util.with_deadline deadline_s (fun () -> f x) in
  let supervised x =
    match attempt x with
    | v -> Ok v
    | exception e when not (fatal e) -> (
        (* transient failure: retry exactly once, with a fresh deadline *)
        match attempt x with
        | v -> Ok v
        | exception e2 when not (fatal e2) -> Error e2)
  in
  (* fatal exceptions escape [supervised] and poison the batch — the
     ordinary fail-fast [map] semantics *)
  map ?pool supervised xs

let with_pool ~jobs f =
  if jobs <= 1 then f None
  else
    let t = create ~jobs in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f (Some t))
