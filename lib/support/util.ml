(** Small general-purpose helpers shared across the toolchain. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)
module IMap = Map.Make (Int)
module ISet = Set.Make (Int)

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

(** [pow base e] for non-negative [e]. *)
let rec pow base e =
  if e < 0 then invalid_arg "Util.pow"
  else if e = 0 then 1
  else
    let h = pow base (e / 2) in
    if e mod 2 = 0 then h * h else h * h * base

(** [permutations xs] enumerates all permutations of [xs] (lexicographic in
    input order). Intended for small lists (stride-minimization search). *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y != x) xs in
          List.map (fun p -> x :: p) (permutations rest))
        xs

(** [pairs xs] is all unordered pairs of distinct positions in [xs]. *)
let pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs
let sum_byf f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      let n = float_of_int (List.length xs) in
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(** [take n xs] is the first [n] elements of [xs] (or all of them). *)
let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let rec drop n = function
  | xs when n <= 0 -> xs
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

(** [span p xs] splits [xs] into the longest prefix satisfying [p] and the
    remainder. *)
let span p xs =
  let rec go acc = function
    | x :: rest when p x -> go (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] xs

let list_index_of eq x xs =
  let rec go i = function
    | [] -> None
    | y :: rest -> if eq x y then Some i else go (i + 1) rest
  in
  go 0 xs

(** [dedup ~eq xs] removes duplicates, keeping first occurrences. O(n^2);
    fine for the short lists used here. *)
let dedup ~eq xs =
  List.fold_left
    (fun acc x -> if List.exists (eq x) acc then acc else x :: acc)
    [] xs
  |> List.rev

(** Fresh-name generation: [fresh_name base taken] returns [base] or
    [base_0], [base_1], ... — the first not in [taken]. *)
let fresh_name base taken =
  if not (SSet.mem base taken) then base
  else
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if SSet.mem candidate taken then go (i + 1) else candidate
    in
    go 0

(** FNV-1a 64-bit hash of a string, rendered as 16 hex digits — the
    framing checksum shared by the database and checkpoint formats. *)
let fnv1a64 (s : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* ------------------------------------------------------------------ *)
(* Monotonic wall clock and per-domain evaluation deadlines.

   [Unix.gettimeofday] can jump backwards (NTP slew, VM migration); all
   deadline accounting in the toolchain goes through [monotonic_s], which
   clamps the clock to be non-decreasing, so an elapsed-time difference
   is never negative and a deadline never un-expires. The clamp state is
   shared across domains under a mutex — this is the one place wall
   time is read. *)

let clock_lock = Mutex.create ()
let clock_last = ref neg_infinity

let monotonic_s () : float =
  Mutex.lock clock_lock;
  let now = Unix.gettimeofday () in
  let t = if now > !clock_last then now else !clock_last in
  clock_last := t;
  Mutex.unlock clock_lock;
  t

exception Deadline_exceeded

(* Absolute deadline (monotonic seconds) of the evaluation task currently
   running on this domain; [nan] = none. Stored per domain so pool
   workers supervise their own tasks independently. *)
let deadline_key : float Domain.DLS.key = Domain.DLS.new_key (fun () -> nan)

let set_deadline = function
  | None -> Domain.DLS.set deadline_key nan
  | Some d -> Domain.DLS.set deadline_key d

let check_deadline () =
  let d = Domain.DLS.get deadline_key in
  if (not (Float.is_nan d)) && monotonic_s () >= d then
    raise Deadline_exceeded

(** [with_deadline d f] — run [f] with a deadline of [d] seconds from now
    on this domain (cleared afterwards); [None] runs unconstrained.
    Engines poll {!check_deadline} through their budget, so any budgeted
    evaluation raises {!Deadline_exceeded} soon after the wall-clock
    budget runs out. *)
let with_deadline (d : float option) (f : unit -> 'a) : 'a =
  match d with
  | None -> f ()
  | Some s ->
      set_deadline (Some (monotonic_s () +. max 0.0 s));
      Fun.protect ~finally:(fun () -> set_deadline None) (fun () ->
          check_deadline ();
          f ())

let () =
  Printexc.register_printer (function
    | Deadline_exceeded ->
        Some "Daisy_support.Util.Deadline_exceeded (evaluation wall-clock deadline exceeded)"
    | _ -> None)

(* ------------------------------------------------------------------ *)
(* SIGPIPE hygiene and EINTR-safe IO — the serving layer's substrate.

   A daemon talking to clients over sockets must survive two classic
   Unix hazards: a peer hanging up mid-write (SIGPIPE kills the whole
   process by default) and signals interrupting slow syscalls (EINTR
   surfacing as [Unix_error] from reads/writes that should simply be
   retried). Every socket read/write in the toolchain goes through the
   helpers below. *)

let sigpipe_ignored = ref false

let ignore_sigpipe () =
  if not !sigpipe_ignored then begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    sigpipe_ignored := true
  end

let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let read_retry fd buf off len = retry_eintr (fun () -> Unix.read fd buf off len)

let really_read fd buf off len =
  let rec go off len =
    if len <= 0 then true
    else
      let n = read_retry fd buf off len in
      if n = 0 then false else go (off + n) (len - n)
  in
  go off len

let write_all fd buf off len =
  let rec go off len =
    if len > 0 then begin
      let n = retry_eintr (fun () -> Unix.write fd buf off len) in
      go (off + n) (len - n)
    end
  in
  go off len

(** Format a float with engineering-friendly precision for report tables. *)
let pp_si ppf v =
  let a = Float.abs v in
  if a = 0.0 then Fmt.pf ppf "0"
  else if a >= 1e9 then Fmt.pf ppf "%.2fG" (v /. 1e9)
  else if a >= 1e6 then Fmt.pf ppf "%.2fM" (v /. 1e6)
  else if a >= 1e3 then Fmt.pf ppf "%.2fk" (v /. 1e3)
  else if a >= 1.0 then Fmt.pf ppf "%.2f" v
  else if a >= 1e-3 then Fmt.pf ppf "%.2fm" (v *. 1e3)
  else Fmt.pf ppf "%.2fu" (v *. 1e6)
