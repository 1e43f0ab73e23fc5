(** Small general-purpose helpers shared across the toolchain. *)

module SMap : Map.S with type key = string
module SSet : Set.S with type elt = string
module IMap : Map.S with type key = int
module ISet : Set.S with type elt = int

val gcd : int -> int -> int
val lcm : int -> int -> int

val pow : int -> int -> int
(** [pow base e] for non-negative [e]. *)

val permutations : 'a list -> 'a list list
(** All permutations (intended for small lists). *)

val pairs : 'a list -> ('a * 'a) list
(** All unordered pairs of distinct positions. *)

val sum_by : ('a -> int) -> 'a list -> int
val sum_byf : ('a -> float) -> 'a list -> float
val geomean : float list -> float
val mean : float list -> float
val take : int -> 'a list -> 'a list
val drop : int -> 'a list -> 'a list
val span : ('a -> bool) -> 'a list -> 'a list * 'a list
val list_index_of : ('a -> 'b -> bool) -> 'a -> 'b list -> int option

val dedup : eq:('a -> 'a -> bool) -> 'a list -> 'a list
(** Remove duplicates, keeping first occurrences (O(n^2)). *)

val fresh_name : string -> SSet.t -> string
(** [fresh_name base taken] — [base], or [base_0], [base_1], ... *)

val fnv1a64 : string -> string
(** FNV-1a 64-bit hash, rendered as 16 hex digits (the framing checksum
    of the database and checkpoint formats). *)

val monotonic_s : unit -> float
(** Wall-clock seconds, clamped to be non-decreasing across calls (and
    across domains) so deadline arithmetic survives clock
    discontinuities. The only place the toolchain reads wall time. *)

exception Deadline_exceeded
(** Raised by {!check_deadline} (polled from [Budget.tick] and
    [Budget.spend], i.e. from inside every engine) when the current
    domain's evaluation deadline has passed. *)

val set_deadline : float option -> unit
(** Set or clear the absolute deadline ({!monotonic_s} seconds) for
    evaluation work on the calling domain. *)

val check_deadline : unit -> unit
(** Raise {!Deadline_exceeded} iff this domain has a deadline and it has
    passed. Cheap when no deadline is set. *)

val with_deadline : float option -> (unit -> 'a) -> 'a
(** [with_deadline (Some s) f] runs [f] with a deadline [s] seconds from
    now on this domain, clearing it afterwards; [None] is just [f ()]. *)

val ignore_sigpipe : unit -> unit
(** Ignore SIGPIPE process-wide (idempotent). A peer hanging up
    mid-write then surfaces as [Unix_error (EPIPE, _, _)] at the write
    site instead of killing the process — mandatory before serving
    sockets. *)

val retry_eintr : (unit -> 'a) -> 'a
(** Run a syscall wrapper, retrying as long as it fails with
    [Unix_error (EINTR, _, _)] (a signal arrived mid-call). *)

val read_retry : Unix.file_descr -> bytes -> int -> int -> int
(** [Unix.read] with EINTR retry. *)

val really_read : Unix.file_descr -> bytes -> int -> int -> bool
(** [really_read fd buf off len] — read exactly [len] bytes (EINTR-safe,
    looping over short reads); [false] iff end-of-stream arrived first. *)

val write_all : Unix.file_descr -> bytes -> int -> int -> unit
(** Write exactly [len] bytes (EINTR-safe, looping over short writes).
    Raises [Unix_error (EPIPE, _, _)] if the peer has hung up (with
    {!ignore_sigpipe} in effect). *)

val pp_si : float Fmt.t
(** Engineering-friendly float formatting for report tables. *)
