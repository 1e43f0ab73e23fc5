(** Step budgets: fuel counters that bound the work of one candidate
    evaluation.

    Every interpreter and trace engine accepts an optional budget and
    calls {!tick} once per executed loop iteration; when the fuel runs
    out the engine raises {!exception:Exhausted} instead of running
    forever. The scheduler maps exhaustion to [infinity] fitness
    ({!Daisy_scheduler.Evolve}), so one pathological candidate cannot
    hang a search (see docs/robustness.md for the full contract).

    A budget is single-use mutable state: allocate a fresh one per
    evaluation and do not share it across domains. *)

type t

exception Exhausted
(** Raised by {!tick}/{!spend} when the fuel goes negative. Once raised,
    every further tick on the same budget raises again. *)

val make : steps:int -> t
(** A budget of [steps] loop iterations ([steps <= 0] exhausts on the
    first tick). *)

val unlimited : unit -> t
(** A fresh effectively-infinite budget ([max_int] fuel) — the default of
    every engine entry point. *)

val tick : t -> unit
(** Consume one step; raises {!exception:Exhausted} when none remain.
    Whenever the fuel reaches a multiple of 4096 it also polls the calling
    domain's wall-clock deadline ({!Daisy_support.Util.check_deadline}),
    so a supervised evaluation raises [Util.Deadline_exceeded] soon after
    its deadline passes. *)

val spend : t -> int -> unit
(** Consume [n] steps at once (negative [n] is treated as 0). Polls the
    deadline like {!tick} whenever the charge passes a multiple of 4096,
    so mixing ticks and spends never skips a poll. *)

val remaining : t -> int
(** Fuel left, clamped to 0. *)

val exhausted : t -> bool
