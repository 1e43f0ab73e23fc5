(** Labeled fault-injection points for robustness testing.

    Production code marks interesting failure sites with
    [Fault.inject "label"]; tests (or the [DAISY_FAULT] environment
    variable) arm a label with a trigger, and the next matching call
    raises {!exception:Injected}. Unarmed points cost one atomic load, so
    the hooks ship in production code paths.

    Injection points in the tree include: ["bc_compile"] (bytecode
    lowering), ["bc_run"] (bytecode interpreter and trace engine entry),
    ["trace_fuse"] (batched trace replay entry), ["pool_task"] (every
    pool-executed task), ["db_load"] (every database entry parsed from
    disk). See docs/robustness.md.

    Triggers:
    - [always] — fire on every call;
    - [nth:N] — fire on the [N]th call at that point (1-based), once;
    - [prob:P:SEED] — fire each call with probability [P], drawn from a
      deterministic stream derived from [SEED] ({!Daisy_support.Rng}).

    [DAISY_FAULT] holds a comma-separated list of [label=trigger] specs
    and is read once at startup, e.g.
    [DAISY_FAULT="bc_run=nth:3,db_load=prob:0.1:ci"]. *)

exception Injected of string
(** Raised by {!inject} with the point's label. *)

val inject : string -> unit
(** [inject label] raises {!exception:Injected} iff [label] is armed and
    its trigger fires on this call; otherwise does nothing. *)

val fires : string -> bool
(** Like {!inject} but returns whether the trigger fired instead of
    raising — for sites that degrade in place rather than unwind. *)

val configure : string -> unit
(** Arm points from a [label=trigger,...] spec (the [DAISY_FAULT]
    syntax). Raises [Invalid_argument] on a malformed spec. *)

val arm_always : string -> unit
val arm_nth : string -> int -> unit
(** [arm_nth label n] fires on the [n]th call, exactly once. *)

val arm_prob : string -> p:float -> seed:string -> unit
(** Fire each call with probability [p] from a deterministic seeded
    stream. *)

val disarm : string -> unit
val clear : unit -> unit
(** Disarm every point and reset all counters. *)

val armed : string -> bool
val calls : string -> int
(** Calls seen at an armed point (0 once disarmed/cleared). *)

val fired : string -> int
(** Times the point fired. *)
