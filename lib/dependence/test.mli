(** Pairwise dependence testing: feasible direction vectors via
    hierarchical probing of the Fourier–Motzkin emptiness test
    (Goff–Kennedy–Tseng style). Non-affine pairs conservatively return all
    directions. *)

type direction = Lt | Eq | Gt

val string_of_direction : direction -> string
val pp_dirvec : direction list Fmt.t

val directions :
  common:Daisy_loopir.Ir.loop list ->
  src_ctx:Daisy_loopir.Ir.loop list ->
  dst_ctx:Daisy_loopir.Ir.loop list ->
  Refs.t ->
  Refs.t ->
  direction list list
(** Feasible direction vectors over the [common] loops (a prefix of both
    contexts) for conflicting instances of the two references; [Lt] means
    the source instance executes earlier at that level. Answers come from
    a process-wide memo keyed on every input the test reads past the
    container check (each loop's iterator, bounds and step, and both
    subscript lists), so a hit equals a recomputation. *)

val clear_memo : unit -> unit
(** Empty the {!directions} memo, so that the next questions are tested
    afresh. For tests and benchmarks; answers never depend on it. *)

val comp_directions :
  ?ignore_containers:Daisy_support.Util.SSet.t ->
  common:Daisy_loopir.Ir.loop list ->
  Daisy_loopir.Ir.loop list * Daisy_loopir.Ir.comp ->
  Daisy_loopir.Ir.loop list * Daisy_loopir.Ir.comp ->
  direction list list
(** Union of feasible vectors over all conflicting reference pairs between
    two computations; containers in [ignore_containers] (privatizable
    scalars) are excluded from conflict detection. *)

val distance_at :
  common:Daisy_loopir.Ir.loop list ->
  src_ctx:Daisy_loopir.Ir.loop list ->
  dst_ctx:Daisy_loopir.Ir.loop list ->
  Refs.t ->
  Refs.t ->
  Daisy_loopir.Ir.loop ->
  int option
(** Constant dependence distance at one common loop, when unique. *)

val leading_direction : direction list -> direction

val src_executes_first : direction list -> bool option
(** [Some true]: source instance runs first; [Some false]: after; [None]:
    same iteration (textual order decides). *)
