(** Step budgets for candidate evaluation (see the interface).

    A budget is a mutable fuel counter; engines call {!tick} once per
    executed loop iteration. The check is a decrement and a branch, so a
    budgeted run costs the same as an unbudgeted one to within noise.
    {!unlimited} budgets start at [max_int] fuel — at one tick per
    nanosecond that is ~292 years, so they never exhaust in practice but
    still use the exact same code path as finite budgets. *)

type t = { mutable fuel : int }

exception Exhausted

let make ~steps = { fuel = max 0 steps }
let unlimited () = { fuel = max_int }

(* Wall-clock deadlines piggyback on the fuel counter: every engine ticks
   once per iteration, so polling the domain deadline whenever the fuel
   reaches a multiple of 4096 bounds a supervised evaluation's overrun
   without a per-iteration clock read. [spend] charges many iterations at
   once and polls when its charge passes such a multiple, so a walk that
   mixes ticks and spends keeps the same cadence whatever its trip counts.
   [Util.check_deadline] is a DLS load when no deadline is set. *)
let tick b =
  b.fuel <- b.fuel - 1;
  if b.fuel < 0 then raise Exhausted;
  if b.fuel land 4095 = 0 then Util.check_deadline ()

let spend b n =
  let before = b.fuel in
  b.fuel <- before - max 0 n;
  if b.fuel < 0 then raise Exhausted;
  (* some value in [fuel, before) is a multiple of 4096 *)
  if (before - 1) asr 12 <> (b.fuel - 1) asr 12 then Util.check_deadline ()

let remaining b = max 0 b.fuel
let exhausted b = b.fuel < 0

let () =
  Printexc.register_printer (function
    | Exhausted -> Some "Daisy_support.Budget.Exhausted (evaluation step budget exhausted)"
    | _ -> None)
