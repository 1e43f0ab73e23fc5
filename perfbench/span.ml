(* In-memory spans recorded around the benchmark's own calls into each
   layer's public functions. Off by default: [with_] is then one branch
   and a call. Spans are kept in memory and aggregated (or dumped) when
   the run ends. *)

type t = {
  id : int;
  name : string;
  op : int;
      (** index of the op in the op list; the timed phase's client spans
          and the in-process replay of one read share it. -1 outside ops *)
  parent : int;  (** id of the enclosing span; -1 at the root *)
  t0 : float;
  mutable t1 : float;
}

let on = ref false
let recorded : t list ref = ref []
let stack : t list ref = ref []
let next_id = ref 0
let current_op = ref (-1)
let counters : (string, int) Hashtbl.t = Hashtbl.create 32
let clock = Daisy.Support.Util.monotonic_s

let open_ name =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  incr next_id;
  let s = { id = !next_id; name; op = !current_op; parent; t0 = clock (); t1 = nan } in
  stack := s :: !stack;
  s

let close s =
  s.t1 <- clock ();
  (match !stack with _ :: rest -> stack := rest | [] -> ());
  recorded := s :: !recorded

let with_ name f =
  if not !on then f ()
  else
    let s = open_ name in
    Fun.protect ~finally:(fun () -> close s) f

(** A span measured elsewhere (e.g. the daemon's [eval_s]), recorded as a
    child of the innermost open span and ending at [t1]. *)
let add_child name ~dur ~t1 =
  if !on then begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    incr next_id;
    recorded :=
      { id = !next_id; name; op = !current_op; parent; t0 = t1 -. dur; t1 }
      :: !recorded
  end

let count ?(n = 1) name =
  if !on then
    Hashtbl.replace counters name
      (n + Option.value ~default:0 (Hashtbl.find_opt counters name))

let counter name = Option.value ~default:0 (Hashtbl.find_opt counters name)

type agg = { total : float; self : float; n : int }

(** Per span name: total time, self time (the span minus the part its
    children cover) and count, in seconds. *)
let aggregate () : (string, agg) Hashtbl.t =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent)))
    !recorded;
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 in
      let self =
        d -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id)
      in
      let a =
        Option.value ~default:{ total = 0.0; self = 0.0; n = 0 }
          (Hashtbl.find_opt out s.name)
      in
      Hashtbl.replace out s.name
        { total = a.total +. d; self = a.self +. self; n = a.n + 1 })
    !recorded;
  out

(** Write every span as one tab-separated line: id, parent, op, name,
    start and end in seconds. *)
let dump path =
  let oc = open_out path in
  output_string oc "id\tparent\top\tname\tstart_s\tend_s\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.op
        s.name s.t0 s.t1)
    (List.rev !recorded);
  close_out oc
