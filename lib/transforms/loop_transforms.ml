(** Scheduling transformations on loop nests: interchange, tiling,
    unrolling, parallel/vector marking.

    Each transformation validates legality via the dependence library and
    returns [Error reason] instead of producing an illegal nest. All
    transformations assume iterator-normalized input (lo = 0, step = 1) —
    the normalization pipeline guarantees this. *)

open Daisy_support
module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Legality = Daisy_dependence.Legality
module Test = Daisy_dependence.Test
module Stride = Daisy_normalize.Stride

type error = string

let errorf fmt = Fmt.kstr (fun m -> Error m) fmt

(* ------------------------------------------------------------------ *)
(* Interchange                                                          *)

(** [interchange ~outer nest perm] reorders the perfect band of [nest]
    according to [perm] (new position -> old band position). *)
let interchange ~outer (nest : Ir.loop) (perm : int array) :
    (Ir.loop, error) result =
  let band, body = Legality.perfect_band nest in
  let n = List.length band in
  if Array.length perm <> n then
    errorf "interchange: permutation has %d entries for a band of %d"
      (Array.length perm) n
  else begin
    let sorted = Array.copy perm in
    Array.sort compare sorted;
    if sorted <> Array.init n (fun i -> i) then
      errorf "interchange: not a permutation"
    else
      let vectors = Legality.band_dep_vectors ~outer band body in
      if not (Legality.legal_permutation vectors perm) then
        errorf "interchange: dependence violated"
      else
        let band_arr = Array.of_list band in
        let order = Array.to_list (Array.map (fun i -> band_arr.(i)) perm) in
        if not (Stride.expressible order) then
          errorf "interchange: bounds not expressible in this order"
        else Ok (Stride.rebuild_band order body)
  end

(* ------------------------------------------------------------------ *)
(* Tiling                                                               *)

(** Fully-permutable check: tiling a contiguous sub-band is legal iff every
    dependence vector is component-wise non-negative on that sub-band. *)
let fully_permutable vectors ~from_ ~len =
  List.for_all
    (fun v ->
      let sub = Util.take len (Util.drop from_ v) in
      List.for_all (fun d -> d <> Test.Gt) sub)
    vectors

(** [tile ~outer nest specs] tiles the perfect band of [nest].
    [specs] gives a tile size per band position ([0] = untiled). The tiled
    nest has all tile loops outside all point loops:
    [for it1_t .. for itk_t { for it1 in window .. for itk in window }]. *)
let tile ~outer (nest : Ir.loop) (specs : (int * int) list) :
    (Ir.loop, error) result =
  let band, body = Legality.perfect_band nest in
  let n = List.length band in
  let sizes = Array.make n 0 in
  match
    List.iter
      (fun (pos, ts) ->
        if pos < 0 || pos >= n then failwith "position out of range";
        if ts < 2 then failwith "tile size must be >= 2";
        sizes.(pos) <- ts)
      specs
  with
  | exception Failure m -> errorf "tile: %s" m
  | () ->
      let tiled_positions =
        List.filter (fun p -> sizes.(p) > 0) (List.init n (fun i -> i))
      in
      if tiled_positions = [] then Ok nest
      else begin
        let from_ = List.hd tiled_positions in
        let until = List.nth tiled_positions (List.length tiled_positions - 1) in
        let vectors = Legality.band_dep_vectors ~outer band body in
        (* the band segment spanning all tiled loops must be fully
           permutable, because tile loops move outside point loops *)
        if not (fully_permutable vectors ~from_ ~len:(until - from_ + 1)) then
          errorf "tile: band is not fully permutable"
        else begin
          let band_arr = Array.of_list band in
          (* bounds of point loops reference tile iterators; loops with
             iterator-dependent bounds cannot be tiled this way: a tile
             loop sits outside every point loop, so its bound may not
             name a band iterator *)
          let band_iters =
            Util.SSet.of_list (List.map (fun (l : Ir.loop) -> l.Ir.iter) band)
          in
          let ok_bounds =
            List.for_all
              (fun p ->
                let l = band_arr.(p) in
                Expr.equal l.Ir.lo Expr.zero && l.Ir.step = 1
                && Util.SSet.disjoint (Expr.free_vars l.Ir.hi) band_iters)
              tiled_positions
          in
          if not ok_bounds then
            errorf "tile: loops must be normalized, with band-invariant bounds"
          else begin
            let taken = ref band_iters in
            (* build tile headers and point headers *)
            let tile_loops = ref [] and point_loops = ref [] in
            Array.iteri
              (fun p (l : Ir.loop) ->
                if sizes.(p) = 0 then point_loops := !point_loops @ [ l ]
                else begin
                  let ts = sizes.(p) in
                  let tname = Util.fresh_name (l.Ir.iter ^ "_t") !taken in
                  taken := Util.SSet.add tname !taken;
                  let tile_hi = Expr.div l.Ir.hi (Expr.const ts) in
                  let tl =
                    Ir.mk_loop ~iter:tname ~lo:Expr.zero ~hi:tile_hi []
                  in
                  let point_lo =
                    Expr.mul (Expr.const ts) (Expr.var tname)
                  in
                  let point_hi =
                    Expr.min_ l.Ir.hi
                      (Expr.add point_lo (Expr.const (ts - 1)))
                  in
                  let pl =
                    { l with Ir.lid = Ir.fresh_id (); lo = point_lo; hi = point_hi }
                  in
                  tile_loops := !tile_loops @ [ tl ];
                  point_loops := !point_loops @ [ pl ]
                end)
              band_arr;
            let order = !tile_loops @ !point_loops in
            Ok (Stride.rebuild_band order body)
          end
        end
      end

(* ------------------------------------------------------------------ *)
(* Attribute marking                                                    *)

let set_attrs_at ~(pos : int) (nest : Ir.loop) (f : Ir.attrs -> Ir.attrs) :
    (Ir.loop, error) result =
  let band, body = Legality.perfect_band nest in
  if pos < 0 || pos >= List.length band then
    errorf "position %d out of band range %d" pos (List.length band)
  else
    let band =
      List.mapi
        (fun i (l : Ir.loop) ->
          if i = pos then { l with Ir.attrs = f l.Ir.attrs } else l)
        band
    in
    Ok (Stride.rebuild_band band body)

(** [parallelize ~outer nest pos] marks band position [pos] parallel when it
    carries no dependence; when [allow_atomic] (default), falls back to
    atomic-reduction parallelism when all carried dependences are reduction
    self-updates. *)
let parallelize ?(allow_atomic = true) ~outer (nest : Ir.loop) (pos : int) :
    (Ir.loop, error) result =
  let band, body = Legality.perfect_band nest in
  if pos < 0 || pos >= List.length band then
    errorf "parallelize: position %d out of range" pos
  else begin
    let vectors = Legality.band_dep_vectors ~outer band body in
    let parallel = Legality.parallel_positions vectors (List.length band) in
    if parallel.(pos) then
      set_attrs_at ~pos nest (fun a -> { a with Ir.parallel = true })
    else
      let l = List.nth band pos in
      let outer_of_l = outer @ Util.take pos band in
      if allow_atomic && Legality.carried_only_by_reductions ~outer:outer_of_l l
      then
        set_attrs_at ~pos nest (fun a ->
            { a with Ir.parallel = true; atomic = true })
      else errorf "parallelize: loop %s carries a dependence" l.Ir.iter
  end

(** [vectorize ~outer nest] marks the innermost band loop vectorized when it
    carries no dependence (reductions vectorize too: hardware reduction). *)
let vectorize ~outer (nest : Ir.loop) : (Ir.loop, error) result =
  let band, body = Legality.perfect_band nest in
  let pos = List.length band - 1 in
  let vectors = Legality.band_dep_vectors ~outer band body in
  let parallel = Legality.parallel_positions vectors (List.length band) in
  let l = List.nth band pos in
  let outer_of_l = outer @ Util.take pos band in
  if
    parallel.(pos)
    || Legality.carried_only_by_reductions ~outer:outer_of_l l
  then set_attrs_at ~pos nest (fun a -> { a with Ir.vectorized = true })
  else errorf "vectorize: innermost loop %s carries a dependence" l.Ir.iter

(** [unroll nest pos factor] — unrolling is always legal; it is recorded as
    an attribute the machine model interprets as extra ILP. *)
let unroll (nest : Ir.loop) (pos : int) (factor : int) :
    (Ir.loop, error) result =
  if factor < 2 then errorf "unroll: factor must be >= 2"
  else set_attrs_at ~pos nest (fun a -> { a with Ir.unroll = factor })
