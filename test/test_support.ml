(** Tests for the support library: deterministic RNG, utility
    functions, locations and diagnostics. *)

open Daisy_support

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.of_string "stream" and b = Rng.of_string "stream" in
  for _ = 1 to 100 do
    Alcotest.(check int) "same sequence" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_streams_differ () =
  let a = Rng.of_string "one" and b = Rng.of_string "two" in
  let va = List.init 20 (fun _ -> Rng.int a 1_000_000) in
  let vb = List.init 20 (fun _ -> Rng.int b 1_000_000) in
  Alcotest.(check bool) "different streams" false (va = vb)

let test_rng_bounds () =
  let r = Rng.of_string "bounds" in
  for _ = 1 to 10_000 do
    let v = Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  for _ = 1 to 10_000 do
    let f = Rng.float r in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_shuffle_permutes () =
  let r = Rng.of_string "shuffle" in
  let xs = List.init 30 Fun.id in
  let ys = Rng.shuffle r xs in
  Alcotest.(check (list int)) "same elements" xs (List.sort compare ys)

(* ------------------------------------------------------------------ *)
(* Util *)

let test_gcd_lcm () =
  Alcotest.(check int) "gcd" 6 (Util.gcd 54 24);
  Alcotest.(check int) "gcd neg" 6 (Util.gcd (-54) 24);
  Alcotest.(check int) "gcd zero" 7 (Util.gcd 0 7);
  Alcotest.(check int) "lcm" 216 (Util.lcm 54 24)

let test_permutations () =
  Alcotest.(check int) "3! = 6" 6 (List.length (Util.permutations [ 1; 2; 3 ]));
  Alcotest.(check int) "4! = 24" 24 (List.length (Util.permutations [ 1; 2; 3; 4 ]));
  let perms = Util.permutations [ 1; 2; 3 ] in
  Alcotest.(check int) "all distinct" 6
    (List.length (Util.dedup ~eq:( = ) perms))

let test_take_drop_span () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Util.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Util.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Util.drop 2 [ 1; 2; 3 ]);
  let pre, post = Util.span (fun x -> x < 3) [ 1; 2; 3; 1 ] in
  Alcotest.(check (list int)) "span pre" [ 1; 2 ] pre;
  Alcotest.(check (list int)) "span post" [ 3; 1 ] post

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Util.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 1e-9)) "geomean single" 3.0 (Util.geomean [ 3.0 ])

let test_fresh_name () =
  let taken = Util.SSet.of_list [ "x"; "x_0"; "x_1" ] in
  Alcotest.(check string) "skips taken" "x_2" (Util.fresh_name "x" taken);
  Alcotest.(check string) "free base" "y" (Util.fresh_name "y" taken)

(* ------------------------------------------------------------------ *)
(* Loc / Diag *)

let test_loc_advance () =
  let p = Loc.start_pos in
  let p = Loc.advance p 'a' in
  Alcotest.(check int) "col" 2 p.Loc.col;
  let p = Loc.advance p '\n' in
  Alcotest.(check int) "line" 2 p.Loc.line;
  Alcotest.(check int) "col reset" 1 p.Loc.col

let test_diag_message () =
  match Diag.errorf ~loc:Loc.dummy "bad %s %d" "thing" 42 with
  | exception Diag.Error d ->
      Alcotest.(check string) "message" "bad thing 42" d.Diag.message
  | _ -> Alcotest.fail "expected Diag.Error"

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng streams differ", `Quick, test_rng_streams_differ);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("gcd/lcm", `Quick, test_gcd_lcm);
    ("permutations", `Quick, test_permutations);
    ("take/drop/span", `Quick, test_take_drop_span);
    ("geomean", `Quick, test_geomean);
    ("fresh names", `Quick, test_fresh_name);
    ("loc advance", `Quick, test_loc_advance);
    ("diag formatting", `Quick, test_diag_message);
  ]
