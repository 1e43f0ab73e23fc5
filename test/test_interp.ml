(** Error-path coverage for the reference interpreter: out-of-bounds
    subscripts, missing size parameters, unbound scalars, unknown
    intrinsics (or a wrong arity) and unknown arrays must raise
    {!Daisy_interp.Interp.Runtime_error} with a message that names the
    offending entity. *)

module Ir = Daisy_loopir.Ir
module Expr = Daisy_poly.Expr
module Interp = Daisy_interp.Interp

let lower = Daisy_lang.Lower.program_of_string ~source:"test.c"

let check_runtime_error name substrings f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Runtime_error" name
  | exception Interp.Runtime_error msg ->
      List.iter
        (fun sub ->
          let contains =
            let ls = String.length sub and lm = String.length msg in
            let rec go i = i + ls <= lm && (String.sub msg i ls = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: message %S mentions %S" name msg sub)
            true contains)
        substrings

let test_out_of_bounds () =
  (* at i = n-1 this writes A[n], one past the end *)
  let p =
    lower
      {|void f(int n, double A[n]) {
          for (int i = 0; i < n; i++)
            A[i + 1] = 1.0;
        }|}
  in
  check_runtime_error "oob write" [ "out of bounds"; "dimension 0" ]
    (fun () -> Interp.run_fresh p ~sizes:[ ("n", 4) ] ());
  (* reads are checked through the same bounds logic *)
  let q =
    lower
      {|void f(int n, double A[n], double B[n]) {
          for (int i = 0; i < n; i++)
            A[i] = B[i + 2];
        }|}
  in
  check_runtime_error "oob read" [ "out of bounds" ]
    (fun () -> Interp.run_fresh q ~sizes:[ ("n", 4) ] ())

let test_missing_size_parameter () =
  let p =
    lower
      {|void f(int n, int m, double A[n][m]) {
          for (int i = 0; i < n; i++)
            for (int j = 0; j < m; j++)
              A[i][j] = 0.0;
        }|}
  in
  check_runtime_error "missing size" [ "missing size parameter"; "m" ]
    (fun () -> Interp.init p ~sizes:[ ("n", 4) ] ())

(* one array [A[n]] and one local scalar, built directly in the IR:
   the frontend would reject the bodies below *)
let base =
  {
    Ir.pname = "errors";
    size_params = [ "n" ];
    scalar_params = [];
    arrays =
      [ { Ir.name = "A"; elem = Ir.Fdouble; dims = [ Expr.var "n" ];
          storage = Ir.Sparam } ];
    local_scalars = [ "alpha" ];
    body = [];
  }

let store ?(array = "A") rhs =
  { base with
    Ir.body =
      [ Ir.Ncomp
          (Ir.mk_comp
             (Ir.Darray { Ir.array; indices = [ Expr.const 0 ] })
             rhs) ] }

let test_unbound_scalar () =
  (* a scalar that is neither a declared parameter nor assigned before use *)
  check_runtime_error "unbound scalar" [ "unbound scalar"; "alpha" ]
    (fun () -> Interp.run_fresh (store (Ir.Vscalar "alpha")) ~sizes:[ ("n", 4) ] ())

let test_unknown_names () =
  (* unknown intrinsics and arrays are invalid IR; the interpreter never
     validates, so it must raise on them at run time *)
  let run p () = Interp.run_fresh p ~sizes:[ ("n", 4) ] () in
  check_runtime_error "unknown intrinsic" [ "unknown intrinsic"; "bogus/2" ]
    (run (store (Ir.Vcall ("bogus", [ Ir.Vfloat 1.0; Ir.Vfloat 2.0 ]))));
  check_runtime_error "wrong-arity intrinsic" [ "unknown intrinsic"; "sqrt/2" ]
    (run (store (Ir.Vcall ("sqrt", [ Ir.Vfloat 1.0; Ir.Vfloat 2.0 ]))));
  check_runtime_error "unknown array read" [ "unknown array"; "Ghost" ]
    (run (store (Ir.Vread { Ir.array = "Ghost"; indices = [ Expr.const 0 ] })));
  check_runtime_error "unknown array write" [ "unknown array"; "Ghost" ]
    (run (store ~array:"Ghost" (Ir.Vfloat 1.0)))

let test_declared_scalar_param_defaults () =
  (* a declared scalar parameter is defaulted deterministically, not an
     error — pin the contrast with the unbound-scalar case *)
  let p =
    lower
      {|void f(int n, double alpha, double A[n]) {
          for (int i = 0; i < n; i++)
            A[i] = alpha;
        }|}
  in
  let s1 = Interp.run_fresh p ~sizes:[ ("n", 4) ] () in
  let s2 = Interp.run_fresh p ~sizes:[ ("n", 4) ] () in
  Alcotest.(check (float 0.0)) "deterministic default" 0.0
    (Interp.max_rel_diff p s1 s2)

let suite =
  [
    ("out-of-bounds index", `Quick, test_out_of_bounds);
    ("missing size parameter", `Quick, test_missing_size_parameter);
    ("unbound scalar", `Quick, test_unbound_scalar);
    ("unknown intrinsic or array", `Quick, test_unknown_names);
    ("declared scalar defaults", `Quick, test_declared_scalar_param_defaults);
  ]
