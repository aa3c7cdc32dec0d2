open Fieldlib
open Constr
open Zlang

let ctx = Fp.create Primes.p127

(* Compile, solve on given int inputs, check both systems are satisfied, and
   return the signed-int outputs. *)
let run_program src inputs =
  let c = Compile.compile ~ctx src in
  let xs = Array.map (Fp.of_int ctx) (Array.of_list inputs) in
  if Array.length xs <> c.Compile.num_inputs then
    Alcotest.failf "bad input arity: %d vs %d" (Array.length xs) c.Compile.num_inputs;
  let wg = c.Compile.solve_ginger xs in
  if not (Quad.satisfied ctx c.Compile.ginger wg) then Alcotest.fail "ginger not satisfied";
  let wz = c.Compile.solve_zaatar xs in
  if not (R1cs.satisfied ctx (Compile.zaatar_r1cs c) wz) then Alcotest.fail "zaatar not satisfied";
  let out_g = Compile.outputs_ginger c wg in
  let out_z = Compile.outputs_zaatar c wz in
  Array.iteri
    (fun i v ->
      if not (Fp.equal v out_z.(i)) then Alcotest.fail "ginger/zaatar outputs disagree")
    out_g;
  Array.map
    (fun v -> match Fp.to_signed_int ctx v with Some n -> n | None -> Alcotest.fail "output overflow")
    out_g
  |> Array.to_list

let check_outputs name src inputs expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list int)) "outputs" expected (run_program src inputs))

let basic_tests =
  [
    check_outputs "decrement by 3 (paper's example)"
      "computation dec3(input int32 x, output int32 y) { y = x - 3; }"
      [ 10 ] [ 7 ];
    check_outputs "negative results"
      "computation dec3(input int32 x, output int32 y) { y = x - 3; }"
      [ 1 ] [ -2 ];
    check_outputs "arithmetic and precedence"
      "computation arith(input int32 a, input int32 b, output int32 y) { y = a + b * b - 2 * a; }"
      [ 5; 3 ] [ 4 ];
    check_outputs "x != z via inverse trick (section 2.2)"
      "computation neq(input int32 x, input int32 z, output int32 y) { if (x != z) { y = 1; } else { y = 0; } }"
      [ 4; 4 ] [ 0 ];
    check_outputs "order comparison true"
      "computation cmp(input int32 a, input int32 b, output int32 y) { if (a < b) { y = 10; } else { y = 20; } }"
      [ 3; 7 ] [ 10 ];
    check_outputs "order comparison false"
      "computation cmp(input int32 a, input int32 b, output int32 y) { if (a < b) { y = 10; } else { y = 20; } }"
      [ 7; 3 ] [ 20 ];
    check_outputs "comparison with negatives"
      "computation cmp(input int32 a, input int32 b, output int32 y) { if (a <= b) { y = 1; } else { y = 0 - 1; } }"
      [ -5; -5 ] [ 1 ];
    check_outputs "logical connectives"
      "computation logic(input int32 a, input int32 b, output int32 y) {\n\
      \  if ((a < b && b < 10) || a == 42) { y = 1; } else { y = 0; }\n\
       }"
      [ 42; 0 ] [ 1 ];
    check_outputs "unary not"
      "computation notx(input int32 a, output int32 y) { if (!(a > 3)) { y = 1; } else { y = 2; } }"
      [ 2 ] [ 1 ];
    check_outputs "loops unroll"
      "computation sum(input int32 a[5], output int32 s) {\n\
      \  var int32 acc = 0;\n\
      \  for i in 0..5 { acc = acc + a[i]; }\n\
      \  s = acc;\n\
       }"
      [ 1; 2; 3; 4; 5 ] [ 15 ];
    check_outputs "nested loops and constant folding"
      "computation mat(input int32 a[4], input int32 b[4], output int32 c[4]) {\n\
      \  for i in 0..2 { for j in 0..2 {\n\
      \    var int32 acc = 0;\n\
      \    for k in 0..2 { acc = acc + a[2*i+k] * b[2*k+j]; }\n\
      \    c[2*i+j] = acc;\n\
      \  } }\n\
       }"
      [ 1; 2; 3; 4; 5; 6; 7; 8 ] [ 19; 22; 43; 50 ];
    check_outputs "dynamic array read"
      "computation pick(input int32 a[4], input int32 i, output int32 y) { y = a[i]; }"
      [ 10; 20; 30; 40; 2 ] [ 30 ];
    check_outputs "dynamic array write"
      "computation put(input int32 i, input int32 v, output int32 a[3]) {\n\
      \  var int32 t[3];\n\
      \  t[0] = 1; t[1] = 2; t[2] = 3;\n\
      \  t[i] = v;\n\
      \  for k in 0..3 { a[k] = t[k]; }\n\
       }"
      [ 1; 99 ] [ 1; 99; 3 ];
    check_outputs "if over array state merges"
      "computation m(input int32 c, output int32 a[2]) {\n\
      \  var int32 t[2];\n\
      \  t[0] = 1; t[1] = 2;\n\
      \  if (c > 0) { t[0] = 5; } else { t[1] = 6; }\n\
      \  a[0] = t[0]; a[1] = t[1];\n\
       }"
      [ 1 ] [ 5; 2 ];
    check_outputs "min via conditional (Floyd-Warshall kernel)"
      "computation mn(input int32 a, input int32 b, output int32 y) {\n\
      \  if (a < b) { y = a; } else { y = b; }\n\
       }"
      [ -3; 2 ] [ -3 ];
    check_outputs "multiplication chain widths"
      "computation chain(input int8 a, output int64 y) { y = a * a * a * a; }"
      [ 3 ] [ 81 ];
    check_outputs "static conditional folds"
      "computation s(input int32 x, output int32 y) {\n\
      \  for i in 0..4 { if (i == 2) { y = y + x; } }\n\
       }"
      [ 7 ] [ 7 ];
  ]

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let error_case name src msg_fragment =
  Alcotest.test_case name `Quick (fun () ->
      match Compile.compile ~ctx src with
      | exception Ast.Error m ->
        if not (contains m msg_fragment) then
          Alcotest.failf "expected error mentioning %S, got %S" msg_fragment m
      | _ -> Alcotest.fail "expected a compile error")

let error_tests =
  [
    error_case "undefined variable" "computation e(output int32 y) { y = q; }" "undefined";
    error_case "an integer literal past max_int" "computation e(output int32 y) { y = 4611686018427387904; }"
      "line 1, col 37: integer literal 4611686018427387904 is out of range";
    error_case "non-constant loop bound"
      "computation e(input int32 n, output int32 y) { for i in 0..n { y = y + 1; } }"
      "constant";
    error_case "shadowing rejected"
      "computation e(input int32 x, output int32 y) { var int32 x = 1; y = x; }"
      "shadowing";
    error_case "if on non-boolean"
      "computation e(input int32 x, output int32 y) { if (x) { y = 1; } }"
      "boolean";
    error_case "constant index out of bounds"
      "computation e(input int32 a[3], output int32 y) { y = a[5]; }"
      "out of bounds";
    error_case "array used as scalar"
      "computation e(input int32 a[3], output int32 y) { y = a + 1; }"
      "scalar";
  ]

(* Witness-level behaviour of the dynamic access gadget: an out-of-range
   runtime index must make the constraints unsatisfiable. *)
let gadget_tests =
  [
    Alcotest.test_case "dynamic index out of range is unsatisfiable" `Quick (fun () ->
        let c =
          Compile.compile ~ctx
            "computation pick(input int32 a[3], input int32 i, output int32 y) { y = a[i]; }"
        in
        let xs = Array.map (Fp.of_int ctx) [| 1; 2; 3; 7 |] in
        let w = c.Compile.solve_ginger xs in
        Alcotest.(check bool) "unsatisfied" false (Quad.satisfied ctx c.Compile.ginger w));
    Alcotest.test_case "stats are consistent (Figure 9 invariants)" `Quick (fun () ->
        let c =
          Compile.compile ~ctx
            "computation dot(input int32 a[8], input int32 b[8], output int32 y) {\n\
            \  var int64 acc = 0;\n\
            \  for i in 0..8 { acc = acc + a[i] * b[i]; }\n\
            \  y = acc;\n\
             }"
        in
        let s = Compile.stats c in
        Alcotest.(check int) "|Z_zaatar| = |Z_ginger| + K2" s.Compile.z_zaatar
          (s.Compile.z_ginger + s.Compile.k2);
        Alcotest.(check int) "|C_zaatar| = |C_ginger| + K2" s.Compile.c_zaatar
          (s.Compile.c_ginger + s.Compile.k2);
        (* The dot product keeps all 8 products in one constraint: K2 = 8. *)
        Alcotest.(check int) "K2 = 8" 8 s.Compile.k2;
        Alcotest.(check bool) "u_zaatar far smaller than u_ginger for nontrivial |Z|"
          true (s.Compile.u_zaatar < s.Compile.u_ginger || s.Compile.z_ginger <= 2));
    Alcotest.test_case "comparison cost is O(width) constraints" `Quick (fun () ->
        let compile_bits bits =
          let src =
            Printf.sprintf
              "computation c(input int%d a, input int%d b, output int32 y) { if (a < b) { y = 1; } }"
              bits bits
          in
          Quad.num_constraints (Compile.compile ~ctx src).Compile.ginger
        in
        let c8 = compile_bits 8 and c32 = compile_bits 32 in
        Alcotest.(check bool) "wider types cost more constraints" true (c32 > c8);
        Alcotest.(check bool) "growth is roughly linear" true (c32 - c8 <= 2 * (32 - 8)));
  ]

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* Differential test: random straight-line programs evaluated both natively
   and through the full compile/solve pipeline. *)
let property_tests =
  [
    qtest "random expressions match native evaluation" 60
      (QCheck.make
         ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
         QCheck.Gen.(triple (int_range (-1000) 1000) (int_range (-1000) 1000) (int_range (-1000) 1000)))
      (fun (a, bv, cv) ->
        let src =
          "computation f(input int32 a, input int32 b, input int32 c, output int64 y) {\n\
          \  var int64 t = a * b + c;\n\
          \  if (t > c) { t = t - a; } else { t = t + b; }\n\
          \  if (a == b || c < 0) { t = t * 2; }\n\
          \  y = t;\n\
           }"
        in
        let native =
          let t = (a * bv) + cv in
          let t = if t > cv then t - a else t + bv in
          let t = if a = bv || cv < 0 then t * 2 else t in
          t
        in
        run_program src [ a; bv; cv ] = [ native ]);
    qtest "random dynamic accesses match native" 40
      (QCheck.make
         ~print:(fun (i, v) -> Printf.sprintf "(%d,%d)" i v)
         QCheck.Gen.(pair (int_range 0 4) (int_range (-50) 50)))
      (fun (i, v) ->
        let src =
          "computation g(input int32 a[5], input int32 i, input int32 v, output int32 y) {\n\
          \  a[i] = a[i] + v;\n\
          \  var int32 s = 0;\n\
          \  for k in 0..5 { s = s + a[k]; }\n\
          \  y = s;\n\
           }"
        in
        let base = [ 3; 1; 4; 1; 5 ] in
        let native = List.fold_left ( + ) 0 base + v in
        run_program src (base @ [ i; v ]) = [ native ]);
  ]

let suite = basic_tests @ error_tests @ gadget_tests @ property_tests

(* --- shift operators and the fixed-point truncation gadget --- *)

let shift_tests =
  [
    check_outputs "right shift positive"
      "computation s(input int32 x, output int32 y) { y = x >> 3; }"
      [ 100 ] [ 12 ];
    check_outputs "right shift negative uses floor semantics"
      "computation s(input int32 x, output int32 y) { y = x >> 3; }"
      [ -100 ] [ -13 ];
    check_outputs "right shift by more than the width"
      "computation s(input int8 x, output int32 y) { y = x >> 20; }"
      [ -5 ] [ -1 ];
    check_outputs "right shift by more than the width, nonnegative"
      "computation s(input int8 x, output int32 y) { y = x >> 20; }"
      [ 5 ] [ 0 ];
    check_outputs "left shift"
      "computation s(input int16 x, output int32 y) { y = x << 4; }"
      [ -3 ] [ -48 ];
    check_outputs "fixed-point multiply (Q8.8)"
      (* 1.5 * 2.25 = 3.375 -> 864 in Q8.8 *)
      "computation fx(input int16 a, input int16 b, output int32 y) { y = (a * b) >> 8; }"
      [ 384; 576 ] [ 864 ];
    check_outputs "fixed-point running average"
      "computation avg(input int16 x[4], output int32 y) {\n\
      \  var int32 acc = 0;\n\
      \  for i in 0..4 { acc = acc + x[i]; }\n\
      \  y = acc >> 2;\n\
       }"
      [ 256; 512; 256; 512 ] [ 384 ];
    check_outputs "shift of a constant folds"
      "computation s(input int32 x, output int32 y) { y = x + (1024 >> 4); }"
      [ 0 ] [ 64 ];
    error_case "shift by non-constant"
      "computation s(input int32 x, input int32 k, output int32 y) { y = x >> k; }"
      "constant";
  ]

let shift_property_tests =
  [
    qtest "random shifts match OCaml floor division" 80
      (QCheck.make
         ~print:(fun (x, k) -> Printf.sprintf "(%d,%d)" x k)
         QCheck.Gen.(pair (int_range (-100000) 100000) (int_range 1 10)))
      (fun (x, k) ->
        let src =
          Printf.sprintf "computation s(input int32 x, output int32 y) { y = x >> %d; }" k
        in
        (* floor(x / 2^k) *)
        let expected =
          if x >= 0 then x lsr k else -(((-x) + (1 lsl k) - 1) lsr k)
        in
        run_program src [ x ] = [ expected ]);
  ]

let suite = suite @ shift_tests @ shift_property_tests

(* Parser robustness: malformed inputs must raise Ast.Error, never crash or
   loop. *)
let parser_fuzz_tests =
  [
    Alcotest.test_case "malformed programs raise Ast.Error" `Quick (fun () ->
        let cases =
          [
            "";
            "computation";
            "computation f";
            "computation f()";
            "computation f() {";
            "computation f() { y = ; }";
            "computation f(input int32 x) { x = 1 }";
            "computation f(inputs int32 x, output int32 y) { y = x; }";
            "computation f(input int32 x, output int32 y) { y = x +; }";
            "computation f(input int32 x, output int32 y) { y = (x; }";
            "computation f(input int32 x, output int32 y) { for i in x { } }";
            "computation f(input int32 x, output int32 y) { y = x; } trailing";
            "computation f(input int999 x, output int32 y) { y = x; }";
            "computation f(input int32 x[], output int32 y) { y = 0; }";
            "computation f(input int32 x, output int32 y) { y = x @ 3; }";
            "computation f(input int32 x, output int32 y) { if x > 1 { y = 1; } }";
            "computation f(input int32 x, output int32 y) { var bool2 t; y = 0; }";
            "computation f(input int32 x, output int32 y) /* unterminated";
            "computation f(input int32 x, output int32 y) { y = x + 99999999999999999999; }";
          ]
        in
        List.iter
          (fun src ->
            match Compile.compile ~ctx src with
            | exception Ast.Error _ -> ()
            | exception e ->
              Alcotest.failf "unexpected exception %s for %S" (Printexc.to_string e) src
            | _ -> Alcotest.failf "expected a parse/compile error for %S" src)
          cases);
    Alcotest.test_case "random token soup does not crash" `Quick (fun () ->
        let pieces =
          [| "computation"; "input"; "output"; "var"; "if"; "else"; "for"; "in"; "int32"; "x";
             "y"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "="; "=="; "<"; "+"; "-"; "*"; "!";
             "&&"; "0"; "42"; ".."; ">>" |]
        in
        let prg = Chacha.Prg.create ~seed:"fuzz" () in
        for _ = 1 to 200 do
          let n = 1 + Chacha.Prg.int_below prg 30 in
          let src =
            String.concat " "
              (List.init n (fun _ -> pieces.(Chacha.Prg.int_below prg (Array.length pieces))))
          in
          match Compile.compile ~ctx src with
          | exception Ast.Error _ -> ()
          | exception e ->
            Alcotest.failf "unexpected exception %s for %S" (Printexc.to_string e) src
          | _ -> () (* a random valid program is fine too *)
        done);
  ]

let suite = suite @ parser_fuzz_tests

(* The unroll budget: a loop nest whose trip counts multiply past
   Compile.unroll_budget fails at the loop that crosses it, before any
   unrolling, so even a 10^8-iteration loop errors at once. *)
let unroll_budget_tests =
  [
    Alcotest.test_case "loop bomb fixture errors in under 1 s" `Quick (fun () ->
        let ic = open_in_bin "lint_fixtures/zl000_unroll_bomb.zl" in
        let src = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let t0 = Unix.gettimeofday () in
        (match Compile.compile ~ctx src with
        | exception Ast.Error m ->
          Alcotest.(check bool) ("names the budget: " ^ m) true (contains m "unroll budget of 1000000")
        | _ -> Alcotest.fail "expected an unroll-budget error");
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check bool) (Printf.sprintf "errored in %.3f s" dt) true (dt < 1.0));
    error_case "nested loops past the budget fail at the inner loop"
      "computation e(output int32 y) {\n  for i in 0..1001 {\n    for j in 0..1000 { y = y + 1; }\n  }\n}"
      "line 3, col 5: loop nest unrolls past the unroll budget";
    error_case "a 2^62-wide loop does not overflow the check"
      "computation e(output int32 y) { for i in 0..4611686018427387903 { y = y + 1; } }" "unroll budget";
    error_case "a near-max_int trip count under a wide loop"
      "computation e(output int32 y) { for i in 0..3 { for j in 0..2305843009213693952 { y = y + 1; } } }"
      "unroll budget";
  ]

let suite = suite @ unroll_budget_tests
