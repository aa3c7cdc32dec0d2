(* Zexec, the witness-solving interpreter: the Legendre symbol behind the
   quadratic rule, each propagation rule against hand-built systems, the
   error cases (Unsat / Stuck), agreement with the compiler's solver on
   compiled programs over several fields, the zero-default convention,
   and the pinned solve stats and lint findings of the sweep programs. *)

open Fieldlib
open Constr

let ctx = Fp.create Primes.p127_ntt

let fi n = Fp.of_int ctx n

(* A quadratic-form system over [n] variables (plus w0) from (a, b, c)
   triples given as (var, int) coefficient lists; var 0 is the constant. *)
let system ?(field = ctx) ~num_vars ~num_z rows =
  let lc terms =
    List.fold_left (fun acc (v, c) -> Lincomb.add_term field acc v (Fp.of_int field c)) Lincomb.zero terms
  in
  {
    R1cs.field;
    num_vars;
    num_z;
    constraints = Array.of_list (List.map (fun (a, b, c) -> { R1cs.a = lc a; b = lc b; c = lc c }) rows);
  }

(* ---- legendre ---- *)

let legendre_fields =
  [ ("p61", Primes.p61); ("p127", Primes.p127); ("p127_ntt", Primes.p127_ntt); ("bls12_381_fr", Primes.bls12_381_fr) ]

(* Uniform-ish elements: nine 30-bit limbs reduced mod p cover every field
   here (bls12_381_fr is 255 bits). *)
let arb_el ctx =
  QCheck.make ~print:Fp.to_string
    QCheck.Gen.(
      list_size (return 9) (int_range 0 ((1 lsl 30) - 1)) >|= fun limbs ->
      Fp.of_nat ctx (List.fold_left (fun acc l -> Nat.add_int (Nat.shift_left acc 30) l) Nat.zero limbs))

(* Euler's criterion a^((p-1)/2), read back as -1 / 0 / 1. *)
let euler ctx a =
  let e = Fp.pow ctx a (Nat.shift_right (Nat.sub (Fp.modulus ctx) Nat.one) 1) in
  if Fp.is_zero e then 0 else if Fp.equal e Fp.one then 1 else -1

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let legendre_props =
  List.concat_map
    (fun (name, prime) ->
      let ctx = Fp.create prime in
      [
        qtest (Printf.sprintf "legendre %s: Euler's criterion" name) 200 (arb_el ctx) (fun a ->
            Zexec.Exec.legendre ctx a = euler ctx a);
        qtest (Printf.sprintf "legendre %s: non-zero squares give 1" name) 200 (arb_el ctx) (fun x ->
            QCheck.assume (not (Fp.is_zero x));
            Zexec.Exec.legendre ctx (Fp.sqr ctx x) = 1);
      ])
    legendre_fields

let test_legendre_small () =
  List.iter
    (fun (name, prime) ->
      let ctx = Fp.create prime in
      Alcotest.(check int) (name ^ ": legendre 0 = 0") 0 (Zexec.Exec.legendre ctx Fp.zero);
      Alcotest.(check int) (name ^ ": legendre 1 = 1") 1 (Zexec.Exec.legendre ctx Fp.one);
      (* exactly (p-1)/2 non-residues exist; one sits below 100 *)
      let rec nonresidue n =
        if n >= 100 then Alcotest.fail (name ^ ": no non-residue in 2..99")
        else
          let x = Fp.of_int ctx n in
          Alcotest.(check int) (Printf.sprintf "%s: legendre %d = Euler" name n) (euler ctx x)
            (Zexec.Exec.legendre ctx x);
          if Zexec.Exec.legendre ctx x <> -1 then nonresidue (n + 1)
      in
      nonresidue 2)
    legendre_fields

(* ---- individual propagation rules ---- *)

(* w1 pinned linearly from the input: 1 * (x + 1) = w1, x = 5 -> w1 = 6. *)
let test_linear_pin () =
  let sys = system ~num_vars:2 ~num_z:1 [ ([ (0, 1) ], [ (2, 1); (0, 1) ], [ (1, 1) ]) ] in
  match Zexec.Exec.solve sys ~inputs:[| fi 5 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, st) ->
    Alcotest.(check bool) "w1 = 6" true (Fp.equal w.(1) (fi 6));
    Alcotest.(check int) "one pin" 1 st.Zexec.Exec.pinned

(* Division through a known factor: w1 * x = 12 with x = 3 -> w1 = 4. *)
let test_div_pin () =
  let sys = system ~num_vars:2 ~num_z:1 [ ([ (1, 1) ], [ (2, 1) ], [ (0, 12) ]) ] in
  match Zexec.Exec.solve sys ~inputs:[| fi 3 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, _) -> Alcotest.(check bool) "w1 = 4" true (Fp.equal w.(1) (fi 4))

(* A known-zero factor annihilates the product: 0 * (w1 + w2) = w1 with
   w2 free. w1 must vanish alone; w2 defaults to zero. *)
let test_zero_factor () =
  let sys =
    system ~num_vars:3 ~num_z:2
      [ ([ (3, 1) ], [ (1, 1); (2, 1) ], [ (1, 1) ]) ]
  in
  match Zexec.Exec.solve sys ~inputs:[| fi 0 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, st) ->
    Alcotest.(check bool) "w1 = 0" true (Fp.is_zero w.(1));
    Alcotest.(check int) "w2 defaulted" 1 st.Zexec.Exec.defaulted

(* The bit rule: x + 4 = 4*b2 + 2*b1 + 1*b0 with booleanity rows. For
   x = 1: 5 = 101b. *)
let test_bits () =
  let bool_row v = ([ (v, 1) ], [ (v, 1) ], [ (v, 1) ]) in
  let sys =
    system ~num_vars:4 ~num_z:3
      [
        bool_row 1;
        bool_row 2;
        bool_row 3;
        ([ (0, 1) ], [ (4, 1); (0, 4) ], [ (1, 1); (2, 2); (3, 4) ]);
      ]
  in
  match Zexec.Exec.solve sys ~inputs:[| fi 1 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, _) ->
    Alcotest.(check bool) "b0 = 1" true (Fp.equal w.(1) Fp.one);
    Alcotest.(check bool) "b1 = 0" true (Fp.is_zero w.(2));
    Alcotest.(check bool) "b2 = 1" true (Fp.equal w.(3) Fp.one)

(* Degree-2 with a double root pins: (w1 - x)^2 = 0 -> w1 = x. *)
let test_quadratic_double_root () =
  let row = ([ (1, 1); (2, -1) ], [ (1, 1); (2, -1) ], []) in
  let sys = system ~num_vars:2 ~num_z:1 [ row ] in
  match Zexec.Exec.solve sys ~inputs:[| fi 7 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, _) -> Alcotest.(check bool) "w1 = 7" true (Fp.equal w.(1) (fi 7))

(* Two distinct roots must not be guessed: w1 * w1 = 4 alone is
   under-determined (w1 could be 2 or -2) -> Stuck, with the row counted
   ambiguous. *)
let test_quadratic_ambiguous () =
  let sys = system ~num_vars:1 ~num_z:1 [ ([ (1, 1) ], [ (1, 1) ], [ (0, 4) ]) ] in
  match Zexec.Exec.solve sys ~inputs:[||] with
  | Ok _ -> Alcotest.fail "two-root quadratic must not solve"
  | Error (Zexec.Exec.Unsat _) -> Alcotest.fail "ambiguity is not unsatisfiability"
  | Error (Zexec.Exec.Stuck { vars; _ }) ->
    Alcotest.(check (list int)) "w1 is the stuck variable" [ 1 ] vars

(* An inconsistent row is Unsat with the row index: x * 1 = x + 3 with
   x = 2, and w1 * w1 = n for a non-residue n (the quadratic has no root
   in the field). *)
let test_unsat () =
  let n = List.find (fun n -> euler ctx (fi n) = -1) (List.init 98 (fun i -> i + 2)) in
  List.iter
    (fun (sys, inputs) ->
      match Zexec.Exec.solve sys ~inputs with
      | Error (Zexec.Exec.Unsat { row; _ }) -> Alcotest.(check int) "row 0" 0 row
      | Error (Zexec.Exec.Stuck _) -> Alcotest.fail "expected Unsat, got Stuck"
      | Ok _ -> Alcotest.fail "contradiction accepted")
    [
      (system ~num_vars:1 ~num_z:0 [ ([ (0, 1) ], [ (1, 1) ], [ (1, 1); (0, 3) ]) ], [| fi 2 |]);
      (system ~num_vars:1 ~num_z:1 [ ([ (1, 1) ], [ (1, 1) ], [ (0, n) ]) ], [||]);
    ]

(* A free variable that zero-defaults into a *satisfied* system is fine:
   w1 * x = 0 with x = 0 leaves w1 free, and 0 works. *)
let test_zero_default_ok () =
  let sys = system ~num_vars:2 ~num_z:1 [ ([ (1, 1) ], [ (2, 1) ], []) ] in
  match Zexec.Exec.solve sys ~inputs:[| fi 0 |] with
  | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
  | Ok (w, st) ->
    Alcotest.(check bool) "w1 = 0" true (Fp.is_zero w.(1));
    Alcotest.(check int) "defaulted" 1 st.Zexec.Exec.defaulted

(* ...but zero-defaulting through a violated row is Stuck, not a wrong
   answer: w1 * w1 = 4 again, via the ZR008 fixture this time. *)
let test_zr008_fixture_stuck () =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let sys = Serialize.system_of_string (read_file "lint_fixtures/zr008_multiroot.r1cs") in
  (* the fixture's second row demands w2 = 5, so seed it consistently *)
  match Zexec.Exec.solve sys ~inputs:[| Fp.of_int sys.R1cs.field 5 |] with
  | Ok _ -> Alcotest.fail "multi-root fixture must not solve"
  | Error (Zexec.Exec.Unsat _) -> Alcotest.fail "fixture is under-determined, not unsatisfiable"
  | Error (Zexec.Exec.Stuck _) -> ()

let test_too_many_inputs () =
  let sys = system ~num_vars:2 ~num_z:1 [ ([ (0, 1) ], [ (2, 1) ], [ (1, 1) ]) ] in
  Alcotest.check_raises "inputs beyond the IO block rejected"
    (Invalid_argument "Exec.solve: 3 inputs for a system with 1 IO variables") (fun () ->
      ignore (Zexec.Exec.solve sys ~inputs:[| fi 1; fi 2; fi 3 |]))

let test_error_text () =
  let u = Zexec.Exec.Unsat { row = 12; detail = "boom" } in
  Alcotest.(check string) "unsat text" "row 12: unsatisfiable: boom" (Zexec.Exec.error_to_text u);
  Alcotest.(check string) "unsat text with file" "f.r1cs: row 12: unsatisfiable: boom"
    (Zexec.Exec.error_to_text ~file:"f.r1cs" u)

(* ---- agreement with the compiler's solver ---- *)

(* Shared with `zaatar exec --check`: on every benchmark app the
   interpreter must reproduce the compiled witness bit for bit. Run a
   reduced version here (one app, several trials, two fields — including
   the Mersenne prime, whose wrapping powers of two 2^127 = 1 once broke
   the bit rule's exponent table). *)
let test_differential () =
  List.iter
    (fun prime ->
      let ctx = Fp.create prime in
      let prg = Chacha.Prg.create ~seed:"test-exec" () in
      let app = Apps.Registry.by_name "lcs" ~scale:1 in
      let c = Zlang.Compile.compile ~ctx app.Apps.App_def.source in
      let sys = Zlang.Compile.zaatar_r1cs c in
      for _ = 1 to 3 do
        let ints = app.Apps.App_def.gen_inputs prg in
        let finputs = Apps.Glue.field_inputs ctx ints in
        let w1 = c.Zlang.Compile.solve_zaatar finputs in
        match Zexec.Exec.solve sys ~inputs:finputs with
        | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
        | Ok (w2, _) ->
          Alcotest.(check int) "witness length" (Array.length w1) (Array.length w2);
          Array.iteri
            (fun v x ->
              if not (Fp.equal x w2.(v)) then
                Alcotest.fail (Printf.sprintf "witness differs at w%d" v))
            w1;
          let outs = Apps.Glue.int_outputs ctx (Zlang.Compile.outputs_zaatar c w2) in
          Alcotest.(check (array int)) "native outputs" (app.Apps.App_def.native ints) outs
      done)
    [ Primes.p127; Primes.p127_ntt ]

(* ---- toolchain identity ---- *)

(* Exec's stats and a digest of Zlint's findings on every sweep program
   over p127, pinned. A second column runs both on a damaged copy of each
   system (every 11th row from 3 dropped, every 13th row from 5 appended
   again with A and B swapped), so ZR002/ZR003/ZR008 findings, the bit
   rule and stuck propagation are covered too. Columns: name, pinned,
   defaulted, ambiguous rows, row visits, findings, findings digest, then
   the damaged system's findings, their digest and Exec's stats without
   the final check. *)
let toolchain_pins =
  [
    ("pam m=3 d=4", 909, 1, 404, 2457, 0, "d41d8cd98f00b204e9800998ecf8427e", 980, "1cad2ef092dc464aec23c3458bd79e3c", "ok 27 883 367 969");
    ("pam m=4 d=4", 1447, 1, 638, 4018, 0, "d41d8cd98f00b204e9800998ecf8427e", 1564, "f6982d261acdc2f1199904e8d3e99fa6", "ok 41 1407 578 1552");
    ("pam m=6 d=4", 2847, 1, 1244, 8283, 0, "d41d8cd98f00b204e9800998ecf8427e", 3072, "a099f7f07f750d4f77bc7409eba8c22e", "ok 82 2766 1125 3074");
    ("bisection m=3 L=4", 754, 0, 282, 2034, 0, "d41d8cd98f00b204e9800998ecf8427e", 794, "539b19abccc5284553a07ef4c13d12fe", "ok 34 720 255 784");
    ("bisection m=4 L=4", 953, 0, 310, 2622, 0, "d41d8cd98f00b204e9800998ecf8427e", 879, "d23cb4c121656e64160dd6d37bdadf82", "ok 60 893 276 1008");
    ("bisection m=6 L=4", 1519, 0, 390, 4290, 0, "d41d8cd98f00b204e9800998ecf8427e", 1060, "cbcdbdb4c45784fc76447840e88194b3", "ok 149 1370 347 1661");
    ("apsp m=3", 1222, 0, 580, 3228, 0, "d41d8cd98f00b204e9800998ecf8427e", 1353, "e831c1d83cdbcc0b5e2ea68ef2db90f5", "ok 9 1213 526 1260");
    ("apsp m=4", 3091, 0, 1474, 8334, 0, "d41d8cd98f00b204e9800998ecf8427e", 3420, "5b3e0fca5ffa54c04812288f75570c3f", "ok 14 3077 1339 3171");
    ("apsp m=5", 6414, 0, 3070, 17622, 0, "d41d8cd98f00b204e9800998ecf8427e", 7096, "2faa2d1192b0c90c24925380792607cc", "ok 23 6391 2779 6553");
    ("fannkuch m=1 n=4 B=6", 1778, 29, 489, 6262, 0, "d41d8cd98f00b204e9800998ecf8427e", 1897, "c546bd244b9df1cff9fa8303ade1e37c", "ok 103 1704 451 2183");
    ("fannkuch m=2 n=4 B=6", 3553, 56, 978, 12657, 0, "d41d8cd98f00b204e9800998ecf8427e", 3751, "09fc21dc6fb1f378aeec060207a3449f", "ok 227 3382 877 4377");
    ("fannkuch m=4 n=4 B=6", 7100, 113, 1956, 25210, 0, "d41d8cd98f00b204e9800998ecf8427e", 7486, "5bff1de574665d59275a59bd76f2e106", "ok 472 6741 1750 8817");
    ("lcs m=4", 282, 15, 71, 862, 0, "d41d8cd98f00b204e9800998ecf8427e", 256, "ac5f84342a4c3d65ef9d4cb3027ada2a", "ok 73 224 68 431");
    ("lcs m=6", 708, 27, 190, 2430, 0, "d41d8cd98f00b204e9800998ecf8427e", 678, "1e9ffde18df6f7252f12291c52f67525", "ok 135 600 173 1022");
    ("lcs m=8", 1357, 48, 385, 4799, 0, "d41d8cd98f00b204e9800998ecf8427e", 1268, "bf19b1cf9c22e6b4e70730f3097d1855", "ok 254 1151 350 1946");
  ]

let test_toolchain_pins () =
  let ctx = Fp.create Primes.p127 in
  let text ds = String.concat "\n" (List.map (fun d -> Zlint.Diagnostic.to_text d) ds) in
  let hex s = Digest.to_hex (Digest.string s) in
  let damage (sys : R1cs.system) =
    let rows = Array.to_list sys.R1cs.constraints in
    let kept = List.filteri (fun j _ -> j mod 11 <> 3) rows in
    let dups =
      List.filteri (fun j _ -> j mod 13 = 5) rows
      |> List.map (fun (k : R1cs.constr) -> { k with R1cs.a = k.R1cs.b; b = k.R1cs.a })
    in
    { sys with R1cs.constraints = Array.of_list (kept @ dups) }
  in
  let apps = List.concat_map snd (Apps.Registry.sweep ()) in
  Alcotest.(check int) "one pin per sweep program" (List.length toolchain_pins) (List.length apps);
  List.iteri
    (fun i ((app : Apps.App_def.t), (name, pinned, defaulted, ambiguous, visits, nf, digest, dnf, ddigest, dexec)) ->
      Alcotest.(check string) "program" name (app.Apps.App_def.name ^ " " ^ app.Apps.App_def.params_desc);
      let c = Zlang.Compile.compile ~ctx app.Apps.App_def.source in
      let sys = Zlang.Compile.zaatar_r1cs c in
      let prg = Chacha.Prg.create ~seed:(Printf.sprintf "toolchain pin %d" i) () in
      let x = Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg) in
      (match Zexec.Exec.solve sys ~inputs:x with
      | Error e -> Alcotest.fail (Zexec.Exec.error_to_text e)
      | Ok (_, st) ->
        Alcotest.(check (list int))
          (name ^ ": pinned, defaulted, ambiguous, visits")
          [ pinned; defaulted; ambiguous; visits ]
          Zexec.Exec.[ st.pinned; st.defaulted; st.ambiguous_rows; st.row_visits ]);
      let findings = Zlint.lint_compiled c in
      Alcotest.(check (pair int string)) (name ^ ": findings") (nf, digest)
        (List.length findings, hex (text findings));
      let d = damage sys in
      let io =
        { Zlint.Backend.num_inputs = c.Zlang.Compile.num_inputs; num_outputs = c.Zlang.Compile.num_outputs }
      in
      let df = Zlint.lint_system ~io d in
      Alcotest.(check (pair int string)) (name ^ ": damaged findings") (dnf, ddigest)
        (List.length df, hex (text df));
      Alcotest.(check string) (name ^ ": damaged exec") dexec
        (match Zexec.Exec.solve ~check:false d ~inputs:x with
        | Error e -> hex (Zexec.Exec.error_to_text e)
        | Ok (_, st) ->
          Zexec.Exec.(Printf.sprintf "ok %d %d %d %d" st.pinned st.defaulted st.ambiguous_rows st.row_visits)))
    (List.combine apps toolchain_pins)

let test_outputs_slice () =
  (* outputs = the IO slots after the inputs *)
  let sys = system ~num_vars:4 ~num_z:1 [ ([ (0, 1) ], [ (2, 1) ], [ (1, 1) ]) ] in
  let w = [| Fp.one; fi 9; fi 2; fi 3; fi 4 |] in
  let outs = Zexec.Exec.outputs sys ~num_inputs:1 w in
  Alcotest.(check int) "two outputs" 2 (Array.length outs);
  Alcotest.(check bool) "first output" true (Fp.equal outs.(0) (fi 3));
  Alcotest.(check bool) "second output" true (Fp.equal outs.(1) (fi 4))

let suite =
  [
    Alcotest.test_case "legendre: zero, one, non-residue" `Quick test_legendre_small;
    Alcotest.test_case "rule: linear pin" `Quick test_linear_pin;
    Alcotest.test_case "rule: division through a known factor" `Quick test_div_pin;
    Alcotest.test_case "rule: zero factor annihilates" `Quick test_zero_factor;
    Alcotest.test_case "rule: bit decomposition" `Quick test_bits;
    Alcotest.test_case "rule: quadratic double root pins" `Quick test_quadratic_double_root;
    Alcotest.test_case "quadratic with two roots is Stuck" `Quick test_quadratic_ambiguous;
    Alcotest.test_case "contradiction is Unsat with row provenance" `Quick test_unsat;
    Alcotest.test_case "free variables zero-default" `Quick test_zero_default_ok;
    Alcotest.test_case "ZR008 fixture is Stuck" `Quick test_zr008_fixture_stuck;
    Alcotest.test_case "input arity is validated" `Quick test_too_many_inputs;
    Alcotest.test_case "error rendering" `Quick test_error_text;
    Alcotest.test_case "agrees with the compiled witness (two fields)" `Quick test_differential;
    Alcotest.test_case "outputs slice the IO block" `Quick test_outputs_slice;
    Alcotest.test_case "sweep stats and findings pinned" `Quick test_toolchain_pins;
  ]
  @ legendre_props
