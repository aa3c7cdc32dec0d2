(* Zlint: both analyzer layers against the deliberately-broken fixtures in
   lint_fixtures/, plus the soundness acceptance cases — dropping a single
   constraint from a compiled example must surface as an error — and the
   cleanliness of every shipped example and benchmark computation. *)

open Fieldlib

let ctx = Fp.create Primes.p127

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fixture name = read_file (Filename.concat "lint_fixtures" name)

let codes ds = List.sort_uniq compare (List.map (fun d -> d.Zlint.Diagnostic.code) ds)
let has_code c ds = List.mem c (codes ds)

let check_fires what expected ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires %s (got: %s)" what expected (String.concat "," (codes ds)))
    true (has_code expected ds)

(* ---- frontend fixtures: one diagnostic code each ---- *)

let test_zl_fixtures () =
  let lint ?cfg name = Zlint.Frontend.check_source ?cfg (fixture name) in
  check_fires "zl000_parse.zl" "ZL000" (lint "zl000_parse.zl");
  check_fires "zl000_int_literal.zl" "ZL000" (lint "zl000_int_literal.zl");
  check_fires "zl001_uninit.zl" "ZL001" (lint "zl001_uninit.zl");
  check_fires "zl002_unused.zl" "ZL002" (lint "zl002_unused.zl");
  check_fires "zl003_shadow.zl" "ZL003" (lint "zl003_shadow.zl");
  check_fires "zl004_unroll.zl" "ZL004"
    (lint ~cfg:{ Zlint.Frontend.unroll_budget = 1000 } "zl004_unroll.zl");
  check_fires "zl000_unroll_bomb.zl" "ZL004" (lint "zl000_unroll_bomb.zl");
  (* A 2^62-wide loop saturates the weight instead of wrapping negative. *)
  check_fires "2^62-wide loop" "ZL004"
    (Zlint.Frontend.check_source
       "computation e(input int8 x, output int32 y) { var int32 a = x; for i in \
        0..4611686018427387903 { a = a + 1; } y = a; }");
  check_fires "zl005_constcond.zl" "ZL005" (lint "zl005_constcond.zl");
  check_fires "zl006_undef.zl" "ZL006" (lint "zl006_undef.zl")

let test_zl_severities () =
  (* The error/warn split drives the exit-code contract: ZL001/ZL003/ZL006
     must be errors, ZL002/ZL004 warnings, ZL005 info. *)
  let has_err name = Zlint.Diagnostic.has_errors (Zlint.Frontend.check_source (fixture name)) in
  Alcotest.(check bool) "uninit read is an error" true (has_err "zl001_uninit.zl");
  Alcotest.(check bool) "shadowing is an error" true (has_err "zl003_shadow.zl");
  Alcotest.(check bool) "undefined var is an error" true (has_err "zl006_undef.zl");
  Alcotest.(check bool) "unused var is not an error" false (has_err "zl002_unused.zl");
  Alcotest.(check bool) "const condition is not an error" false (has_err "zl005_constcond.zl")

let test_uninit_branch_merge () =
  (* Assigned in both branches: initialized afterwards. Assigned in one:
     still a ZL001 at the later read. *)
  let both =
    "computation m(input int8 x, output int32 y) { var int32 s; if (x > 0) { s = 1; } else { s \
     = 2; } y = s; }"
  in
  let one =
    "computation m(input int8 x, output int32 y) { var int32 s; if (x > 0) { s = 1; } y = s; }"
  in
  Alcotest.(check (list string)) "both branches assign -> clean" []
    (codes (Zlint.Frontend.check_source both));
  check_fires "one branch assigns" "ZL001" (Zlint.Frontend.check_source one)

(* ---- backend fixtures ---- *)

let lint_r1cs name = Zlint.lint_system (Constr.Serialize.system_of_string (fixture name))

let test_zr_fixtures () =
  check_fires "zr001_unconstrained.r1cs" "ZR001" (lint_r1cs "zr001_unconstrained.r1cs");
  check_fires "zr002_underdetermined.r1cs" "ZR002" (lint_r1cs "zr002_underdetermined.r1cs");
  check_fires "zr003_duplicate.r1cs" "ZR003" (lint_r1cs "zr003_duplicate.r1cs");
  check_fires "zr004_trivial.r1cs" "ZR004" (lint_r1cs "zr004_trivial.r1cs");
  check_fires "zr005_k2dup.r1cs" "ZR005" (lint_r1cs "zr005_k2dup.r1cs");
  check_fires "zr007_unsat.r1cs" "ZR007" (lint_r1cs "zr007_unsat.r1cs");
  (* ZR008 is info-severity: it must fire without flipping the exit code. *)
  let zr008 = lint_r1cs "zr008_multiroot.r1cs" in
  check_fires "zr008_multiroot.r1cs" "ZR008" zr008;
  Alcotest.(check int) "ZR008 alone keeps exit 0" 0
    (Zlint.exit_code [ { Zlint.file = "zr008_multiroot.r1cs"; findings = zr008 } ])

let test_zr006_unreachable_output () =
  (* w3 (the output) is bound only to witness w1, which no input touches:
     the output is disconnected from the inputs. *)
  let open Constr in
  let one = Lincomb.of_var in
  let sys =
    {
      R1cs.field = ctx;
      num_vars = 3;
      num_z = 1;
      constraints = [| { R1cs.a = one 1; b = Lincomb.of_var 0; c = one 3 } |];
    }
  in
  let ds = Zlint.Backend.analyze ~io:{ Zlint.Backend.num_inputs = 1; num_outputs = 1 } sys in
  check_fires "disconnected output" "ZR006" ds;
  (* w1 is also under-determined and the input w2 unused. *)
  check_fires "disconnected witness" "ZR002" ds

(* ---- the acceptance case: drop one constraint from a compiled example ---- *)

let compile_example file = Zlang.Compile.compile ~ctx (read_file (Filename.concat "../examples" file))

let io_of (c : Zlang.Compile.compiled) =
  { Zlint.Backend.num_inputs = c.Zlang.Compile.num_inputs; num_outputs = c.Zlang.Compile.num_outputs }

let drop_row sys j =
  let keep = ref [] in
  Constr.R1cs.iteri (fun i k -> if i <> j then keep := k :: !keep) sys;
  { sys with Constr.R1cs.constraints = Array.of_list (List.rev !keep) }

let test_dropped_constraint_detected () =
  let c = compile_example "matmul.zl" in
  let sys = Zlang.Compile.zaatar_r1cs c in
  let io = io_of c in
  Alcotest.(check (list string)) "intact matmul is clean" [] (codes (Zlint.Backend.analyze ~io sys));
  (* Some single-row drop must under-determine a witness (ZR002) and some
     other must orphan a variable entirely (ZR001 at error severity). *)
  let zr001 = ref false and zr002 = ref false in
  for j = 0 to Constr.R1cs.num_constraints sys - 1 do
    let ds = Zlint.Backend.analyze ~io (drop_row sys j) in
    if has_code "ZR002" ds then zr002 := true;
    if
      List.exists
        (fun d ->
          d.Zlint.Diagnostic.code = "ZR001" && d.Zlint.Diagnostic.severity = Zlint.Diagnostic.Error)
        ds
    then zr001 := true;
    if ds = [] then ()
  done;
  Alcotest.(check bool) "some drop orphans a variable (ZR001)" true !zr001;
  Alcotest.(check bool) "some drop under-determines the witness (ZR002)" true !zr002;
  (* And every error-producing mutation keeps the exit-code contract. *)
  let mutilated = drop_row sys (Constr.R1cs.num_constraints sys - 1) in
  let report = { Zlint.file = "matmul[dropped]"; findings = Zlint.Backend.analyze ~io mutilated } in
  if Zlint.Diagnostic.has_errors report.Zlint.findings then
    Alcotest.(check int) "errors map to exit 2" 2 (Zlint.exit_code [ report ])

(* ---- everything we ship must be clean ---- *)

let test_examples_clean () =
  List.iter
    (fun f ->
      Alcotest.(check (list string))
        (f ^ " lints clean") []
        (codes (Zlint.lint_zl ~ctx (read_file (Filename.concat "../examples" f)))))
    [ "ema.zl"; "matmul.zl"; "payroll.zl" ]

let test_benchmarks_clean () =
  List.iter
    (fun (app : Apps.App_def.t) ->
      Alcotest.(check (list string))
        (app.Apps.App_def.name ^ " lints clean")
        []
        (codes (Zlint.lint_zl ~ctx app.Apps.App_def.source)))
    (Apps.Registry.suite ())

(* ---- report plumbing ---- *)

let test_json_stability () =
  (* The JSON shape is part of the CLI contract (asserted verbatim). *)
  let d =
    Zlint.Diagnostic.make ~code:"ZL001" ~severity:Zlint.Diagnostic.Error
      ~location:(Zlint.Diagnostic.Source { Zlang.Ast.line = 4; col = 7 })
      "%s" "read before assignment"
  in
  let report = { Zlint.file = "prog.zl"; findings = [ d ] } in
  Alcotest.(check string) "lint report JSON"
    ("{\"schema\":\"zaatar-lint/1\",\"files\":[{\"file\":\"prog.zl\",\"findings\":[{\"code\":\"ZL001\","
   ^ "\"severity\":\"error\",\"line\":4,\"col\":7,\"message\":\"read before assignment\"}]}],"
   ^ "\"totals\":{\"errors\":1,\"warnings\":0,\"info\":0},\"exit_code\":2}")
    (Zobs.Json.to_string (Zlint.render_json [ report ]))

let test_truncation () =
  let ds =
    List.init 30 (fun i ->
        Zlint.Diagnostic.make ~code:"ZR003" ~severity:Zlint.Diagnostic.Warn
          ~location:(Zlint.Diagnostic.Row i) "%s" "duplicate row")
  in
  let kept = Zlint.Diagnostic.truncate ~limit:20 ds in
  (* 20 kept + 1 "suppressed" info line. *)
  Alcotest.(check int) "truncated to limit + summary" 21 (List.length kept);
  Alcotest.(check bool) "summary mentions the count" true
    (List.exists (fun d -> d.Zlint.Diagnostic.severity = Zlint.Diagnostic.Info) kept)

let test_exit_codes () =
  let clean = { Zlint.file = "a"; findings = [] } in
  let warn =
    {
      Zlint.file = "b";
      findings = [ Zlint.Diagnostic.make ~code:"ZL002" ~severity:Zlint.Diagnostic.Warn "%s" "w" ];
    }
  in
  let err =
    {
      Zlint.file = "c";
      findings = [ Zlint.Diagnostic.make ~code:"ZL001" ~severity:Zlint.Diagnostic.Error "%s" "e" ];
    }
  in
  Alcotest.(check int) "clean -> 0" 0 (Zlint.exit_code [ clean ]);
  Alcotest.(check int) "warnings only -> 0" 0 (Zlint.exit_code [ clean; warn ]);
  Alcotest.(check int) "any error -> 2" 2 (Zlint.exit_code [ clean; warn; err ])

(* ---- the shared power-of-two helper ---- *)

(* Oracle: the doubling table 1, 2, 4, ... 2^bits mod p, where the first
   (smallest) exponent of a value wins. *)
let test_pow2_exponent () =
  List.iter
    (fun (name, prime) ->
      let ctx = Fp.create prime in
      let table = Hashtbl.create 256 in
      let x = ref Fp.one in
      for e = 0 to Fp.bits ctx do
        if not (Hashtbl.mem table !x) then Hashtbl.add table !x e;
        x := Fp.add ctx !x !x
      done;
      let expect c = Hashtbl.find_opt table c in
      let check what c =
        Alcotest.(check (option int)) (name ^ ": " ^ what) (expect c) (Zlint.Propagate.pow2_exponent ctx c)
      in
      let x = ref Fp.one in
      for e = 0 to Fp.bits ctx do
        check (Printf.sprintf "2^%d" e) !x;
        x := Fp.add ctx !x !x
      done;
      let prg = Chacha.Prg.create ~seed:("pow2 " ^ name) () in
      for i = 1 to 200 do
        let c = Chacha.Prg.field ctx prg in
        check (Printf.sprintf "random element %d" i) c;
        Alcotest.(check bool) (name ^ ": random elements are not powers") true (expect c = None)
      done;
      List.iter (fun n -> check (Printf.sprintf "%d" n) (Fp.of_int ctx n)) [ 0; 3; 5; 6; 7; -1; -2 ])
    [ ("p61", Primes.p61); ("p127", Primes.p127); ("p127_ntt", Primes.p127_ntt); ("bls12_381_fr", Primes.bls12_381_fr) ];
  (* The Mersenne wrap: 2^127 = 1, and the smallest exponent wins. *)
  let ctx = Fp.create Primes.p127 in
  Alcotest.(check bool) "2^127 = 1 mod p127" true (Fp.equal (Fp.pow_int ctx (Fp.of_int ctx 2) 127) Fp.one);
  Alcotest.(check (option int)) "p127: 1 maps to 0" (Some 0) (Zlint.Propagate.pow2_exponent ctx Fp.one)

let suite =
  [
    Alcotest.test_case "ZL fixtures fire their codes" `Quick test_zl_fixtures;
    Alcotest.test_case "ZL severity split" `Quick test_zl_severities;
    Alcotest.test_case "uninit-read branch merging" `Quick test_uninit_branch_merge;
    Alcotest.test_case "ZR fixtures fire their codes" `Quick test_zr_fixtures;
    Alcotest.test_case "ZR006 disconnected output" `Quick test_zr006_unreachable_output;
    Alcotest.test_case "dropped constraint is detected" `Quick test_dropped_constraint_detected;
    Alcotest.test_case "examples lint clean" `Quick test_examples_clean;
    Alcotest.test_case "benchmarks lint clean" `Quick test_benchmarks_clean;
    Alcotest.test_case "JSON report stability" `Quick test_json_stability;
    Alcotest.test_case "per-code truncation" `Quick test_truncation;
    Alcotest.test_case "exit-code contract" `Quick test_exit_codes;
    Alcotest.test_case "pow2_exponent matches the doubling table" `Quick test_pow2_exponent;
  ]
