open Fieldlib
open Argsys

let ctx = Fp.create Primes.p61
let fi = Fp.of_int ctx

(* Reuse the y = x^2 + 3 system from the constraint tests, wrapped for the
   Ginger argument driver. Canonical variables: 1 = z1, 2 = x, 3 = y. *)
let square_plus_3 : Argument_ginger.computation =
  {
    Argument_ginger.ginger = Test_constr.ginger_sys;
    num_inputs = 1;
    num_outputs = 1;
    solve =
      (fun x ->
        let x0 = x.(0) in
        let sq = Fp.mul ctx x0 x0 in
        [| Fp.one; sq; x0; Fp.add ctx sq (fi 3) |]);
  }

(* The Ginger argument of Argument_ginger.run_instance, with the prover's
   answers coming from [oracle u1 u2] instead of the honest oracle: the
   commitment binds u, the answers — t included — come from the cheat. *)
let argument_with_oracle ~seed oracle =
  let prg = Chacha.Prg.create ~seed () in
  let x = [| fi 6 |] in
  let w = square_plus_3.Argument_ginger.solve x in
  let num_z = Test_constr.ginger_sys.Constr.Quad.num_z in
  let io = Array.sub w (num_z + 1) 2 in
  let u1, u2 = Pcp.Pcp_ginger.proof_vector ctx (Array.sub w 1 num_z) in
  let grp = Zcrypto.Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:192 () in
  let req1, vs1 = Commitment.Commit.commit_request ctx grp prg ~len:(Array.length u1) in
  let req2, vs2 = Commitment.Commit.commit_request ctx grp prg ~len:(Array.length u2) in
  let com1 = Commitment.Commit.prover_commit req1 u1 and com2 = Commitment.Commit.prover_commit req2 u2 in
  let bound = Constr.Quad.bind_io ctx Test_constr.ginger_sys io in
  let queries = Pcp.Pcp_ginger.gen_queries ~params:Pcp.Pcp_ginger.test_params ctx bound prg in
  let ch1 = Commitment.Commit.decommit_challenge ctx vs1 prg queries.Pcp.Pcp_ginger.q1 in
  let ch2 = Commitment.Commit.decommit_challenge ctx vs2 prg queries.Pcp.Pcp_ginger.q2 in
  let o : Pcp.Oracle.t = oracle u1 u2 in
  let r = Pcp.Pcp_ginger.answer o queries in
  let a_t ch query = query (Fp.Rows.of_vec ch.Commitment.Commit.t) 0 in
  let commit_ok =
    Commitment.Commit.consistency_check vs1 ch1 ~commitment:com1
      { Commitment.Commit.a = r.Pcp.Pcp_ginger.r1; a_t = a_t ch1 o.Pcp.Oracle.query_z }
    && Commitment.Commit.consistency_check vs2 ch2 ~commitment:com2
         { Commitment.Commit.a = r.Pcp.Pcp_ginger.r2; a_t = a_t ch2 o.Pcp.Oracle.query_h }
  in
  commit_ok && Pcp.Pcp_ginger.accepts (Pcp.Pcp_ginger.decide ctx queries r)

let unit_tests =
  [
    Alcotest.test_case "ginger argument rejects nonlinear, flaky and wrong-vector oracles" `Quick
      (fun () ->
        let honest u1 u2 = Pcp.Oracle.honest ctx u1 u2 in
        Alcotest.(check bool) "honest accepted" true (argument_with_oracle ~seed:"garg oracle" honest);
        let wrong _ _ = Pcp.Oracle.wrong_vector ctx [| fi 35 |] [| fi (35 * 35) |] in
        List.iter
          (fun (label, oracle) ->
            for i = 1 to 5 do
              Alcotest.(check bool) (Printf.sprintf "%s %d rejected" label i) false
                (argument_with_oracle ~seed:(Printf.sprintf "garg %s %d" label i) oracle)
            done)
          [
            ("nonlinear", fun u1 u2 -> Pcp.Oracle.nonlinear ctx (honest u1 u2));
            ( "flaky",
              fun u1 u2 ->
                Pcp.Oracle.flaky ctx (honest u1 u2) (Chacha.Prg.create ~seed:"garg flake" ())
                  ~flake_prob_percent:50 );
            ("wrong vector", wrong);
          ]);
    Alcotest.test_case "ginger argument accepts honest prover" `Quick (fun () ->
        let prg = Chacha.Prg.create ~seed:"garg ok" () in
        let r = Argument_ginger.run_instance square_plus_3 ~prg ~x:[| fi 6 |] in
        Alcotest.(check bool) "accepted" true r.Argument_ginger.accepted;
        Alcotest.(check (option int)) "output" (Some 39)
          (Fp.to_int_opt r.Argument_ginger.claimed_output.(0)));
    Alcotest.test_case "ginger argument rejects cheating prover (whp)" `Quick (fun () ->
        let rejections = ref 0 in
        for i = 0 to 9 do
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "garg cheat %d" i) () in
          let config = { Argument_ginger.test_config with Argument_ginger.cheat = true } in
          let r = Argument_ginger.run_instance ~config square_plus_3 ~prg ~x:[| fi 6 |] in
          if not r.Argument_ginger.accepted then incr rejections
        done;
        Alcotest.(check bool) "mostly rejected" true (!rejections >= 9));
    Alcotest.test_case "ginger argument on a compiled program" `Slow (fun () ->
        (* A compiled tiny computation, proved under the Ginger (quadratic
           proof vector) protocol end to end. *)
        let ctx = Fp.create Primes.p61 in
        let compiled =
          Zlang.Compile.compile ~ctx
            "computation g(input int8 a, input int8 b, output int32 y) { y = a * b + a; }"
        in
        let comp =
          {
            Argument_ginger.ginger = compiled.Zlang.Compile.ginger;
            num_inputs = compiled.Zlang.Compile.num_inputs;
            num_outputs = compiled.Zlang.Compile.num_outputs;
            solve = compiled.Zlang.Compile.solve_ginger;
          }
        in
        let prg = Chacha.Prg.create ~seed:"garg compiled" () in
        let r = Argument_ginger.run_instance comp ~prg ~x:[| fi 7; fi 5 |] in
        Alcotest.(check bool) "accepted" true r.Argument_ginger.accepted;
        Alcotest.(check (option int)) "output" (Some 42)
          (Fp.to_int_opt r.Argument_ginger.claimed_output.(0)));
    Alcotest.test_case "ginger prover metrics populated" `Quick (fun () ->
        let prg = Chacha.Prg.create ~seed:"garg metrics" () in
        let r = Argument_ginger.run_instance square_plus_3 ~prg ~x:[| fi 2 |] in
        List.iter
          (fun phase ->
            Alcotest.(check bool) phase true
              (List.mem_assoc phase (Metrics.to_list r.Argument_ginger.prover)))
          [ "solve_constraints"; "construct_u"; "crypto_ops"; "answer_queries" ]);
  ]

let suite = unit_tests
