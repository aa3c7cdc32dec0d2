open Fieldlib
open Constr
open Pcp

(* Cross-cutting protocol properties that don't belong to a single layer:
   reproducibility of pseudorandomly-derived queries ([53, Apdx A.3]:
   queries can be shipped as a PRG seed), behaviour under flaky provers,
   and batch semantics. *)

let ctx = Fp.create Primes.p61

let random_sys seed = Test_constr.random_satisfiable_r1cs seed

let params = Pcp_zaatar.test_params

let unit_tests =
  [
    Alcotest.test_case "queries are derived deterministically from the seed" `Quick (fun () ->
        (* The network-cost optimization of §A.3: V and P can derive the
           query vectors from a shared seed. Same seed => identical
           queries. *)
        let sys, _ = random_sys 42 in
        let qap = Qapb.of_r1cs sys in
        let q1 = Pcp_zaatar.gen_queries ~params qap (Chacha.Prg.create ~seed:"shared" ()) in
        let q2 = Pcp_zaatar.gen_queries ~params qap (Chacha.Prg.create ~seed:"shared" ()) in
        Alcotest.(check bool) "same z queries" true
          (Fp.Rows.equal q1.Pcp_zaatar.z_queries q2.Pcp_zaatar.z_queries);
        Alcotest.(check bool) "same h queries" true
          (Fp.Rows.equal q1.Pcp_zaatar.h_queries q2.Pcp_zaatar.h_queries));
    Alcotest.test_case "different seeds give different queries" `Quick (fun () ->
        let sys, _ = random_sys 42 in
        let qap = Qapb.of_r1cs sys in
        let q1 = Pcp_zaatar.gen_queries ~params qap (Chacha.Prg.create ~seed:"a" ()) in
        let q2 = Pcp_zaatar.gen_queries ~params qap (Chacha.Prg.create ~seed:"b" ()) in
        Alcotest.(check bool) "differ" false
          (Fp.Rows.equal q1.Pcp_zaatar.z_queries q2.Pcp_zaatar.z_queries));
    Alcotest.test_case "flaky oracle is rejected (failure injection)" `Quick (fun () ->
        (* A prover whose storage/links corrupt a fraction of answers: the
           verifier must notice. With hundreds of answered queries, even a
           10% flake rate trips a linearity or consistency check w.h.p. *)
        let sys, w = random_sys 77 in
        let qap = Qapb.of_r1cs sys in
        let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
        let z = Array.sub w 1 sys.R1cs.num_z in
        let h = Qapb.prover_h qap w in
        let rejected = ref 0 in
        let trials = 20 in
        for i = 1 to trials do
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "flaky %d" i) () in
          let oracle =
            Oracle.flaky ctx (Oracle.honest ctx z h)
              (Chacha.Prg.create ~seed:(Printf.sprintf "flake src %d" i) ())
              ~flake_prob_percent:10
          in
          if not (Pcp_zaatar.accepts (Pcp_zaatar.run ~params qap prg oracle ~io)) then incr rejected
        done;
        Alcotest.(check bool) "mostly rejected" true (!rejected >= trials - 1));
    Alcotest.test_case "zero flake rate is accepted" `Quick (fun () ->
        let sys, w = random_sys 78 in
        let qap = Qapb.of_r1cs sys in
        let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
        let z = Array.sub w 1 sys.R1cs.num_z in
        let h = Qapb.prover_h qap w in
        let prg = Chacha.Prg.create ~seed:"flaky0" () in
        let oracle =
          Oracle.flaky ctx (Oracle.honest ctx z h)
            (Chacha.Prg.create ~seed:"flake src 0" ())
            ~flake_prob_percent:0
        in
        Alcotest.(check bool) "accepted" true
          (Pcp_zaatar.accepts (Pcp_zaatar.run ~params qap prg oracle ~io)));
    Alcotest.test_case "Zaatar PCP rejects nonlinear, flaky and wrong-vector oracles" `Quick
      (fun () ->
        let sys, w = random_sys 79 in
        let qap = Qapb.of_r1cs sys in
        let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
        let z = Array.sub w 1 sys.R1cs.num_z in
        let h = Qapb.prover_h qap w in
        let z' = Array.copy z in
        z'.(0) <- Fp.add ctx z'.(0) Fp.one;
        let trials = 10 in
        let rejected make =
          let n = ref 0 in
          for i = 1 to trials do
            let prg = Chacha.Prg.create ~seed:(Printf.sprintf "packed cheat %d" i) () in
            if not (Pcp_zaatar.accepts (Pcp_zaatar.run ~params qap prg (make i) ~io)) then incr n
          done;
          !n
        in
        let flake_src i = Chacha.Prg.create ~seed:(Printf.sprintf "packed flake %d" i) () in
        Alcotest.(check int) "honest accepted" 0 (rejected (fun _ -> Oracle.honest ctx z h));
        List.iter
          (fun (label, make) -> Alcotest.(check int) label trials (rejected make))
          [
            ("nonlinear", fun _ -> Oracle.nonlinear ctx (Oracle.honest ctx z h));
            ("flaky", fun i -> Oracle.flaky ctx (Oracle.honest ctx z h) (flake_src i) ~flake_prob_percent:50);
            ("wrong vector", fun _ -> Oracle.wrong_vector ctx z' h);
          ]);
    Alcotest.test_case "Ginger PCP rejects nonlinear, flaky and wrong-vector oracles" `Quick
      (fun () ->
        let fi = Fp.of_int ctx in
        let bound = Quad.bind_io ctx Test_constr.ginger_sys [| fi 5; fi 28 |] in
        let uz, uzz = Pcp_ginger.proof_vector ctx [| fi 25 |] in
        let wz, wzz = Pcp_ginger.proof_vector ctx [| fi 24 |] in
        let trials = 10 in
        let rejected make =
          let n = ref 0 in
          for i = 1 to trials do
            let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ginger packed cheat %d" i) () in
            let v = Pcp_ginger.run ~params:Pcp_ginger.test_params ctx bound prg (make i) in
            if not (Pcp_ginger.accepts v) then incr n
          done;
          !n
        in
        let flake_src i = Chacha.Prg.create ~seed:(Printf.sprintf "ginger packed flake %d" i) () in
        Alcotest.(check int) "honest accepted" 0 (rejected (fun _ -> Oracle.honest ctx uz uzz));
        List.iter
          (fun (label, make) -> Alcotest.(check int) label trials (rejected make))
          [
            ("nonlinear", fun _ -> Oracle.nonlinear ctx (Oracle.honest ctx uz uzz));
            ("flaky", fun i -> Oracle.flaky ctx (Oracle.honest ctx uz uzz) (flake_src i) ~flake_prob_percent:50);
            ("wrong vector", fun _ -> Oracle.wrong_vector ctx wz wzz);
          ]);
    Alcotest.test_case "batch isolates instances (one cheat does not taint others)" `Quick
      (fun () ->
        (* Run a batch where the underlying witnesses are honest; all must
           verify independently with per-instance verdicts. *)
        let fi = Fp.of_int ctx in
        let comp = Test_argument.square_plus_3 in
        let prg = Chacha.Prg.create ~seed:"batch isolate" () in
        let r =
          Argsys.Argument.run_batch ~config:Argsys.Argument.test_config comp ~prg
            ~inputs:(Array.map (fun x -> [| fi x |]) [| 1; 2; 3; 4; 5; 6 |])
        in
        Alcotest.(check int) "six instances" 6 (Array.length r.Argsys.Argument.instances);
        Alcotest.(check bool) "all accepted" true (Argsys.Argument.all_accepted r));
    Alcotest.test_case "prg field_array shape" `Quick (fun () ->
        let prg = Chacha.Prg.create ~seed:"fa" () in
        let a = Chacha.Prg.field_array ctx prg 33 in
        Alcotest.(check int) "len" 33 (Array.length a);
        Array.iter
          (fun x -> Alcotest.(check bool) "reduced" true (Nat.compare (Fp.to_nat x) (Fp.modulus ctx) < 0))
          a);
  ]

let suite = unit_tests
