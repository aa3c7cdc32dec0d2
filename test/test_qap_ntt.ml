open Fieldlib
open Constr

(* The roots-of-unity QAP (Qap_ntt) over the NTT-friendly BLS12-381 scalar
   field. *)

let fr = Fp.create Primes.bls12_381_fr

let random_satisfiable seed =
  let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ntt r1cs %d" seed) () in
  let n = 4 + Chacha.Prg.int_below prg 12 in
  let num_z = 1 + Chacha.Prg.int_below prg (n - 1) in
  let nc = 2 + Chacha.Prg.int_below prg 20 in
  let w = Array.init (n + 1) (fun i -> if i = 0 then Fp.one else Chacha.Prg.field fr prg) in
  let random_row () =
    let t = ref Lincomb.zero in
    for _ = 0 to Chacha.Prg.int_below prg 4 do
      t := Lincomb.add_term fr !t (Chacha.Prg.int_below prg (n + 1)) (Chacha.Prg.field fr prg)
    done;
    !t
  in
  let constraints =
    Array.init nc (fun _ ->
        let a = random_row () and b = random_row () and c0 = random_row () in
        let target = Fp.mul fr (Lincomb.eval fr a w) (Lincomb.eval fr b w) in
        let fix = Fp.sub fr target (Lincomb.eval fr c0 w) in
        { R1cs.a; b; c = Lincomb.add_term fr c0 0 fix })
  in
  ({ R1cs.field = fr; num_vars = n; num_z; constraints }, w)

let divisibility_holds q (w : Fp.el array) (h : Fp.el array) tau =
  let qq = Qap_ntt.queries q ~tau in
  let sys = q.Qap_ntt.sys in
  let z = Array.sub w 1 sys.R1cs.num_z in
  let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
  let la = Qap_ntt.io_contribution q qq.Qap.a_tau io in
  let lb = Qap_ntt.io_contribution q qq.Qap.b_tau io in
  let lc = Qap_ntt.io_contribution q qq.Qap.c_tau io in
  let az = Fp.add fr (Fp.dot fr (Qap_ntt.z_slice q qq.Qap.a_tau) z) la in
  let bz = Fp.add fr (Fp.dot fr (Qap_ntt.z_slice q qq.Qap.b_tau) z) lb in
  let cz = Fp.add fr (Fp.dot fr (Qap_ntt.z_slice q qq.Qap.c_tau) z) lc in
  let lhs = Fp.mul fr qq.Qap.d_tau (Fp.dot fr qq.Qap.qd h) in
  let rhs = Fp.sub fr (Fp.mul fr az bz) cz in
  Fp.equal lhs rhs

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let unit_tests =
  [
    Alcotest.test_case "domain is the full 2^k root-of-unity subgroup" `Quick (fun () ->
        let sys, _ = random_satisfiable 5 in
        let q = Qap_ntt.of_r1cs sys in
        Alcotest.(check bool) "pow2" true (q.Qap_ntt.n land (q.Qap_ntt.n - 1) = 0);
        (* omega^n = 1 and all domain points distinct *)
        Alcotest.(check bool) "omega^n" true
          (Fp.equal (Fp.pow_int fr q.Qap_ntt.omega q.Qap_ntt.n) Fp.one);
        let seen = Hashtbl.create 16 in
        Array.iter (fun d -> Hashtbl.replace seen (Fp.to_string d) ()) q.Qap_ntt.domain;
        Alcotest.(check int) "distinct" q.Qap_ntt.n (Hashtbl.length seen));
    Alcotest.test_case "P_w vanishes on the whole padded domain" `Quick (fun () ->
        let sys, w = random_satisfiable 7 in
        let q = Qap_ntt.of_r1cs sys in
        let p = Qap_ntt.pw_coeffs q w in
        Array.iter
          (fun d -> Alcotest.(check bool) "zero" true (Fp.is_zero (Polylib.Poly.eval fr p d)))
          q.Qap_ntt.domain);
    Alcotest.test_case "prover_h raises on bad witness" `Quick (fun () ->
        let sys, w = random_satisfiable 9 in
        let q = Qap_ntt.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add fr w'.(1) Fp.one;
        if not (R1cs.satisfied fr sys w') then
          Alcotest.(check bool) "raises" true
            (try
               ignore (Qap_ntt.prover_h q w');
               false
             with Qap_ntt.Not_divisible -> true));
    Alcotest.test_case "tau on the domain raises" `Quick (fun () ->
        let sys, _ = random_satisfiable 11 in
        let q = Qap_ntt.of_r1cs sys in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Qap_ntt.queries q ~tau:q.Qap_ntt.domain.(1));
             false
           with Qap_ntt.Tau_collision -> true));
  ]

let property_tests =
  [
    qtest "honest NTT proof passes divisibility" 40 QCheck.small_int (fun seed ->
        let sys, w = random_satisfiable seed in
        let q = Qap_ntt.of_r1cs sys in
        let h = Qap_ntt.prover_h q w in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ntt tau %d" seed) () in
        let tau = Chacha.Prg.field fr prg in
        try divisibility_holds q w h tau with Qap_ntt.Tau_collision -> true);
    qtest "forced NTT proof for bad witness fails (whp)" 40 QCheck.small_int (fun seed ->
        let sys, w = random_satisfiable seed in
        let q = Qap_ntt.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add fr w'.(1) (Fp.of_int fr 7) ;
        if R1cs.satisfied fr sys w' then true
        else begin
          let h = Qap_ntt.prover_h_forced q w' in
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "ntt tau2 %d" seed) () in
          let tau = Chacha.Prg.field fr prg in
          try not (divisibility_holds q w' h tau) with Qap_ntt.Tau_collision -> true
        end);
    qtest "NTT and subproduct QAP provers agree with constraint semantics" 20 QCheck.small_int
      (fun seed ->
        (* Both encodings must accept exactly the satisfying assignments. *)
        let sys, w = random_satisfiable seed in
        let q_ntt = Qap_ntt.of_r1cs sys in
        let q_cls = Qap.of_r1cs sys in
        let ok_ntt = (try ignore (Qap_ntt.prover_h q_ntt w); true with Qap_ntt.Not_divisible -> false) in
        let ok_cls = (try ignore (Qap.prover_h q_cls w); true with Failure _ -> false) in
        ok_ntt && ok_cls);
  ]

let suite = unit_tests @ property_tests
