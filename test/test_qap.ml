open Fieldlib
open Constr
open Polylib

let ctx = Fp.create Primes.p61
let fi = Fp.of_int ctx

(* Reuse the random satisfiable-system generator from the constraint
   tests. *)
let random_sys seed = Test_constr.random_satisfiable_r1cs seed

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* The divisibility-correction equation checked directly from the proof
   vector (z, h), without the PCP blinding: D(tau) * <qd, h> must equal
   (<qa,z> + La)(<qb,z> + Lb) - (<qc,z> + Lc). *)
let divisibility_holds qap (w : Fp.el array) (h : Fp.el array) tau =
  let ctx = qap.Qap.ctx in
  let q = Qap.queries qap ~tau in
  let sys = qap.Qap.sys in
  let z = Array.sub w 1 sys.R1cs.num_z in
  let io = Array.sub w (sys.R1cs.num_z + 1) (R1cs.num_io sys) in
  let la = Qap.io_contribution qap q.Qap.a_tau io in
  let lb = Qap.io_contribution qap q.Qap.b_tau io in
  let lc = Qap.io_contribution qap q.Qap.c_tau io in
  let az = Fp.add ctx (Fp.dot ctx (Qap.z_slice qap q.Qap.a_tau) z) la in
  let bz = Fp.add ctx (Fp.dot ctx (Qap.z_slice qap q.Qap.b_tau) z) lb in
  let cz = Fp.add ctx (Fp.dot ctx (Qap.z_slice qap q.Qap.c_tau) z) lc in
  let lhs = Fp.mul ctx q.Qap.d_tau (Fp.dot ctx q.Qap.qd h) in
  let rhs = Fp.sub ctx (Fp.mul ctx az bz) cz in
  Fp.equal lhs rhs

(* D(t) = prod_{j=1..|C|} (t - j), by the product tree. *)
let divisor sys =
  let nc = R1cs.num_constraints sys in
  Subproduct.(root_poly ctx (build ctx (Array.init nc (fun j -> fi (j + 1)))))

let unit_tests =
  [
    Alcotest.test_case "claim A.1: satisfied => divisible" `Quick (fun () ->
        let sys, w = random_sys 7 in
        let qap = Qap.of_r1cs sys in
        let p = Qap.pw_poly qap w in
        let _, r = Poly.div_rem_fast ctx p (divisor sys) in
        Alcotest.(check bool) "remainder zero" true (Poly.is_zero r));
    Alcotest.test_case "claim A.1: unsatisfied => not divisible" `Quick (fun () ->
        let sys, w = random_sys 8 in
        let qap = Qap.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add ctx w'.(1) Fp.one;
        if not (R1cs.satisfied ctx sys w') then begin
          let p = Qap.pw_poly qap w' in
          let _, r = Poly.div_rem_fast ctx p (divisor sys) in
          Alcotest.(check bool) "remainder nonzero" false (Poly.is_zero r)
        end);
    Alcotest.test_case "P_w(sigma_j) equals constraint residual" `Quick (fun () ->
        (* For any assignment (satisfying or not), P_w(sigma_j) =
           <a_j,w><b_j,w> - <c_j,w>. *)
        let sys, w = random_sys 21 in
        let qap = Qap.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.sub ctx w'.(1) (fi 17);
        let p = Qap.pw_poly qap w' in
        Array.iteri
          (fun j k ->
            let expected = R1cs.eval_constr ctx k w' in
            let got = Poly.eval ctx p (fi (j + 1)) in
            Alcotest.(check bool) "match" true (Fp.equal got expected))
          sys.R1cs.constraints);
    Alcotest.test_case "P_w(0) = 0 (A_i(0)=B_i(0)=C_i(0)=0)" `Quick (fun () ->
        let sys, w = random_sys 31 in
        let qap = Qap.of_r1cs sys in
        let p = Qap.pw_poly qap w in
        Alcotest.(check bool) "zero at 0" true (Fp.is_zero (Poly.eval ctx p Fp.zero)));
    Alcotest.test_case "queries match direct interpolation" `Quick (fun () ->
        (* Evaluate the interpolated per-variable polynomials directly and
           compare against the barycentric fast path. *)
        let sys, _ = random_sys 5 in
        let qap = Qap.of_r1cs sys in
        let nc = R1cs.num_constraints sys in
        let n = sys.R1cs.num_vars in
        let tau = fi 987654321 in
        let q = Qap.queries qap ~tau in
        let points = Array.init (nc + 1) (fun j -> fi j) in
        let check_side row (evals : Fp.el array) =
          for i = 0 to n do
            let vals =
              Array.init (nc + 1) (fun j ->
                  if j = 0 then Fp.zero
                  else Lincomb.coeff (row sys.R1cs.constraints.(j - 1)) i)
            in
            let poly = Subproduct.interpolate_points ctx points vals in
            Alcotest.(check bool) "eval agrees" true (Fp.equal (Poly.eval ctx poly tau) evals.(i))
          done
        in
        check_side (fun (k : R1cs.constr) -> k.R1cs.a) q.Qap.a_tau;
        check_side (fun (k : R1cs.constr) -> k.R1cs.b) q.Qap.b_tau;
        check_side (fun (k : R1cs.constr) -> k.R1cs.c) q.Qap.c_tau;
        (* D(tau) directly *)
        Alcotest.(check bool) "D(tau)" true (Fp.equal (Poly.eval ctx (divisor sys) tau) q.Qap.d_tau));
    Alcotest.test_case "tau collision raises" `Quick (fun () ->
        let sys, _ = random_sys 3 in
        let qap = Qap.of_r1cs sys in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Qap.queries qap ~tau:(fi 1));
             false
           with Qap.Tau_collision -> true));
    Alcotest.test_case "field too small for |C| rejected" `Quick (fun () ->
        let tiny = Fp.create (Nat.of_int 7) in
        let lc = Lincomb.of_var 1 in
        let sys =
          {
            R1cs.field = tiny;
            num_vars = 1;
            num_z = 1;
            constraints = Array.make 7 { R1cs.a = lc; b = lc; c = lc };
          }
        in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Qap.of_r1cs sys);
             false
           with Invalid_argument _ -> true));
  ]

let property_tests =
  [
    qtest "honest proof passes divisibility check" 60 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qap.of_r1cs sys in
        let h = Qap.prover_h qap w in
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "tau %d" seed) () in
        let tau = Chacha.Prg.field ctx prg in
        (try divisibility_holds qap w h tau with Qap.Tau_collision -> true));
    qtest "forced proof for bad assignment fails (whp)" 60 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qap.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add ctx w'.(1) (fi 3);
        if R1cs.satisfied ctx sys w' then true
        else begin
          let h = Qap.prover_h_forced qap w' in
          let prg = Chacha.Prg.create ~seed:(Printf.sprintf "tau2 %d" seed) () in
          let tau = Chacha.Prg.field ctx prg in
          try not (divisibility_holds qap w' h tau) with Qap.Tau_collision -> true
        end);
    qtest "prover_h = the quadratic reference on satisfying assignments" 30 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qap.of_r1cs sys in
        Array.for_all2 Fp.equal (Qap.prover_h qap w) (Qap.prover_h_reference qap w));
    qtest "prover_h raises on unsatisfying assignment" 30 QCheck.small_int (fun seed ->
        let sys, w = random_sys seed in
        let qap = Qap.of_r1cs sys in
        let w' = Array.copy w in
        w'.(1) <- Fp.add ctx w'.(1) Fp.one;
        if R1cs.satisfied ctx sys w' then true
        else (try ignore (Qap.prover_h qap w'); false with Failure _ -> true));
  ]

(* The closed form of the interpolation weights, 1/M'(j) =
   ((-1)^(|C|-j) j! (|C|-j)!)^-1, against the remainder-tree evaluation of
   M' it replaces, at the |C| of tiny systems and of lcs (312) and pam
   (927). *)
let weight_tests =
  List.map
    (fun nc ->
      Alcotest.test_case (Printf.sprintf "closed-form weights = eval_all of M' at |C| = %d" nc) `Quick
        (fun () ->
          let ctx = Fp.create Primes.p127 in
          let tree = Subproduct.build ctx (Array.init (nc + 1) (Fp.of_int ctx)) in
          let closed = Fp.batch_inv ctx (Qap.inv_weights ctx nc) in
          Alcotest.(check bool) "equal" true (Array.for_all2 Fp.equal closed (Subproduct.weights ctx tree))))
    [ 1; 2; 31; 312; 927 ]

(* The prover at the sizes the benchmark serves, far above the Karatsuba
   threshold (|C| = 312, 758 and 927 over p127): a corrupted witness
   makes prover_h raise, and the forced H fails the divisibility check at
   a random tau. On lcs the honest H also equals the quadratic reference's
   (bisection's and pam's are pinned by digest in the hotpath suite). *)
let real_size_tests =
  List.map
    (fun ((app : Apps.App_def.t), reference) ->
      Alcotest.test_case (Printf.sprintf "prover_h at scale 1 on %s: honest, corrupted, forced" app.Apps.App_def.name)
        `Quick (fun () ->
          let ctx = Fp.create Primes.p127 in
          let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx app) in
          let sys = comp.Argsys.Argument.r1cs in
          let iprg = Chacha.Prg.create ~seed:("real size " ^ app.Apps.App_def.name) () in
          let w = comp.Argsys.Argument.solve (Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs iprg)) in
          let qap = Qap.of_r1cs sys in
          let h = Qap.prover_h qap w in
          if reference then
            Alcotest.(check bool) "honest H = reference H" true
              (Array.for_all2 Fp.equal h (Qap.prover_h_reference qap w));
          let w' = Array.copy w in
          w'.(1) <- Fp.add ctx w'.(1) Fp.one;
          Alcotest.(check bool) "the corrupted witness is unsatisfying" false (R1cs.satisfied ctx sys w');
          Alcotest.(check bool) "prover_h raises" true
            (try ignore (Qap.prover_h qap w'); false with Failure _ -> true);
          let forced = Qap.prover_h_forced qap w' in
          let tau = Chacha.Prg.field ctx (Chacha.Prg.create ~seed:("tau " ^ app.Apps.App_def.name) ()) in
          Alcotest.(check bool) "the forced H fails the divisibility check" false
            (divisibility_holds qap w' forced tau)))
    Apps.Registry.[ (lcs ~scale:1, true); (bisection ~scale:1, false); (pam ~scale:1, false) ]

(* A satisfiable system of exactly [nc] constraints over eight
   variables; from |C| = 8 on, its first two and last three A rows are
   zero, so A's values at the nodes have zero runs at both ends. *)
let sized_sys nc =
  let prg = Chacha.Prg.create ~seed:(Printf.sprintf "sized %d" nc) () in
  let n = 8 in
  let w = Array.init (n + 1) (fun i -> if i = 0 then Fp.one else Chacha.Prg.field ctx prg) in
  let row () =
    let term lc = Lincomb.add_term ctx lc (Chacha.Prg.int_below prg (n + 1)) (Chacha.Prg.field ctx prg) in
    term (term Lincomb.zero)
  in
  let constraints =
    Array.init nc (fun j ->
        let a = if nc >= 8 && (j < 2 || j >= nc - 3) then Lincomb.zero else row () and b = row () in
        let ab = Fp.mul ctx (Lincomb.eval ctx a w) (Lincomb.eval ctx b w) in
        let c = Lincomb.add_term ctx Lincomb.zero 0 ab in
        { R1cs.a; b; c })
  in
  ({ R1cs.field = ctx; num_vars = n; num_z = n - 2; constraints }, w)

(* The division-free route at the edges of the middle product's leaves
   and splits: |C| = 1, 2, 31, 32, 33 and 64 (n = |C| + 1 nodes). *)
let edge_size_tests =
  List.map
    (fun nc ->
      Alcotest.test_case (Printf.sprintf "prover_h = reference at |C| = %d; the forced H fails" nc) `Quick
        (fun () ->
          let sys, w = sized_sys nc in
          let qap = Qap.of_r1cs sys in
          Alcotest.(check bool) "satisfied" true (R1cs.satisfied ctx sys w);
          Alcotest.(check bool) "H = reference H" true
            (Array.for_all2 Fp.equal (Qap.prover_h qap w) (Qap.prover_h_reference qap w));
          let w' = Array.mapi (fun i x -> if i = 0 then x else Fp.add ctx x Fp.one) w in
          Alcotest.(check bool) "the corrupted witness is unsatisfying" false (R1cs.satisfied ctx sys w');
          Alcotest.(check bool) "prover_h raises" true
            (try ignore (Qap.prover_h qap w'); false with Failure _ -> true);
          let tau = Chacha.Prg.field ctx (Chacha.Prg.create ~seed:(Printf.sprintf "tau sized %d" nc) ()) in
          Alcotest.(check bool) "the forced H fails the divisibility check" false
            (divisibility_holds qap w' (Qap.prover_h_forced qap w') tau)))
    [ 1; 2; 31; 32; 33; 64 ]

let suite = unit_tests @ property_tests @ weight_tests @ real_size_tests @ edge_size_tests
