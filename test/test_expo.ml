open Fieldlib
open Zcrypto

(* Property tests for the DESIGN.md §8 exponentiation kernels: fixed-base
   window tables, Shamir simultaneous exponentiation, Pippenger bucket
   multi-exponentiation, and the parallel commitment pipeline built on
   them. Every kernel runs on the packed Montgomery REDC, and so do the
   generic ladder {!Group.pow} and boxed [Fp.mul]; the oracle is
   therefore square-and-multiply on [Nat.mul] and [Nat.divmod], so a REDC
   bug cannot hide on both sides. *)

let field = Primes.p61
let ctx = Fp.create field
(* Built when a test first needs it, so a defect in the group's
   arithmetic fails named tests instead of the module load. *)
let grp = lazy (Group.cached ~field_order:field ~p_bits:192 ())
let prg seed = Chacha.Prg.create ~seed ()
let q1 () = Nat.sub (Lazy.force grp).Group.q Nat.one

let oracle b e = Test_fp.powmod (Lazy.force grp).Group.p b e
let mulmod a b = Test_fp.mulmod (Lazy.force grp).Group.p a b
let rand_el p = oracle (Lazy.force grp).Group.g (Fp.to_nat (Chacha.Prg.field ctx p))
let rand_exp p = Fp.to_nat (Chacha.Prg.field ctx p)

(* Exponent edge cases every kernel must handle: 0, 1, and q-1 (the widest
   exponent a Z_q table must cover). *)
let edge_exps () = [ Nat.zero; Nat.one; q1 () ]

let check_pow name expect got = Alcotest.(check bool) name true (Group.equal expect got)

let fixed_base_tests =
  [
    Alcotest.test_case "fb_pow = pow for windows 1-6" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "fb windows" in
        let bases = [ ("g", grp.Group.g); ("rand", rand_el p) ] in
        List.iter
          (fun (bname, base) ->
            for window = 1 to 6 do
              let tab = Group.fb_precompute ~window grp base in
              let exps = edge_exps () @ List.init 8 (fun _ -> rand_exp p) in
              List.iter
                (fun e ->
                  check_pow
                    (Printf.sprintf "%s w=%d e=%s" bname window (Nat.to_hex e))
                    (oracle base e) (Group.fb_pow grp tab e))
                exps
            done)
          bases);
    Alcotest.test_case "cached g-table matches pow" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "fb g" in
        let tab = Group.fb_g grp in
        List.iter
          (fun e -> check_pow "g table" (oracle grp.Group.g e) (Group.fb_pow grp tab e))
          (edge_exps () @ List.init 16 (fun _ -> rand_exp p)));
    Alcotest.test_case "fb_pow falls back beyond the table range" `Quick (fun () ->
        let grp = Lazy.force grp in
        (* A table sized for Z_q exponents must still be correct for wider
           exponents (generic-ladder fallback). *)
        let wide = Nat.mul grp.Group.q (Nat.of_int 3) in
        check_pow "wide exponent" (oracle grp.Group.g wide)
          (Group.fb_pow grp (Group.fb_g grp) wide));
  ]

let shamir_tests =
  [
    Alcotest.test_case "pow2 = pow * pow" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "shamir" in
        let cases =
          List.concat_map (fun e1 -> List.map (fun e2 -> (e1, e2)) (edge_exps ())) (edge_exps ())
          @ List.init 12 (fun _ -> (rand_exp p, rand_exp p))
        in
        List.iter
          (fun (e1, e2) ->
            let b1 = rand_el p and b2 = rand_el p in
            check_pow "pow2"
              (mulmod (oracle b1 e1) (oracle b2 e2))
              (Group.pow2 grp b1 e1 b2 e2))
          cases);
  ]

let multi_pow_tests =
  [
    Alcotest.test_case "multi_pow = fold of pow" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "pippenger" in
        let naive bases exps =
          let acc = ref Group.one in
          Array.iteri (fun i b -> acc := mulmod !acc (oracle b exps.(i))) bases;
          !acc
        in
        List.iter
          (fun n ->
            let bases = Array.init n (fun _ -> rand_el p) in
            let exps =
              Array.init n (fun i ->
                  match i with 0 -> Nat.zero | 1 -> Nat.one | 2 -> q1 () | _ -> rand_exp p)
            in
            let expect = naive bases exps in
            List.iter
              (fun window ->
                let got =
                  match window with
                  | None -> Group.multi_pow grp bases exps
                  | Some w -> Group.multi_pow ~window:w grp bases exps
                in
                check_pow (Printf.sprintf "n=%d" n) expect got)
              [ None; Some 1; Some 2; Some 3 ])
          [ 0; 1; 2; 3; 7; 20 ]);
  ]

let ct_equal (a : Elgamal.ciphertext) (b : Elgamal.ciphertext) =
  Group.equal a.Elgamal.c1 b.Elgamal.c1 && Group.equal a.Elgamal.c2 b.Elgamal.c2

let hom_dot_tests =
  [
    Alcotest.test_case "hom_dot = hom_dot_naive" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "hom_dot" in
        let _, pk = Elgamal.keygen grp p in
        List.iter
          (fun n ->
            let enc_r = Array.init n (fun _ -> Elgamal.encrypt pk p (Chacha.Prg.field ctx p)) in
            (* One prepared Enc(r) serves a beta = 3 batch of each kind:
               zeros (skipped), ones (folded) and a mix with generic
               coefficients, the three hom_dot partitions. *)
            let pr = Elgamal.prepare pk enc_r in
            let kinds =
              [
                ("zeros", fun _ -> Fp.zero);
                ("ones", fun _ -> Fp.one);
                ( "mix",
                  fun i ->
                    match i mod 3 with 0 -> Fp.zero | 1 -> Fp.one | _ -> Chacha.Prg.field ctx p );
              ]
            in
            List.iter
              (fun (kind, coeff) ->
                for b = 1 to 3 do
                  let u = Array.init n coeff in
                  let naive = Elgamal.hom_dot_naive pk enc_r u in
                  Alcotest.(check bool)
                    (Printf.sprintf "n=%d %s vector %d" n kind b)
                    true
                    (ct_equal (Elgamal.hom_dot_prepared pr u) naive
                    && ct_equal (Elgamal.hom_dot pk enc_r u) naive)
                done)
              kinds)
          [ 0; 1; 5; 24 ]);
  ]

let parallel_tests =
  [
    Alcotest.test_case "prepared commitments are byte-identical at domains 1 and 4" `Quick
      (fun () ->
        let grp = Lazy.force grp in
        let p = prg "prepared domains" in
        let req_z, _ = Commitment.Commit.commit_request ctx grp p ~len:13 in
        let req_h, _ = Commitment.Commit.commit_request ctx grp p ~len:7 in
        let vec n = Array.init n (fun i -> if i mod 4 = 1 then Fp.one else Chacha.Prg.field ctx p) in
        let batch = Array.init 3 (fun _ -> (vec 13, vec 7)) in
        let encode coms =
          Bytes.to_string
            (Zwire.encode ~codec:(Zwire.codec ~group_p:grp.Group.p ctx) (Zwire.Commitments coms))
        in
        let prepare (r : Commitment.Commit.request) =
          Elgamal.prepare r.Commitment.Commit.pk r.Commitment.Commit.enc_r
        in
        let commit domains =
          let pz = prepare req_z and ph = prepare req_h in
          encode
            (Dompool.Pool.map ~domains
               (fun (uz, uh) ->
                 ( Commitment.Commit.prover_commit_prepared pz uz,
                   Commitment.Commit.prover_commit_prepared ph uh ))
               batch)
        in
        let unprepared =
          encode
            (Array.map
               (fun (uz, uh) ->
                 (Commitment.Commit.prover_commit req_z uz, Commitment.Commit.prover_commit req_h uh))
               batch)
        in
        Alcotest.(check string) "domains 1 = 4" (commit 1) (commit 4);
        Alcotest.(check string) "prepared = unprepared" unprepared (commit 1));
    Alcotest.test_case "commit_request transcript is domain-count independent" `Quick (fun () ->
        let grp = Lazy.force grp in
        let run domains =
          Commitment.Commit.commit_request ~domains ctx grp (prg "par commit") ~len:17
        in
        let req1, vs1 = run 1 and req4, vs4 = run 4 in
        Alcotest.(check bool) "same y" true
          (Group.equal req1.Commitment.Commit.pk.Elgamal.y req4.Commitment.Commit.pk.Elgamal.y);
        Array.iteri
          (fun i (c1 : Elgamal.ciphertext) ->
            let c4 = req4.Commitment.Commit.enc_r.(i) in
            Alcotest.(check bool)
              (Printf.sprintf "enc_r.%d" i)
              true
              (Group.equal c1.Elgamal.c1 c4.Elgamal.c1 && Group.equal c1.Elgamal.c2 c4.Elgamal.c2))
          req1.Commitment.Commit.enc_r;
        Array.iteri
          (fun i r1 ->
            Alcotest.(check bool) (Printf.sprintf "r.%d" i) true
              (Fp.equal r1 vs4.Commitment.Commit.r.(i)))
          vs1.Commitment.Commit.r);
    Alcotest.test_case "commitment protocol accepts with domains > 1" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "par protocol" in
        let n = 11 in
        let u = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
        let req, vs = Commitment.Commit.commit_request ~domains:3 ctx grp p ~len:n in
        let com = Commitment.Commit.prover_commit req u in
        let queries =
          Fp.Rows.of_arrays ctx ~width:n
            (Array.init 4 (fun _ -> Array.init n (fun _ -> Chacha.Prg.field ctx p)))
        in
        let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
        let ans = Commitment.Commit.prover_answer ctx u queries ch.Commitment.Commit.t in
        Alcotest.(check bool) "accept" true
          (Commitment.Commit.consistency_check vs ch ~commitment:com ans));
  ]

let suite = fixed_base_tests @ shamir_tests @ multi_pow_tests @ hom_dot_tests @ parallel_tests
