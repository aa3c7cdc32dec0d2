open Fieldlib
open Zcrypto

(* Small parameters keep the unit tests fast; the bench exercises 1024-bit
   groups. *)
let field = Primes.p61
let ctx = Fp.create field
(* Built when a test first needs it, so a defect in the group's
   arithmetic fails named tests instead of the module load. *)
let grp = lazy (Group.cached ~field_order:field ~p_bits:192 ())

let prg seed = Chacha.Prg.create ~seed ()

let unit_tests =
  [
    Alcotest.test_case "group parameters" `Quick (fun () ->
        let grp = Lazy.force grp in
        Alcotest.(check bool) "p prime" true (Primes.is_prime grp.Group.p);
        Alcotest.(check int) "p bits" 192 (Nat.num_bits grp.Group.p);
        (* g has order exactly q *)
        Alcotest.(check bool) "g^q = 1" true
          (Fp.equal (Group.pow grp grp.Group.g grp.Group.q) Fp.one);
        Alcotest.(check bool) "g <> 1" false (Fp.equal grp.Group.g Fp.one));
    Alcotest.test_case "elgamal roundtrip (to group encoding)" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "eg" in
        let sk, pk = Elgamal.keygen grp p in
        for i = 0 to 20 do
          let m = Fp.of_int ctx (i * 7919) in
          let c = Elgamal.encrypt pk p m in
          Alcotest.(check bool) "dec" true
            (Group.equal (Elgamal.decrypt_to_group sk c) (Elgamal.encode pk m))
        done);
    Alcotest.test_case "elgamal additive homomorphism" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "hom" in
        let sk, pk = Elgamal.keygen grp p in
        let a = Chacha.Prg.field ctx p and b = Chacha.Prg.field ctx p in
        let ca = Elgamal.encrypt pk p a and cb = Elgamal.encrypt pk p b in
        let sum = Elgamal.hom_add pk ca cb in
        Alcotest.(check bool) "add" true
          (Group.equal (Elgamal.decrypt_to_group sk sum) (Elgamal.encode pk (Fp.add ctx a b)));
        let s = Fp.of_int ctx 12345 in
        let scaled = Elgamal.hom_scale pk ca s in
        Alcotest.(check bool) "scale" true
          (Group.equal (Elgamal.decrypt_to_group sk scaled) (Elgamal.encode pk (Fp.mul ctx a s))));
    Alcotest.test_case "elgamal hom_dot = Enc(<u,r>)" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "dot" in
        let sk, pk = Elgamal.keygen grp p in
        let n = 12 in
        let r = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
        let u = Array.init n (fun i -> if i mod 3 = 0 then Fp.zero else Chacha.Prg.field ctx p) in
        let enc_r = Array.map (Elgamal.encrypt pk p) r in
        let c = Elgamal.hom_dot pk enc_r u in
        Alcotest.(check bool) "dot" true
          (Group.equal (Elgamal.decrypt_to_group sk c) (Elgamal.encode pk (Fp.dot ctx u r))));
    Alcotest.test_case "ciphertexts are randomized" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "rand" in
        let _, pk = Elgamal.keygen grp p in
        let m = Fp.of_int ctx 42 in
        let c1 = Elgamal.encrypt pk p m and c2 = Elgamal.encrypt pk p m in
        Alcotest.(check bool) "differ" false
          (Group.equal c1.Elgamal.c1 c2.Elgamal.c1 && Group.equal c1.Elgamal.c2 c2.Elgamal.c2));
  ]

let commit_tests =
  [
    Alcotest.test_case "commitment accepts honest prover" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "commit ok" in
        let u = Array.init 10 (fun i -> Fp.of_int ctx (i + 1)) in
        let req, vs = Commitment.Commit.commit_request ctx grp p ~len:10 in
        let com = Commitment.Commit.prover_commit req u in
        let queries =
          Fp.Rows.of_arrays ctx ~width:10
            (Array.init 5 (fun _ -> Array.init 10 (fun _ -> Chacha.Prg.field ctx p)))
        in
        let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
        let ans = Commitment.Commit.prover_answer ctx u queries ch.Commitment.Commit.t in
        Alcotest.(check bool) "accept" true
          (Commitment.Commit.consistency_check vs ch ~commitment:com ans));
    Alcotest.test_case "commitment rejects inconsistent answers" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "commit bad" in
        let u = Array.init 10 (fun i -> Fp.of_int ctx (i + 1)) in
        let req, vs = Commitment.Commit.commit_request ctx grp p ~len:10 in
        let com = Commitment.Commit.prover_commit req u in
        let queries =
          Fp.Rows.of_arrays ctx ~width:10
            (Array.init 5 (fun _ -> Array.init 10 (fun _ -> Chacha.Prg.field ctx p)))
        in
        let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
        let ans = Commitment.Commit.prover_answer ctx u queries ch.Commitment.Commit.t in
        (* Tamper with one PCP answer after committing. *)
        let tampered = { ans with Commitment.Commit.a = Array.copy ans.Commitment.Commit.a } in
        tampered.Commitment.Commit.a.(2) <- Fp.add ctx tampered.Commitment.Commit.a.(2) Fp.one;
        Alcotest.(check bool) "reject" false
          (Commitment.Commit.consistency_check vs ch ~commitment:com tampered));
    Alcotest.test_case "commitment rejects equivocation (different u for t)" `Quick (fun () ->
        let grp = Lazy.force grp in
        let p = prg "commit equiv" in
        let u = Array.init 8 (fun i -> Fp.of_int ctx (i + 2)) in
        let u' = Array.init 8 (fun i -> Fp.of_int ctx (i + 3)) in
        let req, vs = Commitment.Commit.commit_request ctx grp p ~len:8 in
        let com = Commitment.Commit.prover_commit req u in
        let queries =
          Fp.Rows.of_arrays ctx ~width:8
            (Array.init 3 (fun _ -> Array.init 8 (fun _ -> Chacha.Prg.field ctx p)))
        in
        let ch = Commitment.Commit.decommit_challenge ctx vs p queries in
        (* Answer queries with u' while having committed to u. *)
        let ans = Commitment.Commit.prover_answer ctx u' queries ch.Commitment.Commit.t in
        Alcotest.(check bool) "reject" false
          (Commitment.Commit.consistency_check vs ch ~commitment:com ans));
  ]

(* The prover rebuilds the group from untrusted wire parameters; every
   structural check must survive the move of g^q onto the packed ladder. *)
let of_params_tests =
  let open Group in
  [
    Alcotest.test_case "of_params refuses g outside the order-q subgroup" `Quick (fun () ->
        let grp = Lazy.force grp in
        let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
        (* The smallest h with h^q <> 1 (a REDC-free Nat oracle), so g = h
           lies in range, is not 1, and fails only the subgroup check. *)
        let rec outside h =
          let x = Nat.of_int h in
          if Group.equal (Test_fp.powmod grp.p x grp.q) Group.one then outside (h + 1) else x
        in
        let h = outside 2 in
        Alcotest.(check bool) "h outside" true (raises (fun () -> of_params ~p:grp.p ~q:grp.q ~g:h));
        Alcotest.(check bool) "p - 1 outside" true
          (raises (fun () -> of_params ~p:grp.p ~q:grp.q ~g:(Nat.sub grp.p Nat.one)));
        Alcotest.(check bool) "g = 1" true (raises (fun () -> of_params ~p:grp.p ~q:grp.q ~g:Nat.one));
        Alcotest.(check bool) "q does not divide p - 1" true
          (raises (fun () -> of_params ~p:grp.p ~q:(Nat.add grp.q Nat.two) ~g:grp.g)));
  ]

let suite = unit_tests @ commit_tests @ of_params_tests

(* Regression: group generation must terminate for field orders just above
   a power of two (p220 = first prime >= 2^219), where a fixed multiplier
   bit-length leaves an almost-empty window for p_bits-bit primes. *)
let regression_tests =
  [
    Alcotest.test_case "group generation over p220-style field orders" `Slow (fun () ->
        let q = Primes.p220 () in
        let g = Group.generate ~seed:"regression 220" ~field_order:q ~p_bits:320 () in
        Alcotest.(check int) "p bits" 320 (Nat.num_bits g.Group.p);
        Alcotest.(check bool) "p prime" true (Primes.is_prime g.Group.p);
        Alcotest.(check bool) "g order q" true (Fp.equal (Group.pow g g.Group.g q) Fp.one));
    Alcotest.test_case "group generation over p61 still works" `Quick (fun () ->
        let g = Group.generate ~seed:"regression 61" ~field_order:Primes.p61 ~p_bits:128 () in
        Alcotest.(check int) "p bits" 128 (Nat.num_bits g.Group.p);
        Alcotest.(check bool) "g <> 1" false (Fp.equal g.Group.g Fp.one));
  ]

let suite = suite @ regression_tests
