open Fieldlib

let ctx61 = Fp.create Primes.p61
let ctx127 = Fp.create Primes.p127

let el c = Alcotest.testable Fp.pp Fp.equal |> fun t -> ignore c; t

(* Deterministic pseudo-random field elements for property tests. *)
let gen_el ctx =
  QCheck.Gen.(
    list_size (return 8) (int_range 0 ((1 lsl 30) - 1)) >|= fun limbs ->
    Fp.of_nat ctx
      (List.fold_left (fun acc l -> Nat.add_int (Nat.shift_left acc 30) l) Nat.zero limbs))

let arb_el ctx = QCheck.make ~print:Fp.to_string (gen_el ctx)

let arb_nonzero ctx =
  QCheck.make ~print:Fp.to_string
    QCheck.Gen.(gen_el ctx >|= fun x -> if Fp.is_zero x then Fp.one else x)

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* REDC-free references: boxed [Fp.mul] runs on the same Montgomery REDC
   as the packed kernels, so the tests of either check against schoolbook
   [Nat.mul] and Knuth [Nat.divmod] only, and a REDC bug cannot hide on
   both sides. *)
let mulmod p x y = snd (Nat.divmod (Nat.mul x y) p)

let powmod p b e =
  let acc = ref (snd (Nat.divmod Nat.one p)) in
  for i = Nat.num_bits e - 1 downto 0 do
    acc := mulmod p !acc !acc;
    if Nat.testbit e i then acc := mulmod p !acc b
  done;
  !acc

(* Counter deltas need Zobs on; the kernels count through it. *)
let counted name f =
  Zobs.enable ();
  Fun.protect ~finally:Zobs.disable (fun () ->
      let c0 = Zobs.Registry.counter_value name in
      let r = f () in
      (r, Zobs.Registry.counter_value name - c0))

let field_laws name ctx =
  [
    qtest (name ^ ": add assoc") 200
      (QCheck.triple (arb_el ctx) (arb_el ctx) (arb_el ctx))
      (fun (a, b, c) -> Fp.equal (Fp.add ctx (Fp.add ctx a b) c) (Fp.add ctx a (Fp.add ctx b c)));
    qtest (name ^ ": mul assoc") 200
      (QCheck.triple (arb_el ctx) (arb_el ctx) (arb_el ctx))
      (fun (a, b, c) -> Fp.equal (Fp.mul ctx (Fp.mul ctx a b) c) (Fp.mul ctx a (Fp.mul ctx b c)));
    qtest (name ^ ": distributivity") 200
      (QCheck.triple (arb_el ctx) (arb_el ctx) (arb_el ctx))
      (fun (a, b, c) ->
        Fp.equal (Fp.mul ctx a (Fp.add ctx b c)) (Fp.add ctx (Fp.mul ctx a b) (Fp.mul ctx a c)));
    qtest (name ^ ": sub inverse of add") 200
      (QCheck.pair (arb_el ctx) (arb_el ctx))
      (fun (a, b) -> Fp.equal a (Fp.sub ctx (Fp.add ctx a b) b));
    qtest (name ^ ": neg") 200 (arb_el ctx) (fun a -> Fp.is_zero (Fp.add ctx a (Fp.neg ctx a)));
    qtest (name ^ ": inv") 200 (arb_nonzero ctx) (fun a ->
        Fp.equal Fp.one (Fp.mul ctx a (Fp.inv ctx a)));
    qtest (name ^ ": inv matches fermat") 100 (arb_nonzero ctx) (fun a ->
        Fp.equal (Fp.inv ctx a) (Fp.inv_fermat ctx a));
    qtest (name ^ ": fermat little theorem") 50 (arb_nonzero ctx) (fun a ->
        Fp.equal Fp.one (Fp.pow ctx a (Nat.sub (Fp.modulus ctx) Nat.one)));
    qtest (name ^ ": reduce idempotent under of_nat") 200 (arb_el ctx) (fun a ->
        Fp.equal a (Fp.of_nat ctx (Fp.to_nat a)));
  ]

let unit_tests =
  [
    Alcotest.test_case "of_int negative" `Quick (fun () ->
        let m1 = Fp.of_int ctx61 (-1) in
        Alcotest.check (el ctx61) "p-1" (Fp.sub ctx61 Fp.zero Fp.one) m1);
    Alcotest.test_case "of_int min_int = -(2^62)" `Quick (fun () ->
        List.iter
          (fun ctx ->
            Alcotest.check (el ctx) "min_int"
              (Fp.neg ctx (Fp.of_nat ctx (Nat.shift_left Nat.one 62)))
              (Fp.of_int ctx min_int))
          [ ctx61; ctx127 ]);
    Alcotest.test_case "to_signed_int" `Quick (fun () ->
        Alcotest.(check (option int)) "neg" (Some (-42)) (Fp.to_signed_int ctx61 (Fp.of_int ctx61 (-42)));
        Alcotest.(check (option int)) "pos" (Some 42) (Fp.to_signed_int ctx61 (Fp.of_int ctx61 42)));
    Alcotest.test_case "batch_inv" `Quick (fun () ->
        let xs = Array.init 17 (fun i -> Fp.of_int ctx127 (i + 3)) in
        let invs = Fp.batch_inv ctx127 xs in
        Array.iteri
          (fun i x -> Alcotest.check (el ctx127) "inv" (Fp.inv ctx127 x) invs.(i))
          xs);
    Alcotest.test_case "batch_inv rejects zero" `Quick (fun () ->
        Alcotest.check_raises "zero" Division_by_zero (fun () ->
            ignore (Fp.batch_inv ctx61 [| Fp.one; Fp.zero |])));
    Alcotest.test_case "dot product" `Quick (fun () ->
        let a = Array.init 100 (fun i -> Fp.of_int ctx127 (i + 1)) in
        let b = Array.init 100 (fun i -> Fp.of_int ctx127 (2 * i)) in
        let expect = ref Fp.zero in
        for i = 0 to 99 do
          expect := Fp.add ctx127 !expect (Fp.mul ctx127 a.(i) b.(i))
        done;
        Alcotest.check (el ctx127) "dot" !expect (Fp.dot ctx127 a b));
    Alcotest.test_case "dot with zeros is sparse-safe" `Quick (fun () ->
        let a = [| Fp.zero; Fp.one; Fp.zero; Fp.of_int ctx61 5 |] in
        let b = [| Fp.of_int ctx61 9; Fp.of_int ctx61 7; Fp.one; Fp.zero |] in
        Alcotest.check (el ctx61) "dot" (Fp.of_int ctx61 7) (Fp.dot ctx61 a b));
    Alcotest.test_case "sample below modulus" `Quick (fun () ->
        let counter = ref 0 in
        let fake n =
          incr counter;
          Bytes.init n (fun i -> Char.chr ((i * 37 + !counter * 11) land 0xff))
        in
        for _ = 1 to 50 do
          let x = Fp.sample ctx127 fake in
          Alcotest.(check bool) "in range" true (Nat.compare (Fp.to_nat x) (Fp.modulus ctx127) < 0)
        done);
    Alcotest.test_case "known prime moduli" `Slow (fun () ->
        Alcotest.(check bool) "p61" true (Primes.is_prime Primes.p61);
        Alcotest.(check bool) "p89" true (Primes.is_prime Primes.p89);
        Alcotest.(check bool) "p127" true (Primes.is_prime Primes.p127);
        Alcotest.(check bool) "bls fr" true (Primes.is_prime Primes.bls12_381_fr);
        Alcotest.(check int) "bls 2-adicity" 32 (Primes.two_adicity Primes.bls12_381_fr));
    Alcotest.test_case "p128/p220 generation" `Slow (fun () ->
        let p128 = Primes.p128 () in
        Alcotest.(check int) "bits" 128 (Nat.num_bits p128);
        Alcotest.(check bool) "prime" true (Primes.is_prime p128);
        let p220 = Primes.p220 () in
        Alcotest.(check int) "bits" 220 (Nat.num_bits p220);
        Alcotest.(check bool) "prime" true (Primes.is_prime p220));
    Alcotest.test_case "miller-rabin rejects composites" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check bool) (string_of_int n) false (Primes.is_prime (Nat.of_int n)))
          [ 0; 1; 4; 9; 15; 21; 25; 27; 33; 91; 561; 1105; 41041; 825265 ];
        (* Carmichael-adjacent large composite: product of two primes. *)
        let c = Nat.mul Primes.p61 Primes.p89 in
        Alcotest.(check bool) "p61*p89" false (Primes.is_prime c));
    Alcotest.test_case "miller-rabin accepts small primes" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check bool) (string_of_int n) true (Primes.is_prime (Nat.of_int n)))
          [ 2; 3; 5; 7; 97; 101; 65537; 2147483647 ]);
    Alcotest.test_case "root of unity generator (NTT field)" `Quick (fun () ->
        let ctx = Fp.create Primes.bls12_381_fr in
        let w = Primes.find_generator_of_two_power_subgroup ctx in
        (* w has order exactly 2^32: w^(2^32) = 1 and w^(2^31) <> 1. *)
        let sq n x = let r = ref x in for _ = 1 to n do r := Fp.sqr ctx !r done; !r in
        let w31 = sq 31 w in
        Alcotest.(check bool) "w^(2^31) <> 1" false (Fp.equal w31 Fp.one);
        Alcotest.(check bool) "w^(2^32) = 1" true (Fp.equal (Fp.sqr ctx w31) Fp.one));
  ]

let suite = unit_tests @ field_laws "F_p61" ctx61 @ field_laws "F_p127" ctx127

(* --- Montgomery-form arithmetic (lib/fieldlib/montgomery.ml) --- *)

let mont_tests =
  let mctx = Montgomery.create Primes.p127 in
  let sc = Montgomery.scratch_for mctx in
  let k = Nat.num_limbs Primes.p127 in
  let byte_src seed =
    let p = Chacha.Prg.create ~seed () in
    fun n -> Chacha.Prg.bytes p n
  in
  let sample src = Fp.sample ctx127 src in
  (* Slots 0 and 1 hold operands, slot 2 a product. *)
  let buf = Limb.create (3 * k) in
  let load slot x = Montgomery.to_mont_into mctx sc (Fp.to_nat x) buf (slot * k) in
  let read slot = Montgomery.of_mont mctx sc buf (slot * k) in
  [
    Alcotest.test_case "montgomery roundtrip" `Quick (fun () ->
        let src = byte_src "mont rt" in
        for _ = 1 to 50 do
          let x = sample src in
          load 0 x;
          Alcotest.(check bool) "rt" true (Nat.equal (read 0) (Fp.to_nat x))
        done);
    Alcotest.test_case "montgomery mul matches the Nat reference" `Quick (fun () ->
        let src = byte_src "mont mul" in
        for _ = 1 to 50 do
          let a = sample src and b = sample src in
          load 0 a;
          load 1 b;
          Montgomery.mul_into mctx sc buf (2 * k) buf 0 buf k;
          Alcotest.(check bool) "mul" true (Nat.equal (read 2) (mulmod Primes.p127 a b))
        done);
    Alcotest.test_case "montgomery pow matches the Nat reference" `Quick (fun () ->
        let src = byte_src "mont pow" in
        for _ = 1 to 10 do
          let b = sample src in
          let e = Fp.to_nat (sample src) in
          let got = Montgomery.pow mctx (Fp.to_nat b) e in
          Alcotest.(check bool) "pow" true (Nat.equal got (powmod Primes.p127 b e))
        done);
    Alcotest.test_case "montgomery one/zero" `Quick (fun () ->
        Montgomery.one_into mctx buf 0;
        Limb.clear buf k k;
        Alcotest.(check bool) "one" true (Nat.is_one (read 0));
        Alcotest.(check bool) "zero" true (Nat.is_zero (read 1)));
    Alcotest.test_case "montgomery rejects even modulus" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try ignore (Montgomery.create (Nat.of_int 8)); false with Invalid_argument _ -> true));
  ]

(* --- One reduction algorithm: boxed products and the dot's finish on REDC --- *)

(* The moduli the boxed REDC product is checked over: k = 2, 5, 5, 8 and
   9 limbs, and a 256-bit group modulus (its context counts
   fp.mul.group). *)
let redc_fields =
  lazy
    (let grp = Zcrypto.Group.cached ~field_order:Primes.p127 ~p_bits:256 () in
     [
       ("p61", Fp.create Primes.p61, "fp.mul");
       ("p127", ctx127, "fp.mul");
       ("p127_ntt", Fp.create Primes.p127_ntt, "fp.mul");
       ("p220", Fp.create (Primes.p220 ()), "fp.mul");
       ("bls12_381_fr", Fp.create Primes.bls12_381_fr, "fp.mul");
       ("group p256", grp.Zcrypto.Group.modp, "fp.mul.group");
     ])

(* Boxed mul and sqr on 0, 1, p-1 and two seeded residues, every pair:
   equal to the reference, one [fp.mul] (or [fp.mul.group]) per call and
   no [mont.mul]. *)
let boxed_redc_law seed =
  List.for_all
    (fun (_, ctx, counter) ->
      let p = Fp.modulus ctx in
      let prg = Chacha.Prg.create ~seed:(Printf.sprintf "boxed redc %d" seed) () in
      let ops = [ Fp.zero; Fp.one; Fp.neg ctx Fp.one; Chacha.Prg.field ctx prg; Chacha.Prg.field ctx prg ] in
      let (ok, mont), fp =
        counted counter (fun () ->
            counted "mont.mul" (fun () ->
                List.for_all
                  (fun x ->
                    Fp.equal (Fp.sqr ctx x) (mulmod p x x)
                    && List.for_all (fun y -> Fp.equal (Fp.mul ctx x y) (mulmod p x y)) ops)
                  ops))
      in
      let n = List.length ops in
      ok && fp = n * (n + 1) && mont = 0)
    (Lazy.force redc_fields)

(* Every named modulus, and the odd moduli of exactly 130 and 156 bits at
   either end of their range: 2^130 - 1 and 2^156 - 1 leave R / p = 2^26
   for the finish's R = 2^(26 (w+1)), below the column-overflow bound. *)
let dot_moduli () =
  let pow2 n = Nat.shift_left Nat.one n in
  [
    ("p61", Primes.p61); ("p89", Primes.p89); ("p127", Primes.p127); ("p128", Primes.p128 ());
    ("p192", Primes.p192 ()); ("p220", Primes.p220 ()); ("bls12_381_fr", Primes.bls12_381_fr);
    ("p127_ntt", Primes.p127_ntt); ("2^129+1", Nat.add_int (pow2 129) 1);
    ("2^130-1", Nat.sub (pow2 130) Nat.one); ("2^155+1", Nat.add_int (pow2 155) 1);
    ("2^156-1", Nat.sub (pow2 156) Nat.one);
  ]

let redc_tests =
  [
    qtest "boxed Fp.mul/sqr = Nat reference on 0/1/p-1, k = 2/5/5/8/9 and a group, one fp.mul, mont.mul 0"
      6 QCheck.small_int boxed_redc_law;
    Alcotest.test_case "Vec.dot_bound * (p-1)^2 < p * R: the finish's REDC input" `Quick (fun () ->
        List.iter
          (fun (label, p) ->
            let ctx = Fp.create p in
            let w = max 5 ((Nat.num_bits p + 25) / 26) in
            let r = Nat.shift_left Nat.one (26 * (w + 1)) in
            let bound = Fp.Vec.dot_bound ctx in
            let pm1 = Nat.sub p Nat.one in
            Alcotest.(check bool) (label ^ ": bound * (p-1)^2 < p R") true
              (Nat.compare (Nat.mul (Nat.of_int bound) (Nat.sqr pm1)) (Nat.mul p r) < 0);
            Alcotest.(check bool) (label ^ ": below the column bound") true
              (bound <= max_int / (Nat.num_limbs p lsl 32)))
          (dot_moduli ()));
    Alcotest.test_case "Vec.dot of 4097 terms of p-1 = the Nat reference" `Quick (fun () ->
        List.iter
          (fun (label, p) ->
            let ctx = Fp.create p in
            let pm1 = Nat.sub p Nat.one and n = 4097 in
            let v = Fp.Vec.of_array ctx (Array.make n pm1) in
            let expect = snd (Nat.divmod (Nat.mul (Nat.of_int n) (Nat.sqr pm1)) p) in
            Alcotest.check (el ctx) label expect (Fp.Vec.dot ctx (Fp.scratch_for ctx) v 0 v 0 n))
          (dot_moduli ()));
  ]

let suite = suite @ mont_tests @ redc_tests

(* --- The generated fixed-width kernels (fixed.ml) against the CIOS loop --- *)

(* The widths with a generated kernel: k = 5 (the PCP fields) and k = 9
   (the served 256-bit group and bls12_381_fr). *)
let fixed_moduli =
  lazy
    (let grp = Zcrypto.Group.cached ~field_order:Primes.p127 ~p_bits:256 () in
     [
       ("p127", Primes.p127); ("p127_ntt", Primes.p127_ntt); ("group p256", grp.Zcrypto.Group.p);
       ("bls12_381_fr", Primes.bls12_381_fr);
     ])

(* Operands below p: 0, 1, p-1, seeded residues, and for two seeded a
   the b with a b R^-1 = c mod p for c = 1, 2, 3. As a b > c R, those
   reach c + p before the final subtraction; nearly all other products
   stay below p. *)
let redc_operands p ~seed =
  let k = Nat.num_limbs p in
  let ctx = Fp.create p in
  let r = snd (Nat.divmod (Nat.shift_left Nat.one (31 * k)) p) in
  let prg = Chacha.Prg.create ~seed:(Printf.sprintf "fixed redc %d" seed) () in
  let rand = List.init 6 (fun _ -> Chacha.Prg.field ctx prg) in
  let to_c a c = mulmod p (mulmod p r (Fp.inv ctx a)) (Nat.of_int c) in
  let edge = [ Nat.zero; Nat.one; Nat.sub p Nat.one ] in
  let sub_side = List.concat_map (fun a -> List.map (fun c -> (a, to_c a c)) [ 1; 2; 3 ]) (List.filteri (fun i _ -> i < 2) rand) in
  (edge @ rand, sub_side)

(* The CIOS sum before its final subtraction is a b R^-1 mod p, or that
   plus p exactly when (a b R^-1 mod p) R < a b. *)
let lands_past_p p rinv a b =
  let x = Nat.mul a b in
  Nat.compare (Nat.shift_left (mulmod p x rinv) (31 * Nat.num_limbs p)) x < 0

let fixed_redc_law seed =
  List.for_all
    (fun (_, p) ->
      let k = Nat.num_limbs p in
      let m = Montgomery.create p in
      let sc = Montgomery.scratch_for m in
      let rinv = Fp.inv (Fp.create p) (snd (Nat.divmod (Nat.shift_left Nat.one (31 * k)) p)) in
      let ops, sub_side = redc_operands p ~seed in
      let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) ops) ops @ sub_side in
      (* both sides of the final subtraction are exercised *)
      let past = List.filter (fun (a, b) -> lands_past_p p rinv a b) pairs in
      let buf = Limb.create (6 * k) in
      let slot i = i * k in
      List.length past >= List.length sub_side
      && List.length past < List.length pairs
      && List.for_all
           (fun (a, b) ->
             let expect = mulmod p (Nat.mul a b) rinv in
             Limb.of_nat a buf (slot 0) k;
             Limb.of_nat b buf (slot 1) k;
             Montgomery.redc_into m sc buf (slot 2) buf (slot 0) buf (slot 1);
             Montgomery.redc_loop m sc buf (slot 3) buf (slot 0) buf (slot 1);
             let same = Limb.cmp buf (slot 2) buf (slot 3) k = 0 in
             (* dst aliasing a, then b, then both operands *)
             Limb.blit buf (slot 0) buf (slot 4) k;
             Montgomery.redc_into m sc buf (slot 4) buf (slot 4) buf (slot 1);
             Limb.blit buf (slot 1) buf (slot 5) k;
             Montgomery.redc_into m sc buf (slot 5) buf (slot 0) buf (slot 5);
             let alias_ok = Limb.cmp buf (slot 4) buf (slot 2) k = 0 && Limb.cmp buf (slot 5) buf (slot 2) k = 0 in
             Montgomery.redc_into m sc buf (slot 0) buf (slot 0) buf (slot 0);
             same && alias_ok
             && Nat.equal (Limb.to_nat buf (slot 2) k) expect
             && Nat.equal (Limb.to_nat buf (slot 0) k) (mulmod p (Nat.mul a a) rinv))
           pairs)
    (Lazy.force fixed_moduli)

(* Element [x] as [w] little-endian bytes at [off]; [None] is [nb] bytes
   of all ones (zero-padded to [w]). *)
let put_el b off w nb = function
  | Some x -> Nat.to_bytes_sub x b off w
  | None -> Bytes.fill b off nb '\255'

(* [read_bytes_n] at the decoder's width w (16 bytes at k = 5, 32 at
   k = 9) against the same elements at w + 1 bytes, which takes the
   generic loop: the same count and the same limbs up to the slot it
   stopped at. *)
let slot_decoder_case fctx elems =
  let w = Fp.num_bytes fctx and n = Array.length elems in
  let read w =
    let b = Bytes.make (n * w) '\000' in
    Array.iteri (fun i x -> put_el b (i * w) w (Fp.num_bytes fctx) x) elems;
    let v = Fp.Vec.create fctx n in
    (Fp.Vec.read_bytes_n fctx v 0 n b 0 w, v)
  in
  let got, v = read w and gen, vg = read (w + 1) in
  let expect =
    let rec first i =
      if i = n then n
      else match elems.(i) with Some x when Nat.compare x (Fp.modulus fctx) < 0 -> first (i + 1) | _ -> i
    in
    first 0
  in
  got = expect && gen = expect
  && List.for_all (fun i -> Nat.equal (Fp.Vec.get v i) (Fp.Vec.get vg i)) (List.init (min n (got + 1)) Fun.id)

let fixed_tests =
  [
    qtest "generated REDC = the CIOS loop at k = 5/5/9/9: 0, 1, p-1, both sides of the final subtraction, dst aliasing"
      4 QCheck.small_int fixed_redc_law;
    Alcotest.test_case "slot decoder: accepts p-1, rejects p and all-ones, stops where the generic loop does" `Quick
      (fun () ->
        List.iter
          (fun (label, p, w) ->
            let fctx = Fp.create p in
            Alcotest.(check int) (label ^ ": decoder width") w (Fp.num_bytes fctx);
            let prg = Chacha.Prg.create ~seed:("slot decoder " ^ label) () in
            let good = Array.init 7 (fun i ->
                Some (match i with 0 -> Nat.sub p Nat.one | 1 -> Nat.zero | 2 -> Nat.one | _ -> Chacha.Prg.field fctx prg))
            in
            Alcotest.(check bool) (label ^ ": all in range") true (slot_decoder_case fctx good);
            List.iter
              (fun (bad_label, bad) ->
                List.iter
                  (fun at ->
                    let elems = Array.copy good in
                    elems.(at) <- bad;
                    Alcotest.(check bool) (Printf.sprintf "%s: %s at %d" label bad_label at) true
                      (slot_decoder_case fctx elems))
                  [ 0; 3; 6 ])
              [ ("p", Some p); ("p+1", Some (Nat.add_int p 1)); ("all-ones", None) ];
            (* a byte span past the buffer is refused, as by the loop *)
            let v = Fp.Vec.create fctx 2 in
            Alcotest.(check bool) (label ^ ": short buffer raises") true
              (try ignore (Fp.Vec.read_bytes_n fctx v 0 2 (Bytes.make ((2 * w) - 1) '\000') 0 w); false
               with Invalid_argument _ -> true))
          [ ("p127", Primes.p127, 16); ("p127_ntt", Primes.p127_ntt, 16); ("bls12_381_fr", Primes.bls12_381_fr, 32) ]);
  ]

let suite = suite @ fixed_tests
