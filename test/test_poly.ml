open Fieldlib
open Polylib

let ctx = Fp.create Primes.p61
let ctx127 = Fp.create Primes.p127
let prg () = Chacha.Prg.create ~seed:"poly tests" ()

let poly_t c = Alcotest.testable (Poly.pp c) Poly.equal

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* Generate random polynomials deterministically from an int seed so qcheck
   can shrink/print. *)
let gen_poly ctx =
  QCheck.Gen.(
    pair (int_range 0 40) int >|= fun (deg, seed) ->
    let p = Chacha.Prg.create ~seed:(Printf.sprintf "qpoly %d" seed) () in
    Poly.random ctx p deg)

let arb_poly c = QCheck.make ~print:(fun p -> Format.asprintf "%a" (Poly.pp c) p) (gen_poly c)

(* Operand pairs for the Karatsuba differential: lengths 0-200, biased
   to straddle the 32-coefficient threshold and its doublings, each
   operand dense, with a zero low half (its low split half trims to
   empty), with runs of zeros, with halves that cancel in a1 + a0, or
   sparse. A short operand against a long one leaves its high split half
   empty. *)
type mul_case = { la : int; lb : int; pa : int; pb : int; seed : int }

let gen_mul_case =
  QCheck.Gen.(
    let len =
      frequency [ (4, int_range 0 200); (2, int_range 28 36); (1, int_range 60 68); (1, int_range 124 132) ]
    in
    map
      (fun ((la, lb), (pa, pb), seed) -> { la; lb; pa; pb; seed })
      (triple (pair len len) (pair (int_range 0 4) (int_range 0 4)) int))

let patterned ctx prg n pattern =
  let a = Array.init n (fun _ -> Chacha.Prg.field ctx prg) in
  (match pattern with
   | 1 -> Array.fill a 0 (n / 2) Fp.zero
   | 2 ->
     let zero = ref false in
     Array.iteri
       (fun i _ ->
         if Chacha.Prg.int_below prg 6 = 0 then zero := not !zero;
         if !zero then a.(i) <- Fp.zero)
       a
   | 3 ->
     for i = 0 to (n / 2) - 1 do
       a.(n - 1 - i) <- Fp.neg ctx a.((n / 2) - 1 - i)
     done
   | 4 -> Array.iteri (fun i _ -> if Chacha.Prg.int_below prg 8 <> 0 then a.(i) <- Fp.zero) a
   | _ -> ());
  Poly.of_coeffs a

let arb_mul_case =
  QCheck.make
    ~print:(fun c -> Printf.sprintf "lengths %d, %d; patterns %d, %d; seed %d" c.la c.lb c.pa c.pb c.seed)
    gen_mul_case

let mul_matches_schoolbook ctx c =
  let prg = Chacha.Prg.create ~seed:(Printf.sprintf "karatsuba %d" c.seed) () in
  let a = patterned ctx prg c.la c.pa and b = patterned ctx prg c.lb c.pb in
  Poly.equal (Poly.mul ctx a b) (Poly.mul_schoolbook ctx a b)

(* The leaf kernel at every width: p61, p127 and p127_ntt take its
   unrolled five-limb body, bls12_381_fr its column loop. *)
let leaf_fields =
  [
    ("p61", ctx); ("p127", ctx127); ("p127_ntt", Fp.create Primes.p127_ntt);
    ("bls12_381_fr", Fp.create Primes.bls12_381_fr);
  ]

(* Every coefficient p - 1 (the largest columns the kernel can see), or a
   mix of zeros, ones, values of one 26-bit or one 31-bit limb and full
   residues (zero and trimmed limbs). *)
let edge_coeffs fctx prg ~maxed n =
  Array.init n (fun _ ->
      if maxed then Fp.neg fctx Fp.one
      else
        match Chacha.Prg.int_below prg 5 with
        | 0 -> Fp.zero
        | 1 -> Fp.one
        | 2 -> Fp.of_int fctx (Chacha.Prg.int_below prg (1 lsl 26))
        | 3 -> Fp.of_int fctx (Chacha.Prg.int_below prg (1 lsl 31))
        | _ -> Chacha.Prg.field fctx prg)

let leaf_edge_tests =
  List.map
    (fun (label, fctx) ->
      Alcotest.test_case
        (Printf.sprintf "mul = mul_schoolbook with equal fp.mul_lazy on edge leaves over %s" label)
        `Quick
        (fun () ->
          let prg = Chacha.Prg.create ~seed:("leaf edges " ^ label) () in
          List.iter
            (fun (la, lb, maxed) ->
              let a = Poly.of_coeffs (edge_coeffs fctx prg ~maxed la) in
              let b = Poly.of_coeffs (edge_coeffs fctx prg ~maxed lb) in
              let r, n = Test_hotpath.counted "fp.mul_lazy" (fun () -> Poly.mul fctx a b) in
              let r', n' = Test_hotpath.counted "fp.mul_lazy" (fun () -> Poly.mul_schoolbook fctx a b) in
              let case = Printf.sprintf "%d x %d%s" la lb (if maxed then ", p - 1" else "") in
              Alcotest.check (poly_t fctx) case r' r;
              (* A leaf makes schoolbook's products; Karatsuba makes fewer. *)
              if min la lb < 32 then Alcotest.(check int) (case ^ ": fp.mul_lazy") n' n)
            [
              (31, 31, true); (31, 700, true); (700, 31, true); (1, 1, true); (31, 31, false);
              (1, 40, false); (31, 700, false); (64, 64, false); (100, 37, false);
            ];
          (* (x - 1)(1 + x + ... + x^(n-1)) = x^n - 1: each middle output's
             column sum is p itself, so its REDC lands exactly on p and
             takes the final subtraction. *)
          List.iter
            (fun n ->
              let x_minus_1 = Poly.x_minus fctx Fp.one and ones = Poly.of_coeffs (Array.make n Fp.one) in
              Alcotest.check (poly_t fctx)
                (Printf.sprintf "x^%d - 1" n)
                (Poly.sub fctx (Poly.monomial Fp.one n) Poly.one)
                (Poly.mul fctx x_minus_1 ones))
            [ 31; 700 ]))
    leaf_fields

(* The kernel alone at its column bound: min(la, lb) * w26 < 2^10, with
   w26 = 5 up to 130 bits and 10 at 255, on p - 1 operands; one slot more
   raises. *)
let convolve_bound_tests =
  List.map
    (fun (label, fctx) ->
      Alcotest.test_case (Printf.sprintf "Fp.Vec.convolve at its column bound over %s" label) `Quick
        (fun () ->
          let bound = Fp.Vec.convolve_bound fctx in
          Alcotest.(check int) "bound" (if Fp.bits fctx <= 130 then 204 else 102) bound;
          let pm1 n = Array.make n (Fp.neg fctx Fp.one) in
          let a = pm1 bound and b = pm1 (bound + 3) in
          let sc = Fp.scratch_for fctx in
          let d = Fp.Vec.create fctx ((2 * bound) + 2) in
          Fp.Vec.convolve fctx sc (Fp.Vec.of_array fctx a) 0 bound (Fp.Vec.of_array fctx b) 0 (bound + 3) d 0;
          Alcotest.check (poly_t fctx) "p - 1 at the bound"
            (Poly.mul_schoolbook fctx (Poly.of_coeffs a) (Poly.of_coeffs b))
            (Poly.of_coeffs (Fp.Vec.to_array d));
          let v = Fp.Vec.of_array fctx (pm1 (bound + 1)) in
          Alcotest.(check bool) "past the bound" true
            (try
               Fp.Vec.convolve fctx sc v 0 (bound + 1) v 0 (bound + 1)
                 (Fp.Vec.create fctx ((2 * bound) + 1)) 0;
               false
             with Invalid_argument _ -> true)))
    leaf_fields

let arb_poly_nonzero c =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" (Poly.pp c) p)
    QCheck.Gen.(gen_poly c >|= fun p -> if Poly.is_zero p then Poly.one else p)

let unit_tests =
  [
    Alcotest.test_case "eval Horner" `Quick (fun () ->
        (* p(x) = 3 + 2x + x^2 at x = 5 -> 38 *)
        let p = Poly.of_coeffs [| Fp.of_int ctx 3; Fp.of_int ctx 2; Fp.one |] in
        Alcotest.(check bool) "38" true (Fp.equal (Poly.eval ctx p (Fp.of_int ctx 5)) (Fp.of_int ctx 38)));
    Alcotest.test_case "mul matches schoolbook on large inputs" `Quick (fun () ->
        let p = prg () in
        let a = Poly.random ctx p 150 and b = Poly.random ctx p 97 in
        Alcotest.check (poly_t ctx) "karatsuba" (Poly.mul_schoolbook ctx a b) (Poly.mul ctx a b));
    Alcotest.test_case "Poly.mul counts fp.mul_lazy as the boxed Karatsuba did" `Quick (fun () ->
        (* Dense operands: 3^s leaves of 16 x 16 products, s = log2(n/16). *)
        List.iter
          (fun (n, lazy_products) ->
            let p = Chacha.Prg.create ~seed:(Printf.sprintf "mul counts %d" n) () in
            let a = Poly.random ctx p (n - 1) and b = Poly.random ctx p (n - 1) in
            let r, c = Test_hotpath.counted "fp.mul_lazy" (fun () -> Poly.mul ctx a b) in
            Alcotest.(check int) (Printf.sprintf "degree at %d" n) (2 * (n - 1)) (Poly.degree r);
            Alcotest.(check int) (Printf.sprintf "fp.mul_lazy at %d" n) lazy_products c)
          [ (32, 768); (512, 62_208); (1024, 186_624) ]);
    Alcotest.test_case "derivative product rule" `Quick (fun () ->
        let p = prg () in
        let a = Poly.random ctx p 20 and b = Poly.random ctx p 15 in
        let lhs = Poly.derivative ctx (Poly.mul ctx a b) in
        let rhs =
          Poly.add ctx
            (Poly.mul ctx (Poly.derivative ctx a) b)
            (Poly.mul ctx a (Poly.derivative ctx b))
        in
        Alcotest.check (poly_t ctx) "product rule" lhs rhs);
    Alcotest.test_case "div_rem_fast matches schoolbook" `Quick (fun () ->
        let p = prg () in
        for _ = 1 to 10 do
          let a = Poly.random ctx p 120 and b = Poly.random ctx p 37 in
          if not (Poly.is_zero b) then begin
            let q1, r1 = Poly.div_rem ctx a b in
            let q2, r2 = Poly.div_rem_fast ctx a b in
            Alcotest.check (poly_t ctx) "q" q1 q2;
            Alcotest.check (poly_t ctx) "r" r1 r2
          end
        done);
    Alcotest.test_case "inv_mod_xk" `Quick (fun () ->
        let p = prg () in
        let f = Poly.add ctx Poly.one (Poly.mul ctx (Poly.monomial Fp.one 1) (Poly.random ctx p 30)) in
        let g = Poly.inv_mod_xk ctx f 50 in
        let fg = Poly.mul ctx f g in
        (* f*g = 1 mod x^50 *)
        Alcotest.(check bool) "const" true (Fp.equal (Poly.coeff fg 0) Fp.one);
        for i = 1 to 49 do
          Alcotest.(check bool) "zero" true (Fp.is_zero (Poly.coeff fg i))
        done);
    Alcotest.test_case "subproduct multipoint evaluation" `Quick (fun () ->
        let p = prg () in
        let f = Poly.random ctx p 40 in
        let points = Array.init 25 (fun i -> Fp.of_int ctx (i + 1)) in
        let tree = Subproduct.build ctx points in
        let vals = Subproduct.eval_all ctx f tree in
        Array.iteri
          (fun i v -> Alcotest.(check bool) "agree" true (Fp.equal v (Poly.eval ctx f points.(i))))
          vals);
    Alcotest.test_case "interpolation roundtrip" `Quick (fun () ->
        let p = prg () in
        let n = 33 in
        let f = Poly.random ctx127 p (n - 1) in
        let points = Array.init n (fun i -> Fp.of_int ctx127 i) in
        let values = Array.map (Poly.eval ctx127 f) points in
        let g = Subproduct.interpolate_points ctx127 points values in
        Alcotest.check (poly_t ctx127) "roundtrip" f g);
    Alcotest.test_case "interpolation through arbitrary values" `Quick (fun () ->
        let p = prg () in
        let n = 20 in
        let points = Array.init n (fun i -> Fp.of_int ctx (2 * i + 1)) in
        let values = Array.init n (fun _ -> Chacha.Prg.field ctx p) in
        let g = Subproduct.interpolate_points ctx points values in
        Alcotest.(check bool) "deg bound" true (Poly.degree g < n);
        Array.iteri
          (fun i pt -> Alcotest.(check bool) "hits" true (Fp.equal (Poly.eval ctx g pt) values.(i)))
          points);
    Alcotest.test_case "NTT forward/inverse roundtrip" `Quick (fun () ->
        let f = Fp.create Primes.bls12_381_fr in
        let t = Ntt.create f in
        let p = prg () in
        let a = Array.init 64 (fun _ -> Chacha.Prg.field f p) in
        let b = Ntt.inverse t (Ntt.forward t a) in
        Array.iteri (fun i x -> Alcotest.(check bool) "same" true (Fp.equal x b.(i))) a);
    Alcotest.test_case "NTT multiplication matches Karatsuba" `Quick (fun () ->
        let f = Fp.create Primes.bls12_381_fr in
        let t = Ntt.create f in
        let p = prg () in
        let a = Poly.random f p 50 and b = Poly.random f p 77 in
        Alcotest.check (poly_t f) "ntt mul" (Poly.mul f a b) (Ntt.mul t a b));
  ]

let property_tests =
  [
    qtest "mul commutative" 100
      (QCheck.pair (arb_poly ctx) (arb_poly ctx))
      (fun (a, b) -> Poly.equal (Poly.mul ctx a b) (Poly.mul ctx b a));
    qtest "mul distributes" 100
      (QCheck.triple (arb_poly ctx) (arb_poly ctx) (arb_poly ctx))
      (fun (a, b, c) ->
        Poly.equal (Poly.mul ctx a (Poly.add ctx b c))
          (Poly.add ctx (Poly.mul ctx a b) (Poly.mul ctx a c)));
    qtest "eval is a ring hom" 100
      (QCheck.pair (arb_poly ctx) (arb_poly ctx))
      (fun (a, b) ->
        let x = Fp.of_int ctx 12345 in
        Fp.equal (Poly.eval ctx (Poly.mul ctx a b) x) (Fp.mul ctx (Poly.eval ctx a x) (Poly.eval ctx b x)));
    qtest "div_rem invariant" 100
      (QCheck.pair (arb_poly ctx) (arb_poly_nonzero ctx))
      (fun (a, b) ->
        let q, r = Poly.div_rem_fast ctx a b in
        Poly.degree r < Poly.degree b && Poly.equal a (Poly.add ctx (Poly.mul ctx b q) r));
    qtest "mul = mul_schoolbook over p61, lengths 0-200" 200 arb_mul_case (mul_matches_schoolbook ctx);
    qtest "mul = mul_schoolbook over p127, lengths 0-200" 200 arb_mul_case
      (mul_matches_schoolbook ctx127);
    qtest "degree of product" 100
      (QCheck.pair (arb_poly_nonzero ctx) (arb_poly_nonzero ctx))
      (fun (a, b) -> Poly.degree (Poly.mul ctx a b) = Poly.degree a + Poly.degree b);
  ]

(* Division by one Newton iteration: D of degree c (1-300, biased to
   straddle the 32-coefficient threshold), a quotient H of h + 1 <= c + 1
   coefficients (h = -1: H = 0, so P = 0 or deg P < deg D), and a
   perturbation S of degree below c (s = 0: none). The reference is
   schoolbook long division. *)
type div_case = { c : int; h : int; s : int; seed : int }

let gen_div_case =
  QCheck.Gen.(
    let c = frequency [ (3, int_range 1 300); (2, int_range 28 36); (1, int_range 60 68) ] in
    c >>= fun c ->
    let h = frequency [ (1, return (-1)); (1, return c); (1, int_range 0 (min c 4)); (4, int_range 0 c) ] in
    let s = frequency [ (1, return 0); (1, int_range 1 c) ] in
    map3 (fun h s seed -> { c; h; s; seed }) h s int)

let arb_div_case =
  QCheck.make
    ~print:(fun d -> Printf.sprintf "deg D %d, deg H %d, deg S %d, seed %d" d.c d.h (d.s - 1) d.seed)
    gen_div_case

let div_operands ctx d =
  let prg = Chacha.Prg.create ~seed:(Printf.sprintf "division %d" d.seed) () in
  let dpoly =
    Poly.add ctx (Poly.random ctx prg (d.c - 1)) (Poly.monomial (Chacha.Prg.field_nonzero ctx prg) d.c)
  in
  let h = if d.h < 0 then Poly.zero else Poly.random ctx prg d.h in
  let s = if d.s = 0 then Poly.zero else Poly.random ctx prg (d.s - 1) in
  (dpoly, h, s)

let division_tests =
  [
    qtest "div_rem_fast of D*H + S = schoolbook div_rem, degrees 1-300" 80 arb_div_case (fun d ->
        let dpoly, h, s = div_operands ctx127 d in
        let p = Poly.add ctx127 (Poly.mul_schoolbook ctx127 dpoly h) s in
        let q, r = Poly.div_rem_fast ctx127 p dpoly in
        let q', r' = Poly.div_rem ctx127 p dpoly in
        Poly.equal q q' && Poly.equal r r' && Poly.equal q h && Poly.equal r s);
  ]

(* The middle product against a fixed kernel, against the Toeplitz sum
   r_j = sum_i x_i y_(j+n-1-i) it stands for: n at and around the leaf
   size and its doublings, n = 257 (padded to 272 = 17 * 16) and the pam
   size 928 (29 * 32); the window y with zeros at its centre (as the
   QAP's 1/0 := 0) and in runs, x dense, or with zero runs at both ends
   (so the operand trims below n and its low half sums start at zero).
   Below the threshold the root is one leaf, and the count must be the
   pairs of nonzero x_i and y_(j+n-1-i) the sum takes. *)
let middle_naive fctx (x : Fp.el array) (y : Fp.el array) n =
  Array.init n (fun j ->
      let acc = ref Fp.zero and pairs = ref 0 in
      Array.iteri
        (fun i xi ->
          let yl = y.(j + n - 1 - i) in
          if not (Fp.is_zero xi || Fp.is_zero yl) then incr pairs;
          acc := Fp.add fctx !acc (Fp.mul fctx xi yl))
        x;
      (!acc, !pairs))

let middle_tests =
  List.map
    (fun (label, fctx, sizes) ->
      Alcotest.test_case (Printf.sprintf "middle_slices = the Toeplitz sum over %s" label) `Quick (fun () ->
          let prg = Chacha.Prg.create ~seed:("middle " ^ label) () in
          let sc = Fp.scratch_for fctx in
          List.iter
            (fun n ->
              let y = Array.init ((2 * n) - 1) (fun _ -> Chacha.Prg.field fctx prg) in
              y.(n - 1) <- Fp.zero;
              Array.iteri (fun i _ -> if i mod 7 = 3 then y.(i) <- Fp.zero) y;
              let kn = Poly.kernel fctx y in
              List.iter
                (fun (lo0, hi0) ->
                  let x =
                    Array.init n (fun i ->
                        if i < lo0 || i >= n - hi0 then Fp.zero else Chacha.Prg.field fctx prg)
                  in
                  let xv = Fp.Vec.of_array fctx x in
                  let d = Fp.Vec.create fctx n and ws = Fp.Vec.create fctx (Poly.middle_workspace kn) in
                  let (), count =
                    Test_hotpath.counted "fp.mul_lazy" (fun () ->
                        Poly.middle_slices fctx sc kn xv 0 (Poly.top xv 0 n) d 0 ws 0)
                  in
                  let naive = middle_naive fctx x y n in
                  let case = Printf.sprintf "n = %d, %d zeros low, %d high" n lo0 hi0 in
                  Alcotest.(check bool) case true
                    (Array.for_all2 Fp.equal (Array.map fst naive) (Fp.Vec.to_array d));
                  if n < 32 then
                    Alcotest.(check int) (case ^ ": fp.mul_lazy")
                      (Array.fold_left (fun s (_, c) -> s + c) 0 naive)
                      count)
                [ (0, 0); (min 3 (n - 1), n / 3); (n / 2, 0); (0, n - 1); (0, n) ])
            sizes))
    [
      ("p61", ctx, [ 1; 2; 31; 32; 33; 64; 65; 257 ]);
      ("p127", ctx127, [ 1; 2; 31; 32; 33; 64; 65; 257; 928 ]);
      ("bls12_381_fr", Fp.create Primes.bls12_381_fr, [ 2; 31; 65 ]);
    ]

let suite =
  unit_tests @ leaf_edge_tests @ convolve_bound_tests @ property_tests @ division_tests @ middle_tests
