open Fieldlib
open Argsys

(* The zero-allocation hot path: aliasing laws of every destructive
   [*_into] kernel, NTT-vs-reference and NTT-vs-Lagrange differentials,
   domain-count independence of the arena-backed parallel paths, and
   bit-for-bit transcript stability of the Lagrange pipeline. *)

let ctx = Fp.create Primes.p127_ntt

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let prg_of seed tag = Chacha.Prg.create ~seed:(Printf.sprintf "hotpath %s %d" tag seed) ()

(* ------------------------------------------------------------------ *)
(* Nat scalar kernels                                                  *)
(* ------------------------------------------------------------------ *)

let width = 5 (* limbs of a 127-bit element *)

let random_limbs prg w = Array.init w (fun _ -> Chacha.Prg.int_below prg (1 lsl 31))

(* Run [op dst a b] under every aliasing pattern and demand the same
   limbs and the same returned carry/borrow as the fresh-destination
   call. *)
let aliasing_law op seed tag =
  let prg = prg_of seed tag in
  let a = random_limbs prg width and b = random_limbs prg width in
  let fresh = Array.make width 0 in
  let flag = op fresh a b in
  let check dst a' b' =
    let f = op dst a' b' in
    f = flag && Array.sub dst 0 width = fresh
  in
  (let a' = Array.copy a in check a' a' b)
  && (let b' = Array.copy b in check b' a b')
  && (* dst == a == b: op must behave as x op x *)
  let twice = Array.make width 0 in
  let tf = op twice a a in
  let s = Array.copy a in
  let sf = op s s s in
  sf = tf && Array.sub s 0 width = twice

let nat_tests =
  [
    qtest "Nat.add_into: aliasing dst==a, dst==b, dst==a==b" 200 QCheck.small_int (fun seed ->
        aliasing_law (Nat.add_into ~width) seed "add");
    qtest "Nat.sub_into: aliasing dst==a, dst==b, dst==a==b" 200 QCheck.small_int (fun seed ->
        aliasing_law (Nat.sub_into ~width) seed "sub");
    qtest "Nat.add_into/sub_into agree with Nat.add/Nat.sub" 200 QCheck.small_int (fun seed ->
        let prg = prg_of seed "addsub-ref" in
        let a = random_limbs prg width and b = random_limbs prg width in
        let dst = Array.make width 0 in
        let c = Nat.add_into ~width dst a b in
        let sum = Nat.add (Nat.of_limbs a) (Nat.of_limbs b) in
        let expect = Nat.to_limbs ~width:(width + 1) sum in
        Array.sub expect 0 width = dst && expect.(width) = c);
    qtest "Nat.mul_into matches Nat.mul, even with dst==scratch and dirty scratch" 200
      QCheck.small_int (fun seed ->
        let prg = prg_of seed "mul" in
        let a = random_limbs prg width and b = random_limbs prg width in
        let expect = Nat.to_limbs ~width:(2 * width) (Nat.mul (Nat.of_limbs a) (Nat.of_limbs b)) in
        (* garbage-filled scratch must not leak into the product *)
        let scratch = Array.init (2 * width) (fun _ -> Chacha.Prg.int_below prg (1 lsl 31)) in
        let dst = Array.init (2 * width) (fun _ -> Chacha.Prg.int_below prg (1 lsl 31)) in
        Nat.mul_into ~width ~scratch dst a b;
        let separate_ok = dst = expect in
        (* dst aliasing the scratch buffer itself is documented as legal *)
        let scratch2 = Array.init (2 * width) (fun _ -> Chacha.Prg.int_below prg (1 lsl 31)) in
        Nat.mul_into ~width ~scratch:scratch2 scratch2 a b;
        separate_ok && scratch2 = expect);
  ]

(* ------------------------------------------------------------------ *)
(* Fp.Vec packed kernels                                               *)
(* ------------------------------------------------------------------ *)

let random_el prg = Chacha.Prg.field ctx prg

let vec_tests =
  [
    qtest "Fp.Vec.mul/add/sub: every slot-aliasing pattern matches boxed Fp" 150 QCheck.small_int
      (fun seed ->
        let prg = prg_of seed "vec" in
        let sc = Fp.scratch_for ctx in
        let xs = Array.init 3 (fun _ -> random_el prg) in
        let boxed = [| Fp.mul ctx; Fp.add ctx; Fp.sub ctx |] in
        let packed = [| Fp.Vec.mul ctx sc; Fp.Vec.add ctx sc; Fp.Vec.sub ctx sc |] in
        let ok = ref true in
        Array.iteri
          (fun opi op ->
            let reference = boxed.(opi) in
            (* (dst, src1, src2) slot triples covering disjoint, dst==src1,
               dst==src2, src1==src2 and all-equal *)
            List.iter
              (fun (d, i, j) ->
                let v = Fp.Vec.of_array ctx xs in
                op v d v i v j;
                if not (Fp.equal (Fp.Vec.get v d) (reference xs.(i) xs.(j))) then ok := false)
              [ (0, 1, 2); (0, 0, 1); (0, 1, 0); (0, 1, 1); (0, 0, 0) ])
          packed;
        !ok);
    qtest "Fp.Vec.butterfly matches boxed butterfly, twiddle aliasing included" 150
      QCheck.small_int (fun seed ->
        let prg = prg_of seed "bfly" in
        let sc = Fp.scratch_for ctx in
        let xs = Array.init 3 (fun _ -> random_el prg) in
        let expect_hi w x y = Fp.add ctx x (Fp.mul ctx w y) in
        let expect_lo w x y = Fp.sub ctx x (Fp.mul ctx w y) in
        (* twiddle in a separate vector, in Montgomery form *)
        let v = Fp.Vec.of_array ctx [| xs.(0); xs.(1) |] in
        let tw = Fp.Vec.create ctx 1 in
        Fp.Vec.set_mont ctx tw 0 xs.(2);
        Fp.Vec.butterfly ctx sc v 0 1 tw 0;
        let sep_ok =
          Fp.equal (Fp.Vec.get v 0) (expect_hi xs.(2) xs.(0) xs.(1))
          && Fp.equal (Fp.Vec.get v 1) (expect_lo xs.(2) xs.(0) xs.(1))
        in
        (* twiddle slot living inside the data vector itself *)
        let v2 = Fp.Vec.of_array ctx xs in
        Fp.Vec.set_mont ctx v2 2 xs.(2);
        let tw_limbs = Fp.Vec.get v2 2 in
        Fp.Vec.butterfly ctx sc v2 0 1 v2 2;
        sep_ok
        && Fp.equal (Fp.Vec.get v2 0) (expect_hi xs.(2) xs.(0) xs.(1))
        && Fp.equal (Fp.Vec.get v2 1) (expect_lo xs.(2) xs.(0) xs.(1))
        && Fp.equal (Fp.Vec.get v2 2) tw_limbs);
  ]

(* ------------------------------------------------------------------ *)
(* Packed query kernels: the split-column lazy dot and t = r + sum a*q *)
(* ------------------------------------------------------------------ *)

(* Counter deltas need Zobs on; the kernels count through it. *)
let counted name f =
  Zobs.enable ();
  Fun.protect ~finally:Zobs.disable (fun () ->
      let c0 = Zobs.Registry.counter_value name in
      let r = f () in
      (r, Zobs.Registry.counter_value name - c0))

(* k = 2, 5 and 8 limbs. *)
let dot_fields = [ ("p61", Fp.create Primes.p61); ("p127_ntt", ctx); ("p220", Fp.create (Primes.p220 ())) ]

(* A row pattern: a proof-vector-like mix of zeros (skipped and not
   counted), ones and one-limb values (fewer significant limbs) and full
   residues, or every element p-1 (the largest column carries the kernel
   can see). *)
let dot_operand fctx prg ~maxed len =
  let pm1 = Fp.sub fctx Fp.zero Fp.one in
  Array.init len (fun _ ->
      if maxed then pm1
      else
        match Chacha.Prg.int_below prg 6 with
        | 0 -> Fp.zero
        | 1 -> Fp.one
        | 2 -> Fp.of_int fctx (Chacha.Prg.int_below prg (1 lsl 31))
        | _ -> Chacha.Prg.field fctx prg)

let dot_tests =
  [
    qtest "Fp.Vec.dot = Fp.dot with equal fp.mul_lazy, k = 2/5/8, lengths 0/1/257/4097" 6
      QCheck.small_int (fun seed ->
        let prg = prg_of seed "dot" in
        List.for_all
          (fun (_, fctx) ->
            let sc = Fp.scratch_for fctx in
            List.for_all
              (fun (len, maxed_a, maxed_b) ->
                let a = dot_operand fctx prg ~maxed:maxed_a len in
                let b = dot_operand fctx prg ~maxed:maxed_b len in
                let va = Fp.Vec.of_array fctx a and vb = Fp.Vec.of_array fctx b in
                let boxed, n_boxed = counted "fp.mul_lazy" (fun () -> Fp.dot fctx a b) in
                let packed, n_packed = counted "fp.mul_lazy" (fun () -> Fp.Vec.dot fctx sc va 0 vb 0 len) in
                Fp.equal boxed packed && n_boxed = n_packed)
              [
                (0, false, false); (1, false, false); (1, true, true); (257, false, false);
                (257, true, false); (4097, false, false); (4097, true, true);
              ])
          dot_fields);
    Alcotest.test_case "Fp.Vec.dot at an offset: a row of a query matrix" `Quick (fun () ->
        let prg = prg_of 3 "dot rows" in
        let sc = Fp.scratch_for ctx in
        let width = 37 in
        let arrays = Array.init 5 (fun _ -> Array.init width (fun _ -> random_el prg)) in
        let u = Array.init width (fun _ -> random_el prg) in
        let q = Fp.Rows.of_arrays ctx ~width arrays and pu = Fp.Vec.of_array ctx u in
        Array.iteri
          (fun r row ->
            Alcotest.(check string) (Printf.sprintf "row %d" r) (Fp.to_string (Fp.dot ctx row u))
              (Fp.to_string (Fp.Rows.dot ctx sc q r pu)))
          arrays);
    Alcotest.test_case "Fp.Vec.dot: column-overflow bound is max_int / (k * 2^32)" `Quick (fun () ->
        List.iter
          (fun (label, fctx) ->
            let k = Nat.num_limbs (Fp.modulus fctx) in
            let bound = Fp.Vec.dot_bound fctx in
            Alcotest.(check int) (label ^ " bound") (max_int / (k lsl 32)) bound;
            (* (2k - 1) half-products per column per term, each below 2^31,
               plus the carries: the bound keeps every column in range. *)
            Alcotest.(check bool) (label ^ " bound is safe") true (bound <= max_int / (2 * k * (1 lsl 31)));
            let v = Fp.Vec.create fctx 1 in
            match Fp.Vec.dot fctx (Fp.scratch_for fctx) v 0 v 0 (bound + 1) with
            | _ -> Alcotest.failf "%s: %d terms accepted" label (bound + 1)
            | exception Invalid_argument m ->
              let has s sub =
                let n = String.length s and k = String.length sub in
                let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
                go 0
              in
              Alcotest.(check bool) (label ^ " names the bound") true (has m "column-overflow bound"))
          dot_fields);
    Alcotest.test_case "packed decommit_challenge = r + sum alpha_i q_i, same fp.mul count" `Quick
      (fun () ->
        let grp = Zcrypto.Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:192 () in
        let width = 23 and rows = 6 in
        let _, vs = Commitment.Commit.commit_request ctx grp (prg_of 1 "decommit") ~len:width in
        (* some zero terms: the boxed formula still multiplies them *)
        let q =
          let prg = prg_of 2 "q" in
          Array.init rows (fun i ->
              Array.init width (fun j -> if (i + j) mod 7 = 0 then Fp.zero else random_el prg))
        in
        let ch, n_packed =
          counted "fp.mul" (fun () ->
              Commitment.Commit.decommit_challenge ctx vs (prg_of 3 "alpha") (Fp.Rows.of_arrays ctx ~width q))
        in
        let boxed, n_boxed =
          counted "fp.mul" (fun () ->
              let prg = prg_of 3 "alpha" in
              let alpha = Array.init rows (fun _ -> Chacha.Prg.field ctx prg) in
              let t = Array.copy vs.Commitment.Commit.r in
              Array.iteri
                (fun i qi -> Array.iteri (fun j x -> t.(j) <- Fp.add ctx t.(j) (Fp.mul ctx alpha.(i) x)) qi)
                q;
              (alpha, t))
        in
        let alpha, t = boxed in
        Alcotest.(check (array string)) "alpha" (Array.map Fp.to_string alpha)
          (Array.map Fp.to_string ch.Commitment.Commit.alpha);
        Alcotest.(check (array string)) "t" (Array.map Fp.to_string t)
          (Array.map Fp.to_string (Fp.Vec.to_array ch.Commitment.Commit.t));
        Alcotest.(check int) "fp.mul delta" n_boxed n_packed;
        Alcotest.(check int) "one mul per query term" (rows * width) n_packed);
  ]

(* ------------------------------------------------------------------ *)
(* Montgomery packed REDC                                              *)
(* ------------------------------------------------------------------ *)

(* CIOS against a Nat oracle at k in {2, 5, 9, 17, 34} limbs: z =
   x*y*R^-1 mod p is the unique z < p with z*R = x*y (mod p), checked with
   Nat.mul and Nat.divmod only, for operands 0, 1, p-1 and random, with
   dst disjoint from, equal to a, to b, or to both. Moduli alternate
   between all-ones limbs (p = 2^(31k) - 1), a near-full top limb, and a
   random one; a full top limb is where the accumulator's carry limb
   decides the final subtraction. *)
let redc_oracle_law seed =
  let prg = prg_of seed "redc" in
  let limb () = Chacha.Prg.int_below prg (1 lsl 31) in
  let full = (1 lsl 31) - 1 in
  List.for_all
    (fun k ->
      let top, rest =
        match seed mod 3 with
        | 0 -> (full, fun () -> full)
        | 1 -> (full - Chacha.Prg.int_below prg 1024, limb)
        | _ -> (1 + Chacha.Prg.int_below prg full, limb)
      in
      let limbs = Array.init k (fun i -> if i = k - 1 then top else rest ()) in
      limbs.(0) <- limbs.(0) lor 1;
      let p = Nat.of_limbs limbs in
      let m = Montgomery.create p in
      let sc = Montgomery.scratch_for m in
      let md x = snd (Nat.divmod x p) in
      let r = Nat.shift_left Nat.one (31 * k) in
      let ok z x y = Nat.compare z p < 0 && Nat.equal (md (Nat.mul z r)) (md (Nat.mul x y)) in
      let below () = md (Nat.of_limbs (Array.init k (fun _ -> limb ()))) in
      let operands = [ Nat.zero; Nat.one; Nat.sub p Nat.one; below (); below () ] in
      let buf = Limb.create (3 * k) in
      let run dst a b x y =
        Limb.of_nat x buf a k;
        if b <> a then Limb.of_nat y buf b k;
        Montgomery.mul_into m sc buf dst buf a buf b;
        ok (Limb.to_nat buf dst k) x y
      in
      List.for_all
        (fun x ->
          (* dst == a == b *)
          run 0 0 0 x x
          && List.for_all
               (fun y ->
                 (* disjoint, dst == a, dst == b *)
                 run (2 * k) 0 k x y && run 0 0 k x y && run k 0 k x y)
               operands)
        operands)
    [ 2; 5; 9; 17; 34 ]

let mont_tests =
  [
    qtest "Montgomery.mul_into = x*y*R^-1, dst aliasing either input" 60 QCheck.small_int
      redc_oracle_law;
  ]

(* ------------------------------------------------------------------ *)
(* One reduction kernel: the packed REDC kernels against boxed Fp      *)
(* ------------------------------------------------------------------ *)

(* k = 2, 5, 5, 8 and 9 limbs. *)
let kernel_fields =
  [
    ("p61", Fp.create Primes.p61);
    ("p127", Fp.create Primes.p127);
    ("p127_ntt", ctx);
    ("p220", Fp.create (Primes.p220 ()));
    ("bls12_381_fr", Fp.create Primes.bls12_381_fr);
  ]

(* The edge operands 0, 1 and p-1, then random residues. *)
let kernel_operands fctx prg =
  Array.append [| Fp.zero; Fp.one; Fp.neg fctx Fp.one |] (Array.init 3 (fun _ -> Chacha.Prg.field fctx prg))

let mont_const fctx x =
  let v = Fp.Vec.create fctx 1 in
  Fp.Vec.set_mont fctx v 0 x;
  v

(* [f ()] with the fp.mul and mont.mul it counted. *)
let op_counts f =
  let (r, mont), fp = counted "fp.mul" (fun () -> counted "mont.mul" f) in
  (r, fp, mont)

let vec_eq v (expect : Fp.el array) = Array.for_all2 Fp.equal (Fp.Vec.to_array v) expect

let redc_kernel_law seed =
  List.for_all
    (fun (_, fctx) ->
      let prg = prg_of seed "redc kernels" in
      let sc = Fp.scratch_for fctx in
      let ops = kernel_operands fctx prg in
      let n = Array.length ops in
      let rev = Array.init n (fun i -> ops.(n - 1 - i)) in
      let ok, fp, mont =
        op_counts (fun () ->
            let ok = ref true in
            let want b = if not b then ok := false in
            Array.iter
              (fun x ->
                Array.iter
                  (fun y ->
                    (* mul under every slot-aliasing pattern *)
                    List.iter
                      (fun (d, i, j) ->
                        let xs = [| x; y; y |] in
                        let v = Fp.Vec.of_array fctx xs in
                        Fp.Vec.mul fctx sc v d v i v j;
                        want (Fp.equal (Fp.Vec.get v d) (Fp.mul fctx xs.(i) xs.(j))))
                      [ (0, 1, 2); (0, 0, 1); (0, 1, 0); (0, 1, 1); (0, 0, 0) ];
                    (* butterfly with a Montgomery twiddle *)
                    Array.iter
                      (fun w ->
                        let v = Fp.Vec.of_array fctx [| x; y |] in
                        Fp.Vec.butterfly fctx sc v 0 1 (mont_const fctx w) 0;
                        let t = Fp.mul fctx w y in
                        want (vec_eq v [| Fp.add fctx x t; Fp.sub fctx x t |]))
                      ops)
                  ops;
                (* scale_all and axpy by the constant x *)
                let v = Fp.Vec.of_array fctx ops in
                Fp.Vec.scale_all fctx sc v (mont_const fctx x) 0;
                want (vec_eq v (Array.map (Fp.mul fctx x) ops));
                let y = Fp.Vec.of_array fctx ops in
                Fp.Vec.axpy fctx sc y 0 (mont_const fctx x) 0 (Fp.Vec.of_array fctx rev) 0 n;
                want (vec_eq y (Array.map2 (fun a b -> Fp.add fctx a (Fp.mul fctx x b)) ops rev)))
              ops;
            want
              (Fp.equal (Fp.dot fctx ops rev)
                 (Fp.Vec.dot fctx sc (Fp.Vec.of_array fctx ops) 0 (Fp.Vec.of_array fctx rev) 0 n));
            !ok)
      in
      (* per x: n*(5 + n) products (aliasing patterns and butterflies),
         n scaled slots and n axpy terms, each once boxed, once packed *)
      ok && fp = 2 * n * ((n * (5 + n)) + (2 * n)) && mont = 0)
    kernel_fields

(* A compressed-row matrix in [Fp.Vec.spmv]'s format, built from
   Lincomb rows: tag 1 for +1, 2 for -1, else the next coefficient. *)
let csr_of_rows fctx (rows : Constr.Lincomb.t array) =
  let idx = ref [] and coefs = ref [] and ptr = Array.make (Array.length rows + 1) 0 in
  Array.iteri
    (fun r lc ->
      Constr.Lincomb.iter
        (fun v c ->
          let tag =
            if Fp.equal c Fp.one then 1
            else if Fp.equal c (Fp.neg fctx Fp.one) then 2
            else (coefs := c :: !coefs; 0)
          in
          idx := ((v lsl 2) lor tag) :: !idx)
        lc;
      ptr.(r + 1) <- List.length !idx)
    rows;
  let coefs = Array.of_list (List.rev !coefs) in
  let coef = Fp.Vec.create fctx (Array.length coefs) in
  Array.iteri (Fp.Vec.set_mont fctx coef) coefs;
  (ptr, Array.of_list (List.rev !idx), coef)

(* Rows mixing +-1, constant-term, zero and general coefficients over an
   assignment holding 0, 1 and p-1. *)
let spmv_law seed =
  let open Constr in
  List.for_all
    (fun (_, fctx) ->
      let prg = prg_of seed "spmv" in
      let ops = kernel_operands fctx prg in
      let nv = 9 in
      let w = Array.init (nv + 1) (fun i -> if i = 0 then Fp.one else ops.(i mod Array.length ops)) in
      let coef () =
        match Chacha.Prg.int_below prg 4 with
        | 0 -> Fp.one
        | 1 -> Fp.neg fctx Fp.one
        | _ -> ops.(Chacha.Prg.int_below prg (Array.length ops))
      in
      let random_row () =
        let t = ref Lincomb.zero in
        for _ = 0 to Chacha.Prg.int_below prg 6 do
          t := Lincomb.add_term fctx !t (Chacha.Prg.int_below prg (nv + 1)) (coef ())
        done;
        !t
      in
      let rows =
        Array.append
          [| Lincomb.zero; Lincomb.of_const (coef ()); Lincomb.of_var 3;
             Lincomb.neg fctx (Lincomb.of_var 4) |]
          (Array.init 12 (fun _ -> random_row ()))
      in
      let ptr, idx, coef = csr_of_rows fctx rows in
      let out = Fp.Vec.create fctx (Array.length rows) in
      let expect, n_boxed = counted "fp.mul" (fun () -> Array.map (fun lc -> Lincomb.eval fctx lc w) rows) in
      let (), n_packed, mont =
        op_counts (fun () ->
            Fp.Vec.spmv fctx (Fp.scratch_for fctx) ~ptr ~idx coef (Fp.Vec.of_array fctx w) out)
      in
      vec_eq out expect && n_packed = n_boxed && mont = 0)
    kernel_fields

let kernel_tests =
  [
    qtest "REDC kernels = boxed Fp on 0/1/p-1, k = 2/5/5/8/9, fp.mul kept, mont.mul 0" 8
      QCheck.small_int redc_kernel_law;
    qtest "Fp.Vec.spmv = Lincomb.eval: +-1, constant and zero rows, k = 2/5/5/8/9" 40
      QCheck.small_int spmv_law;
    Alcotest.test_case "Fp.Vec.spmv rejects columns outside its vector" `Quick (fun () ->
        let v = Fp.Vec.create ctx 2 in
        match Fp.Vec.spmv ctx (Fp.scratch_for ctx) ~ptr:[| 0; 1 |] ~idx:[| (2 lsl 2) lor 1 |] v v (Fp.Vec.create ctx 1) with
        | () -> Alcotest.fail "column 2 of a 2-slot vector accepted"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* NTT differentials and parallel-path independence                    *)
(* ------------------------------------------------------------------ *)

let random_satisfiable seed =
  let open Constr in
  let prg = prg_of seed "r1cs" in
  let n = 4 + Chacha.Prg.int_below prg 12 in
  let num_z = 1 + Chacha.Prg.int_below prg (n - 1) in
  let nc = 2 + Chacha.Prg.int_below prg 20 in
  let w = Array.init (n + 1) (fun i -> if i = 0 then Fp.one else Chacha.Prg.field ctx prg) in
  let random_row () =
    let t = ref Lincomb.zero in
    for _ = 0 to Chacha.Prg.int_below prg 4 do
      t := Lincomb.add_term ctx !t (Chacha.Prg.int_below prg (n + 1)) (Chacha.Prg.field ctx prg)
    done;
    !t
  in
  let constraints =
    Array.init nc (fun _ ->
        let a = random_row () and b = random_row () and c0 = random_row () in
        let target = Fp.mul ctx (Lincomb.eval ctx a w) (Lincomb.eval ctx b w) in
        let fix = Fp.sub ctx target (Lincomb.eval ctx c0 w) in
        { R1cs.a; b; c = Lincomb.add_term ctx c0 0 fix })
  in
  ({ R1cs.field = ctx; num_vars = n; num_z; constraints }, w)

let h_equal h h' = Array.length h = Array.length h' && Array.for_all2 Fp.equal h h'

let ntt_tests =
  [
    qtest "packed NTT prover_h = boxed subproduct-tree reference" 60 QCheck.small_int
      (fun seed ->
        let sys, w = random_satisfiable seed in
        let q = Qap_ntt.of_r1cs sys in
        h_equal (Qap_ntt.prover_h q w) (Qap_ntt.prover_h_reference q w));
    qtest "prover_h is domain-count independent (DLS scratch isolation)" 20 QCheck.small_int
      (fun seed ->
        let sys, w = random_satisfiable seed in
        let q = Qap_ntt.of_r1cs sys in
        let witnesses = Array.make 4 w in
        let serial = Array.map (Qap_ntt.prover_h q) witnesses in
        List.for_all
          (fun domains ->
            let par = Dompool.Pool.map ~domains (Qap_ntt.prover_h q) witnesses in
            Array.for_all2 h_equal serial par)
          [ 1; 2; 4 ]);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: backend agreement on the benchmark suite                *)
(* ------------------------------------------------------------------ *)

let config backend =
  {
    Argument.params = { Pcp.Pcp_zaatar.rho = 1; rho_lin = 2 };
    p_bits = 192;
    strategy = Argument.Honest;
    domains = 1;
    qap_backend = backend;
  }

let e2e_tests =
  [
    Alcotest.test_case "all five benchmark apps accept under both backends" `Slow (fun () ->
        List.iter
          (fun (app : Apps.App_def.t) ->
            let compiled = Apps.Glue.compile ctx app in
            let comp = Apps.Glue.computation_of compiled in
            let iprg = prg_of 0 ("inputs " ^ app.Apps.App_def.name) in
            let inputs = [| Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs iprg) |] in
            let verdicts backend =
              let prg = prg_of 1 ("run " ^ app.Apps.App_def.name) in
              let r = Argument.run_batch ~config:(config backend) comp ~prg ~inputs in
              Array.map (fun (i : Argument.instance_result) -> i.Argument.accepted) r.Argument.instances
            in
            let vn = verdicts Qapb.Ntt and vl = verdicts Qapb.Lagrange in
            Alcotest.(check (array bool))
              (app.Apps.App_def.name ^ " verdicts agree") vl vn;
            Alcotest.(check bool) (app.Apps.App_def.name ^ " accepts") true (Array.for_all Fun.id vn))
          (Apps.Registry.suite ~scale:1 ()));
  ]

(* ------------------------------------------------------------------ *)
(* Transcript stability: the Lagrange pipeline is bit-for-bit the seed  *)
(* ------------------------------------------------------------------ *)

(* Wire digests captured on the pre-refactor tree (PR 6) over p127 with
   rho=1, rho_lin=2, p_bits=192, domains=1. [Auto] resolves to Lagrange on
   p127 (2-adicity 1), so both configurations below must reproduce the
   seed transcripts exactly. *)

let transcript_digest backend name src raw_inputs =
  let ctx = Fp.create Primes.p127 in
  let compiled = Zlang.Compile.compile ~ctx src in
  let comp = Apps.Glue.computation_of compiled in
  let prg = Chacha.Prg.create ~seed:("transcript " ^ name) () in
  let inputs = [| Apps.Glue.field_inputs ctx raw_inputs |] in
  let config = { (config backend) with Argument.strategy = Argument.Honest } in
  let vs = Argument.Verifier_session.create ~config comp ~prg ~inputs in
  let d = Argument.digest comp in
  let ps =
    Argument.Prover_session.create ~config
      ~lookup:(fun d' -> if d' = d then Some comp else None)
      ~prg ()
  in
  let vcodec = Argument.Verifier_session.codec vs in
  let acc = Buffer.create 4096 in
  let nmsg = ref 0 in
  let v_to_p m =
    let b = Zwire.encode ~codec:vcodec m in
    Buffer.add_string acc (Bytes.to_string b);
    incr nmsg;
    Zwire.decode ?codec:(Argument.Prover_session.codec ps) b
  in
  let p_to_v m =
    let b = Zwire.encode ?codec:(Argument.Prover_session.codec ps) m in
    Buffer.add_string acc (Bytes.to_string b);
    incr nmsg;
    Zwire.decode ~codec:vcodec b
  in
  let rec pump m =
    match Argument.Prover_session.on_msg ps (v_to_p m) with
    | `Finished None -> ()
    | `Finished (Some reply) | `Send reply -> (
      match Argument.Verifier_session.on_msg vs (p_to_v reply) with
      | `Send next -> pump next
      | `Finished (Some last) -> (
        match Argument.Prover_session.on_msg ps (v_to_p last) with
        | `Finished _ -> ()
        | `Send _ -> Alcotest.fail "protocol did not terminate")
      | `Finished None -> ())
  in
  pump (Argument.Verifier_session.initial vs);
  let r = Argument.Verifier_session.result ~prover:(Argument.Prover_session.metrics ps) vs in
  Alcotest.(check bool) (name ^ " accepts") true (Argument.all_accepted r);
  (!nmsg, Buffer.length acc, Digest.to_hex (Digest.string (Buffer.contents acc)))

let sq3_src =
  "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"

let horner_src =
  "computation horner(input int12 c[9], input int12 x, output int64 y) {\n\
  \  var int64 acc = 0;\n\
  \  for i in 0..9 { acc = acc * x + c[i]; }\n\
  \  y = acc;\n\
   }"

let horner_inputs = Array.append (Array.init 9 (fun i -> 1000 + (17 * i))) [| 2019 |]

(* Counter fidelity of the packed Hello step, on horner over p127_ntt
   (16 rows, a 16-slot domain): the sparse row evaluations count what
   Lincomb.eval counted and REDCs never count as mont.mul, so one
   prover_h moves fp.mul and ntt.butterfly by the amounts the Barrett
   kernels and boxed row evaluation counted. *)
let test_hello_counts () =
  let compiled = Zlang.Compile.compile ~ctx horner_src in
  let comp = Apps.Glue.computation_of compiled in
  let w = comp.Argument.solve (Apps.Glue.field_inputs ctx horner_inputs) in
  let q = Qapb.of_r1cs ~backend:Qapb.Ntt comp.Argument.r1cs in
  Qapb.prewarm q;
  let (((_, fp), bfly), mont) =
    counted "mont.mul" (fun () ->
        counted "ntt.butterfly" (fun () -> counted "fp.mul" (fun () -> Qapb.prover_h q w)))
  in
  Alcotest.(check int) "fp.mul" 504 fp;
  Alcotest.(check int) "ntt.butterfly" 336 bfly;
  Alcotest.(check int) "mont.mul" 0 mont;
  let packed, n_packed = counted "fp.mul" (fun () -> Qapb.satisfied q w) in
  let boxed, n_boxed = counted "fp.mul" (fun () -> Constr.R1cs.satisfied ctx comp.Argument.r1cs w) in
  Alcotest.(check bool) "satisfied" boxed packed;
  Alcotest.(check int) "satisfied fp.mul" 72 n_boxed;
  Alcotest.(check int) "satisfied fp.mul, packed" n_boxed n_packed;
  let w' = Array.copy w in
  w'.(1) <- Fp.add ctx w'.(1) Fp.one;
  Alcotest.(check bool) "a corrupted witness, boxed" false (Constr.R1cs.satisfied ctx comp.Argument.r1cs w');
  Alcotest.(check bool) "a corrupted witness, packed" false (Qapb.satisfied q w')

(* The Lagrange prover above the Karatsuba threshold: sq3 and horner
   interpolate far below 32 coefficients, so they never split. One
   Qap.prover_h at scale 1 over p127 (lcs |C| = 312, bisection 758, pam
   927) must keep the H and the fp.mul_lazy count the boxed Karatsuba
   gave. *)
let lagrange_h_tests =
  List.map
    (fun ((app : Apps.App_def.t), lazy_products, h_digest) ->
      Alcotest.test_case
        (Printf.sprintf "Lagrange prover_h on %s: H digest and fp.mul_lazy pinned" app.Apps.App_def.name)
        `Quick
        (fun () ->
          let ctx = Fp.create Primes.p127 in
          let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx app) in
          let iprg = Chacha.Prg.create ~seed:("prover_h " ^ app.Apps.App_def.name) () in
          let w =
            comp.Argument.solve (Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs iprg))
          in
          let q = Qapb.of_r1cs ~backend:Qapb.Lagrange comp.Argument.r1cs in
          Qapb.prewarm q;
          let h, n = counted "fp.mul_lazy" (fun () -> Qapb.prover_h q w) in
          let digest =
            Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map Fp.to_string h))))
          in
          Alcotest.(check string) "H digest" h_digest digest;
          Alcotest.(check int) "fp.mul_lazy" lazy_products n))
    Apps.Registry.
      [
        (lcs ~scale:1, 345_377, "05646390353135d4568960ca58791294");
        (bisection ~scale:1, 1_481_217, "5f297031b533bd9127af02527a553c0d");
        (pam ~scale:1, 1_926_123, "851d9c609aae38a66f29158cae4ff0b2");
      ]

(* The Lagrange leaves re-limb their operands into the calling domain's
   scratch, so four lcs witnesses proved on 1, 2 and 4 domains must give
   the serial H. *)
let lagrange_domain_test =
  Alcotest.test_case "Lagrange prover_h is domain-count independent (DLS scratch isolation)" `Quick
    (fun () ->
      let ctx = Fp.create Primes.p127 in
      let app = Apps.Registry.lcs ~scale:1 in
      let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx app) in
      let witnesses =
        Array.init 4 (fun i ->
            let iprg = Chacha.Prg.create ~seed:(Printf.sprintf "lagrange domains %d" i) () in
            comp.Argument.solve (Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs iprg)))
      in
      let q = Qapb.of_r1cs ~backend:Qapb.Lagrange comp.Argument.r1cs in
      Qapb.prewarm q;
      let serial = Array.map (Qapb.prover_h q) witnesses in
      Alcotest.(check bool) "the witnesses give different H" false (h_equal serial.(0) serial.(1));
      List.iter
        (fun domains ->
          let par = Dompool.Pool.map ~domains (Qapb.prover_h q) witnesses in
          Alcotest.(check bool) (Printf.sprintf "H on %d domains" domains) true (Array.for_all2 h_equal serial par))
        [ 1; 2; 4 ])

let transcript_tests =
  List.map
    (fun (label, backend) ->
      Alcotest.test_case
        (Printf.sprintf "seed transcripts reproduced bit-for-bit (%s)" label)
        `Quick
        (fun () ->
          Alcotest.(check (triple int int string))
            "sq3"
            (7, 1959, "527cf31a0a56ae3ec594c45ba8aea902")
            (transcript_digest backend "sq3" sq3_src [| 123; 4567 |]);
          Alcotest.(check (triple int int string))
            "horner"
            (7, 7207, "750745d40f0aa1f602fdc0d21cb3ce6f")
            (transcript_digest backend "horner" horner_src horner_inputs)))
    [ ("auto", Qapb.Auto); ("lagrange", Qapb.Lagrange) ]

let suite =
  nat_tests @ vec_tests @ dot_tests @ mont_tests @ kernel_tests @ ntt_tests @ e2e_tests @ transcript_tests
  @ lagrange_h_tests @ [ lagrange_domain_test ]
  @ [ Alcotest.test_case "packed Hello keeps fp.mul and ntt.butterfly, mont.mul 0" `Quick test_hello_counts ]
