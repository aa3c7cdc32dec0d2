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
        (* twiddle in a separate vector *)
        let v = Fp.Vec.of_array ctx [| xs.(0); xs.(1) |] in
        let tw = Fp.Vec.of_array ctx [| xs.(2) |] in
        Fp.Vec.butterfly ctx sc v 0 1 tw 0;
        let sep_ok =
          Fp.equal (Fp.Vec.get v 0) (expect_hi xs.(2) xs.(0) xs.(1))
          && Fp.equal (Fp.Vec.get v 1) (expect_lo xs.(2) xs.(0) xs.(1))
        in
        (* twiddle slot living inside the data vector itself *)
        let v2 = Fp.Vec.of_array ctx xs in
        Fp.Vec.butterfly ctx sc v2 0 1 v2 2;
        sep_ok
        && Fp.equal (Fp.Vec.get v2 0) (expect_hi xs.(2) xs.(0) xs.(1))
        && Fp.equal (Fp.Vec.get v2 1) (expect_lo xs.(2) xs.(0) xs.(1))
        && Fp.equal (Fp.Vec.get v2 2) xs.(2));
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

let suite = nat_tests @ vec_tests @ mont_tests @ ntt_tests @ e2e_tests @ transcript_tests
