(* ElGamal over a Schnorr group with plaintexts in the exponent: the
   homomorphic (not fully homomorphic) encryption the commitment protocol
   needs (§2.2, footnote 3).

     Enc(m) = (g^k, g^m * y^k)        for k uniform in [1, q)
     Dec(c1, c2) = c2 * c1^(-x) = g^m

   Decryption recovers g^m, not m — and that is all the consistency test
   ever needs: it compares group elements whose exponents are linear
   combinations the verifier knows in the clear (see lib/commit).

   Homomorphism: Enc(a) * Enc(b) = Enc(a+b) componentwise, and
   Enc(a)^c = Enc(c*a); the prover evaluates Enc(<u, r>) from Enc(r)
   without ever seeing r.

   Both fixed bases (g from the group, y from the key) carry fixed-base
   window tables, so encryption and encoding are table lookups plus
   multiplications rather than generic ladders; [hom_dot] is a Pippenger
   multi-exponentiation over a [prepare]d Enc(r) (DESIGN.md §8). *)

open Fieldlib

type public_key = {
  grp : Group.t;
  y : Group.element;
  y_fb : Group.fb Lazy.t; (* fixed-base table for y; force via [precompute] before parallel use *)
}

type secret_key = { pk : public_key; x : Nat.t }
type ciphertext = { c1 : Group.element; c2 : Group.element }

let c_encrypt = Zobs.Counter.make "elgamal.encrypt"
let c_decrypt = Zobs.Counter.make "elgamal.decrypt"
let c_hom = Zobs.Counter.make "elgamal.hom_op"

let keygen (grp : Group.t) (prg : Chacha.Prg.t) =
  let x = Fp.to_nat (Chacha.Prg.field_nonzero grp.Group.modq prg) in
  let y = Group.fb_pow grp (Group.fb_g grp) x in
  let pk = { grp; y; y_fb = lazy (Group.fb_precompute grp y) } in
  ({ pk; x }, pk)

(* Codec hook (lib/wire): rebuild a public key from a transmitted y. The
   table for y stays lazy — the prover's hom_dot path is all multi_pow and
   never forces it. *)
let public_key_of (grp : Group.t) ~(y : Group.element) =
  if Nat.is_zero y || Nat.compare y grp.Group.p >= 0 then
    invalid_arg "Elgamal.public_key_of: y out of range";
  { grp; y; y_fb = lazy (Group.fb_precompute grp y) }

let precompute (pk : public_key) =
  ignore (Group.fb_g pk.grp);
  ignore (Lazy.force pk.y_fb)

(* Encrypt with caller-supplied randomness k in [1, q): the deterministic
   core that the parallel commitment pipeline maps over after pre-drawing
   every k sequentially (transcripts must not depend on the domain count).
   c2 = g^m * y^k is formed in Montgomery form and converted out once. *)
let encrypt_with_k (pk : public_key) ~(k : Nat.t) (m : Fp.el) : ciphertext =
  Zobs.Counter.incr c_encrypt;
  let grp = pk.grp in
  let gtab = Group.fb_g grp and ytab = Lazy.force pk.y_fb in
  { c1 = Group.fb_pow grp gtab k; c2 = Group.fb_pow2 grp gtab (Fp.to_nat m) ytab k }

(* Encrypt a field element (exponent encoding). *)
let encrypt (pk : public_key) (prg : Chacha.Prg.t) (m : Fp.el) : ciphertext =
  let k = Fp.to_nat (Chacha.Prg.field_nonzero pk.grp.Group.modq prg) in
  encrypt_with_k pk ~k m

(* Decrypt to the group encoding g^m of the plaintext. *)
let decrypt_to_group (sk : secret_key) (c : ciphertext) : Group.element =
  Zobs.Counter.incr c_decrypt;
  let grp = sk.pk.grp in
  Group.mul grp c.c2 (Group.inv grp (Group.pow grp c.c1 sk.x))

(* g^m for a known m: what the verifier compares decryptions against. *)
let encode (pk : public_key) (m : Fp.el) : Group.element =
  Group.fb_pow pk.grp (Group.fb_g pk.grp) (Fp.to_nat m)

(* Homomorphic operations. *)

let hom_add (pk : public_key) (a : ciphertext) (b : ciphertext) : ciphertext =
  Zobs.Counter.incr c_hom;
  { c1 = Group.mul pk.grp a.c1 b.c1; c2 = Group.mul pk.grp a.c2 b.c2 }

let hom_scale (pk : public_key) (c : ciphertext) (s : Fp.el) : ciphertext =
  Zobs.Counter.incr c_hom;
  { c1 = Group.pow pk.grp c.c1 (Fp.to_nat s); c2 = Group.pow pk.grp c.c2 (Fp.to_nat s) }

let hom_zero (pk : public_key) : ciphertext =
  (* Enc(0) with randomness 0: (1, 1) — only used as a fold seed, so the
     missing blinding is irrelevant. *)
  ignore pk;
  { c1 = Fp.one; c2 = Fp.one }

(* Enc(<u, r>) from Enc(r) as a fold of hom_scale/hom_add: the pre-kernel
   path, kept as the ablation/CI cross-check baseline for [hom_dot]. *)
let hom_dot_naive (pk : public_key) (enc_r : ciphertext array) (u : Fp.el array) : ciphertext =
  if Array.length enc_r <> Array.length u then invalid_arg "Elgamal.hom_dot: length mismatch";
  let acc = ref (hom_zero pk) in
  Array.iteri
    (fun i ui -> if not (Fp.is_zero ui) then acc := hom_add pk !acc (hom_scale pk enc_r.(i) ui))
    u;
  !acc

(* Enc(r) in the kernels' packed form, c1/c2 interleaved (element 2i is
   Enc(r_i).c1, 2i+1 its c2): converted once, then read-only, so one
   prepared request serves every instance of a batch, across domains. *)
type prepared = { group : Group.t; len : int; enc : Montgomery.packed }

let prepare (pk : public_key) (enc_r : ciphertext array) : prepared =
  let len = Array.length enc_r in
  let pick i = if i land 1 = 0 then enc_r.(i lsr 1).c1 else enc_r.(i lsr 1).c2 in
  { group = pk.grp; len; enc = Montgomery.pack pk.grp.Group.mont (2 * len) pick }

(* Enc(<u, r>) from a prepared Enc(r): the prover's commitment. Zero
   coefficients are skipped (sparse proof vectors), unit coefficients are
   bare homomorphic adds folded into the packed accumulator, and the rest
   feed one Pippenger pass over both ciphertext components. Each fold and
   each term is one homomorphic accumulate step (the paper's h row). *)
let hom_dot_prepared (pr : prepared) (u : Fp.el array) : ciphertext =
  if pr.len <> Array.length u then invalid_arg "Elgamal.hom_dot: length mismatch";
  let ones = ref [] and idx = ref [] in
  for i = pr.len - 1 downto 0 do
    if Fp.equal u.(i) Fp.one then ones := i :: !ones
    else if not (Fp.is_zero u.(i)) then idx := i :: !idx
  done;
  let ones = Array.of_list !ones and idx = Array.of_list !idx in
  Zobs.Counter.add c_hom (Array.length ones + Array.length idx);
  let exps = Array.map (fun i -> Fp.to_nat u.(i)) idx in
  let c = Group.multi_pow_packed pr.group pr.enc ~stride:2 ~ones idx exps in
  { c1 = c.(0); c2 = c.(1) }

let hom_dot (pk : public_key) (enc_r : ciphertext array) (u : Fp.el array) : ciphertext =
  hom_dot_prepared (prepare pk enc_r) u
