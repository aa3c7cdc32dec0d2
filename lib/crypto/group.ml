(* Schnorr-group parameters for the linear commitment's ElGamal encryption
   (§2.2, footnote 3; §5.1 uses 1024-bit keys).

   The commitment protocol computes with plaintexts in the exponent, so the
   plaintext space is Z_q where q is the order of the subgroup. Following
   Pepper/Ginger, the PCP field *is* Z_q: we pick q = the field modulus and
   search for a prime p = q*m + 1 of the requested size. Exponent
   arithmetic then coincides with field arithmetic, which is what makes
   Enc(pi(r)) homomorphically computable from Enc(r). *)

open Fieldlib

type fb = Montgomery.fb

type t = {
  p : Nat.t; (* group modulus *)
  q : Nat.t; (* subgroup (and PCP field) order *)
  g : Fp.el; (* generator of the order-q subgroup, as a mod-p residue *)
  modp : Fp.ctx; (* arithmetic mod p *)
  modq : Fp.ctx; (* arithmetic mod q (exponents); cached, not rebuilt per call *)
  mont : Montgomery.ctx; (* exponentiation kernels *)
  g_fb : fb Lazy.t; (* fixed-base window table for g, built on first use *)
}

type element = Fp.el (* residue mod p *)

(* Modular exponentiations: the dominant prover/verifier cost (§5.1's e, d
   and h rows all reduce to these). The counters distinguish the kernels so
   BENCH_run.json shows which path served each exponentiation: [group.pow]
   is the generic ladder, the rest are the DESIGN.md §8 kernels. *)
let c_pow = Zobs.Counter.make "group.pow"
let c_pow_fb = Zobs.Counter.make "group.pow.fixed_base"
let c_pow_shamir = Zobs.Counter.make "group.pow.shamir"
let c_multi = Zobs.Counter.make "group.multi_pow"
let c_multi_terms = Zobs.Counter.make "group.multi_pow.terms"

let pow t (base : element) (e : Nat.t) =
  Zobs.Counter.incr c_pow;
  Montgomery.pow t.mont base e

let mul t a b = Fp.mul t.modp a b
let inv t a = Fp.inv t.modp a
let equal = Fp.equal
let one = Fp.one

(* ---- Exponentiation kernels (DESIGN.md §8) ---- *)

let fb_precompute ?window t (base : element) : fb =
  Montgomery.fb_precompute t.mont ?window ~bits:(Nat.num_bits t.q) base

let fb_g t = Lazy.force t.g_fb

(* Exponents wider than a Z_q table take the ladder, counted as generic. *)
let count_fb tab e =
  Zobs.Counter.incr (if Nat.num_bits e > Montgomery.fb_bits tab then c_pow else c_pow_fb)

let fb_pow t (tab : fb) (e : Nat.t) : element =
  count_fb tab e;
  Montgomery.fb_pow t.mont tab e

let fb_pow2 t (tab1 : fb) (e1 : Nat.t) (tab2 : fb) (e2 : Nat.t) : element =
  count_fb tab1 e1;
  count_fb tab2 e2;
  Montgomery.fb_pow2 t.mont tab1 e1 tab2 e2

let pow2 t (b1 : element) (e1 : Nat.t) (b2 : element) (e2 : Nat.t) : element =
  Zobs.Counter.incr c_pow_shamir;
  Montgomery.pow2 t.mont b1 e1 b2 e2

(* One multi-exponentiation counted per component that has terms. *)
let multi_pow_packed ?window ?ones t v ~stride idx (exps : Nat.t array) : element array =
  if Array.length idx > 0 then begin
    Zobs.Counter.add c_multi stride;
    Zobs.Counter.add c_multi_terms (stride * Array.length idx)
  end;
  Montgomery.multi_pow t.mont ?window ?ones v ~stride idx exps

let multi_pow ?window t (bases : element array) (exps : Nat.t array) : element =
  let n = Array.length bases in
  let v = Montgomery.pack t.mont n (Array.get bases) in
  (multi_pow_packed ?window t v ~stride:1 (Array.init n Fun.id) exps).(0)

let generate ?(seed = "zaatar group") ~field_order ~p_bits () =
  let q = field_order in
  let q_bits = Nat.num_bits q in
  if p_bits < q_bits + 16 then invalid_arg "Group.generate: p_bits too small for field order";
  let prg = Chacha.Prg.create ~seed () in
  (* Sample m so that p = q*m + 1 has exactly p_bits bits: m must lie in
     [ceil(2^(p_bits-1)/q), (2^p_bits - 1)/q]. A fixed bit-length for m is
     NOT enough: when q sits just above a power of two the valid window is
     a vanishing sliver of any power-of-two range and the search would
     never terminate. *)
  let lo =
    let base = Nat.shift_left Nat.one (p_bits - 1) in
    let d, r = Nat.divmod base q in
    if Nat.is_zero r then d else Nat.add d Nat.one
  in
  let hi = fst (Nat.divmod (Nat.sub (Nat.shift_left Nat.one p_bits) Nat.one) q) in
  if Nat.compare lo hi >= 0 then invalid_arg "Group.generate: empty multiplier window";
  let window = Nat.sub hi lo in
  let window_bytes = (Nat.num_bits window + 7) / 8 in
  let rec find_p () =
    let raw = Nat.of_bytes_sub (Chacha.Prg.bytes prg window_bytes) 0 window_bytes in
    let m = Nat.add lo (snd (Nat.divmod raw window)) in
    let m = if Nat.is_even m then m else Nat.add m Nat.one in
    let p = Nat.add (Nat.mul q m) Nat.one in
    if Nat.num_bits p <> p_bits then find_p ()
    else if Primes.probably_prime p then (p, m)
    else find_p ()
  in
  let p, m = find_p () in
  if not (Primes.is_prime p) then failwith "Group.generate: final primality check failed";
  (* mod-p arithmetic is group arithmetic: tag it so its multiplications
     land in fp.*.group, not the Figure-3 field ledger. The exponent
     context modq IS the PCP field, so it keeps the default Field tag. *)
  let modp = Fp.create ~tag:Fp.Group p in
  let mont = Fp.mont modp in
  let rec find_g h =
    let g = Fp.pow modp (Fp.of_int modp h) m in
    if Fp.equal g Fp.one then find_g (h + 1) else g
  in
  let g = find_g 2 in
  let g_fb = lazy (Montgomery.fb_precompute mont ~bits:q_bits g) in
  { p; q; g; modp; modq = Fp.create q; mont; g_fb }

(* Codec hook (lib/wire): rebuild a group from transmitted (p, q, g). The
   prover must not trust the wire, so every structural property [generate]
   guarantees is re-checked here — q | p - 1, g != 1 and g^q = 1 (on the
   packed ladder) — before any exponent arithmetic runs on the parameters.
   Primality of p and q is NOT re-verified (seconds at 1024 bits); a
   composite modulus degrades soundness for the verifier who chose it, not
   for the prover. *)
let of_params ~p ~q ~g =
  if Nat.compare p (Nat.of_int 3) < 0 || Nat.is_even p then
    invalid_arg "Group.of_params: p must be odd and >= 3";
  if Nat.compare q (Nat.of_int 3) < 0 || Nat.is_even q then
    invalid_arg "Group.of_params: q must be odd and >= 3";
  let _, r = Nat.divmod (Nat.sub p Nat.one) q in
  if not (Nat.is_zero r) then invalid_arg "Group.of_params: q does not divide p - 1";
  if Nat.is_zero g || Nat.compare g p >= 0 then invalid_arg "Group.of_params: g out of range";
  if Nat.equal g Nat.one then invalid_arg "Group.of_params: g = 1 generates nothing";
  let modp = Fp.create ~tag:Fp.Group p in
  let mont = Fp.mont modp in
  if not (Nat.is_one (Montgomery.pow mont g q)) then
    invalid_arg "Group.of_params: g is not in the order-q subgroup";
  let g_fb = lazy (Montgomery.fb_precompute mont ~bits:(Nat.num_bits q) g) in
  { p; q; g; modp; modq = Fp.create q; mont; g_fb }

(* Cache of generated groups, keyed by (field bits, p bits): generation
   costs seconds at 1024 bits. *)
let cache : (string, t) Hashtbl.t = Hashtbl.create 4

let cached ~field_order ~p_bits () =
  let key = Printf.sprintf "%s/%d" (Nat.to_hex field_order) p_bits in
  match Hashtbl.find_opt cache key with
  | Some g -> g
  | None ->
    let g = generate ~field_order ~p_bits () in
    Hashtbl.add cache key g;
    g
