(** ElGamal over a Schnorr group with plaintexts in the exponent: the
    homomorphic (not fully homomorphic) encryption the commitment protocol
    needs (§2.2, footnote 3).

      Enc(m) = (g^k, g^m y^k)        Dec(c1, c2) = c2 c1^{-x} = g^m

    Decryption recovers g^m, not m — all the consistency test needs, since
    it compares group elements whose exponents the verifier knows in the
    clear. [hom_add]/[hom_scale] give Enc(a+b) and Enc(c*a); {!hom_dot}
    evaluates Enc(<u, r>) from Enc(r) without the prover learning r.

    Encryption and encoding run on fixed-base window tables for g and y;
    {!hom_dot} is a Pippenger multi-exponentiation over a {!prepare}d
    Enc(r) (DESIGN.md §8). *)

open Fieldlib

type public_key = {
  grp : Group.t;
  y : Group.element;
  y_fb : Group.fb Lazy.t;  (** fixed-base table for [y]; see {!precompute} *)
}

type secret_key = { pk : public_key; x : Nat.t }
type ciphertext = { c1 : Group.element; c2 : Group.element }

val keygen : Group.t -> Chacha.Prg.t -> secret_key * public_key

val public_key_of : Group.t -> y:Group.element -> public_key
(** Rebuild a public key from a wire-transmitted [y] (Zwire
    [Commit_request]); raises [Invalid_argument] unless [0 < y < p]. The
    fixed-base table for [y] is built lazily on first use. *)

val precompute : public_key -> unit
(** Force both fixed-base tables. Must be called before sharing the key
    across domains (lazy forcing is not thread-safe). *)

val encrypt : public_key -> Chacha.Prg.t -> Fp.el -> ciphertext

val encrypt_with_k : public_key -> k:Nat.t -> Fp.el -> ciphertext
(** Deterministic encryption with caller-supplied randomness [k] in
    [1, q): the core the parallel commitment pipeline maps over after
    pre-drawing every [k] sequentially. *)

val decrypt_to_group : secret_key -> ciphertext -> Group.element

val encode : public_key -> Fp.el -> Group.element
(** [g^m] for a known [m] — what decryptions are compared against. *)

val hom_add : public_key -> ciphertext -> ciphertext -> ciphertext
val hom_scale : public_key -> ciphertext -> Fp.el -> ciphertext
val hom_zero : public_key -> ciphertext

type prepared
(** Enc(r) packed once in Montgomery form; read-only, so a batch shares it. *)

val prepare : public_key -> ciphertext array -> prepared

val hom_dot_prepared : prepared -> Fp.el array -> ciphertext
(** Enc(<u, r>): zeros skipped, ones folded, the rest in one Pippenger
    pass over both ciphertext components ({!Group.multi_pow_packed}). *)

val hom_dot : public_key -> ciphertext array -> Fp.el array -> ciphertext
(** [hom_dot pk enc_r u = hom_dot_prepared (prepare pk enc_r) u]. *)

val hom_dot_naive : public_key -> ciphertext array -> Fp.el array -> ciphertext
(** The pre-kernel hom_scale/hom_add fold, kept as the ablation baseline
    and the CI divergence check for {!hom_dot}. *)
