(** Primality testing and the named field moduli (§5.1 runs over 128-bit
    and 220-bit prime fields; Appendix A.2 quotes |F| = 2^192). *)

val is_prime : Nat.t -> bool
(** Miller–Rabin: deterministic witnesses below 78 bits, 64 extra
    fixed-seed rounds above (error < 4^-64). *)

val probably_prime : ?bases:int list -> Nat.t -> bool
(** Cheap screen for parameter-search loops: trial division plus a few
    strong-probable-prime rounds. Confirm final candidates with
    {!is_prime}. *)

val first_prime_with_bits : int -> Nat.t

val p61 : Nat.t
(** 2^61 - 1 (Mersenne) — the fast test field. *)

val p89 : Nat.t
val p127 : Nat.t
(** 2^127 - 1 (Mersenne) — the default "128-bit" field. *)

val p128 : unit -> Nat.t
val p192 : unit -> Nat.t
val p220 : unit -> Nat.t

val bls12_381_fr : Nat.t
(** The BLS12-381 scalar field modulus (2-adicity 32) — NTT ablation
    only. *)

val p127_ntt : Nat.t
(** (2^64 + 11) * 2^62 + 1, a 127-bit prime with 2-adicity 62: the
    NTT-friendly counterpart of {!p127} used by the production
    roots-of-unity prover path (the bench default field). *)

val two_adicity : Nat.t -> int
val find_generator_of_two_power_subgroup : Fp.ctx -> Fp.el
(** A generator of the 2^s-torsion, s the 2-adicity of p-1. *)
