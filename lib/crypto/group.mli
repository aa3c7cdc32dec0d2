(** Schnorr-group parameters for the commitment's ElGamal encryption (§2.2
    footnote 3; §5.1 uses 1024-bit keys).

    The commitment computes with plaintexts in the exponent, so the
    plaintext space is Z_q for q the subgroup order. Following
    Pepper/Ginger, the PCP field *is* Z_q: [generate] takes the field
    modulus as the subgroup order and searches for a prime
    p = q*m + 1 of the requested size, so exponent arithmetic coincides
    with field arithmetic.

    Exponentiations go through the DESIGN.md §8 kernels on the packed
    {!Montgomery} engine: a windowed generic ladder ({!pow}), fixed-base
    window tables ({!fb_pow}), Shamir simultaneous exponentiation
    ({!pow2}) and Pippenger bucket multi-exponentiation ({!multi_pow}).
    Zobs counters [group.pow], [group.pow.fixed_base], [group.pow.shamir]
    and [group.multi_pow] record which kernel served each one. *)

open Fieldlib

type fb
(** A fixed-base window table for one group element (kernel state). *)

type t = {
  p : Nat.t;  (** group modulus *)
  q : Nat.t;  (** subgroup (and PCP field) order *)
  g : Fp.el;  (** generator of the order-q subgroup, as a mod-p residue *)
  modp : Fp.ctx;
  modq : Fp.ctx;  (** Z_q arithmetic, cached here so per-call contexts are never rebuilt *)
  mont : Montgomery.ctx;  (** exponentiation kernels *)
  g_fb : fb Lazy.t;  (** fixed-base table for [g]; force via {!fb_g} before parallel use *)
}

type element = Fp.el

val pow : t -> element -> Nat.t -> element
(** Generic windowed Montgomery ladder. *)

val mul : t -> element -> element -> element
val inv : t -> element -> element
val equal : element -> element -> bool

val one : element
(** The group identity. *)

val fb_precompute : ?window:int -> t -> element -> fb
(** Build a fixed-base window table covering exponents in Z_q. [window] in
    [1, 16], default 5. *)

val fb_g : t -> fb
(** The (lazily built, cached) table for the generator [g]. *)

val fb_pow : t -> fb -> Nat.t -> element
(** Table-driven exponentiation: one multiplication per nonzero window
    digit. Falls back to the generic ladder for exponents wider than the
    table (never the case for exponents in Z_q). *)

val fb_pow2 : t -> fb -> Nat.t -> fb -> Nat.t -> element
(** [b1^e1 * b2^e2] from two tables: ElGamal's [c2 = g^m y^k]. *)

val pow2 : t -> element -> Nat.t -> element -> Nat.t -> element
(** [pow2 t b1 e1 b2 e2 = b1^e1 * b2^e2], Shamir/Straus simultaneous
    exponentiation in one shared squaring chain. *)

val multi_pow : ?window:int -> t -> element array -> Nat.t array -> element
(** [multi_pow t bases exps = prod_i bases.(i)^exps.(i)] by Pippenger
    bucket aggregation; [window] overrides the automatic bucket width
    (tests). *)

val multi_pow_packed :
  ?window:int -> ?ones:int array -> t -> Montgomery.packed -> stride:int -> int array ->
  Nat.t array -> element array
(** {!Montgomery.multi_pow} over elements packed once (e.g. Enc(r)). *)

val generate : ?seed:string -> field_order:Nat.t -> p_bits:int -> unit -> t
(** Deterministic given [seed]; candidates are screened with
    {!Primes.probably_prime} and the final p confirmed with
    {!Primes.is_prime}. *)

val cached : field_order:Nat.t -> p_bits:int -> unit -> t
(** Memoized {!generate}: parameter search costs seconds at 1024 bits. *)

val of_params : p:Nat.t -> q:Nat.t -> g:element -> t
(** Rebuild a group from wire-transmitted parameters (the prover side of a
    Zwire [Commit_request]). Re-checks the structure [generate] guarantees
    — q | p - 1, 1 < g < p, g^q = 1 (on the packed ladder) — and raises
    [Invalid_argument] otherwise; primality is not re-verified (a composite
    modulus only hurts the party who chose it). *)
