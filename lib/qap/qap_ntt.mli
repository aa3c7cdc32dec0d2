(** QAP over roots of unity: the modern alternative to the paper's
    arithmetic-progression interpolation points (ablation; DESIGN.md §2).

    Constraints sit at the n-th roots of unity of an NTT-friendly field
    (n = 2^k >= |C|, padded with trivially-satisfied rows): interpolation
    is an inverse NTT, the divisor is D(t) = t^n - 1 so exact division is
    coefficient folding, and the barycentric weights collapse to
    (tau^n - 1)/n * w^j / (tau - w^j). Mirrors {!Qap}'s entry points. *)

open Fieldlib
open Constr

type t = {
  ctx : Fp.ctx;
  ntt : Polylib.Ntt.ctx;
  sys : R1cs.system;
  nc : int; (** original |C| *)
  n : int; (** padded domain size, a power of two *)
  log_n : int;
  omega : Fp.el;
  domain : Fp.el array; (** w^0 .. w^(n-1) *)
  domain_v : Fp.Vec.t; (** the domain, packed *)
}

exception Not_divisible
exception Tau_collision

val of_r1cs : R1cs.system -> t
(** The field must have 2-adicity at least log2 |C| (use
    {!Primes.bls12_381_fr}). *)

val pw_coeffs : t -> Fp.el array -> Polylib.Poly.t
(** Boxed P_w = A*B - C (kept for the test-suite; the prover entry points
    below run the packed pipeline). *)

val prover_h : t -> Fp.el array -> Fp.el array
(** Packed fast path (span [qap_ntt.prover_h]): three inverse NTTs, the
    doubled-domain product, coefficient folding — all over {!Fp.Vec}
    arenas. Raises {!Not_divisible} if w does not satisfy the
    constraints. *)

val prover_h_forced : t -> Fp.el array -> Fp.el array
(** Divide-and-drop-remainder (span [qap_ntt.prover_h_forced]); the
    cheating prover of the adversarial suite. *)

val prover_h_reference : t -> Fp.el array -> Fp.el array
(** Differential reference: subproduct-tree interpolation over the same
    roots-of-unity domain, boxed product, Newton division by t^n - 1.
    Bit-identical to {!prover_h} on satisfying witnesses. *)

type queries = {
  tau : Fp.el;
  d_tau : Fp.el; (** tau^n - 1 *)
  a_tau : Fp.el array;
  b_tau : Fp.el array;
  c_tau : Fp.el array;
  qd : Fp.el array; (** 1, tau, ..., tau^(n-1) *)
}

val queries : t -> tau:Fp.el -> queries
val z_slice : t -> Fp.el array -> Fp.el array
val io_contribution : t -> Fp.el array -> Fp.el array -> Fp.el
