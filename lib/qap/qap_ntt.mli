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
  mat_a : Qap.csr; (** the system's A, B and C rows, compiled once *)
  mat_b : Qap.csr;
  mat_c : Qap.csr;
}

exception Not_divisible
exception Tau_collision
(** The same exception as {!Qap.Tau_collision}. *)

val of_r1cs : R1cs.system -> t
(** The field must have 2-adicity at least log2 |C| (use
    {!Primes.bls12_381_fr}). *)

val satisfied : t -> Fp.el array -> bool
(** [R1cs.satisfied] on the compiled rows: the same verdict and the same
    counted [fp.mul]s, by the sparse mat-vec {!prover_h} runs. Raises
    [Invalid_argument] on an assignment of the wrong length or with
    [w0 <> 1]. *)

val pw_coeffs : t -> Fp.el array -> Polylib.Poly.t
(** P_w = A*B - C, its 2n coefficients read off the packed pipeline of
    {!prover_h} (for the test-suite). *)

val prover_h : t -> Fp.el array -> Fp.el array
(** Packed fast path (span [qap_ntt.prover_h]): three sparse mat-vecs
    for the row evaluations, three inverse NTTs, the doubled-domain
    product, coefficient folding — all over {!Fp.Vec} arenas. Raises {!Not_divisible} if w does not satisfy the
    constraints. *)

val prover_h_forced : t -> Fp.el array -> Fp.el array
(** Divide-and-drop-remainder (span [qap_ntt.prover_h_forced]); the
    cheating prover of the adversarial suite. *)

val prover_h_reference : t -> Fp.el array -> Fp.el array
(** Differential reference: subproduct-tree interpolation over the same
    roots-of-unity domain, boxed product, Newton division by t^n - 1.
    Bit-identical to {!prover_h} on satisfying witnesses. *)

val queries : t -> tau:Fp.el -> Qap.queries
(** Here [qd] has the n entries (1, tau, ..., tau^(n-1)). *)

val z_slice : t -> Fp.el array -> Fp.el array
val io_contribution : t -> Fp.el array -> Fp.el array -> Fp.el
