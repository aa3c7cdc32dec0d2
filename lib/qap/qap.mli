(** The QAP encoding of a quadratic-form constraint set (Appendix A.1).

    Fix distinguished points sigma_0 = 0, sigma_j = j (the arithmetic
    progression of §A.3). Define by interpolation degree-|C| polynomials
    with A_i(sigma_j) = a_ij, A_i(0) = 0 (likewise B, C), the divisor
    D(t) = prod_j (t - sigma_j), and

      P(t, W) = (sum_i W_i A_i(t)) (sum_i W_i B_i(t)) - sum_i W_i C_i(t).

    Claim A.1: D(t) divides P_w(t) iff the z part of w satisfies
    C(X=x, Y=y). The prover computes H = P_w / D (§A.3) without dividing:
    from its values H(j) = P_w'(j) / D'(j) at D's simple roots, then one
    interpolation; the verifier evaluates every A_i, B_i, C_i and D at a
    random tau through barycentric Lagrange weights. Neither party ever
    materializes P(t, W). *)

open Fieldlib
open Constr

type csr
(** One constraint matrix compiled into packed compressed rows: a
    coefficient arena in Montgomery form, column indices and a +-1 tag
    per term (the operand of {!Fp.Vec.spmv}). *)

val compile : Fp.ctx -> Lincomb.t array -> csr

val spmv : Fp.ctx -> Fp.scratch -> csr -> Fp.Vec.t -> Fp.Vec.t -> unit
(** [spmv ctx sc m x dst]: slots [0, rows) of [dst] get the rows of [m]
    evaluated at [x], counted as [Lincomb.eval] counts. *)

type deriv
(** The prover's constants: the middle products' packed kernel 1/d,
    d = -|C|..|C|, the barycentric weights and H(j)'s two factors. *)

type t = {
  ctx : Fp.ctx;
  sys : R1cs.system;
  nc : int; (** |C| *)
  deriv : deriv Lazy.t; (** prover side only *)
  interp : Polylib.Subproduct.interpolator Lazy.t;
      (** the packed product tree over sigma_0..sigma_|C| with the closed
          form of its weights; prover side only *)
  rows : (csr * csr * csr) Lazy.t; (** A, B and C compiled, for both sides *)
}

exception Tau_collision
(** The random tau hit one of the sigma_j (probability (|C|+1)/|F|); the
    caller resamples. *)

val of_r1cs : R1cs.system -> t
(** Raises [Invalid_argument] if the system is empty or the field has
    fewer than |C|+1 elements (the sigma_j must be distinct). *)

val pw_poly : t -> Fp.el array -> Polylib.Poly.t
(** P_w(t) = A(t)B(t) - C(t). *)

val prover_h : t -> Fp.el array -> Fp.el array
(** Coefficients of H = P_w / D, padded to length |C|+1. Raises [Failure]
    if [w] does not satisfy the constraints: A(j)B(j) <> C(j) at some
    sigma_j, j >= 1, which is D not dividing P_w. On packed slices
    throughout, with no division: three sparse mat-vecs, three middle
    products for A', B' and C' at the nodes, H(j) = P_w'(j) / D'(j)
    pointwise, then one interpolation over the tree; only H is boxed. *)

val prover_h_forced : t -> Fp.el array -> Fp.el array
(** What a cheating prover would do with an unsatisfying assignment:
    skip the node check and interpolate the same values. Used by the
    adversarial tests and the soundness bench. *)

val prover_h_reference : t -> Fp.el array -> Fp.el array
(** Differential reference for {!prover_h}: boxed Lagrange-basis
    interpolation with directly multiplied weights, {!Polylib.Poly.mul_schoolbook}
    and schoolbook {!Polylib.Poly.div_rem} — no Karatsuba, no middle
    product, no derivatives. Quadratic in |C|. *)

val inv_weights : Fp.ctx -> int -> Fp.el array
(** [inv_weights ctx nc]: M'(sigma_j) = (-1)^(nc-j) j! (nc-j)! for
    j = 0..nc, M(t) = prod_j (t - sigma_j): the closed form of the
    barycentric weights' inverses, from the factorial recurrence. *)

type queries = {
  tau : Fp.el;
  d_tau : Fp.el;
  a_tau : Fp.el array;
      (** evaluations A_i(tau) indexed by variable 0..n; the slice 1..num_z
          is the oracle query q_a, index 0 and the IO indices feed L_a *)
  b_tau : Fp.el array;
  c_tau : Fp.el array;
  qd : Fp.el array; (** (1, tau, ..., tau^(h_len - 1)); h_len = |C|+1 here *)
}

val queries : t -> tau:Fp.el -> queries
(** Barycentric evaluation of all A_i, B_i, C_i and D at tau, per §A.3:
    factorial-based weights (the two-operation recurrence), batch-inverted
    (tau - sigma_j), and the weighted rows by the compiled rows'
    transposed mat-vec ({!Fp.Vec.spmv_t}). Raises {!Tau_collision} if tau
    lies on a sigma_j. *)

val z_slice : t -> Fp.el array -> Fp.el array
(** The Z-region of an evaluation vector: what is sent to the pi_z
    oracle. *)

val io_contribution : t -> Fp.el array -> Fp.el array -> Fp.el
(** [io_contribution qap evals io] is A'(tau) = A_0(tau) + sum_{i in IO}
    w_i A_i(tau) — three field operations per input/output element
    (§A.3). *)

val eval_rows : Fp.ctx -> (R1cs.constr -> Lincomb.t) -> R1cs.system -> int -> Fp.el array -> Fp.el array
(** Exposed for the test-suite. *)
