(* The QAP encoding of a quadratic-form constraint set (Appendix A.1).

   Given an R1CS over variables w0=1, w1..wn with |C| constraints, fix the
   distinguished points sigma_0 = 0, sigma_j = j (an arithmetic progression,
   the "convenient choice" of §A.3). Define, by interpolation,

     A_i(sigma_j) = a_ij   B_i(sigma_j) = b_ij   C_i(sigma_j) = c_ij
     A_i(0) = B_i(0) = C_i(0) = 0

   the divisor D(t) = prod_{j=1..|C|} (t - sigma_j), and

     P(t,W) = (sum_i W_i A_i(t)) (sum_i W_i B_i(t)) - (sum_i W_i C_i(t)).

   Claim A.1: D(t) | P_w(t) iff the z part of w satisfies C(X=x, Y=y).

   The prover-side entry point is [prover_h] (coefficients of H = P_w / D,
   computed by interpolate-multiply-divide, §A.3 steps 1-3); the
   verifier-side entry point is [queries], which evaluates every A_i, B_i,
   C_i and D at a random tau via barycentric Lagrange weights
   (§A.3). Neither side ever materializes P(t, W). *)

open Fieldlib
open Constr

type t = {
  ctx : Fp.ctx;
  sys : R1cs.system;
  nc : int; (* |C| *)
  divisor : Polylib.Poly.t Lazy.t; (* prover side only *)
  interp : Polylib.Subproduct.interpolator Lazy.t; (* prover side only *)
}

exception Tau_collision
(* tau hit one of the sigma_j (probability (|C|+1)/|F|); the caller
   resamples. *)

let of_r1cs (sys : R1cs.system) =
  let ctx = sys.R1cs.field in
  let nc = R1cs.num_constraints sys in
  if nc = 0 then invalid_arg "Qap.of_r1cs: empty system";
  if Nat.compare (Nat.of_int (nc + 1)) (Fp.modulus ctx) >= 0 then
    invalid_arg "Qap.of_r1cs: field smaller than the number of constraints";
  let divisor =
    lazy
      (let pts = Array.init nc (fun j -> Fp.of_int ctx (j + 1)) in
       Polylib.Subproduct.(root_poly ctx (build ctx pts)))
  in
  let interp =
    lazy
      (let pts = Array.init (nc + 1) (fun j -> Fp.of_int ctx j) in
       Polylib.Subproduct.prepare ctx pts)
  in
  { ctx; sys; nc; divisor; interp }

(* ------------------------------------------------------------------ *)
(* Prover side                                                         *)
(* ------------------------------------------------------------------ *)

(* Evaluations of A(t) = sum_i w_i A_i(t) at sigma_0..sigma_nc: position 0
   is 0 by construction, position j is the sparse dot <a_j, w>. *)
let eval_rows ctx (rows : (R1cs.constr -> Lincomb.t)) sys nc (w : Fp.el array) =
  let out = Array.make (nc + 1) Fp.zero in
  Array.iteri
    (fun j k -> out.(j + 1) <- Lincomb.eval ctx (rows k) w)
    sys.R1cs.constraints;
  out

(* P_w(t) = A(t)B(t) - C(t), each of A, B, C interpolated from its row
   evaluations. *)
let pw_poly qap (w : Fp.el array) =
  let ctx = qap.ctx and ip = Lazy.force qap.interp in
  let interp row = Polylib.Subproduct.interpolate_with ctx ip (eval_rows ctx row qap.sys qap.nc w) in
  let a = interp (fun k -> k.R1cs.a) and b = interp (fun k -> k.R1cs.b) in
  Polylib.Poly.(sub ctx (mul ctx a b) (interp (fun k -> k.R1cs.c)))

(* Coefficients of H = P_w / D, padded to length |C|+1. Raises [Failure] if
   w does not satisfy the constraints (non-zero remainder, Claim A.1). *)
let prover_h qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h" (fun () ->
      let ctx = qap.ctx in
      let p = pw_poly qap w in
      let h = Polylib.Poly.divide_exact ctx p (Lazy.force qap.divisor) in
      let out = Array.make (qap.nc + 1) Fp.zero in
      Array.blit (Polylib.Poly.coeffs h) 0 out 0 (Polylib.Poly.degree h + 1);
      out)

(* What a cheating prover would do with an unsatisfying assignment: divide
   and silently discard the remainder. Used by the adversarial test suite
   and the soundness bench. Span name deliberately distinct from
   [prover_h]'s: the bench's ntt-vs-lagrange experiment and ablation
   traces key off qap.prover_h being the honest pipeline only. *)
let prover_h_forced qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h_forced" (fun () ->
      let ctx = qap.ctx in
      let p = pw_poly qap w in
      let q, _r = Polylib.Poly.div_rem_fast ctx p (Lazy.force qap.divisor) in
      let out = Array.make (qap.nc + 1) Fp.zero in
      Array.blit (Polylib.Poly.coeffs q) 0 out 0 (min (Polylib.Poly.degree q + 1) (qap.nc + 1));
      out)

(* ------------------------------------------------------------------ *)
(* Verifier side                                                       *)
(* ------------------------------------------------------------------ *)

type queries = {
  tau : Fp.el;
  d_tau : Fp.el;
  (* Evaluations indexed by variable 0..n; slices [1..num_z] are the oracle
     queries q_a, q_b, q_c; index 0 and the IO indices feed La, Lb, Lc. *)
  a_tau : Fp.el array;
  b_tau : Fp.el array;
  c_tau : Fp.el array;
  qd : Fp.el array; (* (1, tau, ..., tau^|C|) *)
}

(* Barycentric evaluation of all A_i, B_i, C_i and D at tau (§A.3):
     A_i(tau) = l(tau) * sum_j a_ij * v_j / (tau - sigma_j)
   with l(t) = prod_{j=0..nc} (t - sigma_j) and
   1/v_j = prod_{k<>j} (sigma_j - sigma_k) = j! (nc-j)! (-1)^(nc-j). *)
let queries qap ~tau : queries =
  let ctx = qap.ctx and sys = qap.sys and nc = qap.nc in
  let n = sys.R1cs.num_vars in
  let diffs = Array.init (nc + 1) (fun j -> Fp.sub ctx tau (Fp.of_int ctx j)) in
  if Array.exists Fp.is_zero diffs then raise Tau_collision;
  let inv_diffs = Fp.batch_inv ctx diffs in
  let ell = Array.fold_left (Fp.mul ctx) Fp.one diffs in
  (* factorials 0!..nc! *)
  let fact = Array.make (nc + 1) Fp.one in
  for j = 1 to nc do
    fact.(j) <- Fp.mul ctx fact.(j - 1) (Fp.of_int ctx j)
  done;
  let inv_v =
    Array.init (nc + 1) (fun j ->
        let m = Fp.mul ctx fact.(j) fact.(nc - j) in
        if (nc - j) land 1 = 1 then Fp.neg ctx m else m)
  in
  let v = Fp.batch_inv ctx inv_v in
  let weight = Array.init (nc + 1) (fun j -> Fp.mul ctx ell (Fp.mul ctx v.(j) inv_diffs.(j))) in
  let a_tau = Array.make (n + 1) Fp.zero in
  let b_tau = Array.make (n + 1) Fp.zero in
  let c_tau = Array.make (n + 1) Fp.zero in
  Array.iteri
    (fun jm1 (k : R1cs.constr) ->
      let wj = weight.(jm1 + 1) in
      let accumulate dst lc =
        List.iter
          (fun (i, coef) -> dst.(i) <- Fp.add ctx dst.(i) (Fp.mul ctx coef wj))
          (Lincomb.terms lc)
      in
      accumulate a_tau k.R1cs.a;
      accumulate b_tau k.R1cs.b;
      accumulate c_tau k.R1cs.c)
    sys.R1cs.constraints;
  let d_tau = Fp.mul ctx ell inv_diffs.(0) in
  let qd = Array.make (nc + 1) Fp.one in
  for i = 1 to nc do
    qd.(i) <- Fp.mul ctx qd.(i - 1) tau
  done;
  { tau; d_tau; a_tau; b_tau; c_tau; qd }

(* Slice the Z-region of an evaluation vector: the part sent to the pi_z
   oracle. *)
let z_slice qap (evals : Fp.el array) = Array.sub evals 1 qap.sys.R1cs.num_z

(* The verifier-computed input/output contribution: A'(tau) = A_0(tau) +
   sum_{i in IO} w_i A_i(tau); [io] holds the bound values of variables
   n'+1 .. n in order. Three field operations per input/output element
   (§A.3). *)
let io_contribution qap (evals : Fp.el array) (io : Fp.el array) =
  let ctx = qap.ctx and sys = qap.sys in
  let nio = R1cs.num_io sys in
  if Array.length io <> nio then invalid_arg "Qap.io_contribution: bad io length";
  let acc = ref evals.(0) in
  for i = 0 to nio - 1 do
    acc := Fp.add ctx !acc (Fp.mul ctx io.(i) evals.(sys.R1cs.num_z + 1 + i))
  done;
  !acc
