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
   §A.3), found without division from its values H(j) = P_w'(j) / D'(j)
   at D's simple roots and one interpolation. The verifier-side entry
   point is [queries], which evaluates every A_i, B_i, C_i and D at a
   random tau via barycentric Lagrange weights (§A.3). Neither side ever
   materializes P(t, W). *)

open Fieldlib
open Constr

(* One constraint matrix (A, B or C) in compressed rows for
   [Fp.Vec.spmv]: row j's terms are [ptr.(j), ptr.(j+1)), each an index
   [var lsl 2 lor tag] (tag 1: coefficient +1, 2: -1, 0: the next slot of
   [coef], in Montgomery form). *)
type csr = { ptr : int array; idx : int array; coef : Fp.Vec.t }

let compile ctx (rows : Lincomb.t array) =
  let ptr = Array.make (Array.length rows + 1) 0 in
  Array.iteri (fun j lc -> ptr.(j + 1) <- ptr.(j) + Lincomb.num_terms lc) rows;
  let terms = List.concat_map Lincomb.terms (Array.to_list rows) in
  let m1 = Fp.neg ctx Fp.one in
  let tag c = if Fp.equal c Fp.one then 1 else if Fp.equal c m1 then 2 else 0 in
  let general = List.filter (fun (_, c) -> tag c = 0) terms in
  let coef = Fp.Vec.create ctx (List.length general) in
  List.iteri (fun i (_, c) -> Fp.Vec.set_mont ctx coef i c) general;
  { ptr; idx = Array.of_list (List.map (fun (v, c) -> (v lsl 2) lor tag c) terms); coef }

let spmv ctx sc m x dst = Fp.Vec.spmv ctx sc ~ptr:m.ptr ~idx:m.idx m.coef x dst

(* The prover's constants besides the tree: the middle products' kernel
   1/d, d = -|C|..|C| (1/0 := 0), the weights v_j = 1/M'(j), and the
   factors j and e_j = j v_j (H_j - H_(|C|-j)) of H(j), H_k harmonic. *)
type deriv = { kernel : Polylib.Poly.kernel; v : Fp.Vec.t; js : Fp.Vec.t; es : Fp.Vec.t }

type t = {
  ctx : Fp.ctx;
  sys : R1cs.system;
  nc : int; (* |C| *)
  deriv : deriv Lazy.t; (* prover side only *)
  interp : Polylib.Subproduct.interpolator Lazy.t; (* prover side only *)
  rows : (csr * csr * csr) Lazy.t;
}

exception Tau_collision
(* tau hit one of the sigma_j (probability (|C|+1)/|F|); the caller
   resamples. *)

(* 1/v_j = prod_{k<>j} (sigma_j - sigma_k) = j! (nc-j)! (-1)^(nc-j) for
   sigma_j = j, j = 0..nc: the factorials come from the two-operation
   recurrence. *)
let inv_weights ctx nc =
  let fact = Array.make (nc + 1) Fp.one in
  for j = 1 to nc do
    fact.(j) <- Fp.mul ctx fact.(j - 1) (Fp.of_int ctx j)
  done;
  Array.init (nc + 1) (fun j ->
      let m = Fp.mul ctx fact.(j) fact.(nc - j) in
      if (nc - j) land 1 = 1 then Fp.neg ctx m else m)

let deriv ctx nc v =
  let inv = Fp.batch_inv ctx (Array.init nc (fun d -> Fp.of_int ctx (d + 1))) in
  let kernel =
    Array.init ((2 * nc) + 1) (fun i ->
        let d = i - nc in
        if d > 0 then inv.(d - 1) else if d < 0 then Fp.neg ctx inv.(-d - 1) else Fp.zero)
  in
  let harm = Array.make (nc + 1) Fp.zero in
  for k = 1 to nc do
    harm.(k) <- Fp.add ctx harm.(k - 1) inv.(k - 1)
  done;
  let js = Array.init (nc + 1) (Fp.of_int ctx) in
  let es = Array.mapi (fun j x -> Fp.mul ctx (Fp.mul ctx x v.(j)) (Fp.sub ctx harm.(j) harm.(nc - j))) js in
  let vec = Fp.Vec.of_array ctx in
  { kernel = Polylib.Poly.kernel ctx kernel; v = vec v; js = vec js; es = vec es }

let of_r1cs (sys : R1cs.system) =
  let ctx = sys.R1cs.field in
  let nc = R1cs.num_constraints sys in
  if nc = 0 then invalid_arg "Qap.of_r1cs: empty system";
  if Nat.compare (Nat.of_int (nc + 1)) (Fp.modulus ctx) >= 0 then
    invalid_arg "Qap.of_r1cs: field smaller than the number of constraints";
  let weights = lazy (Fp.batch_inv ctx (inv_weights ctx nc)) in
  let deriv = lazy (deriv ctx nc (Lazy.force weights)) in
  let interp =
    lazy
      (Polylib.Subproduct.interpolator ~weights:(Lazy.force weights) ctx
         (Polylib.Subproduct.build ctx (Array.init (nc + 1) (Fp.of_int ctx))))
  in
  let rows =
    lazy
      (let mat f = compile ctx (Array.map f sys.R1cs.constraints) in
       (mat (fun k -> k.R1cs.a), mat (fun k -> k.R1cs.b), mat (fun k -> k.R1cs.c)))
  in
  { ctx; sys; nc; deriv; interp; rows }

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

(* P_w(t) = A(t)B(t) - C(t), interpolated and multiplied boxed. *)
let pw_poly qap (w : Fp.el array) =
  let ctx = qap.ctx and ip = Lazy.force qap.interp in
  let side row = Polylib.Subproduct.interpolate_with ctx ip (eval_rows ctx row qap.sys qap.nc w) in
  let a = side (fun k -> k.R1cs.a) and b = side (fun k -> k.R1cs.b) in
  Polylib.Poly.(sub ctx (mul ctx a b) (side (fun k -> k.R1cs.c)))

(* H from its values: with A(0) = B(0) = C(0) = 0, P = A B - C = D H
   gives H(0) = 0 and, at D's simple roots, H(j) = P'(j) / D'(j). At a
   node A'(j) = S_A(j) / v_j + A(j) (H_j - H_(nc-j)), where S_A(j) =
   sum_(i<>j) v_i A(i) / (j - i) is a middle product of the weighted
   values with the kernel 1/d; and 1/D'(j) = j v_j. So
   H(j) = j (S_A B + A S_B - S_C)(j) + e_j (2AB - C)(j). One arena of
   7n + 3 slots: A, B and C's values in [0, 3n) (slot 0 of each 0), one
   side's weighted values in [3n, 4n), the S in [4n, 7n), three
   temporaries.
   H(j) overwrites A(j), and one interpolation turns [0, n) into H. With
   [exact], the node check A(j)B(j) = C(j), j >= 1 — D | P_w, as D's
   roots are simple (Claim A.1) — must hold or [Failure] is raised. *)
let h_of_values qap ~exact (w : Fp.el array) : Fp.el array =
  let ctx = qap.ctx and sc = Fp.scratch_for qap.ctx in
  let dv = Lazy.force qap.deriv and ip = Lazy.force qap.interp in
  let ma, mb, mc = Lazy.force qap.rows in
  let nc = qap.nc in
  let n = nc + 1 in
  let v = Fp.Vec.create ctx ((7 * n) + 3) in
  let ws =
    Fp.Vec.create ctx
      (List.fold_left max nc [ Polylib.Subproduct.space ip; Polylib.Poly.middle_workspace dv.kernel ])
  in
  let wv = Fp.Vec.of_array ctx w in
  List.iteri
    (fun t m ->
      let x = t * n and u = 3 * n in
      spmv ctx sc m wv ws;
      Fp.Vec.blit ws 0 v (x + 1) nc;
      for i = 1 to nc do
        Fp.Vec.mul ctx sc v (u + i) v (x + i) dv.v i
      done;
      Polylib.Poly.middle_slices ctx sc dv.kernel v u (Polylib.Poly.top v u n) v ((t + 4) * n) ws 0)
    [ ma; mb; mc ];
  let t0 = 7 * n in
  let t1 = t0 + 1 and t2 = t0 + 2 in
  for j = 1 to nc do
    let b = n + j and c = (2 * n) + j and sa = (4 * n) + j in
    Fp.Vec.mul ctx sc v t0 v j v b;
    Fp.Vec.sub ctx sc v t1 v t0 v c;
    if exact && not (Fp.Vec.is_zero v t1) then failwith "Qap.prover_h: non-zero remainder";
    Fp.Vec.add ctx sc v t0 v t0 v t1;
    Fp.Vec.mul ctx sc v t0 v t0 dv.es j;
    Fp.Vec.mul ctx sc v t1 v sa v b;
    Fp.Vec.mul ctx sc v t2 v j v (sa + n);
    Fp.Vec.add ctx sc v t1 v t1 v t2;
    Fp.Vec.sub ctx sc v t1 v t1 v (sa + (2 * n));
    Fp.Vec.mul ctx sc v t1 v t1 dv.js j;
    Fp.Vec.add ctx sc v j v t1 v t0
  done;
  let l = (Polylib.Subproduct.interpolate_slices ctx sc ip v 1 ws 0).(0) in
  Array.init n (fun i -> if i < l then Fp.Vec.get v i else Fp.zero)

(* Coefficients of H = P_w / D, padded to length |C|+1. Raises [Failure] if
   w does not satisfy the constraints (D does not divide P_w, Claim A.1). *)
let prover_h qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h" (fun () -> h_of_values qap ~exact:true w)

(* What a cheating prover would do with an unsatisfying assignment: skip
   the node check and interpolate the same values. Used by the adversarial
   test suite and the soundness bench. Span name deliberately distinct from
   [prover_h]'s: the bench's ntt-vs-lagrange experiment and ablation
   traces key off qap.prover_h being the honest pipeline only. *)
let prover_h_forced qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h_forced" (fun () -> h_of_values qap ~exact:false w)

(* Differential reference for [prover_h], sharing none of its algorithms:
   boxed row evaluations, interpolation by the Lagrange basis M(t)/(t -
   sigma_j) with weights from the direct products prod_{k<>j} (j - k),
   schoolbook product and schoolbook long division by a D built factor
   by factor. No Karatsuba, no middle product, no derivatives; quadratic
   in |C|. *)
let prover_h_reference qap (w : Fp.el array) : Fp.el array =
  let ctx = qap.ctx and nc = qap.nc in
  let n = nc + 1 in
  let sigma = Array.init n (Fp.of_int ctx) in
  (* m = prod_j (t - sigma_j), lowest degree first, n + 1 coefficients *)
  let times_linear (p : Fp.el array) s =
    Array.init (Array.length p + 1) (fun i ->
        let hi = if i > 0 then p.(i - 1) else Fp.zero in
        let lo = if i < Array.length p then Fp.mul ctx s p.(i) else Fp.zero in
        Fp.sub ctx hi lo)
  in
  let m = Array.fold_left times_linear [| Fp.one |] sigma in
  let weight j =
    let acc = ref Fp.one in
    Array.iteri (fun k s -> if k <> j then acc := Fp.mul ctx !acc (Fp.sub ctx sigma.(j) s)) sigma;
    !acc
  in
  let v = Fp.batch_inv ctx (Array.init n weight) in
  let sides =
    List.map
      (fun row -> Array.mapi (fun j y -> Fp.mul ctx y v.(j)) (eval_rows ctx row qap.sys nc w))
      [ (fun k -> k.R1cs.a); (fun k -> k.R1cs.b); (fun k -> k.R1cs.c) ]
  in
  let acc = List.map (fun _ -> Array.make n Fp.zero) sides in
  for j = 0 to nc do
    (* basis = m / (t - sigma_j) by synthetic division *)
    let basis = Array.make n Fp.zero in
    basis.(n - 1) <- m.(n);
    for i = n - 2 downto 0 do
      basis.(i) <- Fp.add ctx m.(i + 1) (Fp.mul ctx sigma.(j) basis.(i + 1))
    done;
    List.iter2
      (fun c a -> Array.iteri (fun i b -> a.(i) <- Fp.add ctx a.(i) (Fp.mul ctx c.(j) b)) basis)
      sides acc
  done;
  let poly = Polylib.Poly.of_coeffs in
  let a, b, c = match List.map poly acc with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let p = Polylib.Poly.(sub ctx (mul_schoolbook ctx a b) c) in
  let d = poly (Array.fold_left times_linear [| Fp.one |] (Array.sub sigma 1 nc)) in
  let h, r = Polylib.Poly.div_rem ctx p d in
  if not (Polylib.Poly.is_zero r) then failwith "Qap.prover_h_reference: non-zero remainder";
  let out = Array.make n Fp.zero in
  Array.blit (Polylib.Poly.coeffs h) 0 out 0 (Polylib.Poly.degree h + 1);
  out

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
  let v = Fp.batch_inv ctx (inv_weights ctx nc) in
  let weight = Array.init (nc + 1) (fun j -> Fp.mul ctx ell (Fp.mul ctx v.(j) inv_diffs.(j))) in
  (* a_tau = A^T (weight_1..weight_nc) by the compiled rows' transposed
     mat-vec, one counted mul per term as the boxed sum counted. *)
  let sc = Fp.scratch_for ctx and ma, mb, mc = Lazy.force qap.rows in
  let wv = Fp.Vec.of_array ctx (Array.sub weight 1 nc) and dst = Fp.Vec.create ctx (n + 1) in
  let side m =
    Fp.Vec.spmv_t ctx sc ~ptr:m.ptr ~idx:m.idx m.coef wv dst;
    Fp.Vec.to_array dst
  in
  let a_tau = side ma in
  let b_tau = side mb in
  let c_tau = side mc in
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
