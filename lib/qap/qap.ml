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

type t = {
  ctx : Fp.ctx;
  sys : R1cs.system;
  nc : int; (* |C| *)
  divisor : Polylib.Poly.divisor Lazy.t; (* prover side only *)
  interp : Polylib.Subproduct.interpolator Lazy.t; (* prover side only *)
  rows : (csr * csr * csr) Lazy.t; (* prover side only *)
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

let of_r1cs (sys : R1cs.system) =
  let ctx = sys.R1cs.field in
  let nc = R1cs.num_constraints sys in
  if nc = 0 then invalid_arg "Qap.of_r1cs: empty system";
  if Nat.compare (Nat.of_int (nc + 1)) (Fp.modulus ctx) >= 0 then
    invalid_arg "Qap.of_r1cs: field smaller than the number of constraints";
  (* The product tree over sigma_0..sigma_nc: its root is M(t) = t D(t). *)
  let tree = lazy (Polylib.Subproduct.build ctx (Array.init (nc + 1) (Fp.of_int ctx))) in
  let divisor =
    lazy
      (let m = Polylib.Poly.coeffs (Polylib.Subproduct.root_poly ctx (Lazy.force tree)) in
       Polylib.Poly.divisor ctx (Polylib.Poly.of_coeffs (Array.sub m 1 (nc + 1))) (nc + 1))
  in
  let interp =
    lazy
      (let weights = Fp.batch_inv ctx (inv_weights ctx nc) in
       Polylib.Subproduct.interpolator ~weights ctx (Lazy.force tree))
  in
  let rows =
    lazy
      (let mat f = compile ctx (Array.map f sys.R1cs.constraints) in
       (mat (fun k -> k.R1cs.a), mat (fun k -> k.R1cs.b), mat (fun k -> k.R1cs.c)))
  in
  { ctx; sys; nc; divisor; interp; rows }

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

(* P_w = A B - C on packed slices, all in one arena [v] of n = nc + 1
   slots per interpolant: slots [0, 3n) are A, B and C, first their
   evaluations at sigma_0..sigma_nc (the three sparse mat-vecs, slot 0 of
   each left 0), then their coefficients after one combine over the
   tree; slots [3n, 5n) get P. Returns the arena, P's trimmed length and
   the workspace, which the division reuses. *)
let pw_packed qap (w : Fp.el array) =
  let ctx = qap.ctx and sc = Fp.scratch_for qap.ctx in
  let ip = Lazy.force qap.interp and dv = Lazy.force qap.divisor in
  let ma, mb, mc = Lazy.force qap.rows in
  let n = qap.nc + 1 in
  let v = Fp.Vec.create ctx (5 * n) in
  let ws =
    Fp.Vec.create ctx
      (List.fold_left max qap.nc
         [ Polylib.Subproduct.space ip; Polylib.Poly.workspace n n; Polylib.Poly.div_workspace dv ((2 * n) - 1) ])
  in
  let wv = Fp.Vec.of_array ctx w in
  List.iteri
    (fun t m ->
      spmv ctx sc m wv ws;
      Fp.Vec.blit ws 0 v ((t * n) + 1) qap.nc)
    [ ma; mb; mc ];
  let l = Polylib.Subproduct.interpolate_slices ctx sc ip v 3 ws 0 in
  let p = 3 * n in
  let lab = Polylib.Poly.mul_slices ctx sc v 0 l.(0) v n l.(1) v p ws 0 in
  Fp.Vec.clear v (p + lab) ((2 * n) - lab);
  for i = 0 to l.(2) - 1 do
    Fp.Vec.sub ctx sc v (p + i) v (p + i) v ((2 * n) + i)
  done;
  (v, p, Polylib.Poly.top v p (max lab l.(2)), ws)

(* P_w(t) = A(t)B(t) - C(t), unpacked. *)
let pw_poly qap (w : Fp.el array) =
  let v, p, lp, _ = pw_packed qap w in
  Polylib.Poly.of_coeffs (Array.init lp (fun i -> Fp.Vec.get v (p + i)))

(* H = P_w / D by the cached reciprocal, into slots [0, k) of [v] (A's,
   no longer needed); H boxed and padded to length |C|+1. With [exact],
   the remainder P_w - D H must be zero (Claim A.1) or [Failure] is
   raised. *)
let quotient qap ~exact (w : Fp.el array) : Fp.el array =
  let ctx = qap.ctx and sc = Fp.scratch_for qap.ctx in
  let dv = Lazy.force qap.divisor in
  let v, p, lp, ws = pw_packed qap w in
  let lq = Polylib.Poly.quotient_slices ctx sc dv v p lp v 0 ws 0 in
  if exact && Polylib.Poly.remainder_slices ctx sc dv v p lp v 0 lq ws 0 <> 0 then
    failwith "Qap.prover_h: non-zero remainder";
  let out = Array.make (qap.nc + 1) Fp.zero in
  for i = 0 to lq - 1 do
    out.(i) <- Fp.Vec.get v i
  done;
  out

(* Coefficients of H = P_w / D, padded to length |C|+1. Raises [Failure] if
   w does not satisfy the constraints (non-zero remainder, Claim A.1). *)
let prover_h qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h" (fun () -> quotient qap ~exact:true w)

(* What a cheating prover would do with an unsatisfying assignment: divide
   and silently discard the remainder. Used by the adversarial test suite
   and the soundness bench. Span name deliberately distinct from
   [prover_h]'s: the bench's ntt-vs-lagrange experiment and ablation
   traces key off qap.prover_h being the honest pipeline only. *)
let prover_h_forced qap (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap.prover_h_forced" (fun () -> quotient qap ~exact:false w)

(* Differential reference for [prover_h], sharing none of its algorithms:
   boxed row evaluations, interpolation by the Lagrange basis M(t)/(t -
   sigma_j) with weights from the direct products prod_{k<>j} (j - k),
   schoolbook product and schoolbook long division by a D built factor
   by factor. No Karatsuba, no Newton iteration, no cached reciprocal;
   quadratic in |C|. *)
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
