(* QAP over roots of unity: the modern alternative to the paper's
   arithmetic-progression interpolation points (ablation; see DESIGN.md).

   The paper fixes sigma_j = j and pays O(M(n) log n) subproduct-tree
   algebra for the prover's interpolate-multiply-divide pipeline (§A.3).
   Pinocchio-era systems instead put the constraints at the n-th roots of
   unity of an FFT-friendly field:

     - interpolation is a size-n inverse NTT,
     - the divisor is D(t) = t^n - 1, so the exact division
       H = P_w / D is coefficient folding: h_i = c_{n+i}, with the
       divisibility witness c_i + c_{n+i} = 0,
     - the verifier's barycentric weights collapse to
       A_i(tau) = (tau^n - 1)/n * sum_j a_ij * w^j / (tau - w^j).

   The |C| constraints are padded to n = 2^k with trivial 0 = 0 rows
   (satisfied by every assignment, so soundness is unaffected). This
   module mirrors Qap's prover/verifier entry points; the ablation bench
   compares the two prover pipelines, and the test-suite checks that both
   agree with the constraint semantics. *)

open Fieldlib
open Constr

type t = {
  ctx : Fp.ctx;
  ntt : Polylib.Ntt.ctx;
  sys : R1cs.system;
  nc : int; (* original |C| *)
  n : int; (* padded domain size, a power of two *)
  log_n : int;
  omega : Fp.el; (* primitive n-th root of unity *)
  domain : Fp.el array; (* w^0 .. w^(n-1) *)
  domain_v : Fp.Vec.t; (* the same, packed, for the verifier's queries *)
  mat_a : Qap.csr;
  mat_b : Qap.csr;
  mat_c : Qap.csr;
}

let next_pow2 n =
  let rec go p l = if p >= n then (p, l) else go (2 * p) (l + 1) in
  go 1 0

let of_r1cs (sys : R1cs.system) =
  let ctx = sys.R1cs.field in
  let ntt = Polylib.Ntt.create ctx in
  let nc = R1cs.num_constraints sys in
  if nc = 0 then invalid_arg "Qap_ntt.of_r1cs: empty system";
  let n, log_n = next_pow2 nc in
  let omega = Polylib.Ntt.root_of_order ntt log_n in
  let domain = Array.make n Fp.one in
  for j = 1 to n - 1 do
    domain.(j) <- Fp.mul ctx domain.(j - 1) omega
  done;
  let mat f = Qap.compile ctx (Array.map f sys.R1cs.constraints) in
  { ctx; ntt; sys; nc; n; log_n; omega; domain; domain_v = Fp.Vec.of_array ctx domain;
    mat_a = mat (fun k -> k.R1cs.a); mat_b = mat (fun k -> k.R1cs.b); mat_c = mat (fun k -> k.R1cs.c) }

(* ------------------------------------------------------------------ *)
(* Prover                                                              *)
(* ------------------------------------------------------------------ *)

(* Slots [0, nc) of [va], [vb] and [vc] get the A, B and C row
   evaluations at w: one sparse mat-vec each, counted as Lincomb.eval
   counts. *)
let eval_rows q (w : Fp.el array) va vb vc =
  if Array.length w <> q.sys.R1cs.num_vars + 1 then invalid_arg "Qap_ntt: bad assignment length";
  let wv = Fp.Vec.of_array q.ctx w and sc = Fp.scratch_for q.ctx in
  List.iter2 (fun m dst -> Qap.spmv q.ctx sc m wv dst) [ q.mat_a; q.mat_b; q.mat_c ] [ va; vb; vc ]

(* R1cs.satisfied on the packed rows: the same verdict and the same
   counted muls (the row terms, then one product per row up to the first
   violated row). *)
let satisfied q (w : Fp.el array) =
  let ctx = q.ctx and sc = Fp.scratch_for q.ctx and nc = q.nc in
  let a = Fp.Vec.create ctx nc and b = Fp.Vec.create ctx nc and c = Fp.Vec.create ctx nc in
  eval_rows q w a b c;
  if not (Fp.equal w.(0) Fp.one) then invalid_arg "Qap_ntt.satisfied: w0 must be 1";
  let rec go j =
    j >= nc || (Fp.Vec.mul ctx sc a j a j b j; Fp.Vec.sub ctx sc a j a j c j; Fp.Vec.is_zero a j && go (j + 1))
  in
  go 0

(* Boxed row evaluations over the padded domain, for the reference below. *)
let eval_rows_boxed q (row : R1cs.constr -> Lincomb.t) (w : Fp.el array) =
  let out = Array.make q.n Fp.zero in
  Array.iteri (fun j k -> out.(j) <- Lincomb.eval q.ctx (row k) w) q.sys.R1cs.constraints;
  out

exception Not_divisible

(* Packed coefficients of P_w = A*B - C on the doubled domain. A and B
   are evaluated and interpolated in the low halves of their 2n-slot
   product vectors (an n-slot view of the same arena), C in its own
   vector; two forwards, the pointwise product and one inverse follow.
   Slots [n, 2n) of the result are H; slots [0, n) must be the negated H
   when w satisfies the constraints. *)
let pw_packed q (w : Fp.el array) =
  let ctx = q.ctx in
  let sc = Fp.scratch_for ctx in
  let n = q.n in
  let n2 = 2 * n in
  let fa = Fp.Vec.create ctx n2 and fb = Fp.Vec.create ctx n2 and c = Fp.Vec.create ctx n in
  let lo_a = { fa with Fp.Vec.n } and lo_b = { fb with Fp.Vec.n } in
  eval_rows q w lo_a lo_b c;
  List.iter (Polylib.Ntt.inverse_vec q.ntt) [ lo_a; lo_b; c ];
  Polylib.Ntt.forward_vec q.ntt fa;
  Polylib.Ntt.forward_vec q.ntt fb;
  for i = 0 to n2 - 1 do
    Fp.Vec.mul ctx sc fa i fa i fb i
  done;
  Polylib.Ntt.inverse_vec q.ntt fa;
  (* P = AB - C; deg C < n touches only the low slots. *)
  for i = 0 to n - 1 do
    Fp.Vec.sub ctx sc fa i fa i c i
  done;
  fa

(* H = P_w / (t^n - 1) by coefficient folding; raises if the division is
   not exact (Claim A.1 analog: w does not satisfy the constraints). *)
let pw_coeffs q w = Polylib.Poly.of_coeffs (Fp.Vec.to_array (pw_packed q w))

let prover_h q (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap_ntt.prover_h" (fun () ->
      let ctx = q.ctx in
      let sc = Fp.scratch_for ctx in
      let n = q.n in
      let p = pw_packed q w in
      (* exactness: p_i + p_{n+i} = 0 for all i < n, checked in place *)
      for i = 0 to n - 1 do
        Fp.Vec.add ctx sc p i p i p (n + i);
        if not (Fp.Vec.is_zero p i) then raise Not_divisible
      done;
      Array.init n (fun i -> Fp.Vec.get p (n + i)))

let prover_h_forced q (w : Fp.el array) : Fp.el array =
  Zobs.Span.with_ ~name:"qap_ntt.prover_h_forced" (fun () ->
      let p = pw_packed q w in
      Array.init q.n (fun i -> Fp.Vec.get p (q.n + i)))

(* Differential reference for the packed fast path: subproduct-tree
   interpolation over the same roots-of-unity domain, boxed Karatsuba
   product, Newton division by t^n - 1. Bit-identical H by construction;
   the test-suite and the bench's ntt-vs-lagrange experiment compare the
   two. *)
let prover_h_reference q (w : Fp.el array) : Fp.el array =
  let ctx = q.ctx in
  let interp evals = Polylib.Subproduct.interpolate_points ctx q.domain evals in
  let a = interp (eval_rows_boxed q (fun k -> k.R1cs.a) w) in
  let b = interp (eval_rows_boxed q (fun k -> k.R1cs.b) w) in
  let c = interp (eval_rows_boxed q (fun k -> k.R1cs.c) w) in
  let p = Polylib.Poly.(sub ctx (mul ctx a b) c) in
  let d = Polylib.Poly.(sub ctx (monomial Fp.one q.n) one) in
  let h, r = Polylib.Poly.div_rem_fast ctx p d in
  if not (Polylib.Poly.is_zero r) then raise Not_divisible;
  let out = Array.make q.n Fp.zero in
  Array.blit (Polylib.Poly.coeffs h) 0 out 0 (Polylib.Poly.degree h + 1);
  out

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

exception Tau_collision = Qap.Tau_collision

(* The barycentric weights on packed slots: the same multiplications and
   the one inversion as the boxed formula, so op counts are unchanged, but
   elements are boxed only at the interface (tau in, the four query
   vectors out). *)
let queries q ~tau : Qap.queries =
  let ctx = q.ctx in
  let sc = Fp.scratch_for ctx in
  let n = q.n and nvars = q.sys.R1cs.num_vars in
  (* slots: 0 tau, 1 running product then running inverse, 2 scale, 3 temp *)
  let s = Fp.Vec.create ctx 4 in
  Fp.Vec.set s 0 tau;
  let diffs = Fp.Vec.create ctx n in
  for j = 0 to n - 1 do
    Fp.Vec.sub ctx sc diffs j s 0 q.domain_v j;
    if Fp.Vec.is_zero diffs j then raise Tau_collision
  done;
  (* Montgomery's batch inversion (as Fp.batch_inv): [inv] holds the
     prefix products, then 1 / (tau - w^j) in place. *)
  let inv = Fp.Vec.create ctx n in
  Fp.Vec.set s 1 Fp.one;
  for i = 0 to n - 1 do
    Fp.Vec.blit s 1 inv i 1;
    Fp.Vec.mul ctx sc s 1 s 1 diffs i
  done;
  Fp.Vec.set s 1 (Fp.inv ctx (Fp.Vec.get s 1));
  for i = n - 1 downto 0 do
    Fp.Vec.mul ctx sc inv i s 1 inv i;
    Fp.Vec.mul ctx sc s 1 s 1 diffs i
  done;
  let tau_n = Fp.pow_int ctx tau n in
  let d_tau = Fp.sub ctx tau_n Fp.one in
  let n_inv = Fp.inv ctx (Fp.of_int ctx n) in
  Fp.Vec.set s 2 (Fp.mul ctx d_tau n_inv);
  (* weight_j = (tau^n - 1)/n * w^j / (tau - w^j), in place over [inv] *)
  let weight = inv in
  for j = 0 to n - 1 do
    Fp.Vec.mul ctx sc weight j q.domain_v j weight j;
    Fp.Vec.mul ctx sc weight j s 2 weight j
  done;
  let a_tau = Fp.Vec.create ctx (nvars + 1) in
  let b_tau = Fp.Vec.create ctx (nvars + 1) in
  let c_tau = Fp.Vec.create ctx (nvars + 1) in
  Array.iteri
    (fun j (k : R1cs.constr) ->
      let accumulate dst lc =
        Lincomb.iter
          (fun i coef ->
            Fp.Vec.set s 3 coef;
            Fp.Vec.mul ctx sc s 3 s 3 weight j;
            Fp.Vec.add ctx sc dst i dst i s 3)
          lc
      in
      accumulate a_tau k.R1cs.a;
      accumulate b_tau k.R1cs.b;
      accumulate c_tau k.R1cs.c)
    q.sys.R1cs.constraints;
  let qd = Fp.Vec.create ctx n in
  Fp.Vec.set qd 0 Fp.one;
  for i = 1 to n - 1 do
    Fp.Vec.mul ctx sc qd i qd (i - 1) s 0
  done;
  {
    Qap.tau;
    d_tau;
    a_tau = Fp.Vec.to_array a_tau;
    b_tau = Fp.Vec.to_array b_tau;
    c_tau = Fp.Vec.to_array c_tau;
    qd = Fp.Vec.to_array qd;
  }

let z_slice q (evals : Fp.el array) = Array.sub evals 1 q.sys.R1cs.num_z

let io_contribution q (evals : Fp.el array) (io : Fp.el array) =
  let ctx = q.ctx and sys = q.sys in
  let nio = R1cs.num_io sys in
  if Array.length io <> nio then invalid_arg "Qap_ntt.io_contribution: bad io length";
  let acc = ref evals.(0) in
  for i = 0 to nio - 1 do
    acc := Fp.add ctx !acc (Fp.mul ctx io.(i) evals.(sys.R1cs.num_z + 1 + i))
  done;
  !acc
