(* Number-theoretic transform over fields with high 2-adicity.

   The paper's field is chosen only for size, so its prover uses
   arbitrary-point algorithms (our Subproduct). Modern QAP systems instead
   pick sigma_j as 2^k-th roots of unity so that interpolation is an inverse
   NTT and D(t) = t^n - 1. We implement that path as an ablation
   (bench `ablation`); see DESIGN.md §2. *)

open Fieldlib

(* Per-size packed transform plan: stage-major twiddle tables (stage [len]
   occupies indices [len/2 - 1, len - 2], entry j holding w_len^j) plus the
   packed 1/n, all in Montgomery form so every butterfly and every scaling
   is one REDC. Built once per (ctx, log_n) under the plan lock and then
   read-only, so concurrent domains can share one ctx. *)
type plan = {
  fwd_tw : Fp.Vec.t;
  inv_tw : Fp.Vec.t;
  n_inv : Fp.Vec.t; (* one slot *)
}

type ctx = {
  field : Fp.ctx;
  max_log : int; (* 2-adicity *)
  root : Fp.el; (* generator of the 2^max_log-order subgroup *)
  plans : (int, plan) Hashtbl.t;
  plans_lock : Mutex.t;
}

let create field =
  let max_log = Primes.two_adicity (Fp.modulus field) in
  let root = Primes.find_generator_of_two_power_subgroup field in
  { field; max_log; root; plans = Hashtbl.create 8; plans_lock = Mutex.create () }

let root_of_order t log_n =
  if log_n > t.max_log then invalid_arg "Ntt.root_of_order: order too large";
  let w = ref t.root in
  for _ = 1 to t.max_log - log_n do
    w := Fp.sqr t.field !w
  done;
  !w

let h_size = Zobs.Histogram.make "ntt.size"
let c_butterfly = Zobs.Counter.make "ntt.butterfly"

let rec log2_floor n = if n <= 1 then 0 else 1 + log2_floor (n lsr 1)

let log2_exact n =
  let rec go n l = if n = 1 then l else if n land 1 = 1 then invalid_arg "Ntt: size not a power of two" else go (n lsr 1) (l + 1) in
  go n 0

let build_plan t log_n =
  let f = t.field in
  let n = 1 lsl log_n in
  let mk root =
    let tw = Fp.Vec.create f (max 1 (n - 1)) in
    let len = ref 2 in
    while !len <= n do
      let half = !len / 2 in
      (* w_len = root^(n / len) *)
      let wlen = ref root in
      let m = ref n in
      while !m > !len do
        wlen := Fp.sqr f !wlen;
        m := !m / 2
      done;
      let wp = ref Fp.one in
      for j = 0 to half - 1 do
        Fp.Vec.set_mont f tw (half - 1 + j) !wp;
        wp := Fp.mul f !wp !wlen
      done;
      len := !len * 2
    done;
    tw
  in
  let w = root_of_order t log_n in
  let n_inv = Fp.Vec.create f 1 in
  Fp.Vec.set_mont f n_inv 0 (Fp.inv f (Fp.of_int f n));
  { fwd_tw = mk w; inv_tw = mk (Fp.inv f w); n_inv }

let plan_for t log_n =
  Mutex.lock t.plans_lock;
  let plan =
    match Hashtbl.find_opt t.plans log_n with
    | Some p -> p
    | None ->
      let p = build_plan t log_n in
      Hashtbl.add t.plans log_n p;
      p
  in
  Mutex.unlock t.plans_lock;
  plan

(* In-place packed radix-2 Cooley-Tukey over precomputed stage-major
   twiddles: one fused butterfly (a single counted mul, no allocation) per
   inner step, scratch from the calling domain's arena. *)
let prewarm t log_n = ignore (plan_for t log_n)

let transform_vec t (v : Fp.Vec.t) (tw : Fp.Vec.t) =
  let f = t.field in
  let sc = Fp.scratch_for f in
  let n = Fp.Vec.length v in
  Zobs.Histogram.observe h_size n;
  Zobs.Counter.add c_butterfly (n / 2 * log2_floor n);
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then Fp.Vec.swap sc v i !j;
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let tbase = half - 1 in
    let i = ref 0 in
    while !i < n do
      for k = 0 to half - 1 do
        Fp.Vec.butterfly f sc v (!i + k) (!i + k + half) tw (tbase + k)
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let forward_vec t (v : Fp.Vec.t) =
  let log_n = log2_exact (Fp.Vec.length v) in
  transform_vec t v (plan_for t log_n).fwd_tw

let inverse_vec t (v : Fp.Vec.t) =
  let log_n = log2_exact (Fp.Vec.length v) in
  let plan = plan_for t log_n in
  transform_vec t v plan.inv_tw;
  Fp.Vec.scale_all t.field (Fp.scratch_for t.field) v plan.n_inv 0

(* The boxed entry points run the packed transform on a copy. *)
let boxed t f (a : Fp.el array) =
  let v = Fp.Vec.of_array t.field a in
  f t v;
  Fp.Vec.to_array v

let forward t a = boxed t forward_vec a
let inverse t a = boxed t inverse_vec a

let next_pow2 n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 1

(* Polynomial multiplication by pointwise product in the evaluation
   domain. *)
let mul t (p : Poly.t) (q : Poly.t) : Poly.t =
  if Poly.is_zero p || Poly.is_zero q then Poly.zero
  else begin
    let f = t.field in
    let n = next_pow2 (Poly.degree p + Poly.degree q + 1) in
    let pad (x : Poly.t) =
      let v = Fp.Vec.create f n in
      Array.iteri (Fp.Vec.set v) (Poly.coeffs x);
      forward_vec t v;
      v
    in
    let fa = pad p and fb = pad q in
    let sc = Fp.scratch_for f in
    for i = 0 to n - 1 do
      Fp.Vec.mul f sc fa i fa i fb i
    done;
    inverse_vec t fa;
    Poly.of_coeffs (Fp.Vec.to_array fa)
  end
