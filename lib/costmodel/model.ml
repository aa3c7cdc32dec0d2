(* Figure 3, executable: the closed-form CPU cost model for both Zaatar and
   Ginger, parameterized by the measured microbenchmarks (Params.t) and the
   encoding statistics produced by the compiler.

   The paper uses this model two ways, and so do we:
   (1) to *estimate* Ginger's costs at scales where running it is
       infeasible (|u_ginger| is quadratic; §5.1: "we use estimates, rather
       than empirics, because the computations would be too expensive under
       Ginger");
   (2) to validate Zaatar empirics ("the empirical CPU costs are 5-15%
       larger than the model's predictions").  *)

type sizes = {
  z_ginger : int; (* |Z_ginger| *)
  c_ginger : int; (* |C_ginger| *)
  z_zaatar : int;
  c_zaatar : int;
  k : int; (* additive terms in C_ginger *)
  k2 : int; (* distinct degree-2 terms *)
  n_x : int; (* |x| *)
  n_y : int; (* |y| *)
  t_local : float; (* T: running time of Psi, seconds *)
}

type protocol_params = { rho : int; rho_lin : int }

let log2 x = log (float_of_int (max 2 x)) /. log 2.0

let fi = float_of_int

(* ---- proof vector sizes (first rows of Figure 3) ---- *)

let u_ginger s = s.z_ginger + (s.z_ginger * s.z_ginger)
let u_zaatar s = s.z_zaatar + s.c_zaatar + 1

(* NTT-backend sizes (DESIGN.md §13): the constraints are padded to the
   power-of-two domain n, so the h vector has n coefficients (vs |C|+1)
   and the proof vector is |Z| + n. [h_len]/[u_len] abstract over the
   backend: [ntt_domain = Some n] is the roots-of-unity pipeline,
   [None] the paper's arithmetic-progression pipeline. *)
let log2i n =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) (m lsr 1) in
  go 0 n

let h_len ~ntt_domain s =
  match ntt_domain with Some n -> n | None -> s.c_zaatar + 1

let u_len ~ntt_domain s = s.z_zaatar + h_len ~ntt_domain s

(* Exact butterfly count of the packed prover_h pipeline: three size-n
   inverse NTTs (interpolation) plus three size-2n transforms (product),
   each size-m transform performing (m/2) log2 m butterflies. *)
let ntt_butterflies n = (3 * (n / 2) * log2i n) + (3 * n * (log2i n + 1))

(* Field multiplications of the same pipeline: one per butterfly, plus the
   1/m scaling of each inverse (3n + 2n) and the 2n pointwise products. *)
let ntt_muls n = ntt_butterflies n + (7 * n)

(* ---- prover ---- *)

type prover_costs = { construct_u : float; issue_responses : float; total_p : float }

(* The commit/answer pipeline does not pay [h] once per proof-vector
   term: the DESIGN.md §8 kernels (fixed-base windows, Shamir,
   Pippenger bucketing) share one squaring chain across the whole
   vector. Model the effect as the op-count ratio of an n-term
   multi-exponentiation with b-bit exponents — independent ladders cost
   1.5*n*b group multiplications, bucket aggregation (b/c)*(n + 2^c)
   with c ~ log2 n — the same arithmetic [Montgomery.multi_pow]
   implements and the multiexp experiment measures (~5-10x at bench
   sizes). *)
let multiexp_speedup ~bits n =
  let c = max 1 (log2i (max 2 n)) in
  let ladder = 1.5 *. fi n *. fi bits in
  let bucketed = fi bits /. fi c *. (fi n +. fi (1 lsl c)) in
  Float.max 1.0 (ladder /. bucketed)

let zaatar_prover ?(ntt_domain : int option) ?(exp_bits = 127) (p : Params.t)
    (pp : protocol_params) s =
  let ell' = (6 * pp.rho_lin) + 4 in
  let construct_u =
    match ntt_domain with
    | None ->
      (* Subproduct-tree interpolate-multiply-divide: O(|C| log^2 |C|). *)
      s.t_local +. (3.0 *. p.Params.f *. fi s.c_zaatar *. (log2 s.c_zaatar ** 2.0))
    | Some n ->
      (* NTT pipeline: ~4.5 n log n + 10 n multiplications (see ntt_muls),
         each a packed REDC product priced as one butterfly. *)
      s.t_local +. (p.Params.f_packed *. fi (ntt_muls n))
  in
  let u = u_len ~ntt_domain s in
  (* The rho*l'+1 answers per proof-vector entry are split-column lazy
     dots (DESIGN.md §13), one f_lazy per term, as the op audit's
     answer_queries row counts them; the Ginger prover answers through
     the same oracle. *)
  let issue_responses =
    ((p.Params.h /. multiexp_speedup ~bits:exp_bits u)
    +. ((fi (pp.rho * ell') +. 1.0) *. p.Params.f_lazy))
    *. fi u
  in
  { construct_u; issue_responses; total_p = construct_u +. issue_responses }

let ginger_prover (p : Params.t) (pp : protocol_params) s =
  let ell = (3 * pp.rho_lin) + 2 in
  let construct_u = s.t_local +. (p.Params.f *. fi (s.z_ginger * s.z_ginger)) in
  let issue_responses =
    (p.Params.h +. ((fi (pp.rho * ell) +. 1.0) *. p.Params.f_lazy)) *. fi (u_ginger s)
  in
  { construct_u; issue_responses; total_p = construct_u +. issue_responses }

(* ---- verifier ---- *)

type verifier_costs = {
  specific_per_batch : float; (* computation-specific query construction *)
  oblivious_per_batch : float; (* computation-oblivious query construction *)
  process_per_instance : float;
}

let zaatar_verifier (p : Params.t) (pp : protocol_params) s =
  let ell' = (6 * pp.rho_lin) + 4 in
  let specific =
    fi pp.rho
    *. (p.Params.c
       +. ((p.Params.f_div +. (5.0 *. p.Params.f)) *. fi s.c_zaatar)
       +. (p.Params.f *. fi s.k)
       +. (3.0 *. p.Params.f *. fi s.k2))
  in
  let oblivious =
    (p.Params.e +. (2.0 *. p.Params.c)
    +. (fi pp.rho *. ((2.0 *. fi pp.rho_lin *. p.Params.c) +. (fi ell' *. p.Params.f))))
    *. fi (u_zaatar s)
  in
  let process =
    p.Params.d +. (fi pp.rho *. fi (ell' + (3 * s.n_x) + (3 * s.n_y)) *. p.Params.f)
  in
  { specific_per_batch = specific; oblivious_per_batch = oblivious; process_per_instance = process }

let ginger_verifier (p : Params.t) (pp : protocol_params) s =
  let ell = (3 * pp.rho_lin) + 2 in
  let specific =
    fi pp.rho *. ((p.Params.c *. fi s.c_ginger) +. (p.Params.f *. fi s.k))
  in
  let oblivious =
    (p.Params.e +. (2.0 *. p.Params.c)
    +. (fi pp.rho *. ((2.0 *. fi pp.rho_lin *. p.Params.c) +. (fi (ell + 1) *. p.Params.f))))
    *. fi (u_ginger s)
  in
  let process =
    p.Params.d +. (fi pp.rho *. fi ((2 * ell) + s.n_x + s.n_y) *. p.Params.f)
  in
  { specific_per_batch = specific; oblivious_per_batch = oblivious; process_per_instance = process }

(* ---- break-even batch size (§2.2): the smallest beta at which verifying
   the batch beats executing it locally. ---- *)

let breakeven (v : verifier_costs) ~t_local : int option =
  let setup = v.specific_per_batch +. v.oblivious_per_batch in
  let margin = t_local -. v.process_per_instance in
  if margin <= 0.0 then None else Some (max 1 (int_of_float (ceil (setup /. margin))))

let zaatar_breakeven p pp s = breakeven (zaatar_verifier p pp s) ~t_local:s.t_local
let ginger_breakeven p pp s = breakeven (ginger_verifier p pp s) ~t_local:s.t_local

(* ---- op-level audit (Zledger) ----

   Figure 3 written as *counts* instead of seconds: closed-form predictions
   for how many of each primitive operation every protocol phase performs,
   cross-checked against the live op ledger (Zobs.Ledger). This is the
   paper's 5-15% claim pushed down one level — where a wall-clock delta can
   hide compensating errors, an op-count delta cannot.

   Structural counts (e per batch, d per instance, c draws) follow exactly
   from the protocol shape, so their bands are tight. f-rows get wider
   documented bands: the model's closed forms are asymptotic (construct_u's
   3|C|log^2|C|) while the implementation has concrete constants, and some
   kernels intentionally beat the model (batch_inv folds the predicted
   rho*|C| divisions per repetition into one inversion — kept as an
   ungated informational row). DESIGN.md §12 documents every band. *)

type audit_row = {
  phase : string;
  op : string;
  predicted : float;
  ledgered : int;
  ratio : float; (* ledgered / predicted; 1.0 when both are zero *)
  lo : float;
  hi : float; (* documented acceptance band on [ratio] *)
  gated : bool; (* false = informational, never fails the audit *)
  pass : bool;
  note : string;
}

let row ~phase ~op ~predicted ~ledgered ~band:(lo, hi) ~gated ~note =
  let ratio =
    if predicted = 0.0 then if ledgered = 0 then 1.0 else infinity
    else float_of_int ledgered /. predicted
  in
  { phase; op; predicted; ledgered; ratio; lo; hi; gated; pass = ratio >= lo && ratio <= hi; note }

(* Commit-phase op counts, per batch of [beta] instances: the verifier
   encrypts r once per proof-vector element (e = |u| exactly), the prover
   answers with one homomorphic accumulate step per nonzero u entry
   (h <= beta * |u|, with equality for dense u). Pure crypto: the
   commit phase performs no PCP-field multiplications at all. *)
type commit_ops = { e_count : int; h_count : int; f_count : int }

let commit_phase_ops s ~beta =
  let u = u_zaatar s in
  { e_count = u; h_count = beta * u; f_count = 0 }

let zaatar_op_audit ?(ntt_domain : int option) (pp : protocol_params) s ~beta
    ~(ledger : string -> Zobs.Ledger.phase option) : audit_row list =
  let n' = s.z_zaatar in
  let hl = h_len ~ntt_domain s in
  let u = u_len ~ntt_domain s in
  let ell' = (6 * pp.rho_lin) + 4 in
  let nzq = pp.rho * ((3 * pp.rho_lin) + 3) in
  let nhq = pp.rho * ((3 * pp.rho_lin) + 1) in
  let ops name =
    match ledger name with Some p -> p.Zobs.Ledger.ops | None -> Zobs.Ledger.zero_ops
  in
  let setup = ops "verifier_setup" in
  let per = ops "verifier_per_instance" in
  let construct = ops "construct_u" in
  let crypto = ops "crypto_ops" in
  let answer = ops "answer_queries" in
  [
    (* Verifier setup, amortized over the batch (Figure 3 "issue queries"). *)
    row ~phase:"verifier_setup" ~op:"e" ~predicted:(fi u) ~ledgered:setup.Zobs.Ledger.e
      ~band:(1.0, 1.0) ~gated:true ~note:"Enc(r): one encryption per proof-vector element";
    row ~phase:"verifier_setup" ~op:"c"
      ~predicted:(fi (2 + (2 * u) + (2 * pp.rho * pp.rho_lin * u) + pp.rho + (pp.rho * ell')))
      ~ledgered:setup.Zobs.Ledger.c ~band:(1.0, 1.01) ~gated:true
      ~note:"keygen + r,k draws + linearity queries + tau + alpha (retries add <1%)";
    row ~phase:"verifier_setup" ~op:"f"
      ~predicted:
        (fi ((nzq * n') + (nhq * hl))
        +.
        match ntt_domain with
        | None -> fi pp.rho *. fi ((5 * s.c_zaatar) + s.k + (3 * s.k2))
        | Some n ->
          (* collapsed barycentric weights: batch_inv (~3n) + weights (2n)
             + qd powers (n) + per-term accumulation (~3|C|) *)
          fi pp.rho *. fi ((6 * n) + (3 * s.c_zaatar)))
      ~ledgered:setup.Zobs.Ledger.f ~band:(0.2, 3.0) ~gated:true
      ~note:"t = r + sum alpha_i q_i accumulation + query construction (model constants)";
    row ~phase:"verifier_setup" ~op:"f_div" ~predicted:(fi (pp.rho * s.c_zaatar))
      ~ledgered:setup.Zobs.Ledger.f_div ~band:(0.0, 1.0) ~gated:false
      ~note:"batch_inv folds the model's rho*|C| divisions into ~1 inversion per repetition";
    (* Verifier per-instance processing. *)
    row ~phase:"verifier_per_instance" ~op:"d" ~predicted:(fi (2 * beta))
      ~ledgered:per.Zobs.Ledger.d ~band:(1.0, 1.0) ~gated:true
      ~note:"two consistency checks (= rearranged decryptions) per instance";
    row ~phase:"verifier_per_instance" ~op:"f_lazy" ~predicted:(fi (beta * (nzq + nhq)))
      ~ledgered:per.Zobs.Ledger.f_lazy ~band:(0.9, 1.0) ~gated:true
      ~note:"<alpha, a> dots; zero answers only remove terms";
    row ~phase:"verifier_per_instance" ~op:"f"
      ~predicted:(fi (beta * pp.rho * (2 + (3 * (s.n_x + s.n_y)))))
      ~ledgered:per.Zobs.Ledger.f ~band:(0.2, 3.0) ~gated:true
      ~note:"divisibility test + io contributions (model: rho(ell'+3nx+3ny) per instance)";
    (* Prover: construct the proof vector. On the Lagrange pipeline the
       closed form is asymptotic while the implementation is concrete (the
       known Figure-5 outlier, ROADMAP item 3), so its band is wide. The
       NTT pipeline's op count is near-exact (4.5 n log n + 10 n counted
       multiplications plus the sparse row evaluations), so its band is an
       order of magnitude tighter. *)
    (match ntt_domain with
    | None ->
      row ~phase:"construct_u" ~op:"f"
        ~predicted:(fi beta *. 3.0 *. fi s.c_zaatar *. (log2 s.c_zaatar ** 2.0))
        ~ledgered:(construct.Zobs.Ledger.f + construct.Zobs.Ledger.f_lazy) ~band:(0.02, 20.0)
        ~gated:true
        ~note:"H(t) interpolation vs 3|C|log^2|C|: the Figure-5 outlier, now visible in ops"
    | Some n ->
      row ~phase:"construct_u" ~op:"f"
        ~predicted:(fi (beta * ntt_muls n))
        ~ledgered:(construct.Zobs.Ledger.f + construct.Zobs.Ledger.f_lazy) ~band:(0.2, 3.0)
        ~gated:true
        ~note:"packed NTT prover_h: 4.5 n log n + 10 n muls plus sparse row evaluations");
    (* NTT butterflies are bulk-counted per transform, so this row is
       exact; the Lagrange pipeline must perform none at all. *)
    row ~phase:"construct_u" ~op:"butterfly"
      ~predicted:(match ntt_domain with None -> 0.0 | Some n -> fi (beta * ntt_butterflies n))
      ~ledgered:construct.Zobs.Ledger.butterfly ~band:(1.0, 1.0) ~gated:true
      ~note:
        (match ntt_domain with
        | None -> "the Lagrange pipeline performs no NTT butterflies"
        | Some _ -> "3 size-n inverse + 3 size-2n transforms, (m/2) log2 m butterflies each");
    (* Prover: commit (the crypto phase). *)
    row ~phase:"crypto_ops" ~op:"h" ~predicted:(fi (2 * beta * u)) ~ledgered:crypto.Zobs.Ledger.h
      ~band:(0.2, 1.0) ~gated:true
      ~note:"one accumulate per nonzero u entry, two commitments per instance; sparsity only shrinks it";
    row ~phase:"crypto_ops" ~op:"f" ~predicted:0.0 ~ledgered:crypto.Zobs.Ledger.f
      ~band:(1.0, 1.0) ~gated:true ~note:"the commit phase performs no PCP-field multiplications";
    (* Prover: answer the queries. *)
    row ~phase:"answer_queries" ~op:"f_lazy"
      ~predicted:(fi (beta * (((nzq + 1) * n') + ((nhq + 1) * hl))))
      ~ledgered:answer.Zobs.Ledger.f_lazy ~band:(0.2, 1.01) ~gated:true
      ~note:"pi(q) = <q, u> dots over dense queries; zero u entries only remove terms";
  ]

let audit_pass rows = List.for_all (fun r -> (not r.gated) || r.pass) rows

(* Sizes from a compiled computation plus a measured local time. *)
let sizes_of_stats (st : Zlang.Compile.stats) ~n_x ~n_y ~t_local =
  {
    z_ginger = st.Zlang.Compile.z_ginger;
    c_ginger = st.Zlang.Compile.c_ginger;
    z_zaatar = st.Zlang.Compile.z_zaatar;
    c_zaatar = st.Zlang.Compile.c_zaatar;
    k = st.Zlang.Compile.k;
    k2 = st.Zlang.Compile.k2;
    n_x;
    n_y;
    t_local;
  }
