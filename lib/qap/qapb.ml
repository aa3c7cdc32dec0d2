(* Backend dispatch for the QAP encoding: the paper's arithmetic-progression
   construction (Qap, subproduct-tree prover) versus the roots-of-unity
   construction (Qap_ntt, NTT prover). The NTT path is the production
   default wherever the field supports it: [Auto] selects it iff the
   2-adicity of p-1 covers the padded domain size 2^ceil(log2 |C|).
   Mersenne-style fields (p127: 2-adicity 1) keep the Lagrange pipeline and
   its seed-identical transcripts.

   The two backends are distinct proof systems — interpolation points,
   divisor, H length and hence wire bytes all differ — so verifier and
   prover must be configured with the same backend; a mismatch surfaces as
   a query/commitment length session error, never a silent wrong answer. *)

open Fieldlib
open Constr

type backend = Auto | Ntt | Lagrange

let backend_to_string = function Auto -> "auto" | Ntt -> "ntt" | Lagrange -> "lagrange"

let backend_of_string = function
  | "auto" -> Some Auto
  | "ntt" -> Some Ntt
  | "lagrange" -> Some Lagrange
  | _ -> None

type t = L of Qap.t | N of Qap_ntt.t

exception Not_divisible = Qap_ntt.Not_divisible
exception Tau_collision = Qap.Tau_collision

(* Selection telemetry: which pipeline production runs actually took. *)
let c_ntt = Zobs.Counter.make "qap.backend.ntt"
let c_lagrange = Zobs.Counter.make "qap.backend.lagrange"

let log2_ceil n =
  let rec go p l = if p >= n then l else go (2 * p) (l + 1) in
  go 1 0

(* NTT viability: the padded domain 2^ceil(log2 |C|) must divide the
   2-adic torsion of the multiplicative group, with one bit to spare for
   the doubled product domain. *)
let ntt_viable field nc =
  Primes.two_adicity (Fp.modulus field) >= log2_ceil nc + 1

let of_r1cs ?(backend = Auto) (sys : R1cs.system) : t =
  let nc = R1cs.num_constraints sys in
  let pick_ntt =
    match backend with
    | Ntt ->
      if not (ntt_viable sys.R1cs.field nc) then
        invalid_arg "Qapb.of_r1cs: field 2-adicity too small for the NTT backend";
      true
    | Lagrange -> false
    | Auto -> nc > 0 && ntt_viable sys.R1cs.field nc
  in
  if pick_ntt then begin
    Zobs.Counter.incr c_ntt;
    N (Qap_ntt.of_r1cs sys)
  end
  else begin
    Zobs.Counter.incr c_lagrange;
    L (Qap.of_r1cs sys)
  end

let backend = function L _ -> Lagrange | N _ -> Ntt
let ctx = function L q -> q.Qap.ctx | N q -> q.Qap_ntt.ctx
let sys = function L q -> q.Qap.sys | N q -> q.Qap_ntt.sys
let nc = function L q -> q.Qap.nc | N q -> q.Qap_ntt.nc

(* Length of the h proof vector: |C|+1 coefficients for the Lagrange H
   (deg P_w - deg D <= |C|), n for the folded NTT quotient. *)
let h_len = function L q -> q.Qap.nc + 1 | N q -> q.Qap_ntt.n

(* Force one-time lazy structure (the packed subproduct tree, the
   middle-product kernel and node factors, the compiled rows, twiddle
   plans) so timed sections measure steady-state prover work. *)
let force_shared = function
  | L q ->
    ignore (Lazy.force q.Qap.deriv);
    ignore (Lazy.force q.Qap.interp);
    ignore (Lazy.force q.Qap.rows)
  | N _ -> ()

let prewarm = function
  | L _ as t -> force_shared t
  | N q ->
    Polylib.Ntt.prewarm q.Qap_ntt.ntt q.Qap_ntt.log_n;
    Polylib.Ntt.prewarm q.Qap_ntt.ntt (q.Qap_ntt.log_n + 1)

let satisfied t w =
  match t with L q -> R1cs.satisfied q.Qap.ctx q.Qap.sys w | N q -> Qap_ntt.satisfied q w

let prover_h t w =
  match t with L q -> Qap.prover_h q w | N q -> Qap_ntt.prover_h q w

let prover_h_forced t w =
  match t with L q -> Qap.prover_h_forced q w | N q -> Qap_ntt.prover_h_forced q w

let queries t ~tau =
  match t with L q -> Qap.queries q ~tau | N q -> Qap_ntt.queries q ~tau

let z_slice t evals = match t with L q -> Qap.z_slice q evals | N q -> Qap_ntt.z_slice q evals

let io_contribution t evals io =
  match t with
  | L q -> Qap.io_contribution q evals io
  | N q -> Qap_ntt.io_contribution q evals io
