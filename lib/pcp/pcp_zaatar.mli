(** The QAP-based linear PCP of Figure 10.

    A correct proof oracle encodes (z, h), where z satisfies C(X=x, Y=y)
    and h holds the coefficients of H = P_w / D. Per repetition the
    verifier runs rho_lin linearity-test iterations against each of the two
    oracles, then the divisibility correction test, whose evaluation
    queries q_a, q_b, q_c, q_d are blinded by self-correction
    (q1 = q_a + q5, ..., q4 = q_d + q8).

    Queries are explicit vectors, the rows of two packed {!Fp.Rows}
    matrices, so the argument layer can push the very same rows through
    the commitment protocol and the wire; {!decide} then consumes the
    prover's responses. *)

open Fieldlib

type params = { rho : int; rho_lin : int }

val paper_params : params
(** §A.2: rho_lin = 20, rho = 8 — soundness error kappa^rho < 9.6e-7 with
    kappa = 0.177. *)

val test_params : params
(** rho = 1, rho_lin = 2: cheap parameters for completeness tests and
    per-repetition rejection measurements. *)

val num_queries : params -> int
(** rho * (6 rho_lin + 4): the paper's rho * l'. *)

type repetition = {
  lin_z : (int * int * int) array;
  lin_h : (int * int * int) array;
  iq1 : int;
  iq2 : int;
  iq3 : int;
  iq4 : int;
  iblind_z : int;
  iblind_h : int;
  qap_q : Qapb.queries;
}

type queries = {
  z_queries : Fp.Rows.t; (** rows of width n' *)
  h_queries : Fp.Rows.t; (** rows of width |C|+1 *)
  reps : repetition array;
}

val gen_queries : ?params:params -> Qapb.t -> Chacha.Prg.t -> queries
(** Verifier side; resamples tau internally on {!Qapb.Tau_collision}.
    Rows are drawn through the PRG straight into the packed matrices. *)

type responses = { z_resp : Fp.el array; h_resp : Fp.el array }

val answer : Oracle.t -> queries -> responses
(** Prover side: one field element per query, in query order. *)

type verdict = Accept | Reject_linearity of int | Reject_divisibility of int

val decide : Qapb.t -> queries -> responses -> io:Fp.el array -> verdict
(** [io] holds the claimed input/output values (variables n'+1 .. n in
    order); the verifier folds them into L_a, L_b, L_c itself. *)

val accepts : verdict -> bool

val run : ?params:params -> Qapb.t -> Chacha.Prg.t -> Oracle.t -> io:Fp.el array -> verdict
(** Convenience end-to-end run against an oracle (no commitment layer). *)
