(** The linear proof oracle pi = (pi_z, pi_h) (Zaatar, §3/§A.1) — or
    pi = (pi_1, pi_2) for the Ginger baseline (§2.2): a pair of linear
    functions determined by vectors, queried with vectors of matching
    length.

    In the full argument system the verifier never talks to an oracle
    directly — the commitment protocol (lib/commit) forces the prover to
    simulate one. The dishonest constructors below feed the soundness
    test-suite. *)

open Fieldlib

type t = {
  z_len : int;
  h_len : int;
  query_z : Fp.Rows.t -> int -> Fp.el;  (** [query_z q i] answers row [i] of [q] *)
  query_h : Fp.Rows.t -> int -> Fp.el;
}

val honest : Fp.ctx -> Fp.el array -> Fp.el array -> t
(** [honest ctx u_z u_h]: the linear functions [<., u_z>] and [<., u_h>].
    Packs [u_z] and [u_h] once; every answer is one {!Fp.Vec.dot} against
    a query row. A query matrix whose width differs from the vector's
    length raises [Invalid_argument]. *)

val wrong_vector : Fp.ctx -> Fp.el array -> Fp.el array -> t
(** A linear oracle for the wrong vector — still linear, caught by the
    divisibility test, not the linearity tests. *)

val nonlinear : Fp.ctx -> t -> t
(** Adds a query-dependent non-linear perturbation (the sum of squares of
    the row's elements) to [query_z]; caught by the linearity tests (and
    the commitment's consistency check). *)

val flaky : Fp.ctx -> t -> Chacha.Prg.t -> flake_prob_percent:int -> t
(** Garbles each answer independently with the given probability —
    failure-injection for the argument layer. *)
