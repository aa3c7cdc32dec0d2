(** Subproduct trees: fast multipoint evaluation and interpolation over
    arbitrary points (von zur Gathen & Gerhard ch. 10) — the engine behind
    the QAP prover's "FFT-based" interpolation (§A.3) when the sigma_j are
    an arbitrary arithmetic progression rather than roots of unity. *)

open Fieldlib

type tree

val build : Fp.ctx -> Fp.el array -> tree
(** Product tree over (x - s_i); points need not be distinct, but
    interpolation requires distinctness. *)

val root_poly : Fp.ctx -> tree -> Poly.t
(** prod_i (x - s_i) — e.g. the divisor D(t) over sigma_1..sigma_|C|. *)

val eval_all : Fp.ctx -> Poly.t -> tree -> Fp.el array
(** Remainder-tree multipoint evaluation, in point order. *)

val interpolate_points : Fp.ctx -> Fp.el array -> Fp.el array -> Poly.t
(** The unique polynomial of degree < n through (s_i, v_i). *)

type interpolator
(** The tree's node products packed in one {!Fp.Vec} arena, with the
    barycentric weights 1/M'(s_i); the QAP prover interpolates A, B and C
    over the same points, so this is built once. *)

val weights : Fp.ctx -> tree -> Fp.el array
(** 1/M'(s_i) for M the root polynomial, by {!eval_all} of M' and one
    batch inversion: what {!interpolator} computes without [~weights]. *)

val interpolator : ?weights:Fp.el array -> Fp.ctx -> tree -> interpolator
(** [~weights] are the 1/M'(s_i) in point order, when the caller has a
    closed form for them. Raises [Invalid_argument] unless there is one
    per point. *)

val prepare : Fp.ctx -> Fp.el array -> interpolator
(** [interpolator] of the tree {!build} makes over the points. *)

val interpolate_with : Fp.ctx -> interpolator -> Fp.el array -> Poly.t

val space : interpolator -> int
(** Workspace slots {!interpolate_slices} needs. *)

val interpolate_slices : Fp.ctx -> Fp.scratch -> interpolator -> Fp.Vec.t -> int -> Fp.Vec.t -> int -> int array
(** [interpolate_slices ctx sc ip v m ws wo]: for each t < m, slots
    [[t n, (t+1) n)] of [v] hold the values at the n points on entry and
    the interpolant's coefficients, zero-padded, on exit; returns the m
    trimmed lengths. One combine over the tree serves all m: each node
    takes two {!Poly.mul_slices} per interpolant, the products and the
    counts of {!Poly.mul} on the boxed recursion's operands. Slots from
    [wo] of [ws] ({!space} of them) are workspace. *)
