(** Dense univariate polynomials over a prime field.

    The QAP prover needs interpolation, multiplication and derivatives of
    degree-|C| polynomials (paper §A.3, "operations based on the FFT":
    interpolation [35], polynomial multiplication [21]). Our M(n) is
    Karatsuba, run on packed {!Fp.Vec} slices, and its transpose, the
    middle product against a fixed {!kernel}, gives the Lagrange prover
    every node's derivative at the cost of one n x n product. The
    subproduct trees above this give the O(M(n) log n) profile the cost
    model's [3 f |C| log^2 |C|] term abstracts.

    Representation: arrays of coefficients, lowest degree first, canonical
    (no trailing zero coefficients); the zero polynomial is the empty
    array. *)

open Fieldlib

type t = private Fp.el array

val zero : t
val one : t
val of_coeffs : Fp.el array -> t
(** Copies and trims. *)

val coeffs : t -> Fp.el array
(** Fresh copy of the canonical coefficients. *)

val coeff : t -> int -> Fp.el
(** Zero beyond the degree. *)

val monomial : Fp.el -> int -> t
(** [monomial c k] is [c * x^k]. *)

val x_minus : Fp.ctx -> Fp.el -> t
val degree : t -> int
(** [-1] for the zero polynomial. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val add : Fp.ctx -> t -> t -> t
val sub : Fp.ctx -> t -> t -> t

val mul : Fp.ctx -> t -> t -> t
(** Karatsuba above 32 coefficients, schoolbook below, run on packed
    {!Fp.Vec} slices; a leaf is one {!Fp.Vec.convolve}, which reduces
    each output coefficient once. Counts one [fp.mul_lazy] per leaf
    product of two nonzero coefficients. *)

val mul_schoolbook : Fp.ctx -> t -> t -> t
(** Exposed for cross-checking and the ablation bench. *)

(** {2 Packed slices}

    An operand is a slice (vector, offset, length) of an {!Fp.Vec} whose
    length is trimmed as a boxed [t] is: its last slot is nonzero. *)

val top : Fp.Vec.t -> int -> int -> int
(** [top v o n]: the length of slots [[o, o+n)] with the trailing zero
    slots trimmed. *)

val workspace : int -> int -> int
(** Workspace slots {!mul_slices} needs for operands of these lengths. *)

val mul_slices :
  Fp.ctx -> Fp.scratch -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> Fp.Vec.t -> int -> int
(** [mul_slices ctx sc a ao la b bo lb d dof ws wo]: slots
    [[dof, dof+la+lb-1)] of [d] get the product that {!mul} computes, with
    the same splits and counts; returns that length, or 0, writing
    nothing, when an operand is empty. Slots from [wo] of [ws] are free
    workspace ({!workspace} of them); [d] and [ws] may be the operands'
    vectors if the ranges do not overlap. *)

val eval : Fp.ctx -> t -> Fp.el -> Fp.el

val derivative : Fp.ctx -> t -> t

val div_rem : Fp.ctx -> t -> t -> t * t
(** Schoolbook long division; raises [Division_by_zero] on zero divisor. *)

val div_rem_fast : Fp.ctx -> t -> t -> t * t
(** Division by one Newton iteration for the reversed divisor's
    reciprocal, then two products. *)

val inv_mod_xk : Fp.ctx -> t -> int -> t
(** Power-series inverse mod [x^k] by Newton iteration; constant term
    must be non-zero. *)

(** {2 Middle products against a fixed kernel} *)

type kernel
(** A window y of 2n - 1 coefficients, packed once with zero padding to
    the size the transposed Karatsuba recursion halves. *)

val kernel : Fp.ctx -> Fp.el array -> kernel
(** [kernel ctx y] for [y] of 2n - 1 coefficients. Raises
    [Invalid_argument] on an even or empty window. *)

val kernel_size : int -> int
(** The padded size N >= n of a kernel for n: its window has 2N - 1
    slots. *)

val middle_workspace : kernel -> int
(** Workspace slots {!middle_slices} needs. *)

val middle_slices : Fp.ctx -> Fp.scratch -> kernel -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> Fp.Vec.t -> int -> unit
(** [middle_slices ctx sc k x xo lx d dof ws wo]: slots [[dof, dof+n)] of
    [d] get the middle product [sum_i x_i y_(j+n-1-i)], j < n, of the
    slice [(x, xo, lx)], lx <= n, zero-padded to n, with the kernel's
    window y: coefficients n-1 .. 2n-2 of x y. Three half-size middle
    products a node down to leaves below 32 coefficients, each one
    {!Fp.Vec.convolve_mid} over the n x n pairs that reach the outputs,
    counted as it counts. Slots from [wo] of [ws] ({!middle_workspace} of
    them) are workspace; [d] must not overlap [x] or them. *)

val random : Fp.ctx -> Chacha.Prg.t -> int -> t
(** Random polynomial of degree at most the given bound. *)

val pp : Fp.ctx -> Format.formatter -> t -> unit
