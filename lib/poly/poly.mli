(** Dense univariate polynomials over a prime field.

    The QAP prover needs interpolation, multiplication and exact division of
    degree-|C| polynomials (paper §A.3, "operations based on the FFT":
    interpolation [35], polynomial multiplication [21], polynomial
    division). Our M(n) is Karatsuba, run on packed {!Fp.Vec} slices.
    Division is by a {!divisor}: the reciprocal of the reversed divisor is
    found once by Newton iteration, after which each quotient is one
    product of the dividend's top coefficients with it and each remainder
    one product with the divisor. The subproduct trees above this give
    the O(M(n) log n) profile the cost model's [3 f |C| log^2 |C|] term
    abstracts.

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

val constant : Fp.el -> t
val monomial : Fp.el -> int -> t
(** [monomial c k] is [c * x^k]. *)

val x_minus : Fp.ctx -> Fp.el -> t
val degree : t -> int
(** [-1] for the zero polynomial. *)

val is_zero : t -> bool
val equal : t -> t -> bool

val add : Fp.ctx -> t -> t -> t
val sub : Fp.ctx -> t -> t -> t
val neg : Fp.ctx -> t -> t
val scale : Fp.ctx -> Fp.el -> t -> t
val shift : t -> int -> t
(** Multiply by [x^k]. *)

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
(** Division through a {!divisor} built for this one dividend. *)

val inv_mod_xk : Fp.ctx -> t -> int -> t
(** Power-series inverse mod [x^k] by Newton iteration; constant term
    must be non-zero. *)

(** {2 Division by a fixed divisor} *)

type divisor
(** A divisor d, packed, with R = rev(d)^-1 mod x^prec, the reciprocal
    of its reversal: it divides any dividend of degree below
    [deg d + prec]. *)

val divisor : Fp.ctx -> t -> int -> divisor
(** [divisor ctx d prec] runs the Newton iteration for R once. Raises
    [Division_by_zero] on zero [d]. *)

val divisor_poly : divisor -> t

val div_rem_by : Fp.ctx -> divisor -> t -> t * t
(** Quotient and remainder by {!quotient_slices} and
    {!remainder_slices}. Raises [Invalid_argument] beyond the
    reciprocal's precision. *)

val divide_exact : Fp.ctx -> divisor -> t -> t
(** The quotient of {!div_rem_by}; raises [Failure] if the remainder is
    non-zero — the prover-side guard that z really satisfies the
    constraints (Claim A.1). *)

val div_workspace : divisor -> int -> int
(** Workspace slots both kernels below need for an [lp]-coefficient
    dividend. *)

val quotient_slices :
  Fp.ctx -> Fp.scratch -> divisor -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> Fp.Vec.t -> int -> int
(** [quotient_slices ctx sc dv p po lp q qo ws wo]: slots [[qo, qo+k)]
    of [q] get the quotient of the dividend slice [(p, po, lp)], where
    k = lp - deg d (none when lp <= deg d); returns its trimmed length. The top k
    coefficients of the dividend, reversed, are multiplied by R truncated
    to k, and the low k coefficients of that product are the reversed
    quotient. Uses slots from [wo] of [ws]. *)

val remainder_slices :
  Fp.ctx -> Fp.scratch -> divisor -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> int -> Fp.Vec.t -> int -> int
(** [remainder_slices ctx sc dv p po lp q qo lq ws wo]: slots
    [[wo, wo+lp)] of [ws] get [p - d q]; returns its trimmed length (0
    when d divides p). The slots above are workspace. *)

val random : Fp.ctx -> Chacha.Prg.t -> int -> t
(** Random polynomial of degree at most the given bound. *)

val pp : Fp.ctx -> Format.formatter -> t -> unit
