(** Dense univariate polynomials over a prime field.

    The QAP prover needs interpolation, multiplication and exact division of
    degree-|C| polynomials (paper §A.3, "operations based on the FFT":
    interpolation [35], polynomial multiplication [21], polynomial
    division). Our M(n) is Karatsuba; division is by Newton iteration on the
    reversed divisor, giving the O(M(n) log n) profile the cost model's
    [3 f |C| log^2 |C|] term abstracts.

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

val eval : Fp.ctx -> t -> Fp.el -> Fp.el

val derivative : Fp.ctx -> t -> t

val div_rem : Fp.ctx -> t -> t -> t * t
(** Schoolbook long division; raises [Division_by_zero] on zero divisor. *)

val div_rem_fast : Fp.ctx -> t -> t -> t * t
(** Newton-iteration division (reverse, invert mod x^k, multiply). *)

val divide_exact : Fp.ctx -> t -> t -> t
(** Raises [Failure] if the remainder is non-zero — the prover-side guard
    that z really satisfies the constraints (Claim A.1). *)

val inv_mod_xk : Fp.ctx -> t -> int -> t
(** Power-series inverse mod [x^k]; constant term must be non-zero. *)

val random : Fp.ctx -> Chacha.Prg.t -> int -> t
(** Random polynomial of degree at most the given bound. *)

val pp : Fp.ctx -> Format.formatter -> t -> unit
