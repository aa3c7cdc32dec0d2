(** Sparse linear combinations over constraint variables.

    Variable indexing convention used across the whole system: index [0] is
    the constant-one pseudo-variable w_0 (Appendix A.1); real variables are
    [1..n]. An assignment is an array of length [n+1] whose slot 0 holds
    [1], so evaluation is a sparse dot product against it. *)

open Fieldlib

type t

val zero : t
val is_zero : t -> bool

val of_var : int -> t
(** The combination [1 * w_v]. *)

val of_const : Fp.el -> t
(** A constant, stored as a coefficient of variable 0. *)

val const_part : t -> Fp.el
val coeff : t -> int -> Fp.el

val add_term : Fp.ctx -> t -> int -> Fp.el -> t
(** [add_term ctx t v c] adds [c * w_v]; cancelled terms are dropped so the
    representation stays canonical. *)

val add : Fp.ctx -> t -> t -> t
val scale : Fp.ctx -> Fp.el -> t -> t
val neg : Fp.ctx -> t -> t
val sub : Fp.ctx -> t -> t -> t

val is_const : t -> bool
val as_const : t -> Fp.el option

val terms : t -> (int * Fp.el) list
(** Sorted by variable index; includes the index-0 constant if present. *)

val iter : (int -> Fp.el -> unit) -> t -> unit
(** The terms of {!terms}, in the same order, without building the list. *)

val num_terms : t -> int

val eval : Fp.ctx -> t -> Fp.el array -> Fp.el
(** Evaluate under an assignment (slot 0 must hold 1). *)

val map_vars : (int -> int) -> t -> t
(** Renumber variables; the mapping must be injective on the support. *)

val max_var : t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
