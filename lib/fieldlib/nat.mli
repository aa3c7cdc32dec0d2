(** Arbitrary-precision natural numbers.

    The substrate the paper gets from GMP [2]; built from scratch here because
    the container has no bignum library. Values are immutable once returned.
    Representation: little-endian arrays of base-2^31 limbs, canonical (no
    high zero limbs); [zero] is the empty array. All arithmetic stays within
    OCaml's 63-bit native ints: a limb product plus carries is at most
    [2^62 - 1]. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [n]. Raises [Invalid_argument] on
    negative input. *)

val to_int : t -> int
(** Raises [Failure] if the value exceeds [max_int]. *)

val to_int_opt : t -> int option

val is_zero : t -> bool
val is_one : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val num_limbs : t -> int
val num_bits : t -> int
(** [num_bits zero = 0]; otherwise the index of the highest set bit plus 1. *)

val testbit : t -> int -> bool
val is_even : t -> bool

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; raises [Invalid_argument] otherwise. *)

val mul : t -> t -> t
(** Schoolbook below [karatsuba_threshold] limbs, Karatsuba above. *)

val mul_int : t -> int -> t
(** Multiplier must lie in [0, 2^31). *)

val sqr : t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = b*q + r] and [0 <= r < b] (Knuth TAOCP
    vol. 2 Algorithm D). Raises [Division_by_zero] if [b] is zero. *)

val divmod_int : t -> int -> t * int
(** Divisor must lie in [1, 2^31). *)

val pow_int : t -> int -> t
(** [pow_int b e] for small exponents; no modular reduction. *)

val of_hex : string -> t
val to_hex : t -> string
val of_decimal : string -> t
val to_decimal : t -> string

val of_bytes_sub : bytes -> int -> int -> t
(** [of_bytes_sub buf off len] reads the little-endian natural in
    [buf.[off .. off+len-1]] in one pass, allocating only the result.
    Raises [Invalid_argument] if the range lies outside [buf]. *)

val to_bytes_sub : t -> bytes -> int -> int -> unit
(** [to_bytes_sub n buf off len] writes [n] little-endian into
    [buf.[off .. off+len-1]], zero-padded to exactly [len] bytes, without
    allocating. Raises [Invalid_argument] if [n] needs more than [8*len]
    bits or the range lies outside [buf]. *)

val pp : Format.formatter -> t -> unit

(** {2 Tuning} *)

val set_karatsuba_threshold : int -> unit
(** Set the schoolbook/Karatsuba crossover (in limbs, >= 2). Swept by the
    bench ablation harness; the shipped default is the sweep winner. *)

val get_karatsuba_threshold : unit -> int

(** {2 Limb buffers}: plain little-endian [int array]s, high zero limbs
    allowed. *)

val of_limbs : int array -> t
(** Canonicalizing copy of a limb buffer. *)

val of_limbs_owned : int array -> t
(** [of_limbs] without the copy: the natural takes over the buffer, which
    the caller must not mutate afterwards. No allocation when the top
    limb is non-zero. *)

val limb : t -> int -> int
(** [limb n i]: the [i]-th base-2^31 limb of [n] ([i >= 0]), zero above
    the top. Allocation-free. *)
