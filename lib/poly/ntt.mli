(** Number-theoretic transform over fields whose multiplicative group has
    high 2-adicity. The paper's field is chosen only for size, so its
    prover uses arbitrary-point algorithms ({!Subproduct}); this module
    implements the modern alternative (roots of unity as interpolation
    points) used by the ablation bench and {!Qap_ntt}. *)

open Fieldlib

type ctx

val create : Fp.ctx -> ctx
(** The field's 2-adicity bounds the largest transform size. *)

val root_of_order : ctx -> int -> Fp.el
(** A primitive 2^log_n-th root of unity; raises [Invalid_argument] beyond
    the field's 2-adicity. *)

val forward : ctx -> Fp.el array -> Fp.el array
(** In natural order; length must be a power of two. {!forward_vec} on a
    packed copy. *)

val inverse : ctx -> Fp.el array -> Fp.el array
(** {!inverse_vec} on a packed copy. *)

val prewarm : ctx -> int -> unit
(** [prewarm t log_n] builds and caches the size-2^log_n twiddle plan so a
    later timed [forward_vec]/[inverse_vec] pays no one-time setup. *)

val forward_vec : ctx -> Fp.Vec.t -> unit
(** In-place packed transform over precomputed stage-major twiddle tables
    in Montgomery form (cached per size in the ctx, thread-safe): one REDC
    and one counted field mul per butterfly, no per-element allocation.
    The production prover path. *)

val inverse_vec : ctx -> Fp.Vec.t -> unit
(** In-place packed inverse, including the 1/n scaling. *)

val mul : ctx -> Poly.t -> Poly.t -> Poly.t
(** Polynomial product by pointwise multiplication in the evaluation
    domain, on the packed transforms. *)

val next_pow2 : int -> int
