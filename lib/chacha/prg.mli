(** Pseudorandom generator over the ChaCha20 keystream.

    Both parties derive the PCP queries pseudorandomly from a short seed
    ([53, Apdx A.3]); the verifier additionally uses the PRG for its secret
    randomness. A [t] is a buffered keystream position; [split] derives an
    independent stream (fresh nonce) so that sub-protocols cannot consume
    each other's randomness. *)

type t

val create : ?nonce:int -> seed:string -> unit -> t
(** [seed] is hashed/padded to the 32-byte ChaCha key. *)

val of_key : Chacha20.key -> nonce:int -> t

val split : t -> t
(** A fresh, independent stream derived from this one. *)

val bytes : t -> int -> bytes
(** Next [n] keystream bytes. *)

val byte : t -> int
val bits64 : t -> int
(** 62 uniform bits as a non-negative int. *)

val int_below : t -> int -> int
(** Uniform in [0, n), n > 0, by rejection. *)

val bool : t -> bool

val field : Fieldlib.Fp.ctx -> t -> Fieldlib.Fp.el
(** Uniform field element by rejection sampling; the paper's cost [c]. *)

val field_into : Fieldlib.Fp.ctx -> t -> Fieldlib.Fp.Vec.t -> int -> unit
(** [field_into ctx t v i]: {!field} written into slot [i] of a packed
    vector — the same keystream bytes, the same rejections, one
    [prg.field] count, no allocation. *)

val field_nonzero : Fieldlib.Fp.ctx -> t -> Fieldlib.Fp.el
val field_array : Fieldlib.Fp.ctx -> t -> int -> Fieldlib.Fp.el array
