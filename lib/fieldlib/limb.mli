(** Packed limb buffers: flat off-heap [Bigarray] arenas of base-2^31 limbs
    holding many fixed-width numbers side by side. The substrate of the
    zero-allocation field kernels ({!Fp.Vec}, the packed NTT butterflies,
    the Pippenger bucket arena): the GC sees one custom block instead of a
    boxed [int array] per element. All kernels are offset/width-addressed
    and allocation-free; only the {!to_nat} boundary codec allocates. *)

type a = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> a
(** Zero-filled buffer of [n] limbs. *)

val length : a -> int
val get : a -> int -> int
val set : a -> int -> int -> unit
val fill : a -> int -> int -> int -> unit
(** [fill b off w v] sets [b.(off .. off+w-1)] to [v]. *)

val clear : a -> int -> int -> unit

val blit : a -> int -> a -> int -> int -> unit
(** [blit src so dst dso w]; handles overlapping slices of one buffer. *)

val cmp : a -> int -> a -> int -> int -> int
(** Compare two [w]-limb slices as little-endian naturals. *)

val is_zero_slice : a -> int -> int -> bool

val add : a -> int -> a -> int -> a -> int -> int -> int
(** [add dst dso x xo y yo w] sets [dst <- x + y] over [w] limbs and
    returns the carry out. [dst] may alias either input slice. *)

val sub : a -> int -> a -> int -> a -> int -> int -> int
(** [sub dst dso x xo y yo w] sets [dst <- x - y mod 2^(31w)] and returns
    the borrow out. Aliasing as {!add}. *)

val mul : a -> int -> a -> int -> int -> a -> int -> int -> unit
(** [mul dst dso x xo wa y yo wb]: full schoolbook product into
    [dst.(dso .. dso+wa+wb-1)]. The destination slice must not overlap
    either input slice. *)

val mul_low : a -> int -> a -> int -> int -> a -> int -> int -> int -> unit
(** [mul_low dst dso x xo wa y yo wb wout]: only the low [wout] limbs of
    the product (the [mod B^k] steps of Barrett and REDC). Same overlap
    rule as {!mul}. *)

val of_nat : Nat.t -> a -> int -> int -> unit
(** Write a natural into a [w]-limb slice, zero-padded; raises if it does
    not fit. *)

val to_nat : a -> int -> int -> Nat.t
(** Read a [w]-limb slice back as a canonical natural. *)
