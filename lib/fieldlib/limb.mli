(** Packed limb buffers: flat [bytes] arenas of base-2^31 limbs, one
    native int64 word each, holding many fixed-width numbers side by side.
    The substrate of the zero-allocation field kernels ({!Fp.Vec}, the
    packed NTT butterflies, the query matrices, the Pippenger bucket
    arena): the GC sees one opaque block, never scanned, instead of a
    boxed [int array] per element. All kernels are offset/width-addressed
    and allocation-free; only the {!to_nat} boundary codec allocates. *)

type a = bytes
(** Limb [i] is the native-endian int64 at byte [8i]; access it through
    {!get} and {!set}. *)

val create : int -> a
(** Zero-filled buffer of [n] limbs. *)

val get : a -> int -> int
val set : a -> int -> int -> unit
val clear : a -> int -> int -> unit

val blit : a -> int -> a -> int -> int -> unit
(** [blit src so dst dso w]; handles overlapping slices of one buffer. *)

val cmp : a -> int -> a -> int -> int -> int
(** Compare two [w]-limb slices as little-endian naturals. *)

val is_zero_slice : a -> int -> int -> bool

val load_bytes : bytes -> int -> int -> a -> int -> int -> bool
(** [load_bytes b bo nb dst lo w] reads the [nb]-byte little-endian
    natural at [b.[bo]] into the [w]-limb slot at [dst.(lo)]. Returns
    [false] when it needs more than [31w] bits; the slot then holds the
    low [31w] bits. Allocation-free; raises [Invalid_argument] on a range
    outside either buffer. *)

val store_bytes : a -> int -> int -> bytes -> int -> int -> unit
(** [store_bytes src lo w b bo nb] writes the [w]-limb slot as [nb]
    little-endian bytes, zero-padded; raises [Invalid_argument] if it does
    not fit. The same routine as {!load_bytes}, run the other way. *)

val of_nat : Nat.t -> a -> int -> int -> unit
(** Write a natural into a [w]-limb slice, zero-padded; raises if it does
    not fit. *)

val to_nat : a -> int -> int -> Nat.t
(** Read a [w]-limb slice back as a canonical natural. *)
