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
