(** Prime fields F_p.

    The PCP protocols, the QAP construction and the commitment all work over
    a large prime field (§5.1 of the paper uses 128-bit and 220-bit prime
    moduli). A [ctx] carries the modulus, the Barrett constant of the boxed
    API and the {!Montgomery} context of the packed kernels; elements are
    canonical naturals in [0, p). *)

type ctx

type tag = Field | Group
(** Which cost ledger a context's operations land in: [Field] contexts bump
    the Figure-3 [fp.mul] / [fp.mul_lazy] / [fp.inv] counters, [Group]
    contexts (the ElGamal group modulus) bump the [fp.*.group] variants so
    group-side residue arithmetic never pollutes the field-op ledger. *)

type el = Nat.t
(** Always reduced: [0 <= el < modulus ctx]. *)

val create : ?tag:tag -> Nat.t -> ctx
(** [create p] builds a context for modulus [p]. [p] must be odd and at
    least 3; primality is the caller's responsibility (see {!Primes}).
    [tag] defaults to [Field]. *)

val modulus : ctx -> Nat.t

val mont : ctx -> Montgomery.ctx
(** The REDC context every packed product runs on; a group over the same
    modulus shares it instead of building its own. *)

val bits : ctx -> int
(** Bit length of the modulus. *)

val num_bytes : ctx -> int
(** Bytes needed to hold any canonical element — the fixed element width of
    the Zwire codec. *)

val zero : el
val one : el

val of_nat : ctx -> Nat.t -> el
(** Reduce an arbitrary natural modulo p. *)

val of_int : ctx -> int -> el
(** Accepts negative integers (mapped to [p - |n| mod p]). *)

val to_nat : el -> Nat.t
val to_int_opt : el -> int option

val to_signed_int : ctx -> el -> int option
(** Interpret elements in [(p/2, p)] as negative; [None] if out of native
    range. Used to read back integer outputs of compiled computations. *)

val equal : el -> el -> bool
val is_zero : el -> bool

val add : ctx -> el -> el -> el
val sub : ctx -> el -> el -> el
val neg : ctx -> el -> el
val mul : ctx -> el -> el -> el
val sqr : ctx -> el -> el
val mul_lazy : ctx -> el -> el -> Nat.t
(** Product without the final reduction; the paper's [f_lazy]
    microbenchmark. Combine with {!reduce}. *)

val reduce : ctx -> Nat.t -> el
(** Barrett-reduce a value < p^2 (more generally < 2^(62k) for a k-limb p). *)

val inv : ctx -> el -> el
(** Modular inverse by the extended Euclidean algorithm. Raises
    [Division_by_zero] on zero. *)

val inv_fermat : ctx -> el -> el
(** Inverse as [a^(p-2)]; kept as an ablation/cross-check of {!inv}. *)

val div : ctx -> el -> el -> el

val batch_inv : ctx -> el array -> el array
(** Montgomery's trick: n inverses for one [inv] and 3(n-1) multiplications.
    Raises [Division_by_zero] if any element is zero. *)

val pow : ctx -> el -> Nat.t -> el
val pow_int : ctx -> el -> int -> el

val dot : ctx -> el array -> el array -> el
(** Boxed inner product with lazy reduction: one reduction per partial-sum
    overflow window rather than per term; counts one [fp.mul_lazy] per
    term whose operands are both nonzero. The reference for the packed
    {!Vec.dot}, which answers the prover's queries; boxed callers are the
    verifier's <alpha, a> over the group order and the QAP checks. *)

val sample : ctx -> (int -> bytes) -> el
(** [sample ctx random_bytes] draws a uniform element by rejection. Each
    round calls [random_bytes n] and reads the first [n] bytes of the
    buffer it returns, masking the top one in place, so a source may hand
    back one reused scratch buffer. *)

val to_string : el -> string
val pp : Format.formatter -> el -> unit

(** {2 Packed elements}

    Zero-allocation kernels over flat {!Limb} arenas. Slots hold
    canonical residues; every product is the group's fused CIOS REDC
    ({!Montgomery.redc_into}); only precomputed constants are kept in
    Montgomery form ({!Vec.set_mont}). A {!scratch} holds the modulus,
    the lazy dot's Barrett constant, the REDC accumulator, one product
    slot and {!Vec.convolve}'s 26-bit operand copies; every packed
    operation threads one through explicitly. Ownership discipline: a
    scratch belongs to exactly one domain — obtain it via {!scratch_for}
    (domain-local, cached per context), never share one across [Dompool]
    workers. See DESIGN.md §13. *)

type scratch

val scratch_for : ctx -> scratch
(** The calling domain's cached arena for this context (created on first
    use; keyed by context physical identity). *)

module Vec : sig
  (** A packed vector of canonical residues: slot [i] occupies limbs
      [i*k, (i+1)*k) of one {!Limb.a} buffer, where [k] is the limb count
      of the modulus. *)

  type t = { n : int; k : int; buf : Limb.a }

  val create : ctx -> int -> t
  (** All slots zero. *)

  val length : t -> int
  val get : t -> int -> el
  val set : t -> int -> el -> unit
  val of_array : ctx -> el array -> t
  val to_array : t -> el array
  val is_zero : t -> int -> bool
  val blit : t -> int -> t -> int -> int -> unit
  val clear : t -> int -> int -> unit
  val swap : scratch -> t -> int -> int -> unit

  val set_mont : ctx -> t -> int -> el -> unit
  (** Slot [i] gets [xR mod p], the form the constants of {!axpy},
      {!butterfly}, {!scale_all} and {!spmv} take. Uncounted. *)

  val equal : t -> t -> bool

  val read_bytes_n : ctx -> t -> int -> int -> bytes -> int -> int -> int
  (** [read_bytes_n ctx v i n b off w]: slots [i, i+n) get the [n]
      consecutive [w]-byte little-endian elements at [b.[off]], straight
      into their limbs, stopping at the first that is not a canonical
      residue (below p — the strict range check of the wire codec);
      returns how many were read ([n] when all were). Allocation-free. *)

  val write_bytes : t -> int -> bytes -> int -> int -> unit
  (** [write_bytes v i b off w]: slot [i] as [w] little-endian bytes;
      the inverse of {!read_bytes} through the same limb routine. *)

  val sample_bytes : ctx -> t -> int -> bytes -> bool
  (** One rejection round of {!Fp.sample} into slot [i]: masks the top of
      the first [num_bytes ctx] bytes of the buffer in place and reads
      them; [false] means rejected, draw again. *)

  val mul : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit
  (** [mul ctx sc dst di a ai b bi]: slot [di] of [dst] gets
      [a.(ai) * b.(bi)] by two REDCs ([abR^-1], then times [R^2]);
      counted as one [fp.mul]. Any slots may alias. *)

  val add : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit
  val sub : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit

  val axpy : ctx -> scratch -> t -> int -> t -> int -> t -> int -> int -> unit
  (** [axpy ctx sc y yi c ci x xi len]: [y.(yi+j) += c * x.(xi+j)] for
      [j < len], slot [ci] of [c] holding [c] in Montgomery form; one
      REDC and one counted [fp.mul] per term, no allocation. *)

  val spmv : ctx -> scratch -> ptr:int array -> idx:int array -> t -> t -> t -> unit
  (** [spmv ctx sc ~ptr ~idx coef x dst]: [dst = M x] for M in compressed
      rows: row [r] is terms [[ptr.(r), ptr.(r+1))], term [t] reads slot
      [idx.(t) lsr 2] of [x] times +1 (tag [idx.(t) land 3 = 1]), -1 (tag
      2) or the next unread slot of [coef] in Montgomery form (tag 0).
      [dst] must not share an arena with [x] or [coef]. Counts one
      [fp.mul] per term, as [Lincomb.eval] does. Raises [Invalid_argument]
      on [ptr.(0) <> 0], a column outside [x] or too few coefficients. *)

  val dot_bound : ctx -> int
  (** The most terms {!dot} accepts: [max_int / (k * 2^32)] for a k-limb
      modulus (2^29 at k = 2, 2^27 at k = 8). Each term adds at most 2k
      half-products below 2^31 to a column, so no column can overflow an
      OCaml int below this length. *)

  val dot : ctx -> scratch -> t -> int -> t -> int -> int -> el
  (** [dot ctx sc a ai b bi len] = sum of [a.(ai+j) * b.(bi+j)], the
      split-column lazy dot: each 62-bit limb product is split into 31-bit
      halves summed in plain int columns, then one normalisation and one
      wide Barrett reduction per call. Equal to {!Fp.dot} on the same values,
      counting the same [fp.mul_lazy] (terms with both operands nonzero);
      allocates only its result. Raises [Invalid_argument] beyond
      {!dot_bound} or outside either vector. *)

  val convolve_bound : ctx -> int
  (** The most coefficients the shorter operand of {!convolve} may have:
      [1023 / w] for [w] 26-bit limbs per element (5 up to 130 bits, so
      204 for p61, p127 and p127_ntt; 102 for a 255-bit field). Up to it,
      [min la lb * w * 2^52 < 2^62] and no column can overflow. *)

  val convolve : ctx -> scratch -> t -> int -> int -> t -> int -> int -> t -> int -> unit
  (** [convolve ctx sc a ai la b bi lb d di]: slots [[di, di+la+lb-1)] of
      [d] get the coefficients of [(sum a.(ai+j) x^j) * (sum b.(bi+t) x^t)];
      nothing when [la] or [lb] is 0. Both operands are copied first as
      26-bit limbs into the scratch, so [d] may overlap them. Each output
      is one product-scanned column sum, reduced once into its slot.
      Counts one [fp.mul_lazy] per coefficient pair with both operands
      nonzero, as {!Fp.dot} does; allocates nothing once the scratch has
      grown to the operands. Raises [Invalid_argument] above
      {!convolve_bound} or outside a vector. *)

  val butterfly : ctx -> scratch -> t -> int -> int -> t -> int -> unit
  (** [butterfly ctx sc data i j tw ti]: the fused Cooley-Tukey step
      [t = data.(j) * w; data.(j) <- data.(i) - t;
      data.(i) <- data.(i) + t], slot [ti] of [tw] holding [w] in
      Montgomery form. One REDC and one counted field mul, no allocation. *)

  val scale_all : ctx -> scratch -> t -> t -> int -> unit
  (** Multiply every slot of the vector by the Montgomery-form slot [ci]
      of [c] (not the same vector): one REDC and one [fp.mul] per slot. *)
end

module Rows : sig
  (** A PCP query matrix: [rows] rows of [width] canonical residues, row
      [r] in slots [[r*width, (r+1)*width)] of one packed {!Vec.t} — a row
      view on the vector's arena, not a second packed type. The wire codec
      decodes Queries frames into it, the verifier samples into it and the
      prover answers from it. *)

  type t = { rows : int; width : int; vec : Vec.t }

  val create : ctx -> rows:int -> width:int -> t
  (** All zero. *)

  val of_vec : Vec.t -> t
  (** The vector as a one-row matrix, sharing its arena. *)

  val row : t -> int -> int
  (** Slot index of row [r]'s first element; raises [Invalid_argument]
      outside [[0, rows)]. *)

  val get : t -> int -> int -> el
  val set_row : t -> int -> el array -> unit
  val of_arrays : ctx -> width:int -> el array array -> t
  (** Raises [Invalid_argument] on a row of another width. *)

  val to_arrays : t -> el array array

  val equal : t -> t -> bool
  (** Same rows and elements; matrices without rows are equal whatever
      their width. *)

  val add : ctx -> scratch -> t -> int -> int -> int -> unit
  (** [add ctx sc q d a b]: row [d] <- row [a] + row [b]. *)

  val dot : ctx -> scratch -> t -> int -> Vec.t -> el
  (** [dot ctx sc q r u] = <row r, u> by {!Vec.dot}; [u] must have
      [width] slots. *)
end
