(** Prime fields F_p with Barrett reduction.

    The PCP protocols, the QAP construction and the commitment all work over
    a large prime field (§5.1 of the paper uses 128-bit and 220-bit prime
    moduli). A [ctx] carries the modulus and the precomputed Barrett
    constant; elements are canonical naturals in [0, p). *)

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
val bits : ctx -> int
(** Bit length of the modulus. *)

val num_bytes : ctx -> int
(** Bytes needed to hold any canonical element — the fixed element width of
    the Zwire codec. *)

val zero : el
val one : el
val two : ctx -> el

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
(** Inner product with lazy reduction: one reduction per partial-sum
    overflow window rather than per term. The prover's query-answering
    primitive (π(q) = <q, u>). *)

val sample : ctx -> (int -> bytes) -> el
(** [sample ctx random_bytes] draws a uniform element by rejection. Each
    round calls [random_bytes n] and reads the first [n] bytes of the
    buffer it returns, masking the top one in place, so a source may hand
    back one reused scratch buffer. *)

val to_string : el -> string
val pp : Format.formatter -> el -> unit

(** {2 Packed elements}

    Zero-allocation kernels over flat {!Limb} arenas. A {!scratch} holds
    the modulus/Barrett constants as limb slices plus preallocated
    temporaries for one reduction; every packed operation threads one
    through explicitly. Ownership discipline: a scratch belongs to exactly
    one domain — obtain it via {!scratch_for} (domain-local, cached per
    context) rather than sharing a {!scratch_create} result across
    [Dompool] workers. See DESIGN.md §13. *)

type scratch

val scratch_create : ctx -> scratch
(** A fresh arena; prefer {!scratch_for} unless you are managing domains
    yourself. *)

val scratch_for : ctx -> scratch
(** The calling domain's cached arena for this context (created on first
    use; keyed by context physical identity). *)

module Vec : sig
  (** A packed vector of canonical residues: slot [i] occupies limbs
      [i*k, (i+1)*k) of one off-heap buffer, where [k] is the limb count
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

  val mul : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit
  (** [mul ctx sc dst di a ai b bi]: slot [di] of [dst] gets
      [a.(ai) * b.(bi)]; counted as one [fp.mul]. Any slots may alias. *)

  val add : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit
  val sub : ctx -> scratch -> t -> int -> t -> int -> t -> int -> unit

  val butterfly : ctx -> scratch -> t -> int -> int -> t -> int -> unit
  (** [butterfly ctx sc data i j tw ti]: the fused Cooley-Tukey step
      [t = data.(j) * tw.(ti); data.(j) <- data.(i) - t;
      data.(i) <- data.(i) + t]. One counted field mul, no allocation. *)

  val scale_all : ctx -> scratch -> t -> t -> int -> unit
  (** Multiply every slot of the vector by slot [ci] of [c]. *)
end
