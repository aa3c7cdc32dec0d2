(** Montgomery-form modular arithmetic on packed limb slices: the one
    multiplication engine under every group exponentiation in the
    commitment's ElGamal (§5.1's e/d/h costs; DESIGN.md §8) and, through
    {!redc_into}, under every {!Fp} product, boxed or packed.

    Every product is one fused CIOS REDC ({!mul_into}) over {!Limb.a}
    slices. The kernels take and return plain residues (naturals below
    the modulus) and convert into Montgomery form (xR mod p,
    R = 2^(31k)) on entry and out of it on exit; in between nothing is
    allocated on the OCaml heap. *)

open Nat

type ctx

val create : t -> ctx
(** Modulus must be odd and >= 3. *)

(** {2 The fused REDC}

    A {!scratch} is owned by one domain — obtain it with {!scratch_for}
    (domain-local, cached per context); see DESIGN.md §13 for the
    ownership discipline. *)

type scratch

val scratch_for : ctx -> scratch
(** A {!domain_cache} of the 8 contexts created last. *)

val domain_cache : int -> ('c -> 's) -> 'c -> 's
(** [domain_cache n create]: a lookup of the calling domain's value for a
    key (by physical identity), made by [create] on first use and kept
    for the [n] keys created last. A lookup allocates nothing. *)

val mul_into : ctx -> scratch -> Limb.a -> int -> Limb.a -> int -> Limb.a -> int -> unit
(** [mul_into ctx sc dst dso a ao b bo]: the k-limb slice of [dst] at
    [dso] gets [a * b * R^-1 mod p] of the k-limb input slices, which
    must lie below p. One CIOS pass (2k^2 + k multiply-adds); [dst] may
    alias either input slice. One counted [mont.mul], no allocation. *)

val redc_into : ctx -> scratch -> Limb.a -> int -> Limb.a -> int -> Limb.a -> int -> unit
(** {!mul_into} without the count, for {!Fp.Vec}, which counts [fp.mul].
    At the limb widths with a generated straight-line kernel (k = 5 and
    9, [gen/gen_fixed.ml]) it runs that kernel, elsewhere {!redc_loop}. *)

val redc_loop : ctx -> scratch -> Limb.a -> int -> Limb.a -> int -> Limb.a -> int -> unit
(** The CIOS loop of every width: {!redc_into} where no kernel is
    generated, and the reference the kernels are tested against. *)

val butterfly_fixed : ctx -> Limb.a -> int -> int -> Limb.a -> int -> bool
(** [butterfly_fixed ctx d io jo tw two]: {!Fp.Vec.butterfly}'s step on
    the k-limb slices of [d] at [io] and [jo] (distinct) with the
    Montgomery-form twiddle at [two] of [tw], by the width's generated
    fused kernel; [false], with nothing written, at a width without one.
    Uncounted. *)

val to_mont_slice : ctx -> scratch -> Limb.a -> int -> Limb.a -> int -> unit
(** [to_mont_slice ctx sc dst dso src so]: [dst <- src * R mod p] (REDC
    against R^2; [dst] may alias [src]). Uncounted. *)

val to_mont_into : ctx -> scratch -> t -> Limb.a -> int -> unit
(** Write [xR mod p] into a k-limb slice. [x] must be reduced (< p). Not
    counted as a [mont.mul]. *)

val of_mont : ctx -> scratch -> Limb.a -> int -> t
(** Read a Montgomery-form slice back as a plain residue. Not counted. *)

val one_into : ctx -> Limb.a -> int -> unit
(** Write the Montgomery form of 1 ([R mod p]) into a slice. *)

(** {2 Exponentiation kernels}

    All over plain residues; each counts one [mont.mul] per REDC product. *)

val pow : ctx -> t -> t -> t
(** [pow ctx b e = b^e mod p] ([b] is reduced first) by the
    sliding-window ladder: a table of odd powers up to [2^w - 1] cuts
    multiplications from [bits/2] to roughly [bits/(w+1)]. *)

type fb
(** A fixed-base window table in one packed arena: the powers
    [b^(j * 2^(w*i))], so any exponent below the table width costs one
    multiplication per nonzero base-[2^w] digit — no squarings. *)

val fb_precompute : ctx -> ?window:int -> bits:int -> t -> fb
(** [fb_precompute ctx ~window ~bits b] builds the table of the reduced
    residue [b] covering exponents of up to [bits] bits. [window] in
    [1, 16], default 5. Costs about [(bits/window) * 2^window]
    multiplications. *)

val fb_bits : fb -> int
(** Widest exponent the table covers, in bits. *)

val fb_pow : ctx -> fb -> t -> t
(** [b^e] from the table; wider exponents fall back to {!pow}'s ladder. *)

val fb_pow2 : ctx -> fb -> t -> fb -> t -> t
(** [fb_pow2 ctx tb1 e1 tb2 e2 = b1^e1 * b2^e2]: two table lookups joined
    in Montgomery form and converted out once. *)

val pow2 : ctx -> t -> t -> t -> t -> t
(** [pow2 ctx b1 e1 b2 e2 = b1^e1 * b2^e2] by Shamir/Straus simultaneous
    exponentiation: one shared squaring chain, about half the cost of two
    independent ladders. Bases must be reduced. *)

type packed
(** A vector of residues converted into Montgomery form once, in one
    arena; read-only afterwards, so domains may share it. *)

val pack : ctx -> int -> (int -> t) -> packed
(** [pack ctx len f] converts [f 0 .. f (len-1)] (each reduced). *)

val multi_pow :
  ctx -> ?window:int -> ?ones:int array -> packed -> stride:int -> int array -> t array -> t array
(** [multi_pow ctx v ~stride idx exps] has [stride] components; component
    [j] is [prod_t v.(idx.(t) * stride + j)^exps.(t)], by Pippenger bucket
    aggregation: about [(bits/c) * (n + 2^c)] multiplications per
    component for [c ~ log2 n], against [1.5 * n * bits] for independent
    ladders. The components share digit extraction and bucket occupancy.
    [ones] lists further terms (same layout) with exponent 1; they fold
    into a per-component accumulator starting at one, which joins the
    Pippenger product with one more multiplication when [idx] is
    nonempty. [window] overrides the automatic choice of [c] (tests). *)
