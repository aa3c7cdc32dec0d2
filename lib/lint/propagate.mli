(** Monomial-aware determination propagation over a quadratic-form system.

    This is the engine behind two consumers with different stakes:

    - Zlint's ZR002 check ({!determined}): starting from [{w0} U seeds],
      a row with exactly one undetermined variable pins it *up to finitely
      many roots* — good enough to certify "this variable is constrained",
      not good enough to compute its value.
    - the Zexec witness solver (lib/exec), which reuses {!structure} (row
      supports, incidence lists, the product-variable monomial map) but
      applies value-level rules, and {!statically_solvable}, the static
      under-approximation of what those value-level rules can pin. The gap
      between {!determined} and {!statically_solvable} is Zlint's ZR008:
      satisfiable but unsolvable by propagation.

    Variable indexing follows the repo convention: index 0 is the constant
    one, witness variables are [1..nz], IO variables [nz+1..nvars]. *)

open Fieldlib
open Constr

type structure = {
  nvars : int;
  nz : int;
  nc : int;
  occ : int array;  (** occurrence count per variable, index [0..nvars] *)
  row_vars : int list array;  (** per-row distinct variables (>= 1), ascending *)
  var_rows : int list array;  (** rows mentioning each variable, descending *)
  monomial_of : (int * int) option array;
      (** product variable m -> (i, j), from its first definition row *)
  monomial_users : int list array;
      (** base variable -> product variables built on it, latest first *)
  is_def_row : bool array;  (** rows that define a product variable *)
}

val product_shape : R1cs.constr -> ((int * int) * int) option
(** A row whose A, B and C are all single bare variables with coefficient
    one: a product definition [z_i * z_j = m] as emitted by the transform.
    Returns [((min i j, max i j), m)]. *)

val build : R1cs.system -> structure
(** One pass over the system: occurrence counts, row supports, incidence
    lists and the product-variable monomial map. *)

val first_row_of : structure -> int -> int option
(** Lowest-index row mentioning the variable — diagnostic provenance for
    systems with no source mapping (deserialized [.r1cs] files). *)

val determined : structure -> seeds:int array -> bool array
(** The ZR002 fixpoint: repeatedly mark a variable determined when some
    row has exactly one undetermined variable, where a product variable
    "expands" to its undetermined base variables (so a row whose unknowns
    collapse onto a single base variable is univariate and pins it).
    Result is indexed [0..nvars]; slot 0 is always true. *)

val booleans : R1cs.system -> structure -> bool array
(** Variables [v] forced into [{0, 1}] by some row whose residual is
    [c * (v^2 - v)] — either directly ([v * v = v], raw Ginger shape) or
    through the transform's factored pair (linear row over [{v, m}] with
    [m] the product variable of [v * v]). *)

val pow2_exponent : Fp.ctx -> Fp.el -> int option
(** [pow2_exponent ctx c] is the smallest [e] in [[0, bits p]] with
    [2^e = c] in F_p, or [None]. The bit-decomposition rule of both
    {!statically_solvable} and the Zexec solver reads coefficients through
    this one helper. *)

val statically_solvable : R1cs.system -> structure -> seeds:int array -> bool array
(** Static under-approximation of the witness solver: a variable is marked
    only when propagation pins it to a *unique* value for every seed
    assignment — single unknowns appearing linearly (not on both A and B),
    and bit-decomposition rows (all unknowns boolean with distinct
    power-of-two coefficients against a constant B side). Multi-root
    univariate pins, which {!determined} accepts, are excluded. *)
