(** Zexec: an R1CS witness-solving interpreter (DESIGN.md §16).

    Given a quadratic-form system and input values, solve for a full
    satisfying assignment by value-level constraint propagation from
    [{w0} U inputs] — the runtime counterpart of Zlint's ZR002 analysis
    (lib/lint/propagate.ml supplies the shared structure: row supports,
    incidence lists, the product-variable monomial map). Any compiled or
    deserialized system executes without its ZL source; `zaatar exec` is
    the CLI face, and the differential fuzzer (lib/fuzz) uses this as one
    leg of its three-way oracle.

    Solver rules, applied to a worklist of rows until fixpoint:
    - fully-known sides: residual check, or a single linear unknown pinned
      by division;
    - zero-factor: a known-zero A or B forces the product to zero whatever
      the other side holds, so C propagates on its own;
    - eager monomials: a product variable with both base values in hand is
      pinned through its definition row;
    - univariate collapse: unknowns that expand onto one base variable
      yield a polynomial; degree 1 pins; degree 2 is decided by the
      discriminant's quadratic character ({!legendre}, no square root is
      taken): a zero discriminant pins the double root, a non-residue is
      [Unsat], and a two-root row is left ambiguous rather than guessed;
    - bit decomposition: unknowns that are all boolean with distinct
      power-of-two coefficients (read by {!Zlint.Propagate.pow2_exponent},
      shared with the static analysis) against a known non-zero B side are
      the bits of the known residue.

    Variables still free at fixpoint default to zero — matching the
    compiler's witness convention (W_inv_or_zero assigns 0 when the
    inverse does not exist), so on compiler output the solved witness is
    *identical* to the compiled one — and the full system is then checked,
    so a bad default can never smuggle an unsatisfied row through. *)

open Fieldlib
open Constr

type stats = {
  pinned : int;  (** variables pinned by propagation (seeds excluded) *)
  defaulted : int;  (** free variables defaulted to zero at fixpoint *)
  ambiguous_rows : int;  (** rows skipped as multi-root quadratics *)
  row_visits : int;  (** total row examinations (throughput accounting) *)
}

type error =
  | Unsat of { row : int; detail : string }
      (** Constraint [row] cannot hold under the forced assignment. *)
  | Stuck of { vars : int list; rows : int list }
      (** Propagation reached fixpoint with these variables unpinned, and
          zero-defaulting them violates the system: under-determined for
          value-level solving (Zlint's ZR008 is the static warning). *)

val error_to_text : ?file:string -> error -> string
(** One-line report with row provenance, e.g.
    ["app.r1cs: row 12: unsatisfiable: ..."]. *)

val solve :
  ?check:bool -> R1cs.system -> inputs:Fp.el array -> (Fp.el array * stats, error) result
(** [solve sys ~inputs] seeds IO variables [nz+1 .. nz+Array.length inputs]
    and returns the full assignment (slot 0 = 1) with solver statistics.
    [check] (default true) re-validates every constraint before returning.
    Raises [Invalid_argument] if more inputs are supplied than the system
    has IO variables. *)

val outputs : R1cs.system -> num_inputs:int -> Fp.el array -> Fp.el array
(** The IO slots after the first [num_inputs] — the output block of a
    solved assignment, under the repo's inputs-then-outputs convention. *)

val legendre : Fp.ctx -> Fp.el -> int
(** The Legendre symbol (a/p): [1] for a non-zero square, [-1] for a
    non-residue, [0] for zero. Computed as a Jacobi symbol by the binary
    algorithm (halvings, quadratic reciprocity and subtraction on naturals,
    no exponentiation); 0 and 1 return at once. The modulus must be an odd
    prime. *)
