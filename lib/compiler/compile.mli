(** The compiler driver: ZL source -> Ginger constraints -> (via the §4
    transform) Zaatar quadratic-form constraints, plus witness solvers for
    both encodings.

    Flattening semantics: loops unroll (constant bounds); conditionals on
    non-constant booleans execute both branches and merge every differing
    binding through a mux gadget; constant conditions select statically;
    constant array indices are free, data-dependent ones use the one-hot
    gadget. *)

open Fieldlib
open Constr

type compiled = {
  name : string;
  ctx : Fp.ctx;
  ginger : Quad.system;
  transform : Transform.t;
  num_inputs : int;
  num_outputs : int;
  solve_ginger : Fp.el array -> Fp.el array;
      (** inputs -> canonical Ginger assignment (Figure 1 step 2); raises
          {!Builder.Unsatisfiable} on out-of-range inputs *)
  solve_zaatar : Fp.el array -> Fp.el array;
}

val compile : ctx:Fp.ctx -> string -> compiled
(** Raises {!Ast.Error} on syntax or semantic errors, and on a loop nest
    whose trip counts multiply past {!unroll_budget} (at the loop that
    crosses it, before unrolling). *)

val unroll_budget : int
(** The most iterations one loop nest may unroll to (1,000,000); also the
    default of Zlint's ZL004 warning. *)

val zaatar_r1cs : compiled -> R1cs.system

val outputs_ginger : compiled -> Fp.el array -> Fp.el array
(** Extract the output values from a canonical assignment. *)

val outputs_zaatar : compiled -> Fp.el array -> Fp.el array

(** Encoding-size statistics: the raw material of Figure 9 and the cost
    model. *)
type stats = {
  z_ginger : int;
  c_ginger : int;
  z_zaatar : int;
  c_zaatar : int;
  k : int; (** additive terms K *)
  k2 : int; (** distinct degree-2 terms K2 *)
  u_ginger : int; (** |Z| + |Z|^2 *)
  u_zaatar : int; (** |Z| + |C| + 1 *)
}

val stats : compiled -> stats
