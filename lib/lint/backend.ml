(* The constraint-system soundness analyzer: static checks over a compiled
   (or deserialized) R1CS, plus Transform-aware cross-checks when the
   Ginger→Zaatar transform output is available.

   The classic failure mode these hunt is the *underconstrained* circuit:
   witness variables the constraints do not pin down, so the system admits
   assignments the program never produces and the "proof" proves nothing.

   Checks (codes in Diagnostic):
   - ZR001: a variable that appears in no constraint at all. A witness or
     output variable in this state is completely unconstrained (error); an
     input is merely unused (warn).
   - ZR002: determination propagation (the Propagate engine, shared with
     the Zexec witness solver). Starting from w0 and the inputs,
     repeatedly mark a variable determined when some constraint row
     contains exactly one undetermined variable (such a row pins it, up to
     finitely many roots). Variables never reached are under-determined.
     This is a sound-for-reporting heuristic: it can miss underconstraint
     (a row with a single unknown pins it only up to a quadratic), but on
     systems produced by our compiler it converges to "everything
     determined", so any residue is a real red flag. See DESIGN.md §11 for
     the false-negative discussion (propagation vs. full SMT).
   - ZR003: duplicate rows (same A*B = C up to A/B commutation).
   - ZR004: trivially-satisfied rows (A*B - C syntactically zero).
   - ZR005: one degree-2 monomial defined by several product rows — the
     K2 dedup accounting of the §4 transform failed.
   - ZR006: outputs unreachable from any input in the constraint
     dependency graph (vars are adjacent when they share a row).
   - ZR007: a row with no variables at all whose constants don't satisfy
     it: the system is unsatisfiable for every input.
   - ZR008: a variable the analysis fixpoint pins only up to multiple
     roots — satisfiable, but the Zexec witness solver's value-level
     propagation cannot uniquely solve it (info; see DESIGN.md §16). *)

open Fieldlib
open Constr

type io = { num_inputs : int; num_outputs : int }

let product_shape = Propagate.product_shape

(* Rows compare by their term lists (elements are canonical naturals), with
   A and B in a fixed order so that A*B = C and B*A = C collide. *)
let row_key (k : R1cs.constr) =
  let a = Lincomb.terms k.R1cs.a and b = Lincomb.terms k.R1cs.b in
  if compare a b <= 0 then (a, b, Lincomb.terms k.R1cs.c) else (b, a, Lincomb.terms k.R1cs.c)

let analyze ?io ?transform (sys : R1cs.system) : Diagnostic.t list =
  let ctx = sys.R1cs.field in
  let n = sys.R1cs.num_vars and nz = sys.R1cs.num_z in
  let nc = R1cs.num_constraints sys in
  let findings = ref [] in
  let report ~code ~severity ~location fmt =
    Printf.ksprintf
      (fun msg -> findings := Diagnostic.make ~code ~severity ~location "%s" msg :: !findings)
      fmt
  in
  let inputs, outputs =
    match io with
    | Some { num_inputs; num_outputs = _ } ->
      ( Array.init num_inputs (fun i -> nz + 1 + i),
        Array.init (n - nz - num_inputs) (fun i -> nz + 1 + num_inputs + i) )
    | None ->
      (* Raw systems don't record the input/output split: seed from the
         whole IO block and skip the output-specific checks. *)
      (Array.init (n - nz) (fun i -> nz + 1 + i), [||])
  in
  let is_output = Array.make (n + 1) false in
  Array.iter (fun v -> is_output.(v) <- true) outputs;
  let describe_var v =
    if v <= nz then "witness variable"
    else if is_output.(v) then "output variable"
    else "input variable"
  in

  (* Occurrence counts, row supports, incidence lists, monomial map. *)
  let st = Propagate.build sys in
  let occ = st.Propagate.occ and row_vars = st.Propagate.row_vars in
  (* Provenance: deserialized systems have no source mapping, so point at
     the lowest constraint row mentioning the variable. *)
  let var_loc v =
    match Propagate.first_row_of st v with
    | Some j -> Diagnostic.Var_in_row (v, j)
    | None -> Diagnostic.Variable v
  in

  (* ZR001: variables in no row. *)
  for v = 1 to n do
    if occ.(v) = 0 then
      if v <= nz || is_output.(v) then
        report ~code:"ZR001" ~severity:Diagnostic.Error ~location:(Diagnostic.Variable v)
          "%s w%d appears in no constraint: its value is completely unconstrained" (describe_var v)
          v
      else
        report ~code:"ZR001" ~severity:Diagnostic.Warn ~location:(Diagnostic.Variable v)
          "input variable w%d appears in no constraint (unused input)" v
  done;

  (* ZR003 / ZR004 / ZR005 / ZR007: row-shape checks. *)
  let seen_rows = Hashtbl.create (max 16 nc) in
  let monomial_rows : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  R1cs.iteri
    (fun j k ->
      if row_vars.(j) = [] then begin
        (* Constant-only row: either says nothing or can never hold. *)
        let residue =
          Fp.sub ctx
            (Fp.mul ctx (Lincomb.const_part k.R1cs.a) (Lincomb.const_part k.R1cs.b))
            (Lincomb.const_part k.R1cs.c)
        in
        if Fp.is_zero residue then
          report ~code:"ZR004" ~severity:Diagnostic.Warn ~location:(Diagnostic.Row j)
            "constant row is trivially satisfied (dead constraint)"
        else
          report ~code:"ZR007" ~severity:Diagnostic.Error ~location:(Diagnostic.Row j)
            "constant row can never be satisfied: the system is unsatisfiable"
      end
      else if R1cs.constr_is_trivial k then
        report ~code:"ZR004" ~severity:Diagnostic.Warn ~location:(Diagnostic.Row j)
          "row is trivially satisfied: A*B - C is syntactically zero"
      else begin
        let key = row_key k in
        (match Hashtbl.find_opt seen_rows key with
        | Some j0 ->
          report ~code:"ZR003" ~severity:Diagnostic.Warn ~location:(Diagnostic.Row j)
            "duplicate of constraint row %d" j0
        | None -> Hashtbl.add seen_rows key j);
        match product_shape k with
        | Some (m, _) -> (
          match Hashtbl.find_opt monomial_rows m with
          | Some j0 ->
            report ~code:"ZR005" ~severity:Diagnostic.Warn ~location:(Diagnostic.Row j)
              "degree-2 monomial w%d*w%d already defined by product row %d (K2 dedup failure)"
              (fst m) (snd m) j0
          | None -> Hashtbl.add monomial_rows m j)
        | None -> ()
      end)
    sys;

  (* Transform hook: the K2 accounting promises distinct monomials. *)
  (match transform with
  | None -> ()
  | Some tr ->
    let seen = Hashtbl.create 64 in
    List.iter
      (fun (row, (i, j)) ->
        match Hashtbl.find_opt seen (i, j) with
        | Some row0 ->
          report ~code:"ZR005" ~severity:Diagnostic.Warn ~location:(Diagnostic.Row row)
            "transform emitted monomial z%d*z%d twice (rows %d and %d): K2 overcounted" i j row0
            row
        | None -> Hashtbl.add seen (i, j) row)
      (Transform.product_rows tr));

  (* ZR002: determination propagation from {w0} ∪ inputs. *)
  let det = Propagate.determined st ~seeds:inputs in
  for v = 1 to n do
    if (not det.(v)) && occ.(v) > 0 then
      report ~code:"ZR002" ~severity:Diagnostic.Error ~location:(var_loc v)
        "%s w%d is not pinned by constraint propagation from the inputs (under-determined)"
        (describe_var v) v
  done;

  (* ZR008: pinned by the analysis fixpoint, but only up to multiple roots
     — the witness solver's value-level rules cannot uniquely solve it. *)
  let solvable = Propagate.statically_solvable sys st ~seeds:inputs in
  for v = 1 to n do
    if det.(v) && (not solvable.(v)) && occ.(v) > 0 then
      report ~code:"ZR008" ~severity:Diagnostic.Info ~location:(var_loc v)
        "%s w%d is pinned only up to multiple roots: satisfiable, but witness solving by \
         propagation cannot determine it (zaatar exec will not solve this system)"
        (describe_var v) v
  done;

  (* ZR006: output reachability over the shared-row adjacency. *)
  if Array.length outputs > 0 then begin
    let reached = Array.make (n + 1) false in
    let row_seen = Array.make nc false in
    let q = Queue.create () in
    Array.iter
      (fun v ->
        reached.(v) <- true;
        Queue.add v q)
      inputs;
    while not (Queue.is_empty q) do
      let v = Queue.take q in
      List.iter
        (fun j ->
          if not row_seen.(j) then begin
            row_seen.(j) <- true;
            List.iter
              (fun v' ->
                if not reached.(v') then begin
                  reached.(v') <- true;
                  Queue.add v' q
                end)
              row_vars.(j)
          end)
        st.Propagate.var_rows.(v)
    done;
    Array.iter
      (fun v ->
        if (not reached.(v)) && occ.(v) > 0 then
          report ~code:"ZR006" ~severity:Diagnostic.Warn ~location:(Diagnostic.Variable v)
            "output variable w%d does not depend on any input (unreachable in the constraint graph)"
            v)
      outputs
  end;

  List.rev !findings
