(* Determination propagation shared by Zlint's ZR002/ZR008 checks and the
   Zexec witness solver. See the .mli for the two-consumer story; DESIGN.md
   §11 discusses the soundness of the analysis fixpoint, §16 the solver. *)

open Fieldlib
open Constr

type structure = {
  nvars : int;
  nz : int;
  nc : int;
  occ : int array;
  row_vars : int list array;
  var_rows : int list array;
  monomial_of : (int * int) option array;
  monomial_users : int list array;
  is_def_row : bool array;
}

(* A row whose A, B and C are all single bare variables: a product
   definition z_i * z_j = m as emitted by the transform. *)
let product_shape (k : R1cs.constr) =
  let single lc =
    match Lincomb.terms lc with [ (v, c) ] when v > 0 && Fp.equal c Fp.one -> Some v | _ -> None
  in
  match (single k.R1cs.a, single k.R1cs.b, single k.R1cs.c) with
  | Some i, Some j, Some m -> Some ((min i j, max i j), m)
  | _ -> None

let build (sys : R1cs.system) : structure =
  let n = sys.R1cs.num_vars in
  let nc = R1cs.num_constraints sys in
  (* One pass: occurrence counts, per-row supports, incidence lists. *)
  let occ = Array.make (n + 1) 0 in
  let row_vars = Array.make nc [] in
  let var_rows = Array.make (n + 1) [] in
  R1cs.iteri
    (fun j k ->
      let vs = R1cs.constr_vars k in
      row_vars.(j) <- vs;
      List.iter
        (fun v ->
          occ.(v) <- occ.(v) + 1;
          var_rows.(v) <- j :: var_rows.(v))
        vs)
    sys;
  (* The monomial map: the *first* definition row of each product variable
     wins (duplicates are ZR005's business, not ours). *)
  let monomial_of = Array.make (n + 1) None in
  let monomial_users = Array.make (n + 1) [] in
  let is_def_row = Array.make nc false in
  R1cs.iteri
    (fun row k ->
      match product_shape k with
      | Some ((i, j), m) ->
        if monomial_of.(m) = None then begin
          monomial_of.(m) <- Some (i, j);
          monomial_users.(i) <- m :: monomial_users.(i);
          if j <> i then monomial_users.(j) <- m :: monomial_users.(j);
          is_def_row.(row) <- true
        end
      | None -> ())
    sys;
  {
    nvars = n;
    nz = sys.R1cs.num_z;
    nc;
    occ;
    row_vars;
    var_rows;
    monomial_of;
    monomial_users;
    is_def_row;
  }

let first_row_of st v =
  match st.var_rows.(v) with
  | [] -> None
  | rows -> Some (List.fold_left min max_int rows)

(* The ZR002 fixpoint.

   The base rule: a row with exactly one undetermined variable pins it
   (up to finitely many roots). That alone is blind to the transform's
   factored quadratics — after §4, a Ginger bit-constraint b*b = b is a
   linear row {m, b} plus a product row b*b = m, each with two unknowns.
   So the rule is monomial-aware: a product variable m with monomial
   (i, j) "expands" to its undetermined base variables, and a row whose
   undetermined variables all expand into a single base variable v is a
   univariate polynomial in v, which pins v. A product variable whose
   base variables are both determined is itself determined. *)
let determined st ~seeds =
  let determined = Array.make (st.nvars + 1) false in
  determined.(0) <- true;
  let unknown = Array.make st.nc 0 in
  let events = Queue.create () in
  let settle v =
    if not determined.(v) then begin
      determined.(v) <- true;
      Queue.add v events
    end
  in
  Array.iter settle seeds;
  Array.iteri
    (fun j vs -> unknown.(j) <- List.length (List.filter (fun v -> not determined.(v)) vs))
    st.row_vars;
  (* Expand an undetermined row variable to its undetermined base vars. *)
  let expand v =
    match st.monomial_of.(v) with
    | Some (i, j) ->
      let base = if determined.(i) then [] else [ i ] in
      if determined.(j) || j = i then base else j :: base
    | None -> [ v ]
  in
  let resolve j =
    if unknown.(j) >= 1 && unknown.(j) <= 3 then
      match List.filter (fun v -> not determined.(v)) st.row_vars.(j) with
      | [ v ] -> settle v
      | us when not st.is_def_row.(j) -> (
        (* Expansion is justified by the *other* row defining each m; on
           the definition row itself, substituting m = z_i z_j collapses
           it to 0 = 0 and would pin nothing soundly. *)
        match List.sort_uniq compare (List.concat_map expand us) with
        | [ v ] ->
          (* Univariate in v: pin v; its dependent product vars follow
             through the event loop below. *)
          settle v
        | _ -> ())
      | _ -> ()
  in
  let touch_rows v = List.iter resolve st.var_rows.(v) in
  for j = 0 to st.nc - 1 do
    resolve j
  done;
  while not (Queue.is_empty events) do
    let v = Queue.take events in
    List.iter
      (fun j ->
        unknown.(j) <- unknown.(j) - 1;
        resolve j)
      st.var_rows.(v);
    (* Product variables riding on v: either both base vars are now
       determined (so m is), or rows mentioning m deserve a fresh look
       with the shrunken expansion. *)
    List.iter
      (fun m ->
        if not determined.(m) then
          match st.monomial_of.(m) with
          | Some (i, j) -> if determined.(i) && determined.(j) then settle m else touch_rows m
          | None -> ())
      st.monomial_users.(v)
  done;
  determined

(* The residual A(v)*B(v) - C(v) of a row as a univariate polynomial in v,
   where the product variable [m] (if >= 0) stands for v^2. Only valid when
   the row's support is contained in {v, m}; callers check that. Returns
   coefficients p.(0) .. p.(4) of 1, v, ..., v^4. *)
let residual_poly ctx (k : R1cs.constr) ~v ~m =
  let side lc =
    [|
      Lincomb.const_part lc;
      Lincomb.coeff lc v;
      (if m >= 0 then Lincomb.coeff lc m else Fp.zero);
    |]
  in
  let a = side k.R1cs.a and b = side k.R1cs.b and c = side k.R1cs.c in
  let p = Array.make 5 Fp.zero in
  for i = 0 to 2 do
    for j = 0 to 2 do
      p.(i + j) <- Fp.add ctx p.(i + j) (Fp.mul ctx a.(i) b.(j))
    done
  done;
  for i = 0 to 2 do
    p.(i) <- Fp.sub ctx p.(i) c.(i)
  done;
  p

(* c * (v^2 - v) with c <> 0: the shape that forces v into {0, 1}. *)
let boolean_shape ctx p =
  Fp.is_zero p.(0) && Fp.is_zero p.(3) && Fp.is_zero p.(4)
  && (not (Fp.is_zero p.(2)))
  && Fp.equal p.(1) (Fp.neg ctx p.(2))

let booleans (sys : R1cs.system) st =
  let ctx = sys.R1cs.field in
  let bl = Array.make (st.nvars + 1) false in
  R1cs.iteri
    (fun j k ->
      match st.row_vars.(j) with
      | [ v ] ->
        (* Raw Ginger shape: the whole row is univariate in v. *)
        if boolean_shape ctx (residual_poly ctx k ~v ~m:(-1)) then bl.(v) <- true
      | [ x; y ] when not st.is_def_row.(j) ->
        (* Transform shape: a row over {v, m} with m defined elsewhere as
           v * v. Substituting m = v^2 is justified by that other row. *)
        let try_pair v m =
          match st.monomial_of.(m) with
          | Some (i, i') when i = v && i' = v ->
            if boolean_shape ctx (residual_poly ctx k ~v ~m) then bl.(v) <- true
          | _ -> ()
        in
        try_pair x y;
        try_pair y x
      | _ -> ())
    sys;
  bl

(* With b = bits p, every 2^e for e < b is already reduced (p > 2^(b-1)),
   so a canonical c is one of them iff it has a single set bit. Only 2^b
   wraps, to 2^b - p; when that collides with a smaller power (2^127 = 1
   modulo the Mersenne prime) the smaller exponent is the one returned. *)
let pow2_exponent ctx c =
  let nb = Nat.num_bits c in
  if nb > 0 && Nat.equal c (Nat.shift_left Nat.one (nb - 1)) then Some (nb - 1)
  else
    let b = Fp.bits ctx in
    if Nat.equal (Nat.add c (Fp.modulus ctx)) (Nat.shift_left Nat.one b) then Some b else None

let statically_solvable (sys : R1cs.system) st ~seeds =
  let ctx = sys.R1cs.field in
  let bl = booleans sys st in
  let det = Array.make (st.nvars + 1) false in
  det.(0) <- true;
  let q = Queue.create () in
  let settle v =
    if not det.(v) then begin
      det.(v) <- true;
      Queue.add v q
    end
  in
  Array.iter settle seeds;
  let constrs = sys.R1cs.constraints in
  let examine j =
    let k = constrs.(j) in
    match List.filter (fun v -> not det.(v)) st.row_vars.(j) with
    | [] -> ()
    | [ v ] ->
      (* Linear in v: pinned to a unique value. On both A and B the row is
         a genuine quadratic — up to two roots, so not solvable. *)
      let in_a = not (Fp.is_zero (Lincomb.coeff k.R1cs.a v)) in
      let in_b = not (Fp.is_zero (Lincomb.coeff k.R1cs.b v)) in
      if not (in_a && in_b) then settle v
    | us ->
      (* Runtime-linear collapse: every unknown expands (product variable
         m -> its undetermined base variables, with determined bases
         contributing known factors at solve time) onto one base variable
         v, and the substituted residual has degree <= 1 in v — so the
         solver faces a plain linear equation once input values are in
         hand. Degree-2 collapses (x*x rows) are exactly the multi-root
         pins this pass refuses. Unsound on a definition row, where
         substituting m = z_i z_j collapses it to 0 = 0. *)
      let collapsed =
        if st.is_def_row.(j) then None
        else
          (* base variables (with degrees) each unknown expands to *)
          let deg_of u =
            match st.monomial_of.(u) with
            | Some (i, i') -> (
              match List.filter (fun b -> not det.(b)) (if i = i' then [ i ] else [ i; i' ]) with
              | [] -> Some (None, 0)
              | [ b ] -> Some (Some b, if i = i' then 2 else 1)
              | _ -> None)
            | None -> Some (Some u, 1)
          in
          let rec bases acc = function
            | [] -> Some acc
            | u :: rest -> (
              match deg_of u with
              | None -> None
              | Some entry -> bases ((u, entry) :: acc) rest)
          in
          match bases [] us with
          | None -> None
          | Some entries -> (
            match
              List.sort_uniq compare
                (List.filter_map (fun (_, (b, _)) -> b) entries)
            with
            | [ v ] ->
              let deg_term u =
                match List.assoc_opt u entries with Some (_, d) -> d | None -> 0
              in
              let side_deg lc =
                List.fold_left
                  (fun acc (u, _) -> max acc (if u > 0 && not det.(u) then deg_term u else 0))
                  0 (Lincomb.terms lc)
              in
              if
                side_deg k.R1cs.a + side_deg k.R1cs.b <= 1
                && side_deg k.R1cs.c <= 1
              then Some v
              else None
            | _ -> None)
      in
      (match collapsed with Some v -> settle v | None -> ());
      (* Bit-decomposition rule: against a constant non-zero B, unknowns
         that are all boolean with distinct power-of-two effective
         coefficients (a global sign is allowed) are each pinned to one
         bit of the known residue. *)
      if Lincomb.is_const k.R1cs.b then begin
        let kappa = Lincomb.const_part k.R1cs.b in
        if (not (Fp.is_zero kappa)) && List.for_all (fun v -> bl.(v)) us then begin
          let eff v =
            Fp.sub ctx (Fp.mul ctx kappa (Lincomb.coeff k.R1cs.a v)) (Lincomb.coeff k.R1cs.c v)
          in
          let exps sign =
            let rec go acc = function
              | [] -> Some (List.rev acc)
              | v :: rest -> (
                match pow2_exponent ctx (sign (eff v)) with
                | Some e -> go (e :: acc) rest
                | None -> None)
            in
            go [] us
          in
          match
            match exps (fun c -> c) with Some e -> Some e | None -> exps (Fp.neg ctx)
          with
          | Some es when List.length (List.sort_uniq compare es) = List.length es ->
            List.iter settle us
          | _ -> ()
        end
      end
  in
  for j = 0 to st.nc - 1 do
    examine j
  done;
  while not (Queue.is_empty q) do
    let v = Queue.take q in
    List.iter examine st.var_rows.(v);
    List.iter
      (fun m -> if not det.(m) then List.iter examine st.var_rows.(m))
      st.monomial_users.(v)
  done;
  det
