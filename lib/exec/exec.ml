(* The R1CS witness-solving interpreter. See the .mli for the rule set and
   DESIGN.md §16 for the design discussion; the propagation *structure*
   (row supports, incidence lists, monomial map) is shared with Zlint's
   ZR002/ZR008 analysis via Zlint.Propagate — this module adds the
   value-level rules the static analysis can only approximate. *)

open Fieldlib
open Constr
module Propagate = Zlint.Propagate

type stats = { pinned : int; defaulted : int; ambiguous_rows : int; row_visits : int }

type error =
  | Unsat of { row : int; detail : string }
  | Stuck of { vars : int list; rows : int list }

exception Fail of error

let error_to_text ?file e =
  let prefix = match file with Some f -> f ^ ": " | None -> "" in
  match e with
  | Unsat { row; detail } -> Printf.sprintf "%srow %d: unsatisfiable: %s" prefix row detail
  | Stuck { vars; rows } ->
    let show l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf
      "%sstuck: variables w{%s} not pinned by propagation and zero-defaulting violates row(s) %s \
       (under-determined for value-level solving; see lint ZR008)"
      prefix (show vars) (show rows)

(* The Jacobi symbol (a/p) by the binary algorithm: strip factors of two
   (each flips the sign when p = 3, 5 mod 8), swap by quadratic reciprocity
   (a flip when both are 3 mod 4), subtract. No exponentiation; 0 and 1
   return at once. For the odd prime p this is the Legendre symbol. *)
let legendre ctx a =
  if Nat.is_zero a then 0
  else if Nat.is_one a then 1
  else begin
    let mod8 x = Nat.limb x 0 land 7 in
    (* n odd; the answer is t * (a/n). *)
    let rec go a n t =
      if Nat.is_zero a then if Nat.is_one n then t else 0
      else if Nat.is_even a then
        go (Nat.shift_right a 1) n (match mod8 n with 3 | 5 -> -t | _ -> t)
      else if Nat.compare a n < 0 then
        go (Nat.sub n a) a (if mod8 a land 3 = 3 && mod8 n land 3 = 3 then -t else t)
      else go (Nat.sub a n) n t
    in
    go a (Fp.modulus ctx) 1
  end

(* How many distinct base variables a substituted side still mentions. *)
type support = Empty | One of int | Many

exception Bilinear

let join s t =
  match (s, t) with
  | Empty, x | x, Empty -> x
  | One u, One v when u = v -> s
  | _ -> Many

let outputs (sys : R1cs.system) ~num_inputs w =
  let nz = sys.R1cs.num_z in
  Array.sub w (nz + 1 + num_inputs) (sys.R1cs.num_vars - nz - num_inputs)

let solve ?(check = true) (sys : R1cs.system) ~inputs =
  let ctx = sys.R1cs.field in
  let st = Propagate.build sys in
  let n = st.Propagate.nvars and nz = st.Propagate.nz and nc = st.Propagate.nc in
  if Array.length inputs > n - nz then
    invalid_arg
      (Printf.sprintf "Exec.solve: %d inputs for a system with %d IO variables"
         (Array.length inputs) (n - nz));
  let bl = Propagate.booleans sys st in
  let value = Array.make (n + 1) Fp.zero in
  let known = Array.make (n + 1) false in
  value.(0) <- Fp.one;
  known.(0) <- true;
  Array.iteri
    (fun i x ->
      value.(nz + 1 + i) <- x;
      known.(nz + 1 + i) <- true)
    inputs;
  let in_queue = Array.make nc false in
  let rowq = Queue.create () in
  let enqueue j =
    if not in_queue.(j) then begin
      in_queue.(j) <- true;
      Queue.add j rowq
    end
  in
  let pinned = ref 0 and row_visits = ref 0 in
  let ambiguous = Array.make nc false in
  let pin ~row v x =
    if known.(v) then begin
      if not (Fp.equal value.(v) x) then
        raise
          (Fail
             (Unsat { row; detail = Printf.sprintf "conflicting forced values for variable w%d" v }))
    end
    else begin
      value.(v) <- x;
      known.(v) <- true;
      incr pinned;
      List.iter enqueue st.Propagate.var_rows.(v);
      List.iter
        (fun m -> List.iter enqueue st.Propagate.var_rows.(m))
        st.Propagate.monomial_users.(v)
    end
  in
  let constrs = sys.R1cs.constraints in
  (* Sums and products that skip the arithmetic when an operand is 0 or 1:
     the values are the same, most terms here are coefficient-one and many
     values are bits. *)
  let add a b = if Fp.is_zero a then b else if Fp.is_zero b then a else Fp.add ctx a b in
  let mul c x =
    if Nat.is_one c then x
    else if Nat.is_one x then c
    else if Fp.is_zero c || Fp.is_zero x then Fp.zero
    else Fp.mul ctx c x
  in
  (* Partial evaluation of one linear combination: the known sum plus the
     still-unknown terms in ascending variable order. *)
  let part lc =
    let ksum = ref Fp.zero and unk = ref [] in
    Lincomb.iter
      (fun v c -> if known.(v) then ksum := add !ksum (mul c value.(v)) else unk := (v, c) :: !unk)
      lc;
    (!ksum, List.rev !unk)
  in
  let unsat row detail = raise (Fail (Unsat { row; detail })) in
  (* The bit-decomposition rule: all unknowns boolean with distinct
     power-of-two effective coefficients against a fully-known non-zero B;
     they are then the bits of the known residue. *)
  let try_bits j ka ua kb kc uc =
    (* Effective coefficients kb*a_v - c_v, merged over the two ascending
       unknown lists. *)
    let rec eff ua uc =
      match (ua, uc) with
      | [], l -> List.map (fun (v, c) -> (v, Fp.neg ctx c)) l
      | l, [] -> List.map (fun (v, c) -> (v, mul kb c)) l
      | (v, c) :: ua', (u, d) :: uc' ->
        if v = u then (v, Fp.sub ctx (mul kb c) d) :: eff ua' uc'
        else if v < u then (v, mul kb c) :: eff ua' uc
        else (u, Fp.neg ctx d) :: eff ua uc'
    in
    let eff = eff ua uc in
    if eff = [] || not (List.for_all (fun (v, _) -> bl.(v)) eff) then false
    else begin
      let exps sign =
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | (v, c) :: rest -> (
            match Propagate.pow2_exponent ctx (sign c) with
            | Some e -> go ((v, e) :: acc) rest
            | None -> None)
        in
        go [] eff
      in
      let signed =
        match exps (fun c -> c) with
        | Some e -> Some (e, true)
        | None -> ( match exps (Fp.neg ctx) with Some e -> Some (e, false) | None -> None)
      in
      match signed with
      | Some (es, positive)
        when List.length (List.sort_uniq compare (List.map snd es)) = List.length es ->
        (* rest + Σ s·2^e_v·v = 0  ⇒  Σ 2^e_v·v = r *)
        let rest = Fp.sub ctx (Fp.mul ctx kb ka) kc in
        let r = if positive then Fp.neg ctx rest else rest in
        let rn = Fp.to_nat r in
        let covered =
          List.fold_left
            (fun acc (_, e) -> if Nat.testbit rn e then Nat.add acc (Nat.shift_left Nat.one e) else acc)
            Nat.zero es
        in
        if not (Nat.equal covered rn) then
          unsat j "bit-decomposition residue has bits outside the decomposed positions";
        List.iter (fun (v, e) -> pin ~row:j v (if Nat.testbit rn e then Fp.one else Fp.zero)) es;
        true
      | _ -> false
    end
  in
  (* Univariate collapse: substitute known values into each side, reducing
     it to a sparse polynomial over the still-unknown *base* variables
     (product variables contribute their known base values as runtime
     coefficients). Cancellation matters: an equality gadget's
     w26*(a - b) term vanishes outright when a = b at runtime, leaving a
     row that is genuinely linear in a different variable — so the
     support test runs on the substituted coefficients, not on the
     symbolic expansion. A side with <= 1 surviving base variable is a
     univariate polynomial; when all three sides agree on that variable,
     solve the residual if its degree allows a unique root. Unsound on a
     definition row (m = z_i z_j collapses to 0 = 0), so those are
     excluded. *)
  let try_univariate j (k : R1cs.constr) =
    if not st.Propagate.is_def_row.(j) then begin
      (* Coefficients by base variable, as a short association list. *)
      let rec bump v c = function
        | [] -> [ (v, c) ]
        | (u, d) :: rest when u = v -> (u, add d c) :: rest
        | x :: rest -> x :: bump v c rest
      in
      (* (const, deg-1 coeffs, deg-2 coeffs, support); a surviving bilinear
         term over two distinct unknown bases raises [Bilinear]. *)
      let side_poly lc =
        let cst = ref Fp.zero and d1 = ref [] and d2 = ref [] in
        Lincomb.iter
          (fun u c ->
            if known.(u) then cst := add !cst (mul c value.(u))
            else
              match st.Propagate.monomial_of.(u) with
              | None -> d1 := bump u c !d1
              | Some (i, j') ->
                if known.(i) && known.(j') then cst := add !cst (mul c (mul value.(i) value.(j')))
                else if known.(i) then d1 := bump j' (mul c value.(i)) !d1
                else if known.(j') then d1 := bump i (mul c value.(j')) !d1
                else if i = j' then d2 := bump i c !d2
                else raise_notrace Bilinear)
          lc;
        let support acc (v, c) = if Fp.is_zero c then acc else join acc (One v) in
        (!cst, !d1, !d2, List.fold_left support (List.fold_left support Empty !d1) !d2)
      in
      match
        let a = side_poly k.R1cs.a in
        let b = side_poly k.R1cs.b in
        (a, b, side_poly k.R1cs.c)
      with
      | exception Bilinear -> ()
      | (ca, d1a, d2a, sa), (cb, d1b, d2b, sb), (cc, d1c, d2c, sc) -> (
        (* A side that substitutes to identically zero annihilates the
           product, so the other factor's unknowns cannot influence the
           row. *)
        let zero_side c s = Fp.is_zero c && s = Empty in
        let prod_support = if zero_side ca sa || zero_side cb sb then Empty else join sa sb in
        match join prod_support sc with
        | Many -> ()
        | (Empty | One _) as s -> (
          let v = match s with One v -> v | _ -> -1 in
          let poly3 (cst, d1, d2) =
            let get l = Option.value (List.assoc_opt v l) ~default:Fp.zero in
            [| cst; get d1; get d2 |]
          in
          let a = poly3 (ca, d1a, d2a)
          and b = poly3 (cb, d1b, d2b)
          and c = poly3 (cc, d1c, d2c) in
          let r = Array.make 5 Fp.zero in
          for i = 0 to 2 do
            for j' = 0 to 2 do
              r.(i + j') <- add r.(i + j') (mul a.(i) b.(j'))
            done
          done;
          for i = 0 to 2 do
            r.(i) <- Fp.sub ctx r.(i) c.(i)
          done;
          let deg = ref (-1) in
          Array.iteri (fun i x -> if not (Fp.is_zero x) then deg := i) r;
          match !deg with
          | -1 -> ()
          | 0 -> unsat j "residual is a non-zero constant"
          | 1 -> pin ~row:j v (Fp.neg ctx (Fp.div ctx r.(0) r.(1)))
          | 2 -> (
            (* The root count is all the rule needs: the discriminant's
               quadratic character decides it without a square root. *)
            let disc =
              Fp.sub ctx (Fp.sqr ctx r.(1)) (Fp.mul ctx (Fp.of_int ctx 4) (Fp.mul ctx r.(2) r.(0)))
            in
            match legendre ctx disc with
            | 0 -> pin ~row:j v (Fp.neg ctx (Fp.div ctx r.(1) (Fp.add ctx r.(2) r.(2))))
            | 1 ->
              (* Two distinct roots: refusing to guess is what keeps solved
                 witnesses canonical. Zlint's ZR008 is the static warning. *)
              ambiguous.(j) <- true
            | _ -> unsat j "quadratic residual has no root in the field")
          | _ -> ambiguous.(j) <- true))
    end
  in
  let process j =
    incr row_visits;
    let k = constrs.(j) in
    let ka, ua = part k.R1cs.a in
    let kb, ub = part k.R1cs.b in
    let kc, uc = part k.R1cs.c in
    match (ua, ub, uc) with
    | [], [], [] ->
      if not (Fp.is_zero (Fp.sub ctx (Fp.mul ctx ka kb) kc)) then
        unsat j "constants do not satisfy the row"
    | [], [], [ (v, c) ] -> pin ~row:j v (Fp.div ctx (Fp.sub ctx (Fp.mul ctx ka kb) kc) c)
    | [], _, _ when Fp.is_zero ka -> (
      (* Zero factor: A is fully known and zero, so A*B = 0 whatever B
         holds — C must vanish on its own. This is what executes the
         compiler's is_zero gadget when its argument is zero. *)
      match uc with
      | [] -> if not (Fp.is_zero kc) then unsat j "known-zero A side against a non-zero C"
      | [ (v, c) ] -> pin ~row:j v (Fp.neg ctx (Fp.div ctx kc c))
      | _ -> if not (try_bits j ka ua Fp.zero kc uc) then try_univariate j k)
    | _, [], _ when Fp.is_zero kb -> (
      match uc with
      | [] -> if not (Fp.is_zero kc) then unsat j "known-zero B side against a non-zero C"
      | [ (v, c) ] -> pin ~row:j v (Fp.neg ctx (Fp.div ctx kc c))
      | _ -> try_univariate j k)
    | [], [ (v, c) ], [] when not (Fp.is_zero ka) ->
      pin ~row:j v (Fp.div ctx (Fp.sub ctx (Fp.div ctx kc ka) kb) c)
    | [ (v, c) ], [], [] when not (Fp.is_zero kb) ->
      pin ~row:j v (Fp.div ctx (Fp.sub ctx (Fp.div ctx kc kb) ka) c)
    | _ ->
      let bits_done = ub = [] && (not (Fp.is_zero kb)) && try_bits j ka ua kb kc uc in
      if not bits_done then try_univariate j k
  in
  match
    for j = 0 to nc - 1 do
      enqueue j
    done;
    while not (Queue.is_empty rowq) do
      let j = Queue.take rowq in
      in_queue.(j) <- false;
      process j
    done
  with
  | exception Fail e -> Error e
  | () ->
    let remaining = ref [] in
    for v = n downto 1 do
      if not known.(v) then remaining := v :: !remaining
    done;
    let defaulted = List.length !remaining in
    (* Free variables default to zero — the compiler's own W_inv_or_zero
       convention — and the final whole-system check below decides whether
       that was legitimate. *)
    let ambiguous_rows = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 ambiguous in
    let stats = { pinned = !pinned; defaulted; ambiguous_rows; row_visits = !row_visits } in
    if not check then Ok (value, stats)
    else begin
      let violated = ref [] in
      R1cs.iteri
        (fun j k -> if not (Fp.is_zero (R1cs.eval_constr ctx k value)) then violated := j :: !violated)
        sys;
      match List.rev !violated with
      | [] -> Ok (value, stats)
      | j :: _ when defaulted = 0 && ambiguous_rows = 0 ->
        Error (Unsat { row = j; detail = "constraint violated by the fully-pinned assignment" })
      | rows ->
        let cap n l = List.filteri (fun i _ -> i < n) l in
        Error (Stuck { vars = cap 16 !remaining; rows = cap 16 rows })
    end
