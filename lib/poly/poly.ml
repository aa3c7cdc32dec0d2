open Fieldlib

type t = Fp.el array

let karatsuba_threshold = 32

let trim (a : Fp.el array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && Fp.is_zero a.(!n - 1) do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let zero : t = [||]
let one : t = [| Fp.one |]
let of_coeffs a = trim (Array.copy a)
let coeffs (p : t) = Array.copy p
let coeff (p : t) i = if i < Array.length p then p.(i) else Fp.zero
let constant c = trim [| c |]

let monomial c k =
  if Fp.is_zero c then zero
  else begin
    let a = Array.make (k + 1) Fp.zero in
    a.(k) <- c;
    a
  end

let x_minus ctx s = trim [| Fp.neg ctx s; Fp.one |]
let degree (p : t) = Array.length p - 1
let is_zero (p : t) = Array.length p = 0

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Fp.equal x y) a b

let add ctx (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  trim
    (Array.init l (fun i ->
         let x = if i < la then a.(i) else Fp.zero in
         let y = if i < lb then b.(i) else Fp.zero in
         Fp.add ctx x y))

let neg ctx (a : t) : t = Array.map (Fp.neg ctx) a

let sub ctx (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  trim
    (Array.init l (fun i ->
         let x = if i < la then a.(i) else Fp.zero in
         let y = if i < lb then b.(i) else Fp.zero in
         Fp.sub ctx x y))

let scale ctx c (a : t) : t =
  if Fp.is_zero c then zero else trim (Array.map (Fp.mul ctx c) a)

let shift (a : t) k : t =
  if is_zero a then zero
  else begin
    let r = Array.make (Array.length a + k) Fp.zero in
    Array.blit a 0 r k (Array.length a);
    r
  end

let mul_schoolbook ctx (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    (* Accumulate lazily: reduce once per output coefficient. *)
    let r = Array.make (la + lb - 1) Fp.zero in
    for i = 0 to la + lb - 2 do
      let acc = ref Nat.zero in
      for j = max 0 (i - lb + 1) to min (la - 1) i do
        if not (Fp.is_zero a.(j) || Fp.is_zero b.(i - j)) then
          acc := Nat.add !acc (Fp.mul_lazy ctx a.(j) b.(i - j))
      done;
      r.(i) <- Fp.of_nat ctx !acc
    done;
    trim r
  end

(* Karatsuba on packed slices. An operand is a slice (arena, offset,
   length) of an [Fp.Vec] with its length trimmed as the boxed [trim]
   would, so every split point, threshold test and leaf product is the
   one the boxed recursion made. A leaf is one [Fp.Vec.convolve], which
   counts one [fp.mul_lazy] per product whose operands are both nonzero,
   as [mul_schoolbook] does. *)

(* Length of the slice with its trailing zero slots trimmed. *)
let rec top (v : Fp.Vec.t) o n = if n > 0 && Fp.Vec.is_zero v (o + n - 1) then top v o (n - 1) else n

(* Workspace slots for a product of [la] by [lb] coefficients: a node's
   two half sums and middle product (4k slots) plus what its children,
   whose operands have at most k coefficients, take above them. A leaf
   takes none. *)
let rec workspace la lb =
  if la < karatsuba_threshold || lb < karatsuba_threshold then 0
  else
    let k = (max la lb + 1) / 2 in
    (4 * k) + workspace k k

(* Slots from [so] get x0 + x1 (x0 at [o0], x1 at [o1] of [x]); returns
   the trimmed length of the sum. *)
let sum ctx sc (x : Fp.Vec.t) o0 l0 o1 l1 (s : Fp.Vec.t) so =
  let m = min l0 l1 in
  for i = 0 to m - 1 do
    Fp.Vec.add ctx sc s (so + i) x (o0 + i) x (o1 + i)
  done;
  if l0 > m then Fp.Vec.blit x (o0 + m) s (so + m) (l0 - m);
  if l1 > m then Fp.Vec.blit x (o1 + m) s (so + m) (l1 - m);
  top s so (max l0 l1)

(* Slots [dof, dof + la + lb - 1) of [d] get a * b; returns that length,
   or 0, writing nothing, when an operand is empty. The workspace from
   [wo] up is free. *)
let rec mul_slices ctx sc a ao la b bo lb (d : Fp.Vec.t) dof (ws : Fp.Vec.t) wo =
  if la = 0 || lb = 0 then 0
  else if la < karatsuba_threshold || lb < karatsuba_threshold then begin
    Fp.Vec.convolve ctx sc a ao la b bo lb d dof;
    la + lb - 1
  end
  else begin
    let n = la + lb - 1 and k = (max la lb + 1) / 2 in
    (* x = x1 x^k + x0; x1 is empty when x has at most k coefficients. *)
    let la1 = max 0 (la - k) and la0 = top a ao (min la k) in
    let lb1 = max 0 (lb - k) and lb0 = top b bo (min lb k) in
    let sa = wo and sb = wo + k and z1 = wo + (2 * k) and free = wo + (4 * k) in
    (* z0 = a0 b0 in [0, 2k), z2 = a1 b1 in [2k, n). *)
    let l0 = mul_slices ctx sc a ao la0 b bo lb0 d dof ws free in
    Fp.Vec.clear d (dof + l0) ((2 * k) - l0);
    let l2 = mul_slices ctx sc a (ao + k) la1 b (bo + k) lb1 d (dof + (2 * k)) ws free in
    Fp.Vec.clear d (dof + (2 * k) + l2) (n - (2 * k) - l2);
    (* z1 = (a1 + a0)(b1 + b0) - z2 - z0, at most 2k - 1 slots. *)
    let lsa = sum ctx sc a ao la0 (ao + k) la1 ws sa in
    let lsb = sum ctx sc b bo lb0 (bo + k) lb1 ws sb in
    let ls = mul_slices ctx sc ws sa lsa ws sb lsb ws z1 ws free in
    Fp.Vec.clear ws (z1 + ls) ((2 * k) - ls);
    for i = 0 to l0 - 1 do
      Fp.Vec.sub ctx sc ws (z1 + i) ws (z1 + i) d (dof + i)
    done;
    for i = 0 to l2 - 1 do
      Fp.Vec.sub ctx sc ws (z1 + i) ws (z1 + i) d (dof + (2 * k) + i)
    done;
    (* z1 = a1 b0 + a0 b1 has no coefficient at n - k or above. *)
    for i = 0 to min ((2 * k) - 1) (n - k) - 1 do
      Fp.Vec.add ctx sc d (dof + k + i) d (dof + k + i) ws (z1 + i)
    done;
    n
  end

let mul ctx (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let va = Fp.Vec.of_array ctx a and vb = Fp.Vec.of_array ctx b in
    let d = Fp.Vec.create ctx (la + lb - 1) in
    let ws = Fp.Vec.create ctx (workspace la lb) in
    ignore (mul_slices ctx (Fp.scratch_for ctx) va 0 la vb 0 lb d 0 ws 0);
    trim (Fp.Vec.to_array d)
  end

let eval ctx (p : t) x =
  let acc = ref Fp.zero in
  for i = Array.length p - 1 downto 0 do
    acc := Fp.add ctx (Fp.mul ctx !acc x) p.(i)
  done;
  !acc

let derivative ctx (p : t) : t =
  if Array.length p <= 1 then zero
  else trim (Array.init (Array.length p - 1) (fun i -> Fp.mul ctx (Fp.of_int ctx (i + 1)) p.(i + 1)))

let div_rem ctx (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let db = degree b in
  if degree a < db then (zero, a)
  else begin
    let rem = Array.copy (a : t :> Fp.el array) in
    let q = Array.make (degree a - db + 1) Fp.zero in
    let lead_inv = Fp.inv ctx b.(db) in
    for i = degree a - db downto 0 do
      let c = Fp.mul ctx rem.(i + db) lead_inv in
      if not (Fp.is_zero c) then begin
        q.(i) <- c;
        for j = 0 to db do
          rem.(i + j) <- Fp.sub ctx rem.(i + j) (Fp.mul ctx c b.(j))
        done
      end
    done;
    (trim q, trim rem)
  end

let reverse (p : t) n =
  (* Coefficient reversal treating p as having degree exactly n. *)
  trim (Array.init (n + 1) (fun i -> coeff p (n - i)))

let truncate (p : t) k = if Array.length p <= k then p else trim (Array.sub p 0 k)

let inv_mod_xk ctx (f : t) k =
  if is_zero f || Fp.is_zero f.(0) then invalid_arg "Poly.inv_mod_xk: constant term is zero";
  (* Newton iteration: g <- g * (2 - f g) mod x^(2^i). *)
  let g = ref (constant (Fp.inv ctx f.(0))) in
  let prec = ref 1 in
  while !prec < k do
    prec := min (2 * !prec) k;
    let fg = truncate (mul ctx (truncate f !prec) !g) !prec in
    let two_minus = sub ctx (constant (Fp.of_int ctx 2)) fg in
    g := truncate (mul ctx !g two_minus) !prec
  done;
  truncate !g k

(* A fixed divisor d, packed with the reciprocal R = rev(d)^-1 mod x^prec
   of its reversal. Dividing P by d is then two products: the top k
   coefficients of P reversed times R truncated to k, whose low k
   coefficients are the reversed quotient, and the remainder P - d q. *)
type divisor = { d : Fp.Vec.t; ld : int; r : Fp.Vec.t; prec : int }

let divisor ctx (d : t) prec =
  if is_zero d then raise Division_by_zero;
  let r = inv_mod_xk ctx (reverse d (degree d)) prec in
  { d = Fp.Vec.of_array ctx d; ld = Array.length d; r = Fp.Vec.of_array ctx r; prec }

let divisor_poly dv : t = Fp.Vec.to_array dv.d

let quotient_len dv lp = if lp < dv.ld then 0 else lp - dv.ld + 1

let div_workspace dv lp =
  let k = quotient_len dv lp in
  max ((3 * k) + workspace k k) (lp + workspace dv.ld k)

let quotient_slices ctx sc dv p po lp q qo (ws : Fp.Vec.t) wo =
  let k = quotient_len dv lp in
  if k > dv.prec then invalid_arg "Poly.quotient_slices: dividend beyond the reciprocal's precision";
  if k = 0 then 0
  else begin
    (* ws: [wo, wo + k) the top k coefficients of p reversed, then their
       product with R truncated to k. *)
    for i = 0 to k - 1 do
      Fp.Vec.blit p (po + lp - 1 - i) ws (wo + i) 1
    done;
    let u = wo + k in
    let lu = mul_slices ctx sc ws wo (top ws wo k) dv.r 0 (top dv.r 0 (min k dv.r.Fp.Vec.n)) ws u ws (u + (2 * k) - 1) in
    let lrq = top ws u (min k lu) in
    for i = 0 to k - 1 do
      if k - 1 - i < lrq then Fp.Vec.blit ws (u + k - 1 - i) q (qo + i) 1 else Fp.Vec.clear q (qo + i) 1
    done;
    top q qo k
  end

let remainder_slices ctx sc dv p po lp q qo lq (ws : Fp.Vec.t) wo =
  let l = mul_slices ctx sc dv.d 0 dv.ld q qo lq ws wo ws (wo + lp) in
  Fp.Vec.clear ws (wo + l) (lp - l);
  for i = 0 to lp - 1 do
    Fp.Vec.sub ctx sc ws (wo + i) p (po + i) ws (wo + i)
  done;
  top ws wo lp

let div_rem_by ctx dv (a : t) =
  let lp = Array.length a in
  let p = Fp.Vec.of_array ctx a and k = quotient_len dv lp in
  let q = Fp.Vec.create ctx k and ws = Fp.Vec.create ctx (div_workspace dv lp) in
  let sc = Fp.scratch_for ctx in
  let lq = quotient_slices ctx sc dv p 0 lp q 0 ws 0 in
  let lr = remainder_slices ctx sc dv p 0 lp q 0 lq ws 0 in
  (Array.init lq (Fp.Vec.get q), Array.init lr (Fp.Vec.get ws))

let div_rem_fast ctx (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  if degree a < degree b then (zero, a) else div_rem_by ctx (divisor ctx b (degree a - degree b + 1)) a

let divide_exact ctx dv a =
  let q, r = div_rem_by ctx dv a in
  if not (is_zero r) then failwith "Poly.divide_exact: non-zero remainder";
  q

let random ctx prg deg_bound =
  trim (Array.init (deg_bound + 1) (fun _ -> Chacha.Prg.field ctx prg))

let pp ctx fmt (p : t) =
  ignore ctx;
  if is_zero p then Format.pp_print_string fmt "0"
  else
    Array.iteri
      (fun i c ->
        if not (Fp.is_zero c) then
          Format.fprintf fmt "%s%a*x^%d" (if i > 0 then " + " else "") Fp.pp c i)
      p
