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

(* Coefficientwise, the shorter operand zero-padded. *)
let zip f (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let get x lx i = if i < lx then x.(i) else Fp.zero in
  trim (Array.init (max la lb) (fun i -> f (get a la i) (get b lb i)))

let add ctx = zip (Fp.add ctx)
let sub ctx = zip (Fp.sub ctx)

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
  Fp.Vec.add_n ctx sc s so x o0 x o1 m;
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
    Fp.Vec.sub_n ctx sc ws z1 ws z1 d dof l0;
    Fp.Vec.sub_n ctx sc ws z1 ws z1 d (dof + (2 * k)) l2;
    (* z1 = a1 b0 + a0 b1 has no coefficient at n - k or above. *)
    Fp.Vec.add_n ctx sc d (dof + k) d (dof + k) ws z1 (min ((2 * k) - 1) (n - k));
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

let div_rem_fast ctx (a : t) (b : t) =
  if is_zero b then raise Division_by_zero;
  let da = degree a and db = degree b in
  if da < db then (zero, a)
  else begin
    (* The reversed quotient is rev(a) / rev(b) mod x^k. *)
    let k = da - db + 1 in
    let qr = truncate (mul ctx (truncate (reverse a da) k) (inv_mod_xk ctx (reverse b db) k)) k in
    let q = reverse qr (k - 1) in
    (q, sub ctx a (mul ctx b q))
  end

(* Middle products against a fixed kernel: transposed Karatsuba (Hanrot,
   Quercia and Zimmermann, "The Middle Product Algorithm I", AAECC 2004).
   For x of n = 2m coefficients and a window y of 2n - 1, MP(x, y)_j =
   sum_i x_i y_(j+n-1-i), j < n, is the middle of x y. With x = x0 + x1 t^m
   and y's overlapping thirds y0, y1, y2 of 2m - 1 coefficients from 0, m
   and 2m, MP(x, y) = (a + b, a + c) for a = MP(x0 + x1, y1),
   b = MP(x1, y0 - y1) and c = MP(x0, y2 - y1): three half-size middle
   products. The kernel is packed once, as a window of N = s 2^L >= n
   (s below the threshold) that is y with N - n zero slots on either
   side; these meet only x's zero slots past n or outputs past n. The
   differences are formed in the workspace as a node needs them: stored,
   they would take about 4N (3/2)^L slots a kernel. *)
type kernel = { kn : int; size : int; win : Fp.Vec.t }

let kernel_size n =
  let rec leaf s = if s < karatsuba_threshold then s else leaf ((s + 1) / 2) in
  let rec up sz = if sz >= n then sz else up (2 * sz) in
  up (leaf n)

let kernel ctx (y : Fp.el array) =
  let ly = Array.length y in
  if ly = 0 || ly land 1 = 0 then invalid_arg "Poly.kernel: the window must have 2n - 1 slots";
  let n = (ly + 1) / 2 in
  let size = kernel_size n in
  let win = Fp.Vec.create ctx ((2 * size) - 1) in
  Array.iteri (fun i c -> Fp.Vec.set win (size - n + i) c) y;
  { kn = n; size; win }

(* Per node: the half sum and a's outputs (2m slots) and a difference
   window (2m - 1), then the children's. *)
let middle_workspace kn =
  let rec go sz = if sz < karatsuba_threshold then 0 else (2 * sz) - 1 + go (sz / 2) in
  go kn.size

(* Slots [dof, dof + nout) of [d] get the first nout <= sz outputs of
   MP(x, y) for the slices (x, xo, lx), lx <= sz, and (y, yo, 2 sz - 1). *)
let rec middle ctx sc y yo sz x xo lx nout (d : Fp.Vec.t) dof (ws : Fp.Vec.t) wo =
  if lx = 0 then Fp.Vec.clear d dof nout
  else if sz < karatsuba_threshold then
    Fp.Vec.convolve_mid ctx sc x xo lx y (yo + sz - lx) (lx + nout - 1) (lx - 1) nout d dof
  else begin
    let m = sz / 2 and l = sz - 1 in
    let lx1 = max 0 (lx - m) and lx0 = top x xo (min lx m) in
    let n0 = min m nout and n1 = nout - m in
    let sx = wo and a = wo + m and yd = wo + (2 * m) in
    let free = yd + l in
    (* a into ws, b into the low outputs, c into the high ones. *)
    let ls = sum ctx sc x xo lx0 (xo + m) lx1 ws sx in
    middle ctx sc y (yo + m) m ws sx ls n0 ws a ws free;
    Fp.Vec.sub_n ctx sc ws yd y yo y (yo + m) l;
    middle ctx sc ws yd m x (xo + m) lx1 n0 d dof ws free;
    Fp.Vec.add_n ctx sc d dof d dof ws a n0;
    if n1 > 0 then begin
      Fp.Vec.sub_n ctx sc ws yd y (yo + (2 * m)) y (yo + m) l;
      middle ctx sc ws yd m x xo lx0 n1 d (dof + m) ws free;
      Fp.Vec.add_n ctx sc d (dof + m) d (dof + m) ws a n1
    end
  end

let middle_slices ctx sc kn x xo lx d dof ws wo =
  if lx > kn.kn then invalid_arg "Poly.middle_slices: operand longer than the kernel's size";
  middle ctx sc kn.win 0 kn.size x xo lx kn.kn d dof ws wo

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
