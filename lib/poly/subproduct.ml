(* Subproduct trees: fast multipoint evaluation and interpolation over
   arbitrary evaluation points (von zur Gathen & Gerhard, ch. 10). The QAP
   prover interpolates A(t), B(t), C(t) from their values at sigma_0..sigma_n
   (paper §A.3 step 1), and the divisor D(t) is the root of the tree built
   over sigma_1..sigma_n. *)

open Fieldlib

type tree =
  | Leaf of Fp.el (* the point s; polynomial is (x - s) *)
  | Node of Poly.t * tree * tree (* cached product of the leaves below *)

let poly_of ctx = function
  | Leaf s -> Poly.x_minus ctx s
  | Node (p, _, _) -> p

let rec build_range ctx (points : Fp.el array) lo hi =
  (* [lo, hi) non-empty *)
  if hi - lo = 1 then Leaf points.(lo)
  else begin
    let mid = (lo + hi) / 2 in
    let l = build_range ctx points lo mid and r = build_range ctx points mid hi in
    Node (Poly.mul ctx (poly_of ctx l) (poly_of ctx r), l, r)
  end

let build ctx points =
  if Array.length points = 0 then invalid_arg "Subproduct.build: no points";
  build_range ctx points 0 (Array.length points)

let root_poly ctx t = poly_of ctx t

(* Remainder-tree multipoint evaluation. *)
let eval_all ctx (f : Poly.t) tree =
  let out = ref [] in
  let rec go f tree =
    match tree with
    | Leaf s -> out := Poly.eval ctx f s :: !out
    | Node (p, l, r) ->
      let f = if Poly.degree f >= Poly.degree p then snd (Poly.div_rem_fast ctx f p) else f in
      go f l;
      go f r
  in
  go f tree;
  Array.of_list (List.rev !out)

(* Lagrange interpolation through the tree:
   L(x) = sum_i c_i * M(x)/(x - s_i) with c_i = y_i / M'(s_i). The
   interpolator holds the tree and the weights 1/M'(s_i); the QAP prover
   interpolates A, B and C over the same sigma_0..sigma_|C|, so it builds
   one once. *)
type interpolator = { tree : tree; denom_inv : Fp.el array }

let interpolator ctx tree =
  let m' = Poly.derivative ctx (root_poly ctx tree) in
  { tree; denom_inv = Fp.batch_inv ctx (eval_all ctx m' tree) }

let prepare ctx points = interpolator ctx (build ctx points)

let interpolate_with ctx ip (values : Fp.el array) =
  let n = Array.length values in
  if Array.length ip.denom_inv <> n then invalid_arg "Subproduct.interpolate_with: arity mismatch";
  let cs = Array.init n (fun i -> Fp.mul ctx values.(i) ip.denom_inv.(i)) in
  let idx = ref 0 in
  let rec combine tree =
    match tree with
    | Leaf _ ->
      let c = cs.(!idx) in
      incr idx;
      Poly.constant c
    | Node (_, l, r) ->
      let pl = poly_of ctx l and pr = poly_of ctx r in
      let cl = combine l in
      let cr = combine r in
      Poly.add ctx (Poly.mul ctx cl pr) (Poly.mul ctx cr pl)
  in
  combine ip.tree

let interpolate ctx tree values = interpolate_with ctx (interpolator ctx tree) values

(* Convenience: interpolate the unique polynomial of degree < n through
   (points_i, values_i). *)
let interpolate_points ctx points values = interpolate ctx (build ctx points) values
