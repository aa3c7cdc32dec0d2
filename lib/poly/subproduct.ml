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
   interpolator holds the tree's node products packed in one arena and
   the weights 1/M'(s_i); the QAP prover interpolates A, B and C over the
   same sigma_0..sigma_|C|, so it builds one once. *)

(* Where a node's product (x - s_lo)...(x - s_(hi-1)) sits in the arena:
   [off, off + len), len = hi - lo + 1. *)
type shape = { off : int; len : int; kids : (shape * shape) option }

type interpolator = { n : int; nodes : Fp.Vec.t; shape : shape; weights : Fp.Vec.t }

let weights ctx tree = Fp.batch_inv ctx (eval_all ctx (Poly.derivative ctx (root_poly ctx tree)) tree)

let interpolator ?weights:w ctx tree =
  let rec slots = function Leaf _ -> 2 | Node (p, l, r) -> Array.length (p :> Fp.el array) + slots l + slots r in
  let nodes = Fp.Vec.create ctx (slots tree) in
  let next = ref 0 in
  let rec pack tree =
    let p = poly_of ctx tree in
    let off = !next and len = Poly.degree p + 1 in
    next := off + len;
    Array.iteri (fun i c -> Fp.Vec.set nodes (off + i) c) (p :> Fp.el array);
    match tree with
    | Leaf _ -> { off; len; kids = None }
    | Node (_, l, r) ->
      let l = pack l in
      { off; len; kids = Some (l, pack r) }
  in
  let shape = pack tree in
  let w = match w with Some w -> w | None -> weights ctx tree in
  if Array.length w <> shape.len - 1 then invalid_arg "Subproduct.interpolator: one weight per point";
  { n = Array.length w; nodes; shape; weights = Fp.Vec.of_array ctx w }

let prepare ctx points = interpolator ctx (build ctx points)

(* Two products of at most n coefficients, then the workspace of one
   whose operands have at most n/2 + 2 (the right child of the root). *)
let space ip = (2 * ip.n) + Poly.workspace ((ip.n / 2) + 2) ((ip.n / 2) + 2)

(* Slots [t n, (t+1) n) of [v] for t < m hold values at the n points on
   entry and the interpolant's coefficients on exit. Each node's m
   interpolants are combined in its own slots [lo, hi) of them, as
   cl * pr + cr * pl, from the children's in [lo, mid) and [mid, hi):
   the boxed recursion's products on the same trimmed operands. *)
let interpolate_slices ctx sc ip (v : Fp.Vec.t) m (ws : Fp.Vec.t) wo =
  let n = ip.n in
  let lens = Array.make (m * n) 0 in
  let t1 = wo and t2 = wo + n and free = wo + (2 * n) in
  let rec go lo hi node =
    match node.kids with
    | None ->
      for t = 0 to m - 1 do
        let s = (t * n) + lo in
        Fp.Vec.mul ctx sc v s v s ip.weights lo;
        lens.(s) <- (if Fp.Vec.is_zero v s then 0 else 1)
      done
    | Some (l, r) ->
      let mid = (lo + hi) / 2 in
      go lo mid l;
      go mid hi r;
      for t = 0 to m - 1 do
        let sl = (t * n) + lo and sr = (t * n) + mid in
        let l1 = Poly.mul_slices ctx sc v sl lens.(sl) ip.nodes r.off r.len ws t1 ws free in
        let l2 = Poly.mul_slices ctx sc v sr lens.(sr) ip.nodes l.off l.len ws t2 ws free in
        let len = max l1 l2 in
        Fp.Vec.clear ws (t1 + l1) (len - l1);
        Fp.Vec.clear ws (t2 + l2) (len - l2);
        Fp.Vec.add_n ctx sc v sl ws t1 ws t2 len;
        lens.(sl) <- Poly.top v sl len
      done
  in
  go 0 n ip.shape;
  Array.init m (fun t ->
      let l = lens.(t * n) in
      Fp.Vec.clear v ((t * n) + l) (n - l);
      l)

let interpolate_with ctx ip (values : Fp.el array) =
  if Array.length values <> ip.n then invalid_arg "Subproduct.interpolate_with: arity mismatch";
  let v = Fp.Vec.of_array ctx values and ws = Fp.Vec.create ctx (space ip) in
  let l = (interpolate_slices ctx (Fp.scratch_for ctx) ip v 1 ws 0).(0) in
  Poly.of_coeffs (Array.init l (Fp.Vec.get v))

(* Convenience: interpolate the unique polynomial of degree < n through
   (points_i, values_i). *)
let interpolate_points ctx points values = interpolate_with ctx (prepare ctx points) values
