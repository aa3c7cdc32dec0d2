(* The linear proof oracle pi = (pi_z, pi_h) (Zaatar, §3/§A.1) or
   pi = (pi_1, pi_2) (Ginger, §2.2): a pair of linear functions determined
   by vectors, queried with vectors of matching length.

   In the full argument system the verifier never talks to an oracle
   directly — the commitment protocol (lib/commit) forces the prover to
   simulate one. This module is the abstraction both layers share, plus the
   dishonest-oracle constructors used by the soundness test suite. *)

open Fieldlib

type t = {
  z_len : int;
  h_len : int;
  query_z : Fp.Rows.t -> int -> Fp.el; (* answers one row of a query matrix *)
  query_h : Fp.Rows.t -> int -> Fp.el;
}

(* <row i of q, u> over a proof vector packed once per oracle. *)
let linear ctx name (u : Fp.Vec.t) (q : Fp.Rows.t) i =
  if q.Fp.Rows.width <> Fp.Vec.length u then
    invalid_arg
      (Printf.sprintf "Oracle.%s: query length %d, expected %d" name q.Fp.Rows.width
         (Fp.Vec.length u));
  Fp.Rows.dot ctx (Fp.scratch_for ctx) q i u

(* The honest oracle for a proof vector (u_z, u_h). *)
let honest ctx (u_z : Fp.el array) (u_h : Fp.el array) =
  {
    z_len = Array.length u_z;
    h_len = Array.length u_h;
    query_z = linear ctx "query_z" (Fp.Vec.of_array ctx u_z);
    query_h = linear ctx "query_h" (Fp.Vec.of_array ctx u_h);
  }

(* A linear oracle whose z part encodes the wrong vector: commits to
   (z', h) — caught by the divisibility test. *)
let wrong_vector ctx (u_z : Fp.el array) (u_h : Fp.el array) = honest ctx u_z u_h

(* A non-linear oracle: behaves like [inner] except that it adds a
   query-dependent perturbation. Caught by the linearity tests. *)
let nonlinear ctx (inner : t) =
  (* A deterministic non-linear function of the query row: the sum of the
     squares of its elements, read through the packed view. *)
  let poison (q : Fp.Rows.t) i =
    let sc = Fp.scratch_for ctx in
    let acc = Fp.Vec.create ctx 2 and o = Fp.Rows.row q i in
    for j = 0 to q.Fp.Rows.width - 1 do
      Fp.Vec.mul ctx sc acc 1 q.Fp.Rows.vec (o + j) q.Fp.Rows.vec (o + j);
      Fp.Vec.add ctx sc acc 0 acc 0 acc 1
    done;
    Fp.Vec.get acc 0
  in
  {
    inner with
    query_z = (fun q i -> Fp.add ctx (inner.query_z q i) (poison q i));
  }

(* An oracle that answers a fixed fraction of queries with garbage. *)
let flaky ctx (inner : t) prg ~flake_prob_percent =
  let maybe_garble v =
    if Chacha.Prg.int_below prg 100 < flake_prob_percent then
      Fp.add ctx v (Chacha.Prg.field_nonzero ctx prg)
    else v
  in
  {
    inner with
    query_z = (fun q i -> maybe_garble (inner.query_z q i));
    query_h = (fun q i -> maybe_garble (inner.query_h q i));
  }
