(* The QAP-based linear PCP of Figure 10.

   A correct proof oracle encodes (z, h) where z satisfies C(X=x, Y=y) and
   h holds the coefficients of H = P_w / D. Per repetition the verifier
   runs rho_lin linearity-test iterations against each oracle, then a
   divisibility correction test whose queries q_a, q_b, q_c, q_d are
   blinded by self-correction (q1 = qa + q5, ..., q4 = qd + q8).

   Queries are generated as explicit vectors, the rows of two packed
   matrices, so that the argument layer (lib/argument) can push the very
   same rows through the commitment protocol and the wire; [decide] then
   consumes the prover's responses. *)

open Fieldlib
open Constr

type params = { rho : int; rho_lin : int }

(* §A.2: delta = 0.0294, rho_lin = 20, kappa = 0.177, rho = 8 gives
   soundness error kappa^rho < 9.6e-7. *)
let paper_params = { rho = 8; rho_lin = 20 }

(* Cheap parameters for tests that only exercise completeness or want a
   single-repetition rejection probability. *)
let test_params = { rho = 1; rho_lin = 2 }

let num_queries p = p.rho * ((6 * p.rho_lin) + 4)

(* One repetition's queries. Linearity triples index into the query arrays;
   the divisibility queries remember their blinds. *)
type repetition = {
  lin_z : (int * int * int) array; (* (i5, i6, i7): check pi(q5)+pi(q6)=pi(q7) *)
  lin_h : (int * int * int) array;
  iq1 : int;
  iq2 : int;
  iq3 : int; (* into z queries; blinded by q5 = first lin_z component *)
  iq4 : int; (* into h queries; blinded by q8 = first lin_h component *)
  iblind_z : int; (* q5 *)
  iblind_h : int; (* q8 *)
  qap_q : Qap.queries;
}

type queries = {
  z_queries : Fp.Rows.t;
  h_queries : Fp.Rows.t;
  reps : repetition array;
}

(* Commit/decommit-side query volumes: what the batch amortizes (§2.2). *)
let c_queries_z = Zobs.Counter.make "pcp.queries_z"
let c_queries_h = Zobs.Counter.make "pcp.queries_h"

let fresh_tau ctx qap prg =
  let rec go () =
    let tau = Chacha.Prg.field ctx prg in
    match Qapb.queries qap ~tau with
    | q -> q
    | exception Qapb.Tau_collision -> go ()
  in
  go ()

(* Rows are sampled through the PRG straight into the packed matrices, in
   the order the protocol has always drawn them (per repetition: the z
   linearity triples, the h triples, then tau), so the transcript is
   fixed by the seed alone. Each repetition fills 3 rho_lin + 3 z rows
   (triples, then q1..q3) and 3 rho_lin + 1 h rows (triples, then q4). *)
let gen_queries ?(params = paper_params) (qap : Qapb.t) (prg : Chacha.Prg.t) : queries =
  Zobs.Span.with_ ~name:"pcp.gen_queries"
    ~attrs:[ ("rho", string_of_int params.rho); ("rho_lin", string_of_int params.rho_lin) ]
  @@ fun () ->
  let ctx = Qapb.ctx qap in
  let sc = Fp.scratch_for ctx in
  let rows per_rep = params.rho * ((3 * params.rho_lin) + per_rep) in
  let zq = Fp.Rows.create ctx ~rows:(rows 3) ~width:(Qapb.sys qap).R1cs.num_z in
  let hq = Fp.Rows.create ctx ~rows:(rows 1) ~width:(Qapb.h_len qap) in
  let nz = ref 0 and nh = ref 0 in
  let next n =
    incr n;
    !n - 1
  in
  let random_row q n =
    let i = next n in
    let o = Fp.Rows.row q i in
    for j = 0 to q.Fp.Rows.width - 1 do
      Chacha.Prg.field_into ctx prg q.Fp.Rows.vec (o + j)
    done;
    i
  in
  (* q5, q6 random and q7 = q5 + q6. *)
  let lin_triple q n () =
    let i5 = random_row q n in
    let i6 = random_row q n in
    let i7 = next n in
    Fp.Rows.add ctx sc q i7 i5 i6;
    (i5, i6, i7)
  in
  (* A divisibility query blinded by self-correction: row <- v + blind. *)
  let blinded q n v blind =
    let i = next n in
    Fp.Rows.set_row q i v;
    Fp.Rows.add ctx sc q i i blind;
    i
  in
  let repetition () =
    let lin_z = Array.init params.rho_lin (fun _ -> lin_triple zq nz ()) in
    let lin_h = Array.init params.rho_lin (fun _ -> lin_triple hq nh ()) in
    let iblind_z, _, _ = lin_z.(0) in
    let iblind_h, _, _ = lin_h.(0) in
    let qap_q = fresh_tau ctx qap prg in
    let iq1 = blinded zq nz (Qapb.z_slice qap qap_q.Qap.a_tau) iblind_z in
    let iq2 = blinded zq nz (Qapb.z_slice qap qap_q.Qap.b_tau) iblind_z in
    let iq3 = blinded zq nz (Qapb.z_slice qap qap_q.Qap.c_tau) iblind_z in
    let iq4 = blinded hq nh qap_q.Qap.qd iblind_h in
    { lin_z; lin_h; iq1; iq2; iq3; iq4; iblind_z; iblind_h; qap_q }
  in
  let reps = Array.init params.rho (fun _ -> repetition ()) in
  Zobs.Counter.add c_queries_z zq.Fp.Rows.rows;
  Zobs.Counter.add c_queries_h hq.Fp.Rows.rows;
  { z_queries = zq; h_queries = hq; reps }

(* Responses: one field element per query, in query order. *)
type responses = { z_resp : Fp.el array; h_resp : Fp.el array }

let answer (oracle : Oracle.t) (q : queries) : responses =
  Zobs.Span.with_ ~name:"pcp.answer" (fun () ->
      {
        z_resp = Array.init q.z_queries.Fp.Rows.rows (oracle.Oracle.query_z q.z_queries);
        h_resp = Array.init q.h_queries.Fp.Rows.rows (oracle.Oracle.query_h q.h_queries);
      })

type verdict = Accept | Reject_linearity of int | Reject_divisibility of int

(* [io] holds the bound input/output values (variables n'+1 .. n in
   order). *)
let decide (qap : Qapb.t) (q : queries) (r : responses) ~(io : Fp.el array) : verdict =
  Zobs.Span.with_ ~name:"pcp.decide" @@ fun () ->
  let ctx = Qapb.ctx qap in
  let rz = r.z_resp and rh = r.h_resp in
  let rec check_reps k =
    if k >= Array.length q.reps then Accept
    else begin
      let rep = q.reps.(k) in
      let lin_ok =
        Array.for_all
          (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx rz.(i5) rz.(i6)) rz.(i7))
          rep.lin_z
        && Array.for_all
             (fun (i5, i6, i7) -> Fp.equal (Fp.add ctx rh.(i5) rh.(i6)) rh.(i7))
             rep.lin_h
      in
      if not lin_ok then Reject_linearity k
      else begin
        let qq = rep.qap_q in
        let la = Qapb.io_contribution qap qq.Qap.a_tau io in
        let lb = Qapb.io_contribution qap qq.Qap.b_tau io in
        let lc = Qapb.io_contribution qap qq.Qap.c_tau io in
        let a_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq1) rz.(rep.iblind_z)) la in
        let b_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq2) rz.(rep.iblind_z)) lb in
        let c_tau = Fp.add ctx (Fp.sub ctx rz.(rep.iq3) rz.(rep.iblind_z)) lc in
        let h_tau = Fp.sub ctx rh.(rep.iq4) rh.(rep.iblind_h) in
        let lhs = Fp.mul ctx qq.Qap.d_tau h_tau in
        let rhs = Fp.sub ctx (Fp.mul ctx a_tau b_tau) c_tau in
        if Fp.equal lhs rhs then check_reps (k + 1) else Reject_divisibility k
      end
    end
  in
  check_reps 0

let accepts v = match v with Accept -> true | Reject_linearity _ | Reject_divisibility _ -> false

(* Convenience end-to-end run against an oracle. *)
let run ?(params = paper_params) qap prg oracle ~io =
  let q = gen_queries ~params qap prg in
  let r = answer oracle q in
  decide qap q r ~io
