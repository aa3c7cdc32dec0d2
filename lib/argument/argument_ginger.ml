(* The Ginger baseline as a full argument: the §2.2 linear PCP
   (u = (z, z (x) z)) under the same linear commitment. The paper never
   runs Ginger at evaluation sizes (quadratic proof vectors make that
   infeasible) and neither do we — this driver exists so the benches can
   *measure* Ginger end-to-end at tiny sizes and validate the Figure 3
   Ginger column that all the estimated comparisons rely on.

   Unlike the Zaatar driver, instances are verified independently: Ginger's
   circuit-query coefficients depend on the bound inputs/outputs, so the
   full query set is per-instance here (the original system shares the
   computation-oblivious queries across a batch; for model validation the
   per-instance cost is what matters). *)

open Fieldlib
open Constr
open Zcrypto

type computation = {
  ginger : Quad.system;
  num_inputs : int;
  num_outputs : int;
  solve : Fp.el array -> Fp.el array; (* inputs -> full canonical assignment *)
}

type config = {
  params : Pcp.Pcp_ginger.params;
  p_bits : int;
  cheat : bool;
  domains : int; (* Pool domains for Enc(r) generation (the quadratic proof vector dominates) *)
}

let test_config = { params = Pcp.Pcp_ginger.test_params; p_bits = 192; cheat = false; domains = 1 }

type instance_result = {
  claimed_output : Fp.el array;
  accepted : bool;
  commit_ok : bool;
  pcp_verdict : Pcp.Pcp_ginger.verdict;
  prover : Metrics.t;
  verifier_s : float;
}

let run_instance ?(config = test_config) (comp : computation) ~(prg : Chacha.Prg.t)
    ~(x : Fp.el array) : instance_result =
  Zobs.Span.with_ ~name:"argument_ginger.run_instance" @@ fun () ->
  let ctx = comp.ginger.Quad.field in
  let pm = Metrics.create () in
  let v_time = ref 0.0 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = Zobs.Span.with_ ~name:"ginger_verifier" f in
    v_time := !v_time +. (Unix.gettimeofday () -. t0);
    r
  in
  let w = Metrics.time pm "solve_constraints" (fun () -> comp.solve x) in
  assert (Quad.satisfied ctx comp.ginger w);
  let num_z = comp.ginger.Quad.num_z in
  let io = Array.sub w (num_z + 1) (comp.num_inputs + comp.num_outputs) in
  let outputs = Array.sub w (num_z + 1 + comp.num_inputs) comp.num_outputs in
  let z = Array.sub w 1 num_z in
  (* Prover: the quadratic proof vector. *)
  let z_for_proof =
    if config.cheat then begin
      let z' = Array.copy z in
      if Array.length z' > 0 then z'.(0) <- Fp.add ctx z'.(0) Fp.one;
      z'
    end
    else z
  in
  let u1, u2 = Metrics.time pm "construct_u" (fun () -> Pcp.Pcp_ginger.proof_vector ctx z_for_proof) in
  (* Verifier: commitment requests and queries. *)
  let grp = timed (fun () -> Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:config.p_bits ()) in
  let req1, vs1 =
    timed (fun () ->
        Commitment.Commit.commit_request ~domains:config.domains ctx grp prg ~len:(Array.length u1))
  in
  let req2, vs2 =
    timed (fun () ->
        Commitment.Commit.commit_request ~domains:config.domains ctx grp prg ~len:(Array.length u2))
  in
  let com1 = Metrics.time pm "crypto_ops" (fun () -> Commitment.Commit.prover_commit req1 u1) in
  let com2 = Metrics.time pm "crypto_ops" (fun () -> Commitment.Commit.prover_commit req2 u2) in
  let bound = timed (fun () -> Quad.bind_io ctx comp.ginger io) in
  let queries = timed (fun () -> Pcp.Pcp_ginger.gen_queries ~params:config.params ctx bound prg) in
  let ch1 = timed (fun () -> Commitment.Commit.decommit_challenge ctx vs1 prg queries.Pcp.Pcp_ginger.q1) in
  let ch2 = timed (fun () -> Commitment.Commit.decommit_challenge ctx vs2 prg queries.Pcp.Pcp_ginger.q2) in
  (* Prover: responses. *)
  let oracle = Pcp.Oracle.honest ctx u1 u2 in
  let responses = Metrics.time pm "answer_queries" (fun () -> Pcp.Pcp_ginger.answer oracle queries) in
  let ans1 =
    Metrics.time pm "answer_queries" (fun () ->
        {
          Commitment.Commit.a = responses.Pcp.Pcp_ginger.r1;
          a_t = oracle.Pcp.Oracle.query_z (Fp.Rows.of_vec ch1.Commitment.Commit.t) 0;
        })
  in
  let ans2 =
    Metrics.time pm "answer_queries" (fun () ->
        {
          Commitment.Commit.a = responses.Pcp.Pcp_ginger.r2;
          a_t = oracle.Pcp.Oracle.query_h (Fp.Rows.of_vec ch2.Commitment.Commit.t) 0;
        })
  in
  (* Verifier: checks. *)
  let commit_ok =
    timed (fun () ->
        Commitment.Commit.consistency_check vs1 ch1 ~commitment:com1 ans1
        && Commitment.Commit.consistency_check vs2 ch2 ~commitment:com2 ans2)
  in
  let pcp_verdict = timed (fun () -> Pcp.Pcp_ginger.decide ctx queries responses) in
  {
    claimed_output = outputs;
    accepted = commit_ok && Pcp.Pcp_ginger.accepts pcp_verdict;
    commit_ok;
    pcp_verdict;
    prover = pm;
    verifier_s = !v_time;
  }
