(* The end-to-end batched argument system of Figure 2: the QAP-based linear
   PCP (lib/pcp) composed with the linear commitment (lib/commit), verifying
   beta instances of one computation Psi against a (possibly cheating)
   prover.

   Batch amortization (§2.2): PCP queries, the Enc(r) commitment requests
   and the decommit challenges are generated once per batch; each instance
   contributes its own witness, proof vector, commitments and responses. *)

open Fieldlib
open Constr
open Zcrypto

(* A computation, as handed over by the compiler (or built by hand): the
   quadratic-form constraints plus a witness solver. Variables num_z+1 ..
   num_z+num_inputs are X, the following num_outputs are Y. [solve] maps an
   input vector to the full satisfying assignment (slot 0 = 1). *)
type computation = {
  r1cs : R1cs.system;
  num_inputs : int;
  num_outputs : int;
  solve : Fp.el array -> Fp.el array;
}

let io_of_w comp (w : Fp.el array) =
  Array.sub w (comp.r1cs.R1cs.num_z + 1) (comp.num_inputs + comp.num_outputs)

let outputs_of_w comp (w : Fp.el array) =
  Array.sub w (comp.r1cs.R1cs.num_z + 1 + comp.num_inputs) comp.num_outputs

(* Prover strategies for the adversarial test-suite and the soundness
   bench. All cheats are caught with the PCP/commitment's stated
   probability. *)
type strategy =
  | Honest
  | Wrong_output (* report a wrong y, prove with the stale witness *)
  | Corrupt_witness (* perturb one z entry, divide-and-drop-remainder h *)
  | Corrupt_h (* honest z, perturbed h *)
  | Equivocate (* commit to u, answer queries from a different u' *)
  | Nonlinear (* answer z-queries through a non-linear function *)

type instance_result = {
  claimed_output : Fp.el array;
  accepted : bool;
  commit_ok : bool;
  pcp_verdict : Pcp.Pcp_zaatar.verdict;
}

type batch_result = {
  instances : instance_result array;
  verifier_setup_s : float; (* amortized-over-batch costs *)
  verifier_per_instance_s : float; (* total across the batch *)
  prover : Metrics.t;
}

type config = {
  params : Pcp.Pcp_zaatar.params;
  p_bits : int; (* ElGamal group size *)
  strategy : strategy;
  domains : int; (* Pool domains for the commitment pipeline (Enc(r), prover commits) *)
  qap_backend : Qapb.backend; (* Auto picks NTT iff the field's 2-adicity allows *)
}

let default_config =
  { params = Pcp.Pcp_zaatar.paper_params; p_bits = 1024; strategy = Honest; domains = 1;
    qap_backend = Qapb.Auto }

let test_config =
  { params = Pcp.Pcp_zaatar.test_params; p_bits = 192; strategy = Honest; domains = 1;
    qap_backend = Qapb.Auto }

(* The prover's per-instance proof material. *)
type proof_parts = {
  u_z : Fp.el array; (* what is committed and answered for pi_z *)
  u_h : Fp.el array;
  answer_u_z : Fp.el array; (* what queries are answered with (equivocation) *)
  answer_u_h : Fp.el array;
  nonlinear : bool;
  claimed_io : Fp.el array;
  claimed_output : Fp.el array;
}

let build_proof_parts ctx comp (qap : Qapb.t) strategy prg (x : Fp.el array) (pm : Metrics.t) :
    proof_parts =
  let w = Metrics.time pm "solve_constraints" (fun () -> comp.solve x) in
  assert (R1cs.satisfied ctx comp.r1cs w);
  let num_z = comp.r1cs.R1cs.num_z in
  match strategy with
  | Honest ->
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h qap w) in
    let z = Array.sub w 1 num_z in
    {
      u_z = z;
      u_h = h;
      answer_u_z = z;
      answer_u_h = h;
      nonlinear = false;
      claimed_io = io_of_w comp w;
      claimed_output = outputs_of_w comp w;
    }
  | Wrong_output ->
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h qap w) in
    let z = Array.sub w 1 num_z in
    let io = io_of_w comp w in
    let out = outputs_of_w comp w in
    let io' = Array.copy io and out' = Array.copy out in
    let last_io = Array.length io' - 1 and last_out = Array.length out' - 1 in
    io'.(last_io) <- Fp.add ctx io'.(last_io) Fp.one;
    out'.(last_out) <- Fp.add ctx out'.(last_out) Fp.one;
    { u_z = z; u_h = h; answer_u_z = z; answer_u_h = h; nonlinear = false;
      claimed_io = io'; claimed_output = out' }
  | Corrupt_witness ->
    let w' = Array.copy w in
    w'.(1) <- Fp.add ctx w'.(1) (Chacha.Prg.field_nonzero ctx prg);
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h_forced qap w') in
    let z = Array.sub w' 1 num_z in
    { u_z = z; u_h = h; answer_u_z = z; answer_u_h = h; nonlinear = false;
      claimed_io = io_of_w comp w'; claimed_output = outputs_of_w comp w' }
  | Corrupt_h ->
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h qap w) in
    let h' = Array.copy h in
    h'.(0) <- Fp.add ctx h'.(0) Fp.one;
    let z = Array.sub w 1 num_z in
    { u_z = z; u_h = h'; answer_u_z = z; answer_u_h = h'; nonlinear = false;
      claimed_io = io_of_w comp w; claimed_output = outputs_of_w comp w }
  | Equivocate ->
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h qap w) in
    let z = Array.sub w 1 num_z in
    let z' = Array.copy z in
    if Array.length z' > 0 then z'.(0) <- Fp.add ctx z'.(0) Fp.one;
    { u_z = z; u_h = h; answer_u_z = z'; answer_u_h = h; nonlinear = false;
      claimed_io = io_of_w comp w; claimed_output = outputs_of_w comp w }
  | Nonlinear ->
    let h = Metrics.time pm "construct_u" (fun () -> Qapb.prover_h qap w) in
    let z = Array.sub w 1 num_z in
    { u_z = z; u_h = h; answer_u_z = z; answer_u_h = h; nonlinear = true;
      claimed_io = io_of_w comp w; claimed_output = outputs_of_w comp w }

(* ------------------------------------------------------------------ *)
(* Sessions: the protocol as two message-driven state machines          *)
(* ------------------------------------------------------------------ *)

exception Session_error of string

let session_error fmt = Printf.ksprintf (fun s -> raise (Session_error s)) fmt

let digest comp = Serialize.system_digest comp.r1cs

(* Verifier phases mirror the prover's Metrics spans: setup is amortized
   over the batch, per-instance work is not (Figure 3's e vs d costs).
   Each phase is also a ledger phase, so the verifier's op vector is
   accounted under the same names (Zobs.Ledger.phases). *)
let timed acc name f =
  let t0 = Unix.gettimeofday () in
  let r = Zobs.Ledger.with_phase name (fun () -> Zobs.Span.with_ ~name f) in
  acc := !acc +. (Unix.gettimeofday () -. t0);
  r

(* Both sessions speak only Zwire messages; a [step] is what the driver —
   loopback or socket — does with the state machine's reply. *)
type step = [ `Send of Zwire.msg | `Finished of Zwire.msg option ]

module Verifier_session = struct
  type state =
    | Expect_hello_ok
    | Expect_commitments
    | Expect_answers of (Elgamal.ciphertext * Elgamal.ciphertext) array
    | Done of instance_result array

  type t = {
    config : config;
    comp : computation;
    qap : Qapb.t;
    ctx : Fp.ctx;
    digest : string;
    trace_id : string;
    inputs : Fp.el array array;
    grp : Group.t;
    queries : Pcp.Pcp_zaatar.queries;
    req_z : Commitment.Commit.request;
    vs_z : Commitment.Commit.verifier_secret;
    req_h : Commitment.Commit.request;
    vs_h : Commitment.Commit.verifier_secret;
    ch_z : Commitment.Commit.challenge;
    ch_h : Commitment.Commit.challenge;
    v_setup : float ref;
    v_per : float ref;
    mutable state : state;
  }

  (* All batch randomness is drawn here, in the exact order of the original
     monolithic run_batch (group, queries, Enc(r) x2, challenges x2), so a
     loopback run sharing one PRG with the prover replays the historical
     transcript bit for bit. *)
  (* [trace_id] never touches [prg]: minting it from wall clock keeps the
     protocol transcript bit-identical to an untraced run. *)
  let create ?(config = default_config) ?(trace_id = "") (comp : computation)
      ~(prg : Chacha.Prg.t) ~(inputs : Fp.el array array) : t =
    if trace_id <> "" then Zobs.set_trace_id trace_id;
    let ctx = comp.r1cs.R1cs.field in
    let qap = Qapb.of_r1cs ~backend:config.qap_backend comp.r1cs in
    let num_z = comp.r1cs.R1cs.num_z in
    let h_len = Qapb.h_len qap in
    let v_setup = ref 0.0 and v_per = ref 0.0 in
    let setup f = timed v_setup "verifier_setup" f in
    let grp =
      setup (fun () -> Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:config.p_bits ())
    in
    let queries = setup (fun () -> Pcp.Pcp_zaatar.gen_queries ~params:config.params qap prg) in
    let req_z, vs_z =
      setup (fun () ->
          Commitment.Commit.commit_request ~domains:config.domains ctx grp prg ~len:num_z)
    in
    let req_h, vs_h =
      setup (fun () ->
          Commitment.Commit.commit_request ~domains:config.domains ctx grp prg ~len:h_len)
    in
    let ch_z =
      setup (fun () ->
          Commitment.Commit.decommit_challenge ctx vs_z prg queries.Pcp.Pcp_zaatar.z_queries)
    in
    let ch_h =
      setup (fun () ->
          Commitment.Commit.decommit_challenge ctx vs_h prg queries.Pcp.Pcp_zaatar.h_queries)
    in
    { config; comp; qap; ctx; digest = digest comp; trace_id; inputs; grp; queries; req_z;
      vs_z; req_h; vs_h; ch_z; ch_h; v_setup; v_per; state = Expect_hello_ok }

  let codec t = Zwire.codec ~group_p:t.grp.Group.p t.ctx

  let initial t =
    Zwire.Hello
      {
        Zwire.digest = t.digest;
        modulus = Fp.modulus t.ctx;
        rho = t.config.params.Pcp.Pcp_zaatar.rho;
        rho_lin = t.config.params.Pcp.Pcp_zaatar.rho_lin;
        p_bits = t.config.p_bits;
        inputs = t.inputs;
        trace_id = t.trace_id;
      }

  let check_answers t (a : Zwire.instance_answers) i =
    let nzq = t.queries.Pcp.Pcp_zaatar.z_queries.Fp.Rows.rows in
    let nhq = t.queries.Pcp.Pcp_zaatar.h_queries.Fp.Rows.rows in
    if Array.length a.Zwire.z_resp <> nzq || Array.length a.Zwire.h_resp <> nhq then
      session_error "instance %d: %d/%d responses, expected %d/%d" i
        (Array.length a.Zwire.z_resp) (Array.length a.Zwire.h_resp) nzq nhq;
    if Array.length a.Zwire.claimed_io <> t.comp.num_inputs + t.comp.num_outputs then
      session_error "instance %d: claimed io length %d, expected %d" i
        (Array.length a.Zwire.claimed_io) (t.comp.num_inputs + t.comp.num_outputs);
    if Array.length a.Zwire.claimed_output <> t.comp.num_outputs then
      session_error "instance %d: claimed output length %d, expected %d" i
        (Array.length a.Zwire.claimed_output) t.comp.num_outputs

  let on_msg t (msg : Zwire.msg) : step =
    match (t.state, msg) with
    | _, Zwire.Error_msg e -> session_error "prover error: %s" e
    | Expect_hello_ok, Zwire.Hello_ok d ->
      if d <> t.digest then
        session_error "prover acknowledged digest %s, expected %s" d t.digest;
      t.state <- Expect_commitments;
      `Send
        (Zwire.Commit_request
           {
             Zwire.group_p = t.grp.Group.p;
             group_q = t.grp.Group.q;
             group_g = t.grp.Group.g;
             y_z = t.req_z.Commitment.Commit.pk.Elgamal.y;
             y_h = t.req_h.Commitment.Commit.pk.Elgamal.y;
             enc_r_z = t.req_z.Commitment.Commit.enc_r;
             enc_r_h = t.req_h.Commitment.Commit.enc_r;
           })
    | Expect_commitments, Zwire.Commitments coms ->
      if Array.length coms <> Array.length t.inputs then
        session_error "%d commitment pairs for %d instances" (Array.length coms)
          (Array.length t.inputs);
      t.state <- Expect_answers coms;
      `Send
        (Zwire.Queries
           {
             Zwire.z_queries = t.queries.Pcp.Pcp_zaatar.z_queries;
             h_queries = t.queries.Pcp.Pcp_zaatar.h_queries;
             t_z = t.ch_z.Commitment.Commit.t;
             t_h = t.ch_h.Commitment.Commit.t;
           })
    | Expect_answers coms, Zwire.Answers answers ->
      if Array.length answers <> Array.length t.inputs then
        session_error "%d answer sets for %d instances" (Array.length answers)
          (Array.length t.inputs);
      let instances =
        Array.mapi
          (fun i (a : Zwire.instance_answers) ->
            check_answers t a i;
            let com_z, com_h = coms.(i) in
            let ans_z = { Commitment.Commit.a = a.Zwire.z_resp; a_t = a.Zwire.a_t_z } in
            let ans_h = { Commitment.Commit.a = a.Zwire.h_resp; a_t = a.Zwire.a_t_h } in
            (* Consistency then PCP tests — all the verifier ever sees of
               the prover is what came over the wire. *)
            let commit_ok =
              timed t.v_per "verifier_per_instance" (fun () ->
                  Commitment.Commit.consistency_check t.vs_z t.ch_z ~commitment:com_z ans_z
                  && Commitment.Commit.consistency_check t.vs_h t.ch_h ~commitment:com_h ans_h)
            in
            let responses =
              { Pcp.Pcp_zaatar.z_resp = a.Zwire.z_resp; h_resp = a.Zwire.h_resp }
            in
            let pcp_verdict =
              timed t.v_per "verifier_per_instance" (fun () ->
                  Pcp.Pcp_zaatar.decide t.qap t.queries responses ~io:a.Zwire.claimed_io)
            in
            {
              claimed_output = a.Zwire.claimed_output;
              accepted = commit_ok && Pcp.Pcp_zaatar.accepts pcp_verdict;
              commit_ok;
              pcp_verdict;
            })
          answers
      in
      t.state <- Done instances;
      `Finished (Some (Zwire.Verdicts (Array.map (fun r -> r.accepted) instances)))
    | _, m -> session_error "unexpected %s message from the prover" (Zwire.phase_of_msg m)

  let result ?(prover = Metrics.create ()) t =
    match t.state with
    | Done instances ->
      { instances; verifier_setup_s = !(t.v_setup); verifier_per_instance_s = !(t.v_per); prover }
    | _ -> session_error "verifier session is not finished"
end

module Prover_session = struct
  (* What the prover knows once the Hello named a computation it serves. *)
  type ready = { comp : computation; ctx : Fp.ctx; qap : Qapb.t; parts : proof_parts array }

  type state =
    | Expect_hello
    | Expect_commit_request of ready
    | Expect_queries of ready
    | Expect_verdicts
    | Closed

  type t = {
    config : config;
    lookup : string -> computation option;
    setup : (string -> computation -> Qapb.t) option;
    prg : Chacha.Prg.t;
    pm : Metrics.t;
    mutable codec : Zwire.codec option;
    mutable state : state;
  }

  let create ?(config = default_config) ?setup ~lookup ~(prg : Chacha.Prg.t) () =
    { config; lookup; setup; prg; pm = Metrics.create (); codec = None; state = Expect_hello }

  let metrics t = t.pm
  let codec t = t.codec

  let refuse t msg : step =
    t.state <- Closed;
    `Finished (Some (Zwire.Error_msg msg))

  let on_msg t (msg : Zwire.msg) : step =
    match (t.state, msg) with
    | _, Zwire.Error_msg e -> session_error "verifier error: %s" e
    | Expect_hello, Zwire.Hello h -> (
      match t.lookup h.Zwire.digest with
      | None -> refuse t (Printf.sprintf "unknown computation %s" h.Zwire.digest)
      | Some comp ->
        let ctx = comp.r1cs.R1cs.field in
        if not (Nat.equal h.Zwire.modulus (Fp.modulus ctx)) then
          refuse t "field modulus does not match the named computation"
        else if
          Array.exists (fun x -> Array.length x <> comp.num_inputs) h.Zwire.inputs
        then refuse t (Printf.sprintf "input vectors must have %d entries" comp.num_inputs)
        else begin
          (* Adopt the verifier's distributed trace id so both processes'
             Chrome-trace exports can be merged into one view. *)
          if h.Zwire.trace_id <> "" then Zobs.set_trace_id h.Zwire.trace_id;
          let qap =
            match t.setup with
            | Some f -> f h.Zwire.digest comp
            | None -> Qapb.of_r1cs ~backend:t.config.qap_backend comp.r1cs
          in
          (* Sequential on purpose: proof parts consume the transcript PRG
             (cheating strategies draw perturbations from it). *)
          let parts =
            Array.map (fun x -> build_proof_parts ctx comp qap t.config.strategy t.prg x t.pm)
              h.Zwire.inputs
          in
          t.codec <- Some (Zwire.codec ctx);
          t.state <- Expect_commit_request { comp; ctx; qap; parts };
          `Send (Zwire.Hello_ok h.Zwire.digest)
        end)
    | Expect_commit_request r, Zwire.Commit_request cr ->
      if not (Nat.equal cr.Zwire.group_q (Fp.modulus r.ctx)) then
        session_error "commit-request group order differs from the PCP field modulus";
      (* Wire parameters are untrusted: of_params/public_key_of re-validate
         the group structure before any exponentiation runs on them. *)
      let grp = Group.of_params ~p:cr.Zwire.group_p ~q:cr.Zwire.group_q ~g:cr.Zwire.group_g in
      let num_z = r.comp.r1cs.R1cs.num_z and h_len = Qapb.h_len r.qap in
      if Array.length cr.Zwire.enc_r_z <> num_z then
        session_error "Enc(r_z) has %d entries, proof vector has %d"
          (Array.length cr.Zwire.enc_r_z) num_z;
      if Array.length cr.Zwire.enc_r_h <> h_len then
        session_error "Enc(r_h) has %d entries, proof vector has %d"
          (Array.length cr.Zwire.enc_r_h) h_len;
      let pk_z = Elgamal.public_key_of grp ~y:cr.Zwire.y_z in
      let pk_h = Elgamal.public_key_of grp ~y:cr.Zwire.y_h in
      (* Commitments are pure functions of the request and the proof
         vectors, so they fan out across instances over the Pool domains
         (the paper's "crypto hardware" phase, §5.2). Enc(r) is converted
         into packed form once per request and shared read-only. *)
      let commitments =
        Metrics.time t.pm "crypto_ops" (fun () ->
            let pz = Elgamal.prepare pk_z cr.Zwire.enc_r_z in
            let ph = Elgamal.prepare pk_h cr.Zwire.enc_r_h in
            Dompool.Pool.map ~domains:t.config.domains
              (fun (p : proof_parts) ->
                ( Commitment.Commit.prover_commit_prepared pz p.u_z,
                  Commitment.Commit.prover_commit_prepared ph p.u_h ))
              r.parts)
      in
      t.codec <- Some (Zwire.codec ~group_p:cr.Zwire.group_p r.ctx);
      t.state <- Expect_queries r;
      `Send (Zwire.Commitments commitments)
    | Expect_queries r, Zwire.Queries q ->
      let ctx = r.ctx in
      let num_z = r.comp.r1cs.R1cs.num_z and h_len = Qapb.h_len r.qap in
      let fits (m : Fp.Rows.t) t len =
        (m.Fp.Rows.rows = 0 || m.Fp.Rows.width = len) && Fp.Vec.length t = len
      in
      if not (fits q.Zwire.z_queries q.Zwire.t_z num_z) then
        session_error "z-queries must have %d entries" num_z;
      if not (fits q.Zwire.h_queries q.Zwire.t_h h_len) then
        session_error "h-queries must have %d entries" h_len;
      let answers =
        Array.map
          (fun (parts : proof_parts) ->
            (* The honest oracle packs u once; it answers the queries (through
               the cheat, if any) and the decommit vectors t. *)
            let base = Pcp.Oracle.honest ctx parts.answer_u_z parts.answer_u_h in
            let oracle = if parts.nonlinear then Pcp.Oracle.nonlinear ctx base else base in
            let responses =
              Metrics.time t.pm "answer_queries" (fun () ->
                  Pcp.Pcp_zaatar.answer oracle
                    {
                      Pcp.Pcp_zaatar.z_queries = q.Zwire.z_queries;
                      h_queries = q.Zwire.h_queries;
                      reps = [||];
                    })
            in
            Metrics.time t.pm "answer_queries" (fun () ->
                {
                  Zwire.claimed_io = parts.claimed_io;
                  claimed_output = parts.claimed_output;
                  z_resp = responses.Pcp.Pcp_zaatar.z_resp;
                  h_resp = responses.Pcp.Pcp_zaatar.h_resp;
                  a_t_z = base.Pcp.Oracle.query_z (Fp.Rows.of_vec q.Zwire.t_z) 0;
                  a_t_h = base.Pcp.Oracle.query_h (Fp.Rows.of_vec q.Zwire.t_h) 0;
                }))
          r.parts
      in
      t.state <- Expect_verdicts;
      `Send (Zwire.Answers answers)
    | Expect_verdicts, Zwire.Verdicts _ ->
      t.state <- Closed;
      `Finished None
    | _, m -> session_error "unexpected %s message from the verifier" (Zwire.phase_of_msg m)
end

(* ------------------------------------------------------------------ *)
(* Loopback driver                                                      *)
(* ------------------------------------------------------------------ *)

(* In-process V/P exchange. Every message still round-trips through the
   Zwire codec, so the loopback driver moves exactly the bytes the socket
   driver would and the wire.* counters account both directions. Sharing
   one PRG between the sessions reproduces the historical single-process
   transcript bit for bit. *)
let run_batch ?(config = default_config) (comp : computation) ~(prg : Chacha.Prg.t)
    ~(inputs : Fp.el array array) : batch_result =
  Zobs.Span.with_ ~name:"argument.run_batch"
    ~attrs:[ ("instances", string_of_int (Array.length inputs)) ]
  @@ fun () ->
  let vs = Verifier_session.create ~config comp ~prg ~inputs in
  let d = digest comp in
  let ps =
    Prover_session.create ~config
      ~lookup:(fun d' -> if d' = d then Some comp else None)
      ~prg ()
  in
  let vcodec = Verifier_session.codec vs in
  let v_to_p m = Zwire.decode ?codec:(Prover_session.codec ps) (Zwire.encode ~codec:vcodec m) in
  let p_to_v m = Zwire.decode ~codec:vcodec (Zwire.encode ?codec:(Prover_session.codec ps) m) in
  let rec pump m =
    match Prover_session.on_msg ps (v_to_p m) with
    | `Finished None -> ()
    | `Finished (Some reply) | `Send reply -> (
      match Verifier_session.on_msg vs (p_to_v reply) with
      | `Send next -> pump next
      | `Finished (Some last) -> (
        match Prover_session.on_msg ps (v_to_p last) with
        | `Finished _ -> ()
        | `Send _ -> session_error "protocol did not terminate")
      | `Finished None -> ())
  in
  pump (Verifier_session.initial vs);
  Verifier_session.result ~prover:(Prover_session.metrics ps) vs

let all_accepted r = Array.for_all (fun i -> i.accepted) r.instances
let none_accepted r = Array.for_all (fun i -> not i.accepted) r.instances
