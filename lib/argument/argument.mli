(** The end-to-end batched argument system of Figure 2: the QAP-based
    linear PCP composed with the linear commitment, verifying beta
    instances of one computation against a (possibly cheating) prover.

    Batch amortization (§2.2): PCP queries, the Enc(r) commitment requests
    and the decommit challenges are generated once per batch; witnesses,
    proof vectors, commitments and responses are per instance. *)

open Fieldlib
open Constr

type computation = {
  r1cs : R1cs.system;
  num_inputs : int; (** X = variables num_z+1 .. num_z+num_inputs *)
  num_outputs : int; (** Y = the following variables *)
  solve : Fp.el array -> Fp.el array;
      (** input vector -> full satisfying assignment, slot 0 = 1 (the
          prover's "solve the constraints" step, Figure 1) *)
}

val io_of_w : computation -> Fp.el array -> Fp.el array
val outputs_of_w : computation -> Fp.el array -> Fp.el array

(** Prover strategies for the adversarial suite and the soundness bench. *)
type strategy =
  | Honest
  | Wrong_output (** report a wrong y, prove with the stale witness *)
  | Corrupt_witness (** perturb one z entry, divide-and-drop-remainder h *)
  | Corrupt_h (** honest z, perturbed h *)
  | Equivocate (** commit to u, answer queries from a different u' *)
  | Nonlinear (** answer z-queries through a non-linear function *)

type instance_result = {
  claimed_output : Fp.el array;
  accepted : bool;
  commit_ok : bool;
  pcp_verdict : Pcp.Pcp_zaatar.verdict;
}

type batch_result = {
  instances : instance_result array;
  verifier_setup_s : float; (** once per batch (amortized) *)
  verifier_per_instance_s : float; (** total across the batch *)
  prover : Metrics.t; (** Figure 5's phase decomposition, batch totals *)
}

type config = {
  params : Pcp.Pcp_zaatar.params;
  p_bits : int; (** ElGamal group size *)
  strategy : strategy;
  domains : int;
      (** Pool domains: the verifier's Enc(r) generation, and the
          prover's per-instance witnesses, H vectors, commitments and
          answers. Transcripts are identical for every domain count
          (randomness is pre-drawn sequentially). *)
  qap_backend : Qapb.backend;
      (** QAP construction: [Auto] (the default) takes the NTT prover path
          whenever the field's 2-adicity covers the constraint count and
          falls back to the paper's Lagrange pipeline otherwise. Verifier
          and prover must agree (the backends are different proof
          systems); a mismatch fails with a session length error. *)
}

val default_config : config
(** Paper parameters: rho = 8, rho_lin = 20, 1024-bit group, 1 domain,
    [Auto] backend. *)

val test_config : config
(** rho = 1, rho_lin = 2, 192-bit group, 1 domain: for unit tests. *)

(** {1 Sessions}

    The protocol as two message-driven state machines exchanging only
    {!Zwire.msg} values (DESIGN.md §9):

    {v
    V: Hello            ->  P
    V  <-  Hello_ok         P   (digest echo)
    V: Commit_request   ->  P   (group params, public keys, Enc(r))
    V  <-  Commitments      P   ((com_z, com_h) per instance)
    V: Queries          ->  P   (PCP queries + decommit vectors)
    V  <-  Answers          P   (responses + pi(t) per instance)
    V: Verdicts         ->  P   (final; both sides close)
    v}

    A driver — the in-process loopback ({!run_batch}) or the socket pair in
    {!Remote} — owns the transport and pumps messages between the two. *)

exception Session_error of string
(** Protocol violation: unexpected message for the state, length or digest
    mismatch, or a peer's [Error_msg]. *)

val digest : computation -> string
(** {!Constr.Serialize.system_digest} of the constraint system: how Hello
    names the computation. *)

type step = [ `Send of Zwire.msg | `Finished of Zwire.msg option ]
(** What the driver does with a state machine's reply: forward a message
    and keep pumping, or forward the optional last message and stop. *)

module Verifier_session : sig
  type t

  val create :
    ?config:config ->
    ?trace_id:string ->
    computation ->
    prg:Chacha.Prg.t ->
    inputs:Fp.el array array ->
    t
  (** Draws all batch randomness (queries, Enc(r), decommit challenges) —
      in the transcript order of the original monolithic [run_batch].
      [trace_id] (default [""] = untraced) is carried to the prover in the
      Hello and stamped on both sides' Zobs exports; it is minted from wall
      clock ({!Zobs.mint_trace_id}), never from [prg], so transcripts do
      not shift. *)

  val initial : t -> Zwire.msg
  (** The opening [Hello]. *)

  val codec : t -> Zwire.codec
  (** Field and group context for {!Zwire.encode}/[decode]; fixed at
      creation on the verifier side. *)

  val on_msg : t -> Zwire.msg -> step
  (** Feed one prover message; raises {!Session_error} on violations. *)

  val result : ?prover:Metrics.t -> t -> batch_result
  (** After the final step; [prover] supplies the prover-side metrics when
      the driver has them (loopback). Raises {!Session_error} if the
      session has not finished. *)
end

module Prover_session : sig
  type t

  val create :
    ?config:config ->
    ?setup:(string -> computation -> Qapb.t) ->
    lookup:(string -> computation option) ->
    prg:Chacha.Prg.t ->
    unit ->
    t
  (** [lookup] resolves a Hello digest to a computation this prover is
      willing to serve; unknown digests are refused with an [Error_msg].
      [config] supplies the strategy (adversarial provers) and the domain
      count for the commitment pipeline. [setup], given the Hello digest
      and the resolved computation, supplies the QAP — the farm routes
      this through its per-digest setup cache; without it the session
      builds a fresh {!Qapb.of_r1cs} per connection. *)

  val codec : t -> Zwire.codec option
  (** [None] until the Hello established the field; the group modulus is
      added once the commit request arrives. *)

  val on_msg : t -> Zwire.msg -> step
  val metrics : t -> Metrics.t
end

val run_batch :
  ?config:config -> computation -> prg:Chacha.Prg.t -> inputs:Fp.el array array -> batch_result
(** The in-process loopback driver: both sessions in one process, every
    message still encoded and decoded through {!Zwire} (so wire.* counters
    account the full exchange), one shared PRG — transcripts are
    bit-identical to the historical monolithic implementation. *)

val all_accepted : batch_result -> bool
val none_accepted : batch_result -> bool
