(** The linear commitment protocol (Commit + MultiDecommit) of
    Pepper/Ginger [52, 53], strengthening Ishai et al. [33] — the machinery
    that turns a linear PCP oracle into an interactive argument (§2.2,
    Figure 2).

    Commit phase: the verifier sends Enc(r) for a secret random vector r;
    the prover replies with Enc(pi(r)), computable homomorphically, pinning
    it to one linear function. Decommit: the verifier sends the PCP queries
    plus t = r + sum_i alpha_i q_i (alpha secret); the prover answers in
    the clear; the verifier checks

      g^pi(t) = Dec(Enc(pi(r))) * prod_i (g^pi(q_i))^alpha_i

    in the group. Enc(r), the queries and t are generated once per batch;
    commitments, answers and checks are per instance — Figure 3's
    amortization. *)

open Fieldlib
open Zcrypto

type request = {
  pk : Elgamal.public_key;
  enc_r : Elgamal.ciphertext array; (** sent to the prover *)
}

type verifier_secret = { sk : Elgamal.secret_key; r : Fp.el array }

val commit_request :
  ?domains:int -> Fp.ctx -> Group.t -> Chacha.Prg.t -> len:int -> request * verifier_secret
(** One per batch; [len] is the proof-vector length. Enc(r) is computed in
    parallel over [domains]; the per-element randomness is pre-drawn
    sequentially, so the transcript is identical for every domain count. *)

val prover_commit : request -> Fp.el array -> Elgamal.ciphertext
(** Prover, per instance: Enc(<u, r>) by homomorphic evaluation. Converts
    Enc(r) on every call; a batch should {!Elgamal.prepare} it once. *)

val prover_commit_prepared : Elgamal.prepared -> Fp.el array -> Elgamal.ciphertext
(** [prover_commit] over a prepared Enc(r); same result. *)

type challenge = {
  t : Fp.Vec.t; (** sent to the prover *)
  alpha : Fp.el array; (** secret *)
}

val decommit_challenge : Fp.ctx -> verifier_secret -> Chacha.Prg.t -> Fp.Rows.t -> challenge
(** One per batch, over the full query matrix: t = r + sum_i alpha_i q_i,
    built in place as a packed vector (one [fp.mul] per query term). *)

type answers = {
  a : Fp.el array; (** pi(q_i), in query order *)
  a_t : Fp.el; (** pi(t) *)
}

val prover_answer : Fp.ctx -> Fp.el array -> Fp.Rows.t -> Fp.Vec.t -> answers
(** [prover_answer ctx u queries t]: packs [u] once and answers every row
    and [t] with {!Fp.Vec.dot}; allocates only the answers. *)

val consistency_check : verifier_secret -> challenge -> commitment:Elgamal.ciphertext -> answers -> bool
(** Verifier, per instance. *)
