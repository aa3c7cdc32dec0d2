(* The linear commitment protocol (Commit + MultiDecommit) of
   Pepper/Ginger [52, 53], strengthening Ishai et al. [33] — the machinery
   that turns a linear PCP oracle into an interactive argument (§2.2 and
   Figure 2).

   Commit phase:   V sends Enc(r) for a secret random vector r; P replies
                   with Enc(pi(r)), computable homomorphically, which pins P
                   to a fixed linear function pi.
   Decommit phase: V sends the PCP queries q_1..q_mu *and* the blinded
                   combination t = r + sum_i alpha_i q_i (alpha_i secret);
                   P answers pi(q_1)..pi(q_mu), pi(t) in the clear; V checks

                     g^{pi(t)}  =  Dec(Enc(pi(r))) * prod_i (g^{pi(q_i)})^{alpha_i}

                   in the group — possible because decryption recovers
                   g^{pi(r)} and exponent arithmetic is field arithmetic
                   (the field is Z_q; see lib/crypto/group.ml).

   Batching (§2.2): the commitment request Enc(r) and the queries are
   generated once per batch; each instance contributes its own Enc(pi(r))
   and response vector, so the verifier pays e-costs once and d-costs per
   instance — exactly the amortization in Figure 3. *)

open Fieldlib
open Zcrypto

type request = {
  pk : Elgamal.public_key;
  enc_r : Elgamal.ciphertext array; (* sent to the prover *)
}

type verifier_secret = {
  sk : Elgamal.secret_key;
  r : Fp.el array; (* never leaves the verifier *)
}

let c_enc_r = Zobs.Counter.make "commit.enc_r"
let c_decommit_queries = Zobs.Counter.make "commit.decommit_queries"
let c_checks = Zobs.Counter.make "commit.consistency_checks"

(* One per batch. [len] is the proof-vector length. Enc(r) is
   embarrassingly parallel once the per-element ElGamal randomness k_i is
   pre-drawn sequentially: the transcript (and hence the protocol run) is
   bit-identical for every [domains] count. *)
let commit_request ?(domains = 1) ctx grp prg ~len =
  Zobs.Span.with_ ~name:"commit.request"
    ~attrs:[ ("len", string_of_int len); ("domains", string_of_int domains) ]
  @@ fun () ->
  Zobs.Counter.add c_enc_r len;
  let sk, pk = Elgamal.keygen grp prg in
  let r = Array.init len (fun _ -> Chacha.Prg.field ctx prg) in
  let ks = Array.init len (fun _ -> Fp.to_nat (Chacha.Prg.field_nonzero grp.Group.modq prg)) in
  (* Force the fixed-base tables before fanning out: lazy forcing is not
     thread-safe across domains. *)
  Elgamal.precompute pk;
  let enc_r = Dompool.Pool.mapi ~domains (fun i ri -> Elgamal.encrypt_with_k pk ~k:ks.(i) ri) r in
  ({ pk; enc_r }, { sk; r })

(* Prover side, one per instance: commit to the linear function <., u>,
   over Enc(r) prepared once per request ([Elgamal.prepare]) or per call. *)
let prover_commit_prepared (pr : Elgamal.prepared) (u : Fp.el array) : Elgamal.ciphertext =
  Zobs.Span.with_ ~name:"commit.prover_commit" (fun () -> Elgamal.hom_dot_prepared pr u)

let prover_commit (req : request) (u : Fp.el array) : Elgamal.ciphertext =
  Zobs.Span.with_ ~name:"commit.prover_commit" (fun () -> Elgamal.hom_dot req.pk req.enc_r u)

(* Decommit challenge, one per batch: the consistency-test vector t and its
   secret coefficients. *)
type challenge = {
  t : Fp.Vec.t; (* sent to the prover *)
  alpha : Fp.el array; (* secret *)
}

(* t = r + sum_i alpha_i q_i, accumulated in place over the packed rows:
   one counted multiplication and one addition per query term. *)
let decommit_challenge ctx (vs : verifier_secret) prg (queries : Fp.Rows.t) : challenge =
  Zobs.Span.with_ ~name:"commit.decommit_challenge" @@ fun () ->
  let rows = queries.Fp.Rows.rows and len = Array.length vs.r in
  Zobs.Counter.add c_decommit_queries rows;
  let alpha = Array.init rows (fun _ -> Chacha.Prg.field ctx prg) in
  if rows > 0 && queries.Fp.Rows.width <> len then
    invalid_arg "Commit.decommit_challenge: query length mismatch";
  let sc = Fp.scratch_for ctx in
  let t = Fp.Vec.of_array ctx vs.r and a = Fp.Vec.create ctx 1 in
  for i = 0 to rows - 1 do
    Fp.Vec.set_mont ctx a 0 alpha.(i);
    Fp.Vec.axpy ctx sc t 0 a 0 queries.Fp.Rows.vec (Fp.Rows.row queries i) len
  done;
  { t; alpha }

(* Prover side, per instance: answer the queries and the test vector. *)
type answers = {
  a : Fp.el array; (* pi(q_i), in query order *)
  a_t : Fp.el; (* pi(t) *)
}

(* u is packed once; every answer is one split-column lazy dot. *)
let prover_answer ctx (u : Fp.el array) (queries : Fp.Rows.t) (ch_t : Fp.Vec.t) : answers =
  let sc = Fp.scratch_for ctx in
  let pu = Fp.Vec.of_array ctx u in
  {
    a = Array.init queries.Fp.Rows.rows (fun i -> Fp.Rows.dot ctx sc queries i pu);
    a_t = Fp.Rows.dot ctx sc (Fp.Rows.of_vec ch_t) 0 pu;
  }

(* Verifier side, per instance: the consistency check

     g^{pi(t)} = Dec(Enc(pi(r))) * prod_i (g^{pi(q_i)})^{alpha_i}

   rearranged to one Shamir double exponentiation. The product collapses
   to g^{<alpha, a>} because exponent arithmetic is Z_q arithmetic, and
   moving the decryption's c1^{-x} to the other side gives the equivalent
   test   c2 = g^{a_t - <alpha, a>} * c1^{x}   — a single {!Group.pow2}
   against the mu+2 generic ladders of the unfused form. *)
let consistency_check (vs : verifier_secret) (ch : challenge) ~(commitment : Elgamal.ciphertext)
    (ans : answers) : bool =
  Zobs.Span.with_ ~name:"commit.consistency_check" @@ fun () ->
  Zobs.Counter.incr c_checks;
  let pk = vs.sk.Elgamal.pk in
  let grp = pk.Elgamal.grp in
  let qctx = grp.Group.modq in
  let s = Fp.dot qctx ch.alpha ans.a in
  let e_g = Fp.sub qctx ans.a_t s in
  let rhs =
    Group.pow2 grp grp.Group.g (Fp.to_nat e_g) commitment.Elgamal.c1 vs.sk.Elgamal.x
  in
  Group.equal commitment.Elgamal.c2 rhs
