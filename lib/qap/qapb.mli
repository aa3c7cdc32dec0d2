(** Backend dispatch for the QAP encoding: the paper's
    arithmetic-progression construction ({!Qap}, subproduct-tree prover)
    versus the roots-of-unity construction ({!Qap_ntt}, NTT prover).

    [Auto] — the production default — selects the NTT backend iff the
    field's 2-adicity covers the doubled padded domain
    2^(ceil(log2 |C|) + 1); otherwise it falls back to the Lagrange
    pipeline, keeping seed-identical transcripts on low-adicity fields.
    The backends are distinct proof systems (different interpolation
    points, divisor and h length), so verifier and prover must agree on
    the backend out of band; mismatches surface as session-level length
    errors. *)

open Fieldlib
open Constr

type backend = Auto | Ntt | Lagrange

val backend_to_string : backend -> string
val backend_of_string : string -> backend option

type t

exception Not_divisible
exception Tau_collision

val ntt_viable : Fp.ctx -> int -> bool
(** [ntt_viable field nc]: can the NTT backend host [nc] constraints over
    this field? *)

val of_r1cs : ?backend:backend -> R1cs.system -> t
(** Raises [Invalid_argument] when [Ntt] is forced on a field whose
    2-adicity cannot host the constraint count. Bumps the
    [qap.backend.ntt] / [qap.backend.lagrange] selection counters. *)

val backend : t -> backend
(** The resolved backend: [Ntt] or [Lagrange], never [Auto]. *)

val ctx : t -> Fp.ctx
val sys : t -> R1cs.system
val nc : t -> int

val h_len : t -> int
(** Length of the h proof vector: |C|+1 (Lagrange) or the padded
    power-of-two domain size n (NTT). *)

val prewarm : t -> unit
(** Force one-time lazy structure (the Lagrange backend's packed
    subproduct tree, middle-product kernel and compiled rows; twiddle plans)
    so a timed section measures steady-state prover work. *)

val force_shared : t -> unit
(** Force the lazy structure {!prover_h} reads, and nothing else, so that
    it can run on several domains at once (a lazy forced from two domains
    raises [Lazy.Undefined]). A no-op on the NTT backend, whose twiddle
    plans are built under a lock. *)

val satisfied : t -> Fp.el array -> bool
(** [R1cs.satisfied] of the system: on the NTT backend by the compiled
    sparse rows ({!Qap_ntt.satisfied}), with the same verdict and count. *)

val prover_h : t -> Fp.el array -> Fp.el array
(** Raises {!Not_divisible} (NTT) or [Failure] (Lagrange) on an
    unsatisfying witness. *)

val prover_h_forced : t -> Fp.el array -> Fp.el array

val queries : t -> tau:Fp.el -> Qap.queries
(** Raises {!Tau_collision} (either backend) when tau hits an
    interpolation point; the caller resamples. *)

val z_slice : t -> Fp.el array -> Fp.el array
val io_contribution : t -> Fp.el array -> Fp.el array -> Fp.el
