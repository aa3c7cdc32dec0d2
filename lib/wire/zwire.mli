(** Zwire: the versioned binary wire format for the split verifier/prover
    argument (DESIGN.md §9).

    Every message is a self-delimiting frame

    {v
    "ZW" | version (1 byte) | tag (1 byte) | payload length (u32 BE) | payload
    v}

    carrying one protocol message: the verifier's hello (computation
    identified by R1CS digest, plus the batch inputs), the commitment
    request Enc(r), the prover's commitments, the PCP queries + decommit
    vectors, the prover's decommit answers, and the final verdicts. Field
    and group elements travel as fixed-width little-endian naturals whose
    width is derived from the relevant modulus; decoding rejects
    out-of-range elements instead of reducing them. Malformed input raises
    {!Decode_error} with an explicit taxonomy — never [Marshal], never a
    bare exception.

    Byte and message counts are recorded on the Zobs counters
    [wire.bytes.sent], [wire.bytes.recv] and [wire.msgs], each with a
    [.<phase>] breakdown (hello/commit/query/answer/verdict). *)

open Fieldlib
open Zcrypto

val magic : string
(** ["ZW"] — the two header magic bytes. *)

val version : int
(** Current wire version (2). Version 2 extends Hello with a distributed
    trace id; frames from [min_version] up are still decoded. *)

val min_version : int
(** Oldest wire version this peer still decodes (1). A frame whose version
    byte is below [min_version] or above [version] raises
    [Decode_error (Bad_version _)]. *)

(** {1 Decode errors} *)

type error =
  | Truncated of string  (** ran out of bytes while reading the named item *)
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Out_of_range of string  (** element or count outside its valid range *)
  | Trailing_bytes of int  (** well-formed message followed by junk *)
  | Missing_context of string  (** decoding needed a codec the caller did not supply *)

exception Decode_error of error

val error_to_string : error -> string

(** {1 Messages} *)

type hello = {
  digest : string;  (** R1CS digest identifying the computation (Serialize.system_digest) *)
  modulus : Nat.t;  (** PCP field modulus; fixes the element width downstream *)
  rho : int;
  rho_lin : int;
  p_bits : int;
  inputs : Fp.el array array;  (** one input vector per batch instance *)
  trace_id : string;
      (** v2+: distributed trace id minted by the verifier; [""] = no trace.
          Absent on the wire in version-1 frames (decoded as [""]). *)
}

type commit_request = {
  group_p : Nat.t;  (** ElGamal group modulus; fixes the group-element width *)
  group_q : Nat.t;  (** subgroup order (= the PCP field modulus) *)
  group_g : Group.element;
  y_z : Group.element;  (** public key for the pi_z commitment *)
  y_h : Group.element;  (** public key for the pi_h commitment *)
  enc_r_z : Elgamal.ciphertext array;
  enc_r_h : Elgamal.ciphertext array;
}

type queries = {
  z_queries : Fp.Rows.t;
  h_queries : Fp.Rows.t;
  t_z : Fp.Vec.t;  (** decommit vector for pi_z *)
  t_h : Fp.Vec.t;  (** decommit vector for pi_h *)
}
(** Decoded straight from the frame into packed slots, without a boxed
    element: the strict range check runs on the limbs. Rows of differing
    widths have no packed form and fail with [Out_of_range]; a matrix
    without rows decodes with width 0. *)

type instance_answers = {
  claimed_io : Fp.el array;
  claimed_output : Fp.el array;
  z_resp : Fp.el array;
  h_resp : Fp.el array;
  a_t_z : Fp.el;
  a_t_h : Fp.el;
}

type msg =
  | Hello of hello  (** V -> P *)
  | Hello_ok of string  (** P -> V: digest echo *)
  | Commit_request of commit_request  (** V -> P *)
  | Commitments of (Elgamal.ciphertext * Elgamal.ciphertext) array
      (** P -> V: (com_z, com_h) per instance *)
  | Queries of queries  (** V -> P *)
  | Answers of instance_answers array  (** P -> V *)
  | Verdicts of bool array  (** V -> P: accept/reject per instance *)
  | Error_msg of string  (** either direction; the session then closes *)

val tag_of_msg : msg -> int
val phase_of_msg : msg -> string
(** hello | commit | query | answer | verdict. *)

(** {1 Codec} *)

type codec = {
  field : Fp.ctx;  (** established by the Hello message *)
  group_p : Nat.t option;  (** established by the Commit_request message *)
}

val codec : ?group_p:Nat.t -> Fp.ctx -> codec

val encode : ?codec:codec -> ?version:int -> msg -> bytes
(** Encode one framed message. [Hello], [Hello_ok], [Commit_request],
    [Verdicts] and [Error_msg] are self-contained; [Queries] and [Answers]
    need [codec.field], [Commitments] needs [codec.group_p]. Raises
    [Invalid_argument] when the needed context is missing (a programming
    error on the sending side), or when [version] is outside
    [[min_version, version]] (useful in tests to emit downlevel frames).
    Records [wire.bytes.sent]. *)

val decode : ?codec:codec -> bytes -> msg
(** Decode one framed message; raises {!Decode_error} on malformed input
    and [Decode_error (Missing_context _)] when the message class needs a
    codec that was not supplied. Records [wire.bytes.recv]. *)

val msg_equal : msg -> msg -> bool
(** Structural message equality (round-trip tests). *)

(** {1 Busy / retry-after}

    Load shedding uses a machine-parsable [Error_msg] payload
    (["busy retry-after-ms=N"]) instead of a new message tag, so
    version-2 peers decode it unchanged and framed transcripts keep their
    pinned digests. *)

val busy_msg : retry_after_ms:int -> msg
(** The shedding reply: an [Error_msg] carrying the retry hint
    (milliseconds, clamped to >= 0). *)

val retry_after_of_error : string -> int option
(** Parse an [Error_msg] payload back into the retry-after hint; [None]
    for ordinary error text. *)

val is_busy : msg -> bool
(** Is this message a {!busy_msg}? *)
