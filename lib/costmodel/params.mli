(** The microbenchmark parameters of Figure 3 / §5.1: per-operation CPU
    costs, measured on this substrate the way the paper measures them on
    GMP + ElGamal ("a program that executes each operation 1000 times").
    All values in seconds. *)

open Fieldlib
open Zcrypto

type t = {
  e : float; (** encrypt a field element *)
  d : float; (** decrypt (to the group encoding) *)
  h : float; (** ciphertext add plus multiply (homomorphic accumulate) *)
  f_lazy : float; (** field multiplication without the final reduction *)
  f : float; (** field multiplication *)
  f_packed : float;
      (** one packed NTT butterfly: a REDC against a Montgomery-form
          twiddle, an add and a sub (the NTT prover's multiplication) *)
  f_div : float; (** field division *)
  c : float; (** pseudorandom field element (ChaCha + rejection) *)
  field_bits : int;
  group_bits : int;
}

val measure : ?iters:int -> Fp.ctx -> Group.t -> t
val time_per : int -> (unit -> unit) -> float
val pp_row : Format.formatter -> t -> unit
