(* The microbenchmark parameters of Figure 3 / §5.1: per-operation CPU
   costs, measured on *our* substrate exactly as the paper measures them on
   GMP + ElGamal ("we run a program that executes each operation 1000 times
   and report the average").

     e      encrypt a field element (ElGamal, exponent encoding)
     d      decrypt (to the group encoding)
     h      ciphertext add plus multiply (one homomorphic accumulate step)
     f_lazy field multiplication without the final reduction
     f      field multiplication (boxed: two REDCs unless already below p)
     f_packed  one packed NTT butterfly (DESIGN.md §13): the NTT prover's
            multiplication, one REDC on limb slices and no allocation
     f_div  field division (inverse + multiply)
     c      pseudorandomly generate a field element (ChaCha + rejection)

   All values in seconds. *)

open Fieldlib
open Zcrypto

type t = {
  e : float;
  d : float;
  h : float;
  f_lazy : float;
  f : float;
  f_packed : float;
  f_div : float;
  c : float;
  field_bits : int;
  group_bits : int;
}

let time_per iters thunk =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    thunk ()
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters

let measure ?(iters = 1000) ctx (grp : Group.t) : t =
  let prg = Chacha.Prg.create ~seed:"microbench" () in
  let sk, pk = Elgamal.keygen grp prg in
  let xs = Array.init 64 (fun _ -> Chacha.Prg.field_nonzero ctx prg) in
  let pick =
    let i = ref 0 in
    fun () ->
      i := (!i + 1) land 63;
      xs.(!i)
  in
  let sink = ref Fp.zero in
  let f = time_per iters (fun () -> sink := Fp.mul ctx (pick ()) (pick ())) in
  let f_lazy = time_per iters (fun () -> ignore (Fp.mul_lazy ctx (pick ()) (pick ()))) in
  let f_packed =
    let v = Fp.Vec.of_array ctx [| pick (); pick () |] and tw = Fp.Vec.create ctx 1 in
    Fp.Vec.set_mont ctx tw 0 (pick ());
    let sc = Fp.scratch_for ctx in
    time_per iters (fun () -> Fp.Vec.butterfly ctx sc v 0 1 tw 0)
  in
  let f_div = time_per (max 100 (iters / 10)) (fun () -> sink := Fp.div ctx (pick ()) (pick ())) in
  let c = time_per iters (fun () -> sink := Chacha.Prg.field ctx prg) in
  let crypto_iters = max 20 (iters / 50) in
  let e = time_per crypto_iters (fun () -> ignore (Elgamal.encrypt pk prg (pick ()))) in
  let ct = Elgamal.encrypt pk prg (pick ()) in
  let d = time_per crypto_iters (fun () -> ignore (Elgamal.decrypt_to_group sk ct)) in
  let h =
    time_per crypto_iters (fun () -> ignore (Elgamal.hom_add pk ct (Elgamal.hom_scale pk ct (pick ()))))
  in
  ignore !sink;
  {
    e;
    d;
    h;
    f_lazy;
    f;
    f_packed;
    f_div;
    c;
    field_bits = Fp.bits ctx;
    group_bits = Nat.num_bits grp.Group.p;
  }

let pp_row fmt (p : t) =
  Format.fprintf fmt
    "%4d bits | e=%.1fus d=%.1fus h=%.1fus f_lazy=%.0fns f=%.0fns f_packed=%.0fns f_div=%.1fus c=%.0fns"
    p.field_bits (p.e *. 1e6) (p.d *. 1e6) (p.h *. 1e6) (p.f_lazy *. 1e9) (p.f *. 1e9)
    (p.f_packed *. 1e9) (p.f_div *. 1e6) (p.c *. 1e9)
