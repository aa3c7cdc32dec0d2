(* ChaCha20 stream cipher core (RFC 7539 / RFC 8439), used as the system's
   pseudorandom generator exactly as in the paper (§5.1, citing [13]).

   Implemented on native ints with explicit 32-bit masking; OCaml ints are 63
   bits so a 32-bit add never overflows before the mask. *)

let mask32 = 0xFFFFFFFF

let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

let quarter_round st a b c d =
  let open Array in
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 16;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 12;
  st.(a) <- (st.(a) + st.(b)) land mask32;
  st.(d) <- rotl (st.(d) lxor st.(a)) 8;
  st.(c) <- (st.(c) + st.(d)) land mask32;
  st.(b) <- rotl (st.(b) lxor st.(c)) 7;
  ignore (length st)

let sigma = [| 0x61707865; 0x3320646e; 0x79622d32; 0x6b206574 |]

type key = int array (* 8 words *)
type nonce = int array (* 3 words *)

let word_of_bytes b off =
  Char.code (Bytes.get b off)
  lor (Char.code (Bytes.get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.get b (off + 3)) lsl 24)

let key_of_bytes b =
  if Bytes.length b <> 32 then invalid_arg "Chacha20.key_of_bytes: need 32 bytes";
  Array.init 8 (fun i -> word_of_bytes b (4 * i))

let nonce_of_bytes b =
  if Bytes.length b <> 12 then invalid_arg "Chacha20.nonce_of_bytes: need 12 bytes";
  Array.init 3 (fun i -> word_of_bytes b (4 * i))

let key_of_string s = key_of_bytes (Bytes.of_string s)

(* One 64-byte keystream block for a given 32-bit counter, written into
   [out] with [init] and [st] as the 16-word input and working states:
   allocation-free, so a PRG can refill one buffer in place. *)
let block_into key nonce counter ~init ~st out =
  Array.blit sigma 0 init 0 4;
  Array.blit key 0 init 4 8;
  init.(12) <- counter land mask32;
  Array.blit nonce 0 init 13 3;
  Array.blit init 0 st 0 16;
  for _ = 1 to 10 do
    (* column rounds *)
    quarter_round st 0 4 8 12;
    quarter_round st 1 5 9 13;
    quarter_round st 2 6 10 14;
    quarter_round st 3 7 11 15;
    (* diagonal rounds *)
    quarter_round st 0 5 10 15;
    quarter_round st 1 6 11 12;
    quarter_round st 2 7 8 13;
    quarter_round st 3 4 9 14
  done;
  for i = 0 to 15 do
    let w = (st.(i) + init.(i)) land mask32 in
    Bytes.set out (4 * i) (Char.chr (w land 0xff));
    Bytes.set out ((4 * i) + 1) (Char.chr ((w lsr 8) land 0xff));
    Bytes.set out ((4 * i) + 2) (Char.chr ((w lsr 16) land 0xff));
    Bytes.set out ((4 * i) + 3) (Char.chr ((w lsr 24) land 0xff))
  done

let block key nonce counter =
  let out = Bytes.create 64 in
  block_into key nonce counter ~init:(Array.make 16 0) ~st:(Array.make 16 0) out;
  out
