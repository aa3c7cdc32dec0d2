type t = {
  key : Chacha20.key;
  nonce : Chacha20.nonce;
  mutable counter : int;
  buf : bytes; (* the current 64-byte block, refilled in place *)
  init : int array; (* ChaCha input and working states for the refill *)
  st : int array;
  mutable pos : int;
  mutable scratch : bytes; (* reused by [field]; Fp.sample clobbers it *)
}

(* Pad or fold an arbitrary seed string into 32 key bytes. We have no hash
   substrate and need none: seeds are operator-chosen labels, not secrets
   adversaries pick, so simple folding suffices. *)
let key_bytes_of_seed seed =
  let b = Bytes.make 32 '\000' in
  String.iteri
    (fun i c ->
      let j = i mod 32 in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor Char.code c lxor (i land 0xff))))
    seed;
  b

let of_key key ~nonce =
  {
    key;
    nonce = [| nonce land 0xFFFFFFFF; (nonce lsr 32) land 0x3FFFFFFF; 0 |];
    counter = 0;
    buf = Bytes.create 64;
    init = Array.make 16 0;
    st = Array.make 16 0;
    pos = 64;
    scratch = Bytes.create 0;
  }

let create ?(nonce = 0) ~seed () = of_key (Chacha20.key_of_bytes (key_bytes_of_seed seed)) ~nonce

let c_bytes = Zobs.Counter.make "prg.bytes"

let refill t =
  Chacha20.block_into t.key t.nonce t.counter ~init:t.init ~st:t.st t.buf;
  Zobs.Counter.add c_bytes (Bytes.length t.buf);
  t.counter <- t.counter + 1;
  t.pos <- 0

let byte t =
  if t.pos >= Bytes.length t.buf then refill t;
  let b = Char.code (Bytes.get t.buf t.pos) in
  t.pos <- t.pos + 1;
  b

(* Copy the next [n] keystream bytes into [dst] at [off], a block at a
   time. Refills happen exactly when [byte] would refill, so every caller
   sees the same stream whichever way it reads. *)
let rec blit t dst off n =
  if n > 0 then begin
    if t.pos >= Bytes.length t.buf then refill t;
    let k = min n (Bytes.length t.buf - t.pos) in
    Bytes.blit t.buf t.pos dst off k;
    t.pos <- t.pos + k;
    blit t dst (off + k) (n - k)
  end

let bytes t n =
  let out = Bytes.create n in
  blit t out 0 n;
  out

let split t =
  (* Derive a fresh key and bump the nonce lane so streams are disjoint. *)
  let kb = bytes t 32 in
  let child = of_key (Chacha20.key_of_bytes kb) ~nonce:0 in
  child

let bits64 t =
  let b = bytes t 8 in
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b i)
  done;
  !v land max_int

let rec int_below t n =
  if n <= 0 then invalid_arg "Prg.int_below";
  (* Rejection against the largest multiple of n below 2^62. *)
  let limit = max_int - (max_int mod n) in
  let v = bits64 t in
  if v < limit then v mod n else int_below t n

let bool t = byte t land 1 = 1

(* The paper's c row: pseudorandomly generate a field element (§5.1). Each
   draw counts once however many rejection rounds it takes; field_nonzero
   retries count per draw, matching what the verifier actually consumes. *)
let c_field = Zobs.Counter.make "prg.field"

let scratch_bytes t n =
  if Bytes.length t.scratch < n then t.scratch <- Bytes.create n;
  blit t t.scratch 0 n;
  t.scratch

let field ctx t =
  Zobs.Counter.incr c_field;
  Fieldlib.Fp.sample ctx (scratch_bytes t)

(* [field] drawn straight into a packed slot: the same bytes per
   rejection round, no boxed element. *)
let field_into ctx t v i =
  Zobs.Counter.incr c_field;
  let n = Fieldlib.Fp.num_bytes ctx in
  while not (Fieldlib.Fp.Vec.sample_bytes ctx v i (scratch_bytes t n)) do
    ()
  done

let rec field_nonzero ctx t =
  let x = field ctx t in
  if Fieldlib.Fp.is_zero x then field_nonzero ctx t else x

let field_array ctx t n = Array.init n (fun _ -> field ctx t)
