(* Packed limb buffers: the zero-allocation substrate of the hot loops.

   A [Limb.a] is one flat [bytes] buffer of base-2^31 limbs, one native
   int64 word each, holding many fixed-width numbers side by side (NTT
   vectors, Pippenger buckets, query matrices, Barrett/REDC scratch). The
   GC sees a single opaque block instead of one boxed [int array] per
   element: it never scans it, and a large one is paced like any other
   major-heap allocation. (Not a Bigarray: its off-heap data is charged
   against custom_major_ratio, so every 2 MB query arena would request
   most of a major cycle.) All kernels are offset/width-addressed so callers
   can slice without allocating views; the same carry discipline as [Nat]
   applies (limb * limb + limb + limb fits 62 bits). Modules are compiled
   separately, so inner loops elsewhere that read limbs one at a time
   declare these two accessors again locally (Fp, Montgomery). *)

type a = bytes

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let create n : a = Bytes.make (8 * n) '\000'
let length (b : a) = Bytes.length b lsr 3
let get (b : a) i = Int64.to_int (get64u b (i lsl 3))
let set (b : a) i v = set64u b (i lsl 3) (Int64.of_int v)

let fill (b : a) off w v =
  for i = off to off + w - 1 do
    set b i v
  done

let clear b off w = fill b off w 0

let blit (src : a) so (dst : a) dso w = Bytes.blit src (so lsl 3) dst (dso lsl 3) (w lsl 3)

(* Plain loops, not inner recursive functions: a [let rec] here closes
   over the slice arguments and costs a 7-word closure per call, which
   dominates the butterfly's allocation profile. *)
let cmp (x : a) xo (y : a) yo w =
  let r = ref 0 and i = ref (w - 1) in
  while !r = 0 && !i >= 0 do
    let a = get x (xo + !i) and b = get y (yo + !i) in
    if a < b then r := -1 else if a > b then r := 1;
    decr i
  done;
  !r

let is_zero_slice (x : a) xo w =
  let z = ref true and i = ref 0 in
  while !z && !i < w do
    if get x (xo + !i) <> 0 then z := false;
    incr i
  done;
  !z

(* dst <- x + y over [w] limbs; returns the carry out. Index-synchronous,
   so [dst] may alias either input. *)
let add (dst : a) dso (x : a) xo (y : a) yo w =
  let carry = ref 0 in
  for i = 0 to w - 1 do
    let s = get x (xo + i) + get y (yo + i) + !carry in
    set dst (dso + i) (s land mask);
    carry := s lsr base_bits
  done;
  !carry

(* dst <- x - y mod 2^(31w); returns the borrow out. Aliasing as [add]. *)
let sub (dst : a) dso (x : a) xo (y : a) yo w =
  let borrow = ref 0 in
  for i = 0 to w - 1 do
    let s = get x (xo + i) - get y (yo + i) - !borrow in
    if s < 0 then begin
      set dst (dso + i) (s + base);
      borrow := 1
    end else begin
      set dst (dso + i) s;
      borrow := 0
    end
  done;
  !borrow

(* Full schoolbook product: dst[0..wa+wb-1] <- x * y. The destination slice
   must not overlap either input slice. *)
let mul (dst : a) dso (x : a) xo wa (y : a) yo wb =
  clear dst dso (wa + wb);
  for i = 0 to wa - 1 do
    let xi = get x (xo + i) in
    if xi <> 0 then begin
      let carry = ref 0 in
      for j = 0 to wb - 1 do
        let p = get dst (dso + i + j) + (xi * get y (yo + j)) + !carry in
        set dst (dso + i + j) (p land mask);
        carry := p lsr base_bits
      done;
      let k = ref (dso + i + wb) in
      while !carry <> 0 do
        let s = get dst !k + !carry in
        set dst !k (s land mask);
        carry := s lsr base_bits;
        incr k
      done
    end
  done

(* Low limbs only: dst[0..wout-1] <- (x * y) mod 2^(31*wout). Same overlap
   rule as [mul]. *)
let mul_low (dst : a) dso (x : a) xo wa (y : a) yo wb wout =
  clear dst dso wout;
  let wa = min wa wout in
  for i = 0 to wa - 1 do
    let xi = get x (xo + i) in
    if xi <> 0 then begin
      let jmax = min (wb - 1) (wout - 1 - i) in
      let carry = ref 0 in
      for j = 0 to jmax do
        let p = get dst (dso + i + j) + (xi * get y (yo + j)) + !carry in
        set dst (dso + i + j) (p land mask);
        carry := p lsr base_bits
      done;
      let k = ref (i + jmax + 1) in
      while !carry <> 0 && !k < wout do
        let s = get dst (dso + !k) + !carry in
        set dst (dso + !k) (s land mask);
        carry := s lsr base_bits;
        incr k
      done
    end
  done

(* Byte codec: little-endian bytes <-> one [w]-limb slot. One loop
   serves both directions: it pulls source digits into a bit accumulator
   until it holds a destination digit, emits it, and at the end reports
   whether any set bit was left over — the "does not fit" case. Bytes move
   four at a time while four remain (so a digit is 31 or 32 bits and the
   accumulator stays below 2^62), single bytes at the tail. No
   allocation: the digit accesses are written out inline because a local
   helper would cost a closure per call. *)
external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external set32u : bytes -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let get32le b i = if Sys.big_endian then bswap32 (get32u b i) else get32u b i
let set32le b i v = set32u b i (if Sys.big_endian then bswap32 v else v)

let transfer ~load (b : bytes) bo nb (l : a) lo w =
  if bo < 0 || nb < 0 || bo > Bytes.length b - nb || lo < 0 || w < 0 || lo > length l - w then
    invalid_arg "Limb: byte/limb range outside its buffer";
  let src_n = if load then nb else w and dst_n = if load then w else nb in
  let acc = ref 0 and acc_bits = ref 0 and si = ref 0 and di = ref 0 in
  while !di < dst_n do
    let dst_bits = if load then base_bits else if dst_n - !di >= 4 then 32 else 8 in
    while !acc_bits < dst_bits && !si < src_n do
      if not load then begin
        acc := !acc lor (get l (lo + !si) lsl !acc_bits);
        acc_bits := !acc_bits + base_bits;
        incr si
      end
      else if src_n - !si >= 4 then begin
        acc := !acc lor ((Int32.to_int (get32le b (bo + !si)) land 0xffff_ffff) lsl !acc_bits);
        acc_bits := !acc_bits + 32;
        si := !si + 4
      end
      else begin
        acc := !acc lor (Char.code (Bytes.unsafe_get b (bo + !si)) lsl !acc_bits);
        acc_bits := !acc_bits + 8;
        incr si
      end
    done;
    let v = !acc land ((1 lsl dst_bits) - 1) in
    if load then set l (lo + !di) v
    else if dst_bits = 32 then set32le b (bo + !di) (Int32.of_int v)
    else Bytes.unsafe_set b (bo + !di) (Char.unsafe_chr v);
    di := !di + if load then 1 else dst_bits lsr 3;
    acc := !acc lsr dst_bits;
    acc_bits := if !acc_bits > dst_bits then !acc_bits - dst_bits else 0
  done;
  let spill = ref !acc in
  while !si < src_n do
    let d = if load then Char.code (Bytes.unsafe_get b (bo + !si)) else get l (lo + !si) in
    spill := !spill lor d;
    incr si
  done;
  !spill = 0

let load_bytes b bo nb l lo w = transfer ~load:true b bo nb l lo w

let store_bytes l lo w b bo nb =
  if not (transfer ~load:false b bo nb l lo w) then invalid_arg "Limb.store_bytes: does not fit"

(* Boundary codecs: boxed <-> packed. Only [to_nat] allocates (its
   result). *)

let of_nat (n : Nat.t) (dst : a) off w =
  if Nat.num_limbs n > w then invalid_arg "Limb.of_nat: width too small";
  for i = 0 to w - 1 do
    set dst (off + i) (Nat.limb n i)
  done

(* Sized to the top non-zero limb: the result is the only allocation. *)
let to_nat (src : a) off w =
  let n = ref w in
  while !n > 0 && get src (off + !n - 1) = 0 do
    decr n
  done;
  let l = Array.make !n 0 in
  for i = 0 to !n - 1 do
    Array.unsafe_set l i (get src (off + i))
  done;
  Nat.of_limbs_owned l
