(* Packed limb buffers: the zero-allocation substrate of the hot loops.

   A [Limb.a] is one flat off-heap Bigarray of base-2^31 limbs holding many
   fixed-width numbers side by side (NTT vectors, Pippenger buckets,
   Barrett/REDC scratch). The GC sees a single custom block instead of one
   boxed [int array] per element, which is where the construct_u minor-word
   reduction comes from. All kernels are offset/width-addressed so callers
   can slice without allocating views; the same carry discipline as [Nat]
   applies (limb * limb + limb + limb fits 62 bits). *)

type a = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

let create n : a =
  let b = Bigarray.Array1.create Bigarray.Int Bigarray.c_layout n in
  Bigarray.Array1.fill b 0;
  b

let length (b : a) = Bigarray.Array1.dim b

external get : a -> int -> int = "%caml_ba_unsafe_ref_1"
external set : a -> int -> int -> unit = "%caml_ba_unsafe_set_1"

let fill (b : a) off w v =
  for i = off to off + w - 1 do
    set b i v
  done

let clear b off w = fill b off w 0

let blit (src : a) so (dst : a) dso w =
  if dso <= so then
    for i = 0 to w - 1 do
      set dst (dso + i) (get src (so + i))
    done
  else
    for i = w - 1 downto 0 do
      set dst (dso + i) (get src (so + i))
    done

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

(* Boundary codecs: boxed <-> packed. Only [to_nat] allocates (its
   result). *)

let of_nat (n : Nat.t) (dst : a) off w =
  if Nat.num_limbs n > w then invalid_arg "Limb.of_nat: width too small";
  for i = 0 to w - 1 do
    set dst (off + i) (Nat.limb n i)
  done

let to_nat (src : a) off w =
  let l = Array.init w (fun i -> get src (off + i)) in
  Nat.of_limbs l
