(* A context is tagged by what its modulus is: [Field] for the PCP field
   (the paper's f / f_lazy / f_div rows), [Group] for the ElGamal group
   modulus p. The tag only selects which cost counters the context bumps —
   group-side residue multiplications land in fp.*.group so they never
   pollute the Figure-3 field-op ledger (a mod-p mul at 512-1024 bits is
   not an f op at 128-220 bits). *)
type tag = Field | Group

type ctx = {
  p : Nat.t;
  k : int; (* limbs of p *)
  p_bits : int;
  p_minus_2 : Nat.t;
  sample_bytes : int;
  sample_mask : int; (* mask for the top sampled byte *)
  dot_bound : int; (* most terms [Vec.dot] accepts *)
  p_limbs : Limb.a; (* p as k packed limbs: the range check of packed reads and samples *)
  mont : Montgomery.ctx; (* every product's REDC; a group over p shares it *)
  cnt_mul : Zobs.Counter.t;
  cnt_mul_lazy : Zobs.Counter.t;
  cnt_inv : Zobs.Counter.t;
}

type el = Nat.t

(* Semantic cost counters (the paper's §5.1 f / f_div rows). Gated inside
   Zobs by the global flag: one atomic load when tracing is off. *)
let c_mul = Zobs.Counter.make "fp.mul"
let c_mul_lazy = Zobs.Counter.make "fp.mul_lazy"
let c_inv = Zobs.Counter.make "fp.inv"
let c_mul_g = Zobs.Counter.make "fp.mul.group"
let c_mul_lazy_g = Zobs.Counter.make "fp.mul_lazy.group"
let c_inv_g = Zobs.Counter.make "fp.inv.group"

(* 26-bit limbs per element in [Vec.convolve] and [Vec.dot]'s finish: the
   unrolled 5-limb body serves every field of at most 130 bits, wider ones
   the column loop. *)
let limbs26 p_bits = max 5 ((p_bits + 25) / 26)

let create ?(tag = Field) p =
  if Nat.compare p (Nat.of_int 3) < 0 then invalid_arg "Fp.create: modulus too small";
  if Nat.is_even p then invalid_arg "Fp.create: modulus must be odd";
  let k = Nat.num_limbs p in
  let p_bits = Nat.num_bits p in
  (* [Vec.dot]'s columns overflow past max_int / (k 2^32) terms: a term
     adds at most 2k half-products below 2^31 to one, and the carries one
     more such share. Its REDC needs the sum below p R, R = 2^(26 (w+1)),
     so len p < R: len <= floor(R / p), as p is odd. *)
  let r_over_p, _ = Nat.divmod (Nat.shift_left Nat.one (26 * (limbs26 p_bits + 1))) p in
  let dot_bound = min (max_int / (k lsl 32)) (Option.value (Nat.to_int_opt r_over_p) ~default:max_int) in
  let cnt_mul, cnt_mul_lazy, cnt_inv =
    match tag with Field -> (c_mul, c_mul_lazy, c_inv) | Group -> (c_mul_g, c_mul_lazy_g, c_inv_g)
  in
  let p_limbs = Limb.create k in
  Limb.of_nat p p_limbs 0 k;
  {
    p;
    k;
    p_bits;
    p_minus_2 = Nat.sub p Nat.two;
    sample_bytes = (p_bits + 7) / 8;
    sample_mask = (1 lsl (((p_bits - 1) mod 8) + 1)) - 1;
    dot_bound;
    p_limbs;
    mont = Montgomery.create p;
    cnt_mul;
    cnt_mul_lazy;
    cnt_inv;
  }

let modulus ctx = ctx.p
let mont ctx = ctx.mont
let bits ctx = ctx.p_bits
let num_bytes ctx = (ctx.p_bits + 7) / 8
let zero = Nat.zero
let one = Nat.one
let equal = Nat.equal
let is_zero = Nat.is_zero
let to_nat (x : el) : Nat.t = x
let to_int_opt = Nat.to_int_opt

(* ------------------------------------------------------------------ *)
(* Scratch arenas                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-context working memory of the products. [tmp] holds two k-limb
   slots: a boxed product's operands (slot 0 also its result), or slot t
   at 0, a kernel's REDC product, the swap temporary and the dot's
   result. A scratch is owned by exactly one domain (see [scratch_for]);
   nothing here is safe to share across domains. *)
type scratch = {
  sk : int; (* limbs of p *)
  p_l : Limb.a; (* p, k limbs *)
  cols : int array; (* 2k columns of the split lazy dot *)
  w26 : int; (* 26-bit limbs per element: [limbs26] *)
  p26 : int array; (* p in w26 limbs of 26 bits *)
  pinv26 : int; (* -p^-1 mod 2^26 *)
  r2_26 : int array; (* R^2 mod p in w26 limbs, for R = 2^(26 (w26+1)) *)
  mutable l26 : int array; (* the convolution's operands, w26 limbs a slot, grown on demand *)
  mutable n26 : int array; (* significant limbs of each operand slot *)
  cols26 : int array; (* product columns, then the REDC's limbs *)
  tmp : Limb.a; (* 2k limbs *)
  unredc26 : Limb.a; (* R R' mod p in k limbs, R' = 2^(31k): x R^-1 -> x by one CIOS REDC *)
  ms : Montgomery.scratch;
}

let limb_mask = (1 lsl 31) - 1
let mask26 = (1 lsl 26) - 1

let scratch_create ctx =
  let k = ctx.k and w26 = limbs26 ctx.p_bits in
  let nat26 n = Array.init w26 (fun i -> Nat.limb (Nat.shift_right n (26 * i)) 0 land mask26) in
  let p26 = nat26 ctx.p in
  (* p^-1 mod 2^26 by Hensel lifting, as in [Montgomery.create]. *)
  let inv = ref 1 in
  for _ = 1 to 5 do
    inv := !inv * (2 - (p26.(0) * !inv)) land mask26
  done;
  let _, r2 = Nat.divmod (Nat.shift_left Nat.one (2 * 26 * (w26 + 1))) ctx.p in
  let unredc26 = Limb.create k in
  Limb.of_nat (snd (Nat.divmod (Nat.shift_left Nat.one ((26 * (w26 + 1)) + (31 * k))) ctx.p)) unredc26 0 k;
  {
    sk = k;
    p_l = ctx.p_limbs;
    cols = Array.make (2 * k) 0;
    w26;
    p26;
    pinv26 = (1 lsl 26) - !inv;
    r2_26 = nat26 r2;
    l26 = [||];
    n26 = [||];
    cols26 = Array.make ((2 * w26) + 2) 0;
    tmp = Limb.create (2 * k);
    unredc26;
    ms = Montgomery.scratch_for ctx.mont;
  }

(* One scratch per (domain, context); the lookup allocates nothing, so
   every boxed product may use it. *)
let scratch_for = Montgomery.domain_cache 16 scratch_create

(* ------------------------------------------------------------------ *)
(* Boxed elements                                                       *)
(* ------------------------------------------------------------------ *)

let of_nat ctx n = if Nat.compare n ctx.p < 0 then n else snd (Nat.divmod n ctx.p)

let to_signed_int ctx x =
  let half = Nat.shift_right ctx.p 1 in
  if Nat.compare x half <= 0 then Nat.to_int_opt x
  else
    match Nat.to_int_opt (Nat.sub ctx.p x) with
    | Some m -> Some (-m)
    | None -> None

let add ctx a b =
  let s = Nat.add a b in
  if Nat.compare s ctx.p >= 0 then Nat.sub s ctx.p else s

let sub ctx a b = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a ctx.p) b
let neg ctx a = if Nat.is_zero a then Nat.zero else Nat.sub ctx.p a

(* -min_int is min_int: its magnitude is 2^62. *)
let of_int ctx n =
  if n >= 0 then of_nat ctx (Nat.of_int n)
  else if n = min_int then neg ctx (of_nat ctx (Nat.shift_left Nat.one 62))
  else neg ctx (of_nat ctx (Nat.of_int (-n)))

(* The two REDCs of [Vec.mul] on operands copied into [tmp]: a*b*R^-1
   stays below R for any k-limb operands, and times R^2 (below p) it is
   canonical. *)
let redc_mul ctx a b =
  let sc = scratch_for ctx and k = ctx.k in
  let t = sc.tmp in
  Limb.of_nat a t 0 k;
  Limb.of_nat b t k k;
  Montgomery.redc_into ctx.mont sc.ms t 0 t 0 t k;
  Montgomery.to_mont_slice ctx.mont sc.ms t 0 t 0;
  Limb.to_nat t 0 k

(* A product below p needs no reduction, and one of at most k limbs is
   cheap to try: the compiler and Zexec multiply mostly zeros, small
   constants and powers of two. *)
let mul ctx a b =
  Zobs.Counter.incr ctx.cnt_mul;
  if Nat.num_limbs a + Nat.num_limbs b > ctx.k then redc_mul ctx a b
  else
    let x = Nat.mul a b in
    if Nat.compare x ctx.p < 0 then x else redc_mul ctx a b

let sqr ctx a = mul ctx a a

let mul_lazy ctx a b =
  Zobs.Counter.incr ctx.cnt_mul_lazy;
  Nat.mul a b

let pow ctx b e =
  let nbits = Nat.num_bits e in
  let acc = ref Nat.one in
  for i = nbits - 1 downto 0 do
    acc := sqr ctx !acc;
    if Nat.testbit e i then acc := mul ctx !acc b
  done;
  !acc

let pow_int ctx b e =
  if e < 0 then invalid_arg "Fp.pow_int: negative exponent";
  pow ctx b (Nat.of_int e)

let inv_fermat ctx a =
  if Nat.is_zero a then raise Division_by_zero;
  Zobs.Counter.incr ctx.cnt_inv;
  pow ctx a ctx.p_minus_2

(* Extended Euclid with sign-tracked Bezout coefficient for a.
   Invariant: t_i * a = r_i (mod p). *)
let inv ctx a =
  if Nat.is_zero a then raise Division_by_zero;
  Zobs.Counter.incr ctx.cnt_inv;
  let sadd (s1, m1) (s2, m2) =
    if s1 = s2 then (s1, Nat.add m1 m2)
    else if Nat.compare m1 m2 >= 0 then (s1, Nat.sub m1 m2)
    else (s2, Nat.sub m2 m1)
  in
  let rec go r0 r1 t0 t1 =
    if Nat.is_zero r1 then begin
      if not (Nat.is_one r0) then raise Division_by_zero;
      let s, m = t0 in
      let m = of_nat ctx m in
      if s then neg ctx m else m
    end else begin
      let q, r2 = Nat.divmod r0 r1 in
      let s1, m1 = t1 in
      let t2 = sadd t0 (not s1, Nat.mul q m1) in
      go r1 r2 t1 t2
    end
  in
  go ctx.p a (false, Nat.zero) (false, Nat.one)

let div ctx a b = mul ctx a (inv ctx b)

let batch_inv ctx xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n Nat.one in
    let acc = ref Nat.one in
    for i = 0 to n - 1 do
      prefix.(i) <- !acc;
      if Nat.is_zero xs.(i) then raise Division_by_zero;
      acc := mul ctx !acc xs.(i)
    done;
    let inv_all = ref (inv ctx !acc) in
    let out = Array.make n Nat.zero in
    for i = n - 1 downto 0 do
      out.(i) <- mul ctx !inv_all prefix.(i);
      inv_all := mul ctx !inv_all xs.(i)
    done;
    out
  end

(* The exact sum of the products, reduced once. *)
let dot ctx a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Fp.dot: length mismatch";
  let acc = ref Nat.zero in
  let nmul = ref 0 in
  for i = 0 to n - 1 do
    if not (Nat.is_zero a.(i) || Nat.is_zero b.(i)) then begin
      acc := Nat.add !acc (Nat.mul a.(i) b.(i));
      incr nmul
    end
  done;
  Zobs.Counter.add ctx.cnt_mul_lazy !nmul;
  of_nat ctx !acc

let rec sample ctx random_bytes =
  let n = ctx.sample_bytes in
  let b = random_bytes n in
  if Bytes.length b < n then invalid_arg "Fp.sample: bad byte source";
  Bytes.set_uint8 b (n - 1) (Bytes.get_uint8 b (n - 1) land ctx.sample_mask);
  let x = Nat.of_bytes_sub b 0 n in
  if Nat.compare x ctx.p < 0 then x else sample ctx random_bytes

let to_string = Nat.to_decimal
let pp fmt x = Format.pp_print_string fmt (to_string x)

(* ------------------------------------------------------------------ *)
(* Packed elements: limb kernels and element vectors                    *)
(* ------------------------------------------------------------------ *)

(* [Limb.get]/[Limb.set] again, for the per-limb loops below (modular
   add/sub, the dot, the codec's range check): modules are compiled
   separately (no cross-module inlining), and a call per limb would cost
   more than the work it feeds. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let lget (b : Limb.a) i = Int64.to_int (get64u b (i lsl 3))
let lset (b : Limb.a) i v = set64u b (i lsl 3) (Int64.of_int v)

(* dst <- a + sign * b over k limbs (sign = 1 or -1); returns the carry
   (1) or borrow (-1) out, else 0. Index-synchronous, so [dst] may alias
   either input. *)
let add_signed k (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo sign =
  let c = ref 0 in
  for l = 0 to k - 1 do
    let s = lget a (ao + l) + (sign * lget b (bo + l)) + !c in
    lset dst (dso + l) (s land limb_mask);
    c := s asr 31
  done;
  !c

(* Modular add/sub on k-limb slices: one pass, then at most one
   correction by p; dst may alias either input. *)
let add_slice sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  let k = sc.sk and p = sc.p_l in
  let c = add_signed k dst dso a ao b bo 1 in
  let i = ref (k - 1) in
  while !i > 0 && lget dst (dso + !i) = lget p !i do
    decr i
  done;
  if c = 1 || lget dst (dso + !i) >= lget p !i then ignore (add_signed k dst dso dst dso p 0 (-1))

let sub_slice sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  if add_signed sc.sk dst dso a ao b bo (-1) = -1 then
    ignore (add_signed sc.sk dst dso dst dso sc.p_l 0 1)

(* The convolution's operand copy: slots [vi, vi+n) of a k-limb arena,
   re-limbed from 31 to 26 bits into [sc.l26] from slot [si] on (w26
   limbs a slot), with each slot's significant limb count in [sc.n26].
   Returns how many of the slots are nonzero. *)
let relimb sc (v : Limb.a) vi n si =
  let k = sc.sk and w = sc.w26 and l = sc.l26 and ln = sc.n26 in
  let nz = ref 0 in
  for s = 0 to n - 1 do
    let so = (vi + s) * k and o = (si + s) * w in
    let acc = ref 0 and bits = ref 0 and src = ref 0 and top = ref 0 in
    for u = 0 to w - 1 do
      if !bits < 26 && !src < k then begin
        acc := !acc lor (lget v (so + !src) lsl !bits);
        bits := !bits + 31;
        incr src
      end;
      let x = !acc land mask26 in
      Array.unsafe_set l (o + u) x;
      if x <> 0 then top := u + 1;
      acc := !acc lsr 26;
      bits := !bits - 26
    done;
    Array.unsafe_set ln (si + s) !top;
    if !top > 0 then incr nz
  done;
  !nz

(* Montgomery reduction in 26-bit digits, with R = 2^(26 (w+1)) > 2^10 p
   for w = w26. The first [ncols] entries of [sc.cols26] are columns of
   X = sum cols.(c) 2^(26c), each below 2^62, with X < p R. One carry
   pass makes them 2w+2 limbs; step i adds the multiple m p 2^(26i) that
   clears limb i, carrying out of limb i only (the rest of m p adds into
   limbs that stay below 2^56); a last carry pass leaves X R^-1 mod p,
   plus p or not, in limbs [w+1, 2w+2), and one subtraction makes it
   canonical. *)
let redc26 sc ncols =
  let cols = sc.cols26 and p = sc.p26 and w = sc.w26 in
  let top = (2 * w) + 2 in
  let carry = ref 0 in
  for c = 0 to top - 1 do
    let s = (if c < ncols then Array.unsafe_get cols c else 0) + !carry in
    Array.unsafe_set cols c (s land mask26);
    carry := s lsr 26
  done;
  let carry = ref 0 and p0 = Array.unsafe_get p 0 in
  for i = 0 to w do
    let s = Array.unsafe_get cols i + !carry in
    let m = (s land mask26) * sc.pinv26 land mask26 in
    carry := (s + (m * p0)) lsr 26;
    for j = 1 to w - 1 do
      Array.unsafe_set cols (i + j) (Array.unsafe_get cols (i + j) + (m * Array.unsafe_get p j))
    done
  done;
  for c = w + 1 to top - 1 do
    let s = Array.unsafe_get cols c + !carry in
    Array.unsafe_set cols c (s land mask26);
    carry := s lsr 26
  done;
  (* Below 2p: compare with p from the top limb down, subtract it once. *)
  let r = w + 1 in
  let j = ref (w - 1) in
  while !j > 0 && Array.unsafe_get cols (r + !j) = Array.unsafe_get p !j do
    decr j
  done;
  if Array.unsafe_get cols (top - 1) > 0 || Array.unsafe_get cols (r + !j) >= Array.unsafe_get p !j then begin
    let borrow = ref 0 in
    for j = 0 to w - 1 do
      let s = Array.unsafe_get cols (r + j) - Array.unsafe_get p j - !borrow in
      Array.unsafe_set cols (r + j) (s land mask26);
      borrow := s lsr 62
    done;
    Array.unsafe_set cols (top - 1) 0
  end

(* [redc26] at w = 5, unrolled over the nine columns of a product of
   five-limb operands: the same carry pass, six steps and subtraction on
   locals, with p's limbs above its top one zero (p61). *)
let redc5 sc c0 c1 c2 c3 c4 c5 c6 c7 c8 =
  let p = sc.p26 and pinv = sc.pinv26 and cols = sc.cols26 in
  let p0 = Array.unsafe_get p 0 and p1 = Array.unsafe_get p 1 and p2 = Array.unsafe_get p 2 in
  let p3 = Array.unsafe_get p 3 and p4 = Array.unsafe_get p 4 in
  let t0 = c0 land mask26 in
  let s = c1 + (c0 lsr 26) in
  let t1 = s land mask26 in
  let s = c2 + (s lsr 26) in
  let t2 = s land mask26 in
  let s = c3 + (s lsr 26) in
  let t3 = s land mask26 in
  let s = c4 + (s lsr 26) in
  let t4 = s land mask26 in
  let s = c5 + (s lsr 26) in
  let t5 = s land mask26 in
  let s = c6 + (s lsr 26) in
  let t6 = s land mask26 in
  let s = c7 + (s lsr 26) in
  let t7 = s land mask26 in
  let s = c8 + (s lsr 26) in
  let t8 = s land mask26 in
  let s = s lsr 26 in
  let t9 = s land mask26 and t10 = s lsr 26 in
  (* Step i clears limb i: m = t_i (-p^-1) mod 2^26, t += m p 2^(26i). *)
  let m = t0 * pinv land mask26 in
  let cy = (t0 + (m * p0)) lsr 26 in
  let t1 = t1 + (m * p1) and t2 = t2 + (m * p2) and t3 = t3 + (m * p3) and t4 = t4 + (m * p4) in
  let s = t1 + cy in
  let m = (s land mask26) * pinv land mask26 in
  let cy = (s + (m * p0)) lsr 26 in
  let t2 = t2 + (m * p1) and t3 = t3 + (m * p2) and t4 = t4 + (m * p3) and t5 = t5 + (m * p4) in
  let s = t2 + cy in
  let m = (s land mask26) * pinv land mask26 in
  let cy = (s + (m * p0)) lsr 26 in
  let t3 = t3 + (m * p1) and t4 = t4 + (m * p2) and t5 = t5 + (m * p3) and t6 = t6 + (m * p4) in
  let s = t3 + cy in
  let m = (s land mask26) * pinv land mask26 in
  let cy = (s + (m * p0)) lsr 26 in
  let t4 = t4 + (m * p1) and t5 = t5 + (m * p2) and t6 = t6 + (m * p3) and t7 = t7 + (m * p4) in
  let s = t4 + cy in
  let m = (s land mask26) * pinv land mask26 in
  let cy = (s + (m * p0)) lsr 26 in
  let t5 = t5 + (m * p1) and t6 = t6 + (m * p2) and t7 = t7 + (m * p3) and t8 = t8 + (m * p4) in
  let s = t5 + cy in
  let m = (s land mask26) * pinv land mask26 in
  let cy = (s + (m * p0)) lsr 26 in
  let t6 = t6 + (m * p1) and t7 = t7 + (m * p2) and t8 = t8 + (m * p3) and t9 = t9 + (m * p4) in
  let s = t6 + cy in
  let r0 = s land mask26 in
  let s = t7 + (s lsr 26) in
  let r1 = s land mask26 in
  let s = t8 + (s lsr 26) in
  let r2 = s land mask26 in
  let s = t9 + (s lsr 26) in
  let r3 = s land mask26 in
  let s = t10 + (s lsr 26) in
  let r4 = s land mask26 and r5 = s lsr 26 in
  if
    r5 > 0
    || r4 > p4
    || r4 = p4 && (r3 > p3 || r3 = p3 && (r2 > p2 || r2 = p2 && (r1 > p1 || r1 = p1 && r0 >= p0)))
  then begin
    let s = r0 - p0 in
    Array.unsafe_set cols 6 (s land mask26);
    let s = r1 - p1 + (s asr 26) in
    Array.unsafe_set cols 7 (s land mask26);
    let s = r2 - p2 + (s asr 26) in
    Array.unsafe_set cols 8 (s land mask26);
    let s = r3 - p3 + (s asr 26) in
    Array.unsafe_set cols 9 (s land mask26);
    Array.unsafe_set cols 10 ((r4 - p4 + (s asr 26)) land mask26)
  end
  else begin
    Array.unsafe_set cols 6 r0;
    Array.unsafe_set cols 7 r1;
    Array.unsafe_set cols 8 r2;
    Array.unsafe_set cols 9 r3;
    Array.unsafe_set cols 10 r4
  end

(* The residue a REDC left in limbs [w+1, 2w+1) of [sc.cols26], written
   into [dst] at [dso] as k limbs of 31 bits. *)
let store31 sc (dst : Limb.a) dso =
  let cols = sc.cols26 and w = sc.w26 in
  let acc = ref 0 and bits = ref 0 and c = ref (w + 1) in
  for o = dso to dso + sc.sk - 1 do
    while !bits < 31 && !c <= 2 * w do
      acc := !acc lor (Array.unsafe_get cols !c lsl !bits);
      bits := !bits + 26;
      incr c
    done;
    lset dst o (!acc land limb_mask);
    acc := !acc lsr 31;
    bits := !bits - 31
  done

(* Slot [s] of [sc.l26] times R mod p, in place: its product with R^2
   mod p, then one REDC. Zero stays zero. *)
let to_mont26 sc s =
  let w = sc.w26 and l = sc.l26 and r2 = sc.r2_26 and cols = sc.cols26 in
  let x = s * w and n = Array.unsafe_get sc.n26 s in
  if n > 0 then begin
    let ncols = (2 * w) - 1 in
    Array.fill cols 0 ncols 0;
    for u = 0 to n - 1 do
      let au = Array.unsafe_get l (x + u) in
      for v = 0 to w - 1 do
        Array.unsafe_set cols (u + v) (Array.unsafe_get cols (u + v) + (au * Array.unsafe_get r2 v))
      done
    done;
    if w = 5 then
      redc5 sc (Array.unsafe_get cols 0) (Array.unsafe_get cols 1) (Array.unsafe_get cols 2)
        (Array.unsafe_get cols 3) (Array.unsafe_get cols 4) (Array.unsafe_get cols 5)
        (Array.unsafe_get cols 6) (Array.unsafe_get cols 7) (Array.unsafe_get cols 8)
    else redc26 sc ncols;
    let top = ref 0 in
    for u = 0 to w - 1 do
      let y = Array.unsafe_get cols (w + 1 + u) in
      Array.unsafe_set l (x + u) y;
      if y <> 0 then top := u + 1
    done;
    Array.unsafe_set sc.n26 s !top
  end

(* Slot t of [tmp]: where a kernel parks its REDC product. *)
let slot_t = 0

(* Vectors of packed canonical residues: slot [i] of a vector over a k-limb
   modulus occupies limbs [i*k, (i+1)*k). *)
module Vec = struct
  type t = { n : int; k : int; buf : Limb.a }

  let create (ctx : ctx) n = { n; k = ctx.k; buf = Limb.create (n * ctx.k) }
  let length v = v.n
  let get (v : t) i : el = Limb.to_nat v.buf (i * v.k) v.k
  let set (v : t) i (x : el) = Limb.of_nat x v.buf (i * v.k) v.k

  let of_array ctx (a : el array) =
    let v = create ctx (Array.length a) in
    Array.iteri (fun i x -> set v i x) a;
    v

  let to_array (v : t) = Array.init v.n (get v)
  let is_zero (v : t) i = Limb.is_zero_slice v.buf (i * v.k) v.k
  let equal (a : t) (b : t) = a.n = b.n && a.k = b.k && Limb.cmp a.buf 0 b.buf 0 (a.n * a.k) = 0
  let blit src si dst di len = Limb.blit src.buf (si * src.k) dst.buf (di * dst.k) (len * src.k)
  let clear v i len = Limb.clear v.buf (i * v.k) (len * v.k)

  (* The limb kernels index unchecked, so every range-taking entry point
     checks its slots first. *)
  let check name (v : t) i len =
    if i < 0 || len < 0 || i > v.n - len then
      invalid_arg
        (Printf.sprintf "Fp.Vec.%s: slots [%d, %d+%d) outside a %d-slot vector" name i i len v.n)

  (* The width's generated slot decoder when it has one for w-byte
     elements and the bytes are all there; else a loop whose range check
     looks at the top limbs first: below p's top limb (nearly every
     residue) settles it without a full comparison. *)
  let read_bytes_n ctx (v : t) i n b off w =
    check "read_bytes" v i n;
    let k = v.k in
    let fixed =
      if off >= 0 && n * w <= Bytes.length b - off then Fixed.read_slots k w ctx.p_limbs v.buf (i * k) n b off
      else -1
    in
    if fixed >= 0 then fixed
    else begin
      let p_top = lget ctx.p_limbs (k - 1) in
      let j = ref 0 and ok = ref true in
      while !ok && !j < n do
        let o = (i + !j) * k in
        if
          Limb.load_bytes b (off + (!j * w)) w v.buf o k
          &&
          let top = lget v.buf (o + k - 1) in
          top < p_top || (top = p_top && Limb.cmp v.buf o ctx.p_limbs 0 k < 0)
        then incr j
        else ok := false
      done;
      !j
    end

  let write_bytes (v : t) i b off w =
    check "write_bytes" v i 1;
    Limb.store_bytes v.buf (i * v.k) v.k b off w

  (* One rejection round of [sample] above, into a slot. *)
  let sample_bytes ctx (v : t) i b =
    let n = ctx.sample_bytes in
    if Bytes.length b < n then invalid_arg "Fp.Vec.sample_bytes: bad byte source";
    Bytes.set_uint8 b (n - 1) (Bytes.get_uint8 b (n - 1) land ctx.sample_mask);
    read_bytes_n ctx v i 1 b 0 n = 1

  let swap sc (v : t) i j =
    let k = v.k and o = slot_t in
    Limb.blit v.buf (i * k) sc.tmp o k;
    Limb.blit v.buf (j * k) v.buf (i * k) k;
    Limb.blit sc.tmp o v.buf (j * k) k

  (* Montgomery form (xR mod p) is for constants only: slots stay
     canonical, and a constant in this form turns a product into one
     REDC, c*R * x * R^-1 = c*x. *)
  let set_mont ctx (v : t) i (x : el) =
    check "set_mont" v i 1;
    Montgomery.to_mont_into ctx.mont (Montgomery.scratch_for ctx.mont) x v.buf (i * v.k)

  (* a*b*R^-1, then times R^2: two uncounted REDCs, one counted mul. *)
  let mul ctx sc (dst : t) di (a : t) ai (b : t) bi =
    Zobs.Counter.incr ctx.cnt_mul;
    let d = dst.buf and o = di * dst.k in
    Montgomery.redc_into ctx.mont sc.ms d o a.buf (ai * a.k) b.buf (bi * b.k);
    Montgomery.to_mont_slice ctx.mont sc.ms d o d o

  let add _ctx sc (dst : t) di (a : t) ai (b : t) bi =
    add_slice sc dst.buf (di * dst.k) a.buf (ai * a.k) b.buf (bi * b.k)

  let sub _ctx sc (dst : t) di (a : t) ai (b : t) bi =
    sub_slice sc dst.buf (di * dst.k) a.buf (ai * a.k) b.buf (bi * b.k)

  (* The range forms of [add] and [sub]: one range check a call (none
     for an empty range), and each slot's limb pass and correction by p
     inlined in the loop. Index-synchronous, so [dst] may alias either
     input. *)
  let add_n _ctx sc (dst : t) di (a : t) ai (b : t) bi len =
    if len > 0 then begin
      check "add_n" dst di len;
      check "add_n" a ai len;
      check "add_n" b bi len
    end;
    let k = sc.sk and p = sc.p_l and d = dst.buf and ab = a.buf and bb = b.buf in
    for j = 0 to len - 1 do
      let o = (di + j) * k and ao = (ai + j) * k and bo = (bi + j) * k in
      let c = ref 0 in
      for l = 0 to k - 1 do
        let s = lget ab (ao + l) + lget bb (bo + l) + !c in
        lset d (o + l) (s land limb_mask);
        c := s asr 31
      done;
      let i = ref (k - 1) in
      while !i > 0 && lget d (o + !i) = lget p !i do
        decr i
      done;
      if !c = 1 || lget d (o + !i) >= lget p !i then begin
        let c = ref 0 in
        for l = 0 to k - 1 do
          let s = lget d (o + l) - lget p l + !c in
          lset d (o + l) (s land limb_mask);
          c := s asr 31
        done
      end
    done

  let sub_n _ctx sc (dst : t) di (a : t) ai (b : t) bi len =
    if len > 0 then begin
      check "sub_n" dst di len;
      check "sub_n" a ai len;
      check "sub_n" b bi len
    end;
    let k = sc.sk and p = sc.p_l and d = dst.buf and ab = a.buf and bb = b.buf in
    for j = 0 to len - 1 do
      let o = (di + j) * k and ao = (ai + j) * k and bo = (bi + j) * k in
      let c = ref 0 in
      for l = 0 to k - 1 do
        let s = lget ab (ao + l) - lget bb (bo + l) + !c in
        lset d (o + l) (s land limb_mask);
        c := s asr 31
      done;
      if !c < 0 then begin
        let c = ref 0 in
        for l = 0 to k - 1 do
          let s = lget d (o + l) + lget p l + !c in
          lset d (o + l) (s land limb_mask);
          c := s asr 31
        done
      end
    done

  (* y.(yi+j) += c.(ci) * x.(xi+j), c in Montgomery form: one REDC and one
     [add_slice] per term, the product parked in slot t. *)
  let axpy ctx sc (y : t) yi (c : t) ci (x : t) xi len =
    check "axpy" y yi len;
    check "axpy" c ci 1;
    check "axpy" x xi len;
    let k = sc.sk and o = slot_t in
    Zobs.Counter.add ctx.cnt_mul len;
    for j = 0 to len - 1 do
      Montgomery.redc_into ctx.mont sc.ms sc.tmp o c.buf (ci * k) x.buf ((xi + j) * k);
      add_slice sc y.buf ((yi + j) * k) y.buf ((yi + j) * k) sc.tmp o
    done

  (* Sparse mat-vec over compressed rows. Term t's tag (the low two bits
     of [idx.(t)]) selects its coefficient: +1 and -1 are one add or sub,
     anything else is the next unread slot of [coef] (Montgomery form),
     one REDC. Each term counts one [fp.mul], as [Lincomb.eval] does. *)
  let spmv ctx sc ~(ptr : int array) ~(idx : int array) (coef : t) (x : t) (dst : t) =
    let rows = Array.length ptr - 1 in
    check "spmv" dst 0 rows;
    if ptr.(0) <> 0 || ptr.(rows) > Array.length idx then
      invalid_arg "Fp.Vec.spmv: row pointers outside the term array";
    let k = sc.sk and o = slot_t and d = dst.buf in
    let ci = ref 0 in
    for r = 0 to rows - 1 do
      let ro = r * k in
      Limb.clear d ro k;
      for t = ptr.(r) to ptr.(r + 1) - 1 do
        let e = idx.(t) in
        let v = e lsr 2 in
        if v >= x.n then invalid_arg "Fp.Vec.spmv: column outside the vector";
        match e land 3 with
        | 1 -> add_slice sc d ro d ro x.buf (v * k)
        | 2 -> sub_slice sc d ro d ro x.buf (v * k)
        | _ ->
          if !ci >= coef.n then invalid_arg "Fp.Vec.spmv: more terms than coefficients";
          Montgomery.redc_into ctx.mont sc.ms sc.tmp o coef.buf (!ci * k) x.buf (v * k);
          add_slice sc d ro d ro sc.tmp o;
          incr ci
      done
    done;
    Zobs.Counter.add ctx.cnt_mul ptr.(rows)

  (* The transpose: dst = M^T x, each term of row r adding slot r of [x]
     times its coefficient into its column's slot, counted as [spmv]. *)
  let spmv_t ctx sc ~(ptr : int array) ~(idx : int array) (coef : t) (x : t) (dst : t) =
    let rows = Array.length ptr - 1 in
    check "spmv_t" x 0 rows;
    if ptr.(0) <> 0 || ptr.(rows) > Array.length idx then
      invalid_arg "Fp.Vec.spmv_t: row pointers outside the term array";
    let k = sc.sk and o = slot_t and d = dst.buf in
    Limb.clear d 0 (dst.n * k);
    let ci = ref 0 in
    for r = 0 to rows - 1 do
      let xo = r * k in
      for t = ptr.(r) to ptr.(r + 1) - 1 do
        let e = idx.(t) in
        let v = e lsr 2 in
        if v >= dst.n then invalid_arg "Fp.Vec.spmv_t: column outside the vector";
        let vo = v * k in
        match e land 3 with
        | 1 -> add_slice sc d vo d vo x.buf xo
        | 2 -> sub_slice sc d vo d vo x.buf xo
        | _ ->
          if !ci >= coef.n then invalid_arg "Fp.Vec.spmv_t: more terms than coefficients";
          Montgomery.redc_into ctx.mont sc.ms sc.tmp o coef.buf (!ci * k) x.buf xo;
          add_slice sc d vo d vo sc.tmp o;
          incr ci
      done
    done;
    Zobs.Counter.add ctx.cnt_mul ptr.(rows)

  let dot_bound (ctx : ctx) = ctx.dot_bound

  (* Split-column lazy dot: every 62-bit limb product x*y adds its low and
     high 31-bit halves to plain int columns j+l and j+l+1, so the loop
     neither carries nor reduces nor allocates. One carry pass turns the
     2k columns into 26-bit digits, and two REDCs finish: [redc26] takes
     the sum S to S R^-1 (R = 2^(26 (w+1))), and the CIOS REDC of [mul]
     against R R' mod p (R' = 2^(31k)) takes that to S. Terms with a zero
     operand are skipped and not counted, as in the boxed [dot]. *)
  let dot ctx sc (a : t) ai (b : t) bi len =
    if len > dot_bound ctx then
      invalid_arg
        (Printf.sprintf "Fp.Vec.dot: %d terms exceed the column-overflow bound %d" len
           (dot_bound ctx));
    check "dot" a ai len;
    check "dot" b bi len;
    let k = sc.sk in
    let cols = sc.cols and ab = a.buf and bb = b.buf in
    Array.fill cols 0 (2 * k) 0;
    let terms = ref 0 in
    for i = 0 to len - 1 do
      let ao = (ai + i) * k and bo = (bi + i) * k in
      (* Significant limbs of each operand: 0 skips the term, and a small
         one (proof vectors are full of 0/1 entries) skips its zero
         limbs' products. *)
      let la = ref k and lb = ref k in
      while !la > 0 && lget ab (ao + !la - 1) = 0 do
        decr la
      done;
      while !lb > 0 && lget bb (bo + !lb - 1) = 0 do
        decr lb
      done;
      if !la > 0 && !lb > 0 then begin
        incr terms;
        for j = 0 to !la - 1 do
          let x = lget ab (ao + j) in
          for l = 0 to !lb - 1 do
            let p = x * lget bb (bo + l) in
            let c = j + l in
            Array.unsafe_set cols c (Array.unsafe_get cols c + (p land limb_mask));
            Array.unsafe_set cols (c + 1) (Array.unsafe_get cols (c + 1) + (p lsr 31))
          done
        done
      end
    done;
    Zobs.Counter.add ctx.cnt_mul_lazy !terms;
    (* One carry pass makes the columns 31-bit limbs, streamed out as
       26-bit digits; the sum is below len p^2 < p R < 2^(26 (2w+1)), so
       the digits past [cols26] are zero. *)
    let c26 = sc.cols26 and top = (2 * sc.w26) + 2 in
    let carry = ref 0 and acc = ref 0 and bits = ref 0 and d = ref 0 in
    for c = 0 to 2 * k do
      let s = (if c < 2 * k then Array.unsafe_get cols c else 0) + !carry in
      carry := s lsr 31;
      acc := !acc lor ((s land limb_mask) lsl !bits);
      bits := !bits + 31;
      while !bits >= 26 || (c = 2 * k && !bits > 0) do
        if !d < top then Array.unsafe_set c26 !d (!acc land mask26);
        incr d;
        acc := !acc lsr 26;
        bits := !bits - 26
      done
    done;
    redc26 sc (min !d top);
    store31 sc sc.tmp slot_t;
    Montgomery.redc_into ctx.mont sc.ms sc.tmp slot_t sc.tmp slot_t sc.unredc26 0;
    Limb.to_nat sc.tmp slot_t k

  (* A column takes at most w26 limb products below 2^52 from each of
     min(la, lb) coefficient pairs, and the carry it receives is below
     2^36, so min(la, lb) * w26 < 2^10 keeps every column below 2^62. *)
  let convolve_bound (ctx : ctx) = 1023 / limbs26 ctx.p_bits

  (* The 5 x 5 body: output i's nine columns stay in locals while it
     scans its coefficient pairs (j, i - j), a's at slot j and b's at slot
     la + i - j of [l26]. *)
  let convolve5 sc la lb i0 i1 (d : Limb.a) di =
    let l = sc.l26 and k = sc.sk in
    for i = i0 to i1 - 1 do
      let c0 = ref 0 and c1 = ref 0 and c2 = ref 0 and c3 = ref 0 and c4 = ref 0 in
      let c5 = ref 0 and c6 = ref 0 and c7 = ref 0 and c8 = ref 0 in
      for j = max 0 (i - lb + 1) to min (la - 1) i do
        let x = 5 * j and y = 5 * (la + i - j) in
        let a0 = Array.unsafe_get l x and a1 = Array.unsafe_get l (x + 1) in
        let a2 = Array.unsafe_get l (x + 2) and a3 = Array.unsafe_get l (x + 3) in
        let a4 = Array.unsafe_get l (x + 4) in
        let b0 = Array.unsafe_get l y and b1 = Array.unsafe_get l (y + 1) in
        let b2 = Array.unsafe_get l (y + 2) and b3 = Array.unsafe_get l (y + 3) in
        let b4 = Array.unsafe_get l (y + 4) in
        c0 := !c0 + (a0 * b0);
        c1 := !c1 + (a0 * b1) + (a1 * b0);
        c2 := !c2 + (a0 * b2) + (a1 * b1) + (a2 * b0);
        c3 := !c3 + (a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0);
        c4 := !c4 + (a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0);
        c5 := !c5 + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1);
        c6 := !c6 + (a2 * b4) + (a3 * b3) + (a4 * b2);
        c7 := !c7 + (a3 * b4) + (a4 * b3);
        c8 := !c8 + (a4 * b4)
      done;
      redc5 sc !c0 !c1 !c2 !c3 !c4 !c5 !c6 !c7 !c8;
      store31 sc d ((di + i - i0) * k)
    done

  (* Any width: the same scan with the columns in [cols26], skipping each
     slot's zero top limbs. *)
  let convolve_cols sc la lb i0 i1 (d : Limb.a) di =
    let l = sc.l26 and ln = sc.n26 and cols = sc.cols26 and w = sc.w26 and k = sc.sk in
    let ncols = (2 * w) - 1 in
    for i = i0 to i1 - 1 do
      Array.fill cols 0 ncols 0;
      for j = max 0 (i - lb + 1) to min (la - 1) i do
        let x = w * j and y = w * (la + i - j) in
        let ny = Array.unsafe_get ln (la + i - j) in
        for u = 0 to Array.unsafe_get ln j - 1 do
          let au = Array.unsafe_get l (x + u) in
          for v = 0 to ny - 1 do
            Array.unsafe_set cols (u + v) (Array.unsafe_get cols (u + v) + (au * Array.unsafe_get l (y + v)))
          done
        done
      done;
      redc26 sc ncols;
      store31 sc d ((di + i - i0) * k)
    done

  (* Both operands re-limbed to 26 bits into the scratch (a's slots at 0,
     b's at la), the shorter one times R; returns the number of pairs
     with both nonzero. *)
  let load name ctx sc (a : t) ai la (b : t) bi lb =
    if min la lb > convolve_bound ctx then
      invalid_arg
        (Printf.sprintf "Fp.Vec.%s: %d x %d exceeds the column-overflow bound %d" name la lb
           (convolve_bound ctx));
    check name a ai la;
    check name b bi lb;
    let w = sc.w26 in
    if Array.length sc.n26 < la + lb then begin
      let n = max (la + lb) (2 * Array.length sc.n26) in
      sc.l26 <- Array.make (n * w) 0;
      sc.n26 <- Array.make n 0
    end;
    let nza = relimb sc a.buf ai la 0 in
    let nzb = relimb sc b.buf bi lb la in
    (* Each output's REDC divides by R, so the shorter operand carries
       the factor R: min(la, lb) products instead of one per output. *)
    let s0 = if la <= lb then 0 else la in
    for s = s0 to s0 + min la lb - 1 do
      to_mont26 sc s
    done;
    nza * nzb

  (* Product-scanning schoolbook: both operands are re-limbed to 26 bits
     once, so a limb product is below 2^52 and each column takes a whole
     output's products with no split and no carry; each output is reduced
     once, into its slot. A pair with a zero coefficient adds nothing,
     and the count is of the pairs with both nonzero, as [Fp.dot]'s. *)
  let convolve ctx sc (a : t) ai la (b : t) bi lb (d : t) di =
    if la > 0 && lb > 0 then begin
      check "convolve" d di (la + lb - 1);
      Zobs.Counter.add ctx.cnt_mul_lazy (load "convolve" ctx sc a ai la b bi lb);
      if sc.w26 = 5 then convolve5 sc la lb 0 (la + lb - 1) d.buf di
      else convolve_cols sc la lb 0 (la + lb - 1) d.buf di
    end

  (* 1 if b's slot l (at la in the scratch) is in range and nonzero. *)
  let nz26 sc la lb l = if l >= 0 && l < lb && Array.unsafe_get sc.n26 (la + l) > 0 then 1 else 0

  (* Coefficients [lo, lo+n) of the product only. Slot j of a meets b's
     slots [lo-j, lo+n-1-j] there, a window that slides down one slot as
     j grows, so the count of nonzero pairs is one pass over each. *)
  let convolve_mid ctx sc (a : t) ai la (b : t) bi lb lo n (d : t) di =
    if la = 0 || lb = 0 || lo < 0 || n < 0 || lo + n > la + lb - 1 then
      invalid_arg "Fp.Vec.convolve_mid: range outside the product";
    check "convolve_mid" d di n;
    ignore (load "convolve_mid" ctx sc a ai la b bi lb);
    let win = ref 0 and pairs = ref 0 in
    for l = lo to lo + n - 1 do
      win := !win + nz26 sc la lb l
    done;
    for j = 0 to la - 1 do
      if j > 0 then win := !win + nz26 sc la lb (lo - j) - nz26 sc la lb (lo + n - j);
      if Array.unsafe_get sc.n26 j > 0 then pairs := !pairs + !win
    done;
    Zobs.Counter.add ctx.cnt_mul_lazy !pairs;
    if sc.w26 = 5 then convolve5 sc la lb lo (lo + n) d.buf di
    else convolve_cols sc la lb lo (lo + n) d.buf di

  (* Fused CT butterfly, tw in Montgomery form: t = data[j] * tw[ti] by
     one REDC; data[j] <- data[i] - t; data[i] <- data[i] + t. One counted
     field mul, zero allocations. The width's generated kernel keeps t in
     locals; elsewhere it is parked in slot t. *)
  let butterfly ctx sc (data : t) i j (tw : t) ti =
    Zobs.Counter.incr ctx.cnt_mul;
    let k = sc.sk and o = slot_t and d = data.buf in
    if not (Montgomery.butterfly_fixed ctx.mont d (i * k) (j * k) tw.buf (ti * k)) then begin
      Montgomery.redc_into ctx.mont sc.ms sc.tmp o d (j * k) tw.buf (ti * k);
      sub_slice sc d (j * k) d (i * k) sc.tmp o;
      add_slice sc d (i * k) d (i * k) sc.tmp o
    end

  (* Multiply every slot of [v] by slot [ci] of [c] (Montgomery form). *)
  let scale_all ctx sc (v : t) (c : t) ci =
    check "scale_all" c ci 1;
    let k = sc.sk in
    Zobs.Counter.add ctx.cnt_mul v.n;
    for i = 0 to v.n - 1 do
      Montgomery.redc_into ctx.mont sc.ms v.buf (i * k) v.buf (i * k) c.buf (ci * k)
    done
end

(* A query matrix: [rows] rows of [width] residues, row r in slots
   [r*width, (r+1)*width) of one packed vector. *)
module Rows = struct
  type t = { rows : int; width : int; vec : Vec.t }

  let create ctx ~rows ~width =
    if rows < 0 || width < 0 then invalid_arg "Fp.Rows.create: negative shape";
    { rows; width; vec = Vec.create ctx (rows * width) }

  let of_vec (v : Vec.t) = { rows = 1; width = v.Vec.n; vec = v }

  let row q r =
    if r < 0 || r >= q.rows then
      invalid_arg (Printf.sprintf "Fp.Rows: row %d outside a %d-row matrix" r q.rows);
    r * q.width

  let get q r j =
    if j < 0 || j >= q.width then invalid_arg "Fp.Rows.get: column out of range";
    Vec.get q.vec (row q r + j)

  let set_row q r (a : el array) =
    if Array.length a <> q.width then invalid_arg "Fp.Rows.set_row: width mismatch";
    let o = row q r in
    Array.iteri (fun j x -> Vec.set q.vec (o + j) x) a

  let of_arrays ctx ~width (a : el array array) =
    let q = create ctx ~rows:(Array.length a) ~width in
    Array.iteri (set_row q) a;
    q

  let to_arrays q = Array.init q.rows (fun r -> Array.init q.width (get q r))
  let equal a b = a.rows = b.rows && (a.rows = 0 || (a.width = b.width && Vec.equal a.vec b.vec))

  let add ctx sc q d a b =
    Vec.add_n ctx sc q.vec (row q d) q.vec (row q a) q.vec (row q b) q.width

  let dot ctx sc q r (u : Vec.t) =
    if u.Vec.n <> q.width then
      invalid_arg (Printf.sprintf "Fp.Rows.dot: rows of %d against a %d-vector" q.width u.Vec.n);
    Vec.dot ctx sc q.vec (row q r) u 0 q.width
end
