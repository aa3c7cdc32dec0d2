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
  mu : Nat.t; (* floor(B^2k / p) for Barrett reduction *)
  p_bits : int;
  p_minus_2 : Nat.t;
  sample_bytes : int;
  sample_mask : int; (* mask for the top sampled byte *)
  dot_window : int; (* lazy products that can be accumulated before reduction *)
  p_limbs : Limb.a; (* p as k packed limbs: the range check of packed reads and samples *)
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

let create ?(tag = Field) p =
  if Nat.compare p (Nat.of_int 3) < 0 then invalid_arg "Fp.create: modulus too small";
  if Nat.is_even p then invalid_arg "Fp.create: modulus must be odd";
  let k = Nat.num_limbs p in
  let b2k = Nat.shift_left Nat.one (31 * 2 * k) in
  let mu, _ = Nat.divmod b2k p in
  let p_bits = Nat.num_bits p in
  let psq = Nat.sqr p in
  let window, _ = Nat.divmod b2k psq in
  let dot_window = match Nat.to_int_opt window with Some w -> max 1 (min (w - 1) 1024) | None -> 1024 in
  let cnt_mul, cnt_mul_lazy, cnt_inv =
    match tag with Field -> (c_mul, c_mul_lazy, c_inv) | Group -> (c_mul_g, c_mul_lazy_g, c_inv_g)
  in
  let p_limbs = Limb.create k in
  Limb.of_nat p p_limbs 0 k;
  {
    p;
    k;
    mu;
    p_bits;
    p_minus_2 = Nat.sub p Nat.two;
    sample_bytes = (p_bits + 7) / 8;
    sample_mask = (1 lsl (((p_bits - 1) mod 8) + 1)) - 1;
    dot_window;
    p_limbs;
    cnt_mul;
    cnt_mul_lazy;
    cnt_inv;
  }

let modulus ctx = ctx.p
let bits ctx = ctx.p_bits
let num_bytes ctx = (ctx.p_bits + 7) / 8
let zero = Nat.zero
let one = Nat.one
let equal = Nat.equal
let is_zero = Nat.is_zero
let to_nat (x : el) : Nat.t = x
let to_int_opt = Nat.to_int_opt

(* Barrett reduction of x < B^2k into [0, p). *)
let reduce ctx x =
  if Nat.compare x ctx.p < 0 then x
  else begin
    let q1 = Nat.shift_right_limbs x (ctx.k - 1) in
    let q2 = Nat.mul q1 ctx.mu in
    let q3 = Nat.shift_right_limbs q2 (ctx.k + 1) in
    let r1 = Nat.truncate_limbs x (ctx.k + 1) in
    let r2 = Nat.truncate_limbs (Nat.mul q3 ctx.p) (ctx.k + 1) in
    let r =
      if Nat.compare r1 r2 >= 0 then Nat.sub r1 r2
      else Nat.sub (Nat.add r1 (Nat.shift_left Nat.one (31 * (ctx.k + 1)))) r2
    in
    let r = ref r in
    while Nat.compare !r ctx.p >= 0 do
      r := Nat.sub !r ctx.p
    done;
    !r
  end

let of_nat ctx n =
  if Nat.num_limbs n <= 2 * ctx.k then reduce ctx n
  else snd (Nat.divmod n ctx.p)

let of_int ctx n =
  if n >= 0 then of_nat ctx (Nat.of_int n)
  else begin
    let m = of_nat ctx (Nat.of_int (-n)) in
    if Nat.is_zero m then Nat.zero else Nat.sub ctx.p m
  end

let two ctx = of_int ctx 2

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
let mul ctx a b =
  Zobs.Counter.incr ctx.cnt_mul;
  reduce ctx (Nat.mul a b)

let sqr ctx a =
  Zobs.Counter.incr ctx.cnt_mul;
  reduce ctx (Nat.sqr a)

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
      let m = if Nat.compare m ctx.p >= 0 then snd (Nat.divmod m ctx.p) else m in
      if s && not (Nat.is_zero m) then Nat.sub ctx.p m else m
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

let dot ctx a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Fp.dot: length mismatch";
  let acc = ref Nat.zero in
  let pending = ref 0 in
  let nmul = ref 0 in
  for i = 0 to n - 1 do
    if not (Nat.is_zero a.(i) || Nat.is_zero b.(i)) then begin
      if !pending >= ctx.dot_window then begin
        acc := reduce ctx !acc;
        pending := 0
      end;
      acc := Nat.add !acc (Nat.mul a.(i) b.(i));
      incr pending;
      incr nmul
    end
  done;
  Zobs.Counter.add ctx.cnt_mul_lazy !nmul;
  reduce ctx !acc

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
(* Packed elements: scratch arenas and element vectors                  *)
(* ------------------------------------------------------------------ *)

(* Per-context scratch arena for the packed kernels: the modulus and the
   two Barrett constants as limb slices, the lazy dot's int columns, and
   one temporary area. Layout of [tmp] (k = limbs of p):
     [0, 2k+2+2e)     q2 = q1 * mu (e = 1 for the dot's wide reduction)
     then             r2 = (q3 * p) mod B^(k+1), then r = r1 - r2
     [4k+4, 6k+4)     product a*b awaiting reduction
     [6k+4, 7k+4)     butterfly slot t; also the dot's and axpy's result
     [7k+4, 8k+4)     butterfly slot u
     [8k+4, 10k+5)    the dot's normalised column sum
   The wide reduction's r ends at 4k+6, inside the product area, which a
   dot never uses. A scratch is owned by exactly one domain (see
   [scratch_for]); nothing here is safe to share across domains. *)
type scratch = {
  sk : int; (* limbs of p *)
  p_l : Limb.a; (* k+1 limbs, p zero-padded *)
  mu_l : Limb.a; (* k+1 limbs: floor(B^2k / p) *)
  mu_wide : Limb.a; (* k+2 limbs: floor(B^(2k+1) / p) *)
  cols : int array; (* 2k columns of the split lazy dot *)
  tmp : Limb.a; (* 10k+5 limbs *)
}

let limb_mask = (1 lsl 31) - 1

(* [Limb.get] again, for the per-limb loops below (the dot, the codec's
   range check): modules are compiled separately (no cross-module
   inlining), and a call per limb would cost more than the multiply it
   feeds. *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

let lget (b : Limb.a) i = Int64.to_int (get64u b (i lsl 3))

let scratch_create ctx =
  let k = ctx.k in
  let limbs n w =
    let l = Limb.create w in
    Limb.of_nat n l 0 w;
    l
  in
  let mu_wide, _ = Nat.divmod (Nat.shift_left Nat.one (31 * ((2 * k) + 1))) ctx.p in
  {
    sk = k;
    p_l = limbs ctx.p (k + 1);
    mu_l = limbs ctx.mu (k + 1);
    mu_wide = limbs mu_wide (k + 2);
    cols = Array.make (2 * k) 0;
    tmp = Limb.create ((10 * k) + 5);
  }

(* One scratch per (domain, context): domain-local storage keyed by context
   physical identity, so arena-backed code is safe under Dompool without
   any locking and timing is independent of the domain count. The lookup
   allocates nothing, so per-query callers may use it freely. *)
let scratch_dls : (ctx * scratch) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec find_scratch ctx = function
  | [] -> raise Not_found
  | (c, sc) :: rest -> if c == ctx then sc else find_scratch ctx rest

let scratch_for ctx =
  let cache = Domain.DLS.get scratch_dls in
  match find_scratch ctx !cache with
  | sc -> sc
  | exception Not_found ->
    let sc = scratch_create ctx in
    cache := (ctx, sc) :: !cache;
    sc

(* Barrett reduction (HAC 14.42) generalised to inputs below B^(2k+e):
   with mu = floor(B^(2k+e) / p) on k+1+e limbs, q3 = floor(floor(x /
   B^(k-1)) * mu / B^(k+1+e)) is within 2 of x div p, so r = x - q3*p < 3p
   is formed mod B^(k+1) and corrected by at most two subtractions. e = 0
   is the per-product reduction ([mu_l]), mirroring [reduce] above limb for
   limb; e = 1 ([mu_wide]) reduces a lazy dot's whole sum at once. [x] may
   live in [sc.tmp] at or above 4k+4 (e = 0) or 8k+4 (e = 1); nothing
   below is read from it. *)
let barrett sc ~e (mu : Limb.a) (dst : Limb.a) dso (x : Limb.a) xo =
  let k = sc.sk in
  let t = sc.tmp in
  let w = k + 1 + e in
  let off_r2 = 2 * w in
  let off_r = off_r2 + k + 1 in
  (* q1 = x >> (k-1) limbs (w limbs); q2 = q1 * mu at t[0]. *)
  Limb.mul t 0 x (xo + k - 1) w mu 0 w;
  (* q3 = q2 >> w limbs; r2 = q3 * p mod B^(k+1). *)
  Limb.mul_low t off_r2 t w w sc.p_l 0 (k + 1) (k + 1);
  (* r = (x mod B^(k+1)) - r2 mod B^(k+1); the true value is >= 0. *)
  ignore (Limb.sub t off_r x xo t off_r2 (k + 1));
  while Limb.cmp t off_r sc.p_l 0 (k + 1) >= 0 do
    ignore (Limb.sub t off_r t off_r sc.p_l 0 (k + 1))
  done;
  Limb.blit t off_r dst dso k

let reduce_slice sc dst dso x xo = barrett sc ~e:0 sc.mu_l dst dso x xo

(* Modular add/sub on k-limb slices; dst may alias either input. *)
let add_slice sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  let k = sc.sk in
  let c = Limb.add dst dso a ao b bo k in
  if c = 1 || Limb.cmp dst dso sc.p_l 0 k >= 0 then
    ignore (Limb.sub dst dso dst dso sc.p_l 0 k)

let sub_slice sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  let k = sc.sk in
  let bw = Limb.sub dst dso a ao b bo k in
  if bw = 1 then ignore (Limb.add dst dso dst dso sc.p_l 0 k)

let mul_slice ctx sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  Zobs.Counter.incr ctx.cnt_mul;
  let k = sc.sk in
  let off_prod = (4 * k) + 4 in
  Limb.mul sc.tmp off_prod a ao k b bo k;
  reduce_slice sc dst dso sc.tmp off_prod

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

  (* The range check looks at the top limbs first: below p's top limb
     (nearly every residue) settles it without a full comparison. *)
  let read_bytes_n ctx (v : t) i n b off w =
    check "read_bytes" v i n;
    let k = v.k in
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

  let read_bytes ctx v i b off w = read_bytes_n ctx v i 1 b off w = 1

  let write_bytes (v : t) i b off w =
    check "write_bytes" v i 1;
    Limb.store_bytes v.buf (i * v.k) v.k b off w

  (* One rejection round of [sample] above, into a slot. *)
  let sample_bytes ctx (v : t) i b =
    let n = ctx.sample_bytes in
    if Bytes.length b < n then invalid_arg "Fp.Vec.sample_bytes: bad byte source";
    Bytes.set_uint8 b (n - 1) (Bytes.get_uint8 b (n - 1) land ctx.sample_mask);
    read_bytes ctx v i b 0 n

  let swap sc (v : t) i j =
    let k = v.k in
    let off_t = (6 * k) + 4 in
    Limb.blit v.buf (i * k) sc.tmp off_t k;
    Limb.blit v.buf (j * k) v.buf (i * k) k;
    Limb.blit sc.tmp off_t v.buf (j * k) k

  let mul ctx sc (dst : t) di (a : t) ai (b : t) bi =
    mul_slice ctx sc dst.buf (di * dst.k) a.buf (ai * a.k) b.buf (bi * b.k)

  let add _ctx sc (dst : t) di (a : t) ai (b : t) bi =
    add_slice sc dst.buf (di * dst.k) a.buf (ai * a.k) b.buf (bi * b.k)

  let sub _ctx sc (dst : t) di (a : t) ai (b : t) bi =
    sub_slice sc dst.buf (di * dst.k) a.buf (ai * a.k) b.buf (bi * b.k)

  let add_n ctx sc (dst : t) di (a : t) ai (b : t) bi len =
    check "add_n" dst di len;
    check "add_n" a ai len;
    check "add_n" b bi len;
    for j = 0 to len - 1 do
      add ctx sc dst (di + j) a (ai + j) b (bi + j)
    done

  (* y.(yi+j) += c.(ci) * x.(xi+j): one counted [mul_slice] and one
     [add_slice] per term, the product parked in the butterfly's t slot. *)
  let axpy ctx sc (y : t) yi (c : t) ci (x : t) xi len =
    check "axpy" y yi len;
    check "axpy" c ci 1;
    check "axpy" x xi len;
    let k = sc.sk in
    let off_t = (6 * k) + 4 in
    for j = 0 to len - 1 do
      mul_slice ctx sc sc.tmp off_t c.buf (ci * k) x.buf ((xi + j) * k);
      add_slice sc y.buf ((yi + j) * k) y.buf ((yi + j) * k) sc.tmp off_t
    done

  (* Each column takes at most 2k half-products below 2^31 per term, and
     the carries the normalisation adds stay below one more such share, so
     [dot_bound] terms can never overflow an OCaml int. *)
  let dot_bound (ctx : ctx) = max_int / (ctx.k lsl 32)

  (* Split-column lazy dot: every 62-bit limb product x*y adds its low and
     high 31-bit halves to plain int columns j+l and j+l+1, so the loop
     neither carries nor reduces nor allocates. One carry pass turns the
     2k columns into 2k+1 limbs (the sum is below len * p^2 < B^(2k+1)),
     and one wide Barrett reduction finishes. Terms with a zero operand
     are skipped and not counted, as in the boxed [dot]. *)
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
    let t = sc.tmp and xo = (8 * k) + 4 and ro = (6 * k) + 4 in
    let carry = ref 0 in
    for c = 0 to (2 * k) - 1 do
      let s = Array.unsafe_get cols c + !carry in
      Limb.set t (xo + c) (s land limb_mask);
      carry := s lsr 31
    done;
    Limb.set t (xo + (2 * k)) !carry;
    barrett sc ~e:1 sc.mu_wide t ro t xo;
    Limb.to_nat t ro k

  (* Fused CT butterfly: t = data[j] * tw[ti]; data[j] <- data[i] - t;
     data[i] <- data[i] + t. One counted field mul, zero allocations. *)
  let butterfly ctx sc (data : t) i j (tw : t) ti =
    Zobs.Counter.incr ctx.cnt_mul;
    let k = sc.sk in
    let off_prod = (4 * k) + 4 and off_t = (6 * k) + 4 and off_u = (7 * k) + 4 in
    Limb.mul sc.tmp off_prod data.buf (j * k) k tw.buf (ti * k) k;
    reduce_slice sc sc.tmp off_t sc.tmp off_prod;
    Limb.blit data.buf (i * k) sc.tmp off_u k;
    add_slice sc data.buf (i * k) sc.tmp off_u sc.tmp off_t;
    sub_slice sc data.buf (j * k) sc.tmp off_u sc.tmp off_t

  (* Multiply every slot of [v] by slot [ci] of [c]. *)
  let scale_all ctx sc (v : t) (c : t) ci =
    for i = 0 to v.n - 1 do
      mul ctx sc v i v i c ci
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
