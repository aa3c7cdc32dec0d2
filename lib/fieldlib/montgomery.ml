(* Montgomery arithmetic on packed limb slices: the one multiplication
   engine under every group exponentiation (DESIGN.md §8) and, through
   [redc_into], every [Fp] product. Residues enter
   Montgomery form (xR mod p, R = 2^(31k)) on the way into a kernel and
   leave it on the way out; in between they live in [Limb.a] slices and
   every product is one fused CIOS pass. *)

(* [Limb.get]/[Limb.set] again, so the CIOS loop reads limbs inline:
   modules are compiled separately (no cross-module inlining). *)
external get64u : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let get (b : Limb.a) i = Int64.to_int (get64u b (i lsl 3))
let set (b : Limb.a) i v = set64u b (i lsl 3) (Int64.of_int v)

let mask = (1 lsl 31) - 1

type ctx = {
  p : Nat.t;
  k : int; (* limbs of p; R = 2^(31k) *)
  p_a : int array; (* p, k limbs *)
  p0' : int; (* -p^{-1} mod 2^31 *)
  consts : Limb.a; (* k-limb slots: R^2 mod p, R mod p (Montgomery one), plain 1 *)
}

(* One count per REDC product: the unit the exponentiation cost model is
   expressed in. Conversions at the boundary are not counted. *)
let c_mul = Zobs.Counter.make "mont.mul"

let create p =
  if Nat.is_even p || Nat.compare p (Nat.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus must be odd and >= 3";
  let k = Nat.num_limbs p in
  let r_mod_p = snd (Nat.divmod (Nat.shift_left Nat.one (31 * k)) p) in
  let consts = Limb.create (3 * k) in
  Limb.of_nat (snd (Nat.divmod (Nat.sqr r_mod_p) p)) consts 0 k;
  Limb.of_nat r_mod_p consts k k;
  set consts (2 * k) 1;
  (* p^{-1} mod 2^31 by Hensel lifting, x <- x (2 - p x): five doublings
     of the correct low bits; native ints wrap mod 2^63, keeping them. *)
  let p0 = Nat.limb p 0 and x = ref 1 in
  for _ = 1 to 5 do
    x := !x * (2 - (p0 * !x)) land mask
  done;
  { p; k; p_a = Array.init k (Nat.limb p); p0' = ((1 lsl 31) - !x) land mask; consts }

(* Per-domain working memory: the REDC accumulator [t] (k+1 limbs, a plain
   array like [p_a]: the inner loop reads those faster than limb buffers) and
   k-limb slots [r] — 0..2 for a kernel's operands and result, 3 for its
   temporary (b^2 or b1*b2), 4..19 for the sliding window's odd powers. *)
type scratch = { t : int array; r : Limb.a }

(* Per-domain scratch, keyed by context physical identity: no locking
   under Dompool, and timing independent of the domain count. [find] and
   the returned function are built once, so a lookup allocates nothing.
   Bounded to the [n] contexts created last: served sessions build fresh
   group contexts (Group.of_params). *)
let domain_cache n create =
  let key = Domain.DLS.new_key (fun () -> ref []) in
  let rec find ctx = function
    | [] -> raise Not_found
    | (c, sc) :: rest -> if c == ctx then sc else find ctx rest
  in
  fun ctx ->
    let cache = Domain.DLS.get key in
    match find ctx !cache with
    | sc -> sc
    | exception Not_found ->
      let sc = create ctx in
      cache := (ctx, sc) :: List.filteri (fun i _ -> i < n - 1) !cache;
      sc

let scratch_for = domain_cache 8 (fun ctx -> { t = Array.make (ctx.k + 1) 0; r = Limb.create (20 * ctx.k) })

(* dst <- a * b * R^{-1} mod p by CIOS: for each limb a_i, add a_i * b and
   the multiple m * p that clears the low limb, then shift down one limb —
   multiplying and reducing in one sweep, 2k^2 + k multiply-adds on the
   (k+1)-limb accumulator. For b < p it stays below 2p, so one conditional
   subtraction finishes (its borrow out cancels a set top limb). Inputs are
   consumed before [dst] is written, so [dst] may alias either. Uncounted.
   The loop serves every width without a generated kernel. *)
let redc_loop ctx sc (dst : Limb.a) dso (a : Limb.a) ao (b : Limb.a) bo =
  let k = ctx.k and p = ctx.p_a and t = sc.t and p0' = ctx.p0' in
  (* a loop, not [Array.fill]: that is a C call per product *)
  for j = 0 to k do
    Array.unsafe_set t j 0
  done;
  for i = 0 to k - 1 do
    let ai = get a (ao + i) in
    let s = Array.unsafe_get t 0 + (ai * get b bo) in
    let lo = s land mask in
    let m = lo * p0' land mask in
    let c1 = ref (s lsr 31) and c2 = ref ((lo + (m * Array.unsafe_get p 0)) lsr 31) in
    for j = 1 to k - 1 do
      let s = Array.unsafe_get t j + (ai * get b (bo + j)) + !c1 in
      c1 := s lsr 31;
      let s2 = (s land mask) + (m * Array.unsafe_get p j) + !c2 in
      c2 := s2 lsr 31;
      Array.unsafe_set t (j - 1) (s2 land mask)
    done;
    let s = Array.unsafe_get t k + !c1 + !c2 in
    Array.unsafe_set t (k - 1) (s land mask);
    Array.unsafe_set t k (s lsr 31)
  done;
  (* t >= p iff t has a top limb or t >= p at their highest differing limb *)
  let i = ref (k - 1) in
  while !i > 0 && t.(!i) = p.(!i) do
    decr i
  done;
  let ge = t.(k) <> 0 || t.(!i) >= p.(!i) and borrow = ref 0 in
  for j = 0 to k - 1 do
    let s = if ge then t.(j) - p.(j) - !borrow else t.(j) in
    set dst (dso + j) (s land mask);
    borrow := s lsr 62
  done

(* The same product by the width's straight-line kernel (fixed.ml,
   generated by gen/gen_fixed.ml), one dispatch a call. *)
let redc_into ctx sc dst dso a ao b bo =
  if not (Fixed.cios ctx.k ctx.p_a ctx.p0' dst dso a ao b bo) then redc_loop ctx sc dst dso a ao b bo

let butterfly_fixed ctx d io jo tw two = Fixed.butterfly ctx.k ctx.p_a ctx.p0' d io jo tw two

let mul_into ctx sc dst dso a ao b bo =
  Zobs.Counter.incr c_mul;
  redc_into ctx sc dst dso a ao b bo

(* REDC against R^2: x -> xR mod p. *)
let to_mont_slice ctx sc (dst : Limb.a) dso (src : Limb.a) so =
  redc_into ctx sc dst dso src so ctx.consts 0

(* The boundary: the only places a Nat meets Montgomery form. *)
let to_mont_into ctx sc x (dst : Limb.a) dso =
  if Nat.compare x ctx.p >= 0 then invalid_arg "Montgomery.to_mont_into: input not reduced";
  Limb.of_nat x dst dso ctx.k;
  to_mont_slice ctx sc dst dso dst dso

(* REDC against a plain 1, via the register file's output slot 2. *)
let of_mont ctx sc (src : Limb.a) so =
  redc_into ctx sc sc.r (2 * ctx.k) src so ctx.consts (2 * ctx.k);
  Limb.to_nat sc.r (2 * ctx.k) ctx.k

let one_into ctx (dst : Limb.a) dso = Limb.blit ctx.consts ctx.k dst dso ctx.k

(* ---- Exponentiation kernels (DESIGN.md §8) ---- *)

(* Bits [lo, lo+w) of e (w <= 30), zero above the top bit. *)
let digit e ~lo ~w =
  let li = lo / 31 and off = lo mod 31 in
  ((Nat.limb e li lsr off) lor (Nat.limb e (li + 1) lsl (31 - off))) land ((1 lsl w) - 1)

(* dst <- b^e. Sliding-window square-and-multiply: one table of odd powers
   b, b^3, ..., b^(2^w - 1), then ~nbits/(w+1) multiplications instead of
   nbits/2, w growing with the exponent; up to 8 bits, plain
   square-and-multiply. [dst] is the accumulator: it must not overlap [b]. *)
let pow_into ctx sc (b : Limb.a) bo e (dst : Limb.a) dso =
  let k = ctx.k and r = sc.r and nbits = Nat.num_bits e in
  let sqr () = mul_into ctx sc dst dso dst dso dst dso in
  one_into ctx dst dso;
  if nbits <= 8 then
    for i = nbits - 1 downto 0 do
      sqr ();
      if Nat.testbit e i then mul_into ctx sc dst dso dst dso b bo
    done
  else begin
    let w = if nbits < 80 then 3 else if nbits < 240 then 4 else 5 in
    let b2 = 3 * k and tbl = 4 * k in
    mul_into ctx sc r b2 b bo b bo;
    Limb.blit b bo r tbl k;
    for i = 1 to (1 lsl (w - 1)) - 1 do
      mul_into ctx sc r (tbl + (i * k)) r (tbl + ((i - 1) * k)) r b2
    done;
    let i = ref (nbits - 1) in
    while !i >= 0 do
      if not (Nat.testbit e !i) then begin
        sqr ();
        decr i
      end
      else begin
        (* widest window [l, i] of <= w bits whose low bit is set *)
        let l = ref (max 0 (!i - w + 1)) in
        while not (Nat.testbit e !l) do
          incr l
        done;
        for _ = !l to !i do
          sqr ()
        done;
        mul_into ctx sc dst dso dst dso r (tbl + ((digit e ~lo:!l ~w:(!i - !l + 1) lsr 1) * k));
        i := !l - 1
      end
    done
  end

let pow ctx b e =
  let sc = scratch_for ctx in
  let b = if Nat.compare b ctx.p < 0 then b else snd (Nat.divmod b ctx.p) in
  to_mont_into ctx sc b sc.r 0;
  pow_into ctx sc sc.r 0 e sc.r ctx.k;
  of_mont ctx sc sc.r ctx.k

(* Fixed-base window table in one arena: entry (i, j) is b^((j+1) * 2^(w*i)),
   so b^e is one multiplication per nonzero base-2^w digit of e and no
   squarings; the table costs about (bits/w) * 2^w multiplications. *)
type fb = { window : int; digits : int; tables : Limb.a }

let fb_precompute ctx ?(window = 5) ~bits b =
  if window < 1 || window > 16 then invalid_arg "Montgomery.fb_precompute: window out of range";
  if bits < 1 then invalid_arg "Montgomery.fb_precompute: bits must be positive";
  let k = ctx.k and sc = scratch_for ctx in
  let digits = (bits + window - 1) / window and row = ((1 lsl window) - 1) * k in
  let tb = Limb.create (digits * row) in
  to_mont_into ctx sc b tb 0;
  for i = 0 to digits - 1 do
    let base = i * row in
    for j = 1 to (row / k) - 1 do
      mul_into ctx sc tb (base + (j * k)) tb (base + ((j - 1) * k)) tb base
    done;
    if i < digits - 1 then begin
      mul_into ctx sc tb (base + row) tb base tb base;
      for _ = 2 to window do
        mul_into ctx sc tb (base + row) tb (base + row) tb (base + row)
      done
    end
  done;
  { window; digits; tables = tb }

let fb_bits fb = fb.window * fb.digits

(* dst <- b^e from the table; wider exponents take the ladder from b. *)
let fb_pow_into ctx sc fb e (dst : Limb.a) dso =
  let nbits = Nat.num_bits e and m = (1 lsl fb.window) - 1 in
  if nbits > fb_bits fb then pow_into ctx sc fb.tables 0 e dst dso
  else begin
    one_into ctx dst dso;
    let i = ref 0 in
    while !i * fb.window < nbits do
      let d = digit e ~lo:(!i * fb.window) ~w:fb.window in
      if d <> 0 then mul_into ctx sc dst dso dst dso fb.tables (((!i * m) + d - 1) * ctx.k);
      incr i
    done
  end

let fb_pow ctx fb e =
  let sc = scratch_for ctx in
  fb_pow_into ctx sc fb e sc.r 0;
  of_mont ctx sc sc.r 0

let fb_pow2 ctx fb1 e1 fb2 e2 =
  let sc = scratch_for ctx and k = ctx.k in
  fb_pow_into ctx sc fb1 e1 sc.r 0;
  fb_pow_into ctx sc fb2 e2 sc.r k;
  mul_into ctx sc sc.r 0 sc.r 0 sc.r k;
  of_mont ctx sc sc.r 0

(* Shamir/Straus simultaneous exponentiation: b1^e1 * b2^e2 in one shared
   squaring chain with a precomputed b1*b2 — about half the cost of two
   independent ladders. *)
let pow2 ctx b1 e1 b2 e2 =
  let sc = scratch_for ctx and k = ctx.k in
  let r = sc.r and acc = 2 * k and b12 = 3 * k in
  to_mont_into ctx sc b1 r 0;
  to_mont_into ctx sc b2 r k;
  one_into ctx r acc;
  let n = max (Nat.num_bits e1) (Nat.num_bits e2) in
  if n > 0 then mul_into ctx sc r b12 r 0 r k;
  for i = n - 1 downto 0 do
    mul_into ctx sc r acc r acc r acc;
    match (Nat.testbit e1 i, Nat.testbit e2 i) with
    | true, true -> mul_into ctx sc r acc r acc r b12
    | true, false -> mul_into ctx sc r acc r acc r 0
    | false, true -> mul_into ctx sc r acc r acc r k
    | false, false -> ()
  done;
  of_mont ctx sc r acc

(* Residues in Montgomery form, k limbs each, in one arena. *)
type packed = Limb.a

let pack ctx len f : packed =
  let sc = scratch_for ctx in
  let v = Limb.create (len * ctx.k) in
  for i = 0 to len - 1 do
    to_mont_into ctx sc (f i) v (i * ctx.k)
  done;
  v

(* Pippenger bucket multi-exponentiation, [stride] components at once.
   Exponents are scanned c bits at a time from the top; within a window
   each term goes into the bucket of its digit, and sum_b b * bucket_b is
   recovered with the running-suffix trick (two multiplications per
   nonempty-suffix bucket): about (bits/c) * (n + 2^c) multiplications +
   bits squarings per component, against n * 1.5 * bits for n ladders.

   A term's components sit side by side (in [v], buckets and registers):
   they share digit extraction and bucket occupancy, and each costs what a
   one-component call would. [ones] (exponent-1 terms) fold into a register
   starting at one, joining the Pippenger product with one more product. *)
let multi_pow ctx ?window ?ones (v : packed) ~stride (idx : int array) (exps : Nat.t array) =
  let n = Array.length idx in
  if n <> Array.length exps then invalid_arg "Montgomery.multi_pow: length mismatch";
  let k = ctx.k and sc = scratch_for ctx in
  let w = stride * k in
  let regs = Limb.create (4 * w) in
  let acc = 0 and run = w and wsum = 2 * w and units = 3 * w in
  (* dst <- dst * src componentwise, or a copy while dst is the identity *)
  let fold set dst dso src so =
    if not set then Limb.blit src so dst dso w
    else
      for j = 0 to stride - 1 do
        mul_into ctx sc dst (dso + (j * k)) dst (dso + (j * k)) src (so + (j * k))
      done
  in
  let acc_set = ref false in
  let maxbits = Array.fold_left (fun m e -> max m (Nat.num_bits e)) 0 exps in
  if n > 0 && maxbits > 0 then begin
    let c =
      match window with
      | Some c when c < 1 || c > 16 -> invalid_arg "Montgomery.multi_pow: window out of range"
      | Some c -> c
      | None ->
        (* ~log2 n, the classical optimum for (bits/c)*(n + 2^c) *)
        let rec lg m acc = if m <= 1 then acc else lg (m lsr 1) (acc + 1) in
        min 12 (max 1 (lg n 0 - 1))
    in
    let nb = (1 lsl c) - 1 in
    let buckets = Limb.create (nb * w) and occupied = Array.make nb false in
    for d = ((maxbits + c - 1) / c) - 1 downto 0 do
      if !acc_set then
        for _ = 1 to c do
          fold true regs acc regs acc
        done;
      Array.fill occupied 0 nb false;
      for i = 0 to n - 1 do
        let dv = digit exps.(i) ~lo:(d * c) ~w:c in
        if dv > 0 then begin
          fold occupied.(dv - 1) buckets ((dv - 1) * w) v (idx.(i) * w);
          occupied.(dv - 1) <- true
        end
      done;
      let run_set = ref false and wsum_set = ref false in
      for b = nb - 1 downto 0 do
        if occupied.(b) then begin
          fold !run_set regs run buckets (b * w);
          run_set := true
        end;
        if !run_set then begin
          fold !wsum_set regs wsum regs run;
          wsum_set := true
        end
      done;
      if !wsum_set then begin
        fold !acc_set regs acc regs wsum;
        acc_set := true
      end
    done
  end;
  for j = 0 to stride - 1 do
    if not !acc_set then one_into ctx regs (acc + (j * k));
    if ones <> None then one_into ctx regs (units + (j * k))
  done;
  Option.iter
    (fun ones ->
      Array.iter (fun o -> fold true regs units v (o * w)) ones;
      fold (n > 0) regs acc regs units)
    ones;
  Array.init stride (fun j -> of_mont ctx sc regs (acc + (j * k)))
