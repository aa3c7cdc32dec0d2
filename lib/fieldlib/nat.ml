type t = int array
(* Little-endian, base 2^31, canonical: highest limb non-zero; zero = [||].
   Invariant arithmetic bound: limb * limb + limb + limb <= 2^62 - 1, so all
   intermediate values fit in a 63-bit OCaml int. *)

let base_bits = 31
let base = 1 lsl base_bits
let mask = base - 1

(* Schoolbook/Karatsuba crossover in limbs. Retuned by the threshold sweep
   in the ablation bench (EXPERIMENTS.md): on this representation the
   crossover sits well above the old hard-coded 24 because row-wise
   schoolbook stays in one flat array while Karatsuba pays three
   allocations per split. 48 limbs (~1500 bits) won or tied at every
   measured width: field elements (5 limbs) and 512/1024-bit group
   arithmetic stay schoolbook; 2048-bit operands split once. *)
let karatsuba_threshold = ref 48

let set_karatsuba_threshold n =
  if n < 2 then invalid_arg "Nat.set_karatsuba_threshold";
  karatsuba_threshold := n

let get_karatsuba_threshold () = !karatsuba_threshold

let zero : t = [||]

let norm (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let one = of_int 1
let two = of_int 2
let is_zero a = Array.length a = 0
let is_one a = Array.length a = 1 && a.(0) = 1
let num_limbs = Array.length

let to_int_opt a =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some ((a.(1) lsl base_bits) lor a.(0))
  | 3 when a.(2) < 1 lsl (62 - 2 * base_bits) ->
    Some ((a.(2) lsl (2 * base_bits)) lor (a.(1) lsl base_bits) lor a.(0))
  | _ -> None

let to_int a =
  match to_int_opt a with
  | Some n -> n
  | None -> failwith "Nat.to_int: overflow"

(* Top-level and typed at [t] so comparing allocates no closure and uses
   integer comparison, not the polymorphic one. *)
let rec compare_from (a : t) (b : t) i =
  if i < 0 then 0
  else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
  else compare_from a b (i - 1)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb else compare_from a b (la - 1)

let equal a b = compare a b = 0

let num_bits a =
  let l = Array.length a in
  if l = 0 then 0
  else
    let top = a.(l - 1) in
    let rec bits n acc = if n = 0 then acc else bits (n lsr 1) (acc + 1) in
    ((l - 1) * base_bits) + bits top 0

let testbit a i =
  let limb = i / base_bits and off = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let is_even a = Array.length a = 0 || a.(0) land 1 = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  norm r

let add_int a n = add a (of_int n)

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if la < lb then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  if !borrow <> 0 then invalid_arg "Nat.sub: negative result";
  norm r

let sub_int a n = sub a (of_int n)

let mul_int a m =
  if m < 0 || m >= base then invalid_arg "Nat.mul_int: multiplier out of range";
  if m = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * m) + !carry in
      r.(i) <- p land mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    norm r
  end

let mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let p = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- p land mask;
          carry := p lsr base_bits
        done;
        (* Propagate the final carry; it cannot overflow past the result. *)
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    norm r
  end

(* Karatsuba split at [k] limbs: a = a1*B^k + a0. *)
let split a k =
  let la = Array.length a in
  if la <= k then (zero, a)
  else (norm (Array.sub a k (la - k)), norm (Array.sub a 0 k))

let shift_left_limbs a k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la < !karatsuba_threshold || lb < !karatsuba_threshold then mul_school a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a1, a0 = split a k and b1, b0 = split b k in
    let z2 = mul a1 b1 in
    let z0 = mul a0 b0 in
    let z1 = sub (mul (add a1 a0) (add b1 b0)) (add z2 z0) in
    add (add (shift_left_limbs z2 (2 * k)) (shift_left_limbs z1 k)) z0
  end

let sqr a = mul a a

let shift_left a n =
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    norm r
  end

let shift_right a n =
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi = if i + limbs + 1 < la then (a.(i + limbs + 1) lsl (base_bits - bits)) land mask else 0 in
          r.(i) <- lo lor hi
        done
      end;
      norm r
    end
  end

let shift_right_limbs a k =
  let la = Array.length a in
  if k >= la then zero else norm (Array.sub a k (la - k))

let truncate_limbs a k =
  let la = Array.length a in
  if la <= k then a else norm (Array.sub a 0 k)

let divmod_int a d =
  if d <= 0 || d >= base then invalid_arg "Nat.divmod_int: divisor out of range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let rem = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!rem lsl base_bits) lor a.(i) in
      q.(i) <- cur / d;
      rem := cur mod d
    done;
    (norm q, !rem)
  end

(* Knuth TAOCP vol. 2, 4.3.1, Algorithm D, in base 2^31. *)
let divmod_knuth u v =
  let n = Array.length v in
  let m = Array.length u - n in
  (* Normalize: shift so the top limb of v has its bit 30 set. *)
  let s =
    let top = v.(n - 1) in
    let rec go b c = if b land (1 lsl (base_bits - 1 - c)) <> 0 then c else go b (c + 1) in
    go top 0
  in
  let vn =
    let shifted = shift_left v s in
    (* Shifting by s < 31 cannot grow v beyond n limbs by construction. *)
    assert (Array.length shifted = n);
    shifted
  in
  let un = Array.make (m + n + 1) 0 in
  (let shifted = shift_left u s in
   Array.blit shifted 0 un 0 (Array.length shifted));
  let q = Array.make (m + 1) 0 in
  let vtop = vn.(n - 1) in
  let vsecond = if n >= 2 then vn.(n - 2) else 0 in
  for j = m downto 0 do
    let num = (un.(j + n) lsl base_bits) lor un.(j + n - 1) in
    let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
    let adjusting = ref true in
    while !adjusting do
      if !qhat >= base || !qhat * vsecond > (!rhat lsl base_bits) lor un.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat >= base then adjusting := false
      end else adjusting := false
    done;
    (* Multiply-subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * vn.(i)) + !carry in
      carry := p lsr base_bits;
      let d = un.(j + i) - (p land mask) - !borrow in
      if d < 0 then begin
        un.(j + i) <- d + base;
        borrow := 1
      end else begin
        un.(j + i) <- d;
        borrow := 0
      end
    done;
    let d = un.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add back. *)
      un.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = un.(j + i) + vn.(i) + !c in
        un.(j + i) <- s land mask;
        c := s lsr base_bits
      done;
      un.(j + n) <- (un.(j + n) + !c) land mask
    end else un.(j + n) <- d;
    q.(j) <- !qhat
  done;
  let r = shift_right (norm (Array.sub un 0 n)) s in
  (norm q, r)

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end else divmod_knuth a b

(* Special case needed when n >= 2 but un has index j+n-2 = -1? Impossible:
   j >= 0 and n >= 2 so j+n-2 >= 0. *)

let pow_int b e =
  if e < 0 then invalid_arg "Nat.pow_int: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (sqr b) (e lsr 1)
    end
  in
  go one b e

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_hex: bad digit"

let of_hex s =
  let s = if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then String.sub s 2 (String.length s - 2) else s in
  let acc = ref zero in
  String.iter
    (fun c -> if c <> '_' then acc := add_int (shift_left !acc 4) (hex_digit c))
    s;
  !acc

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let limb = (i * 4) / base_bits and off = (i * 4) mod base_bits in
      let v =
        let lo = a.(limb) lsr off in
        let hi = if off > base_bits - 4 && limb + 1 < Array.length a then a.(limb + 1) lsl (base_bits - off) else 0 in
        (lo lor hi) land 0xf
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

let of_decimal s =
  let acc = ref zero in
  String.iter
    (fun c ->
      if c <> '_' then begin
        if c < '0' || c > '9' then invalid_arg "Nat.of_decimal: bad digit";
        acc := add_int (mul_int !acc 10) (Char.code c - Char.code '0')
      end)
    s;
  !acc

let to_decimal a =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_int !cur 1_000_000_000 in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> assert false
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

(* Byte <-> limb packers. Both stream bits through one accumulator that
   never holds more than 31 + 8 bits, so each is a single pass over the
   bytes; the reader sizes its result exactly from the top non-zero byte
   and allocates nothing else. *)

let check_sub buf off len what =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg what

let of_bytes_sub buf off len =
  check_sub buf off len "Nat.of_bytes_sub: range outside the buffer";
  let n = ref len in
  while !n > 0 && Bytes.unsafe_get buf (off + !n - 1) = '\000' do decr n done;
  let n = !n in
  if n = 0 then zero
  else begin
    let top = Char.code (Bytes.unsafe_get buf (off + n - 1)) in
    let top_bits = ref 0 in
    while top lsr !top_bits <> 0 do incr top_bits done;
    let r = Array.make ((((n - 1) * 8) + !top_bits + base_bits - 1) / base_bits) 0 in
    let acc = ref 0 and acc_bits = ref 0 and li = ref 0 in
    for i = off to off + n - 1 do
      acc := !acc lor (Char.code (Bytes.unsafe_get buf i) lsl !acc_bits);
      acc_bits := !acc_bits + 8;
      if !acc_bits >= base_bits then begin
        r.(!li) <- !acc land mask;
        incr li;
        acc := !acc lsr base_bits;
        acc_bits := !acc_bits - base_bits
      end
    done;
    if !acc <> 0 then r.(!li) <- !acc;
    r
  end

let to_bytes_sub a buf off len =
  check_sub buf off len "Nat.to_bytes_sub: range outside the buffer";
  if num_bits a > len * 8 then invalid_arg "Nat.to_bytes_sub: does not fit";
  let la = Array.length a in
  let acc = ref 0 and acc_bits = ref 0 and li = ref 0 in
  for i = off to off + len - 1 do
    if !acc_bits < 8 && !li < la then begin
      acc := !acc lor (a.(!li) lsl !acc_bits);
      acc_bits := !acc_bits + base_bits;
      incr li
    end;
    Bytes.unsafe_set buf i (Char.unsafe_chr (!acc land 0xff));
    acc := !acc lsr 8;
    acc_bits := !acc_bits - 8
  done

(* ---- Fixed-width in-place kernels -------------------------------------
   These operate on plain [int array] limb buffers of a caller-chosen fixed
   width (non-canonical: high zero limbs are fine). They are the scalar
   mirror of the packed [Limb] kernels and exist so hot loops can reuse
   buffers instead of allocating one array per intermediate. *)

let to_limbs ~width (a : t) : int array =
  let la = Array.length a in
  if la > width then invalid_arg "Nat.to_limbs: width too small";
  let r = Array.make width 0 in
  Array.blit a 0 r 0 la;
  r

let of_limbs (l : int array) : t = norm (Array.copy l)
let of_limbs_owned (l : int array) : t = norm l
let limb (a : t) i = if i < Array.length a then Array.unsafe_get a i else 0

let add_into ~width (dst : int array) (a : int array) (b : int array) : int =
  let carry = ref 0 in
  for i = 0 to width - 1 do
    let s = a.(i) + b.(i) + !carry in
    dst.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  !carry

let sub_into ~width (dst : int array) (a : int array) (b : int array) : int =
  let borrow = ref 0 in
  for i = 0 to width - 1 do
    let s = a.(i) - b.(i) - !borrow in
    if s < 0 then begin
      dst.(i) <- s + base;
      borrow := 1
    end else begin
      dst.(i) <- s;
      borrow := 0
    end
  done;
  !borrow

(* Schoolbook product of [wa]-limb [a] and [wb]-limb [b] into
   [dst.(0 .. wa+wb-1)]. [dst] must not alias [a] or [b]. *)
let mul_limbs ~wa ~wb (dst : int array) (a : int array) (b : int array) : unit =
  Array.fill dst 0 (wa + wb) 0;
  for i = 0 to wa - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to wb - 1 do
        let p = dst.(i + j) + (ai * b.(j)) + !carry in
        dst.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      let k = ref (i + wb) in
      while !carry <> 0 do
        let s = dst.(!k) + !carry in
        dst.(!k) <- s land mask;
        carry := s lsr base_bits;
        incr k
      done
    end
  done

let mul_into ~width ~scratch (dst : int array) (a : int array) (b : int array)
    : unit =
  if Array.length scratch < 2 * width then
    invalid_arg "Nat.mul_into: scratch shorter than 2*width";
  (* Compute into scratch so [dst] may alias [a] or [b]; [scratch] itself
     must not alias the inputs (it may alias or even be [dst]). *)
  mul_limbs ~wa:width ~wb:width scratch a b;
  if not (scratch == dst) then Array.blit scratch 0 dst 0 (2 * width)

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
