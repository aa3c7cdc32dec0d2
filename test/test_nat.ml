open Fieldlib

let nat = Alcotest.testable Nat.pp Nat.equal

(* Random generators kept within the range where int arithmetic is an exact
   reference. *)
let small_int = QCheck.Gen.int_range 0 ((1 lsl 30) - 1)
let arb_small = QCheck.make ~print:string_of_int small_int

let gen_big =
  QCheck.Gen.(
    list_size (int_range 1 12) (int_range 0 ((1 lsl 30) - 1)) >|= fun limbs ->
    List.fold_left (fun acc l -> Nat.add_int (Nat.shift_left acc 30) l) Nat.zero limbs)

let arb_big = QCheck.make ~print:Nat.to_decimal gen_big

let arb_big_pos =
  QCheck.make ~print:Nat.to_decimal QCheck.Gen.(gen_big >|= fun n -> Nat.add_int n 1)

let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let unit_tests =
  [
    Alcotest.test_case "of_int/to_int roundtrip" `Quick (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) "roundtrip" n (Nat.to_int (Nat.of_int n)))
          [ 0; 1; 2; 42; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 45; max_int ]);
    Alcotest.test_case "decimal roundtrip" `Quick (fun () ->
        let s = "123456789012345678901234567890123456789" in
        Alcotest.(check string) "decimal" s (Nat.to_decimal (Nat.of_decimal s)));
    Alcotest.test_case "hex roundtrip" `Quick (fun () ->
        let s = "deadbeefcafebabe0123456789abcdef" in
        Alcotest.(check string) "hex" s (Nat.to_hex (Nat.of_hex s)));
    Alcotest.test_case "hex accepts 0x prefix and underscores" `Quick (fun () ->
        Alcotest.check nat "same" (Nat.of_hex "0xff_ff") (Nat.of_int 65535));
    Alcotest.test_case "sub underflow raises" `Quick (fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Nat.sub: negative result") (fun () ->
            ignore (Nat.sub (Nat.of_int 3) (Nat.of_int 5))));
    Alcotest.test_case "divide by zero raises" `Quick (fun () ->
        Alcotest.check_raises "div0" Division_by_zero (fun () ->
            ignore (Nat.divmod (Nat.of_int 3) Nat.zero)));
    Alcotest.test_case "shift identities" `Quick (fun () ->
        let a = Nat.of_decimal "987654321987654321987654321" in
        Alcotest.check nat "lr" a (Nat.shift_right (Nat.shift_left a 100) 100);
        Alcotest.check nat "mul2" (Nat.mul a Nat.two) (Nat.shift_left a 1));
    Alcotest.test_case "bytes roundtrip" `Quick (fun () ->
        let a = Nat.of_hex "0102030405060708090a0b0c" in
        let b = Bytes.create 16 in
        Nat.to_bytes_sub a b 0 16;
        Alcotest.check nat "bytes" a (Nat.of_bytes_sub b 0 16));
    Alcotest.test_case "karatsuba vs schoolbook cross" `Quick (fun () ->
        (* Large enough to trigger the Karatsuba path. *)
        let mk seed len =
          let st = ref seed in
          let limbs = List.init len (fun _ ->
              st := (!st * 442695040888963407 + 1442695040888963407) land max_int;
              !st land 0x3fffffff)
          in
          List.fold_left (fun acc l -> Nat.add_int (Nat.shift_left acc 30) l) Nat.zero limbs
        in
        let a = mk 1 100 and b = mk 2 80 in
        let ab = Nat.mul a b in
        (* (a+b)^2 = a^2 + 2ab + b^2 exercises consistency across paths. *)
        let lhs = Nat.sqr (Nat.add a b) in
        let rhs = Nat.add (Nat.add (Nat.sqr a) (Nat.shift_left ab 1)) (Nat.sqr b) in
        Alcotest.check nat "binomial" lhs rhs);
    Alcotest.test_case "num_bits/testbit" `Quick (fun () ->
        let a = Nat.shift_left Nat.one 100 in
        Alcotest.(check int) "bits" 101 (Nat.num_bits a);
        Alcotest.(check bool) "bit100" true (Nat.testbit a 100);
        Alcotest.(check bool) "bit99" false (Nat.testbit a 99));
    Alcotest.test_case "pow_int" `Quick (fun () ->
        Alcotest.check nat "2^100" (Nat.shift_left Nat.one 100) (Nat.pow_int Nat.two 100);
        Alcotest.check nat "x^0" Nat.one (Nat.pow_int (Nat.of_int 7) 0));
  ]

let property_tests =
  [
    qtest "add matches int" 500
      (QCheck.pair arb_small arb_small)
      (fun (a, b) -> Nat.to_int (Nat.add (Nat.of_int a) (Nat.of_int b)) = a + b);
    qtest "mul matches int" 500
      (QCheck.pair arb_small arb_small)
      (fun (a, b) -> Nat.to_int (Nat.mul (Nat.of_int a) (Nat.of_int b)) = a * b);
    qtest "add commutative" 300
      (QCheck.pair arb_big arb_big)
      (fun (a, b) -> Nat.equal (Nat.add a b) (Nat.add b a));
    qtest "mul commutative" 300
      (QCheck.pair arb_big arb_big)
      (fun (a, b) -> Nat.equal (Nat.mul a b) (Nat.mul b a));
    qtest "mul distributes over add" 300
      (QCheck.triple arb_big arb_big arb_big)
      (fun (a, b, c) ->
        Nat.equal (Nat.mul a (Nat.add b c)) (Nat.add (Nat.mul a b) (Nat.mul a c)));
    qtest "add then sub roundtrip" 300
      (QCheck.pair arb_big arb_big)
      (fun (a, b) -> Nat.equal a (Nat.sub (Nat.add a b) b));
    qtest "divmod invariant" 500
      (QCheck.pair arb_big arb_big_pos)
      (fun (a, b) ->
        let q, r = Nat.divmod a b in
        Nat.compare r b < 0 && Nat.equal a (Nat.add (Nat.mul q b) r));
    qtest "divmod exact on products" 300
      (QCheck.pair arb_big arb_big_pos)
      (fun (a, b) ->
        let q, r = Nat.divmod (Nat.mul a b) b in
        Nat.is_zero r && Nat.equal q a);
    qtest "decimal roundtrip" 200 arb_big (fun a -> Nat.equal a (Nat.of_decimal (Nat.to_decimal a)));
    qtest "hex roundtrip" 200 arb_big (fun a -> Nat.equal a (Nat.of_hex (Nat.to_hex a)));
    qtest "compare consistent with sub" 300
      (QCheck.pair arb_big arb_big)
      (fun (a, b) ->
        match Nat.compare a b with
        | 0 -> Nat.equal a b
        | c when c > 0 -> Nat.equal (Nat.add (Nat.sub a b) b) a
        | _ -> Nat.equal (Nat.add (Nat.sub b a) a) b);
    qtest "shift_left is mul by power of two" 200
      (QCheck.pair arb_big (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 70)))
      (fun (a, s) -> Nat.equal (Nat.shift_left a s) (Nat.mul a (Nat.pow_int Nat.two s)));
  ]

let suite = unit_tests @ property_tests

(* Regression: the Karatsuba split must return (high, low) even when one
   operand is shorter than the split point (an early bug produced wrong
   products for very unbalanced operands). *)
let regression_tests =
  [
    Alcotest.test_case "karatsuba with very unbalanced operands" `Quick (fun () ->
        let mk seed len =
          let st = ref seed in
          let limbs = List.init len (fun _ ->
              st := (!st * 442695040888963407 + 17) land max_int;
              !st land 0x3fffffff)
          in
          List.fold_left (fun acc l -> Nat.add_int (Nat.shift_left acc 30) l) Nat.zero limbs
        in
        (* lengths chosen so that k = (max+1)/2 exceeds the short operand *)
        List.iter
          (fun (la, lb) ->
            let a = mk 3 la and b = mk 4 lb in
            (* verify against a shift-and-add reference *)
            let reference =
              let acc = ref Nat.zero in
              for i = Nat.num_bits b - 1 downto 0 do
                acc := Nat.shift_left !acc 1;
                if Nat.testbit b i then acc := Nat.add !acc a
              done;
              !acc
            in
            Alcotest.check nat (Printf.sprintf "%dx%d" la lb) reference (Nat.mul a b))
          [ (120, 30); (30, 120); (100, 26); (64, 25) ]);
  ]

let suite = suite @ regression_tests

(* ---- Byte <-> limb packers ----

   The original quadratic shift/add reader and bit-at-a-time writer, kept
   as the oracle for the single-pass packers. *)
let oracle_of_bytes_le b =
  let acc = ref Nat.zero in
  for i = Bytes.length b - 1 downto 0 do
    acc := Nat.add_int (Nat.shift_left !acc 8) (Char.code (Bytes.get b i))
  done;
  !acc

let oracle_to_bytes_le a len =
  if Nat.num_bits a > len * 8 then invalid_arg "oracle_to_bytes_le: does not fit";
  let b = Bytes.make len '\000' in
  let bits = Nat.num_bits a in
  for i = 0 to ((bits + 7) / 8) - 1 do
    let byte = ref 0 in
    for k = 7 downto 0 do
      byte := (!byte lsl 1) lor if Nat.testbit a ((i * 8) + k) then 1 else 0
    done;
    Bytes.set b i (Char.chr !byte)
  done;
  b

(* A little-endian body of 0-130 bytes at a random offset inside a larger
   buffer whose surrounding bytes are junk. Bodies are random, all 0xff,
   or random with zero high bytes (leading zeros of the number). *)
type placed = { pre : int; body : string; post : int }

let gen_placed =
  QCheck.Gen.(
    int_range 0 130 >>= fun len ->
    int_range 0 9 >>= fun pre ->
    int_range 0 9 >>= fun post ->
    oneof
      [
        string_size ~gen:char (return len);
        return (String.make len '\255');
        ( int_range 0 len >>= fun zeros ->
          string_size ~gen:char (return (len - zeros)) >|= fun s -> s ^ String.make zeros '\000' );
      ]
    >|= fun body -> { pre; body; post })

let print_placed c =
  Printf.sprintf "pre=%d post=%d body=%s" c.pre c.post
    (String.concat "" (List.map (fun ch -> Printf.sprintf "%02x" (Char.code ch)) (List.of_seq (String.to_seq c.body))))

let arb_placed = QCheck.make ~print:print_placed gen_placed

let embed c =
  let len = String.length c.body in
  let buf = Bytes.make (c.pre + len + c.post) '\xa5' in
  Bytes.blit_string c.body 0 buf c.pre len;
  buf

let raises_invalid f = match f () with _ -> false | exception Invalid_argument _ -> true

let packer_tests =
  [
    qtest "of_bytes_sub matches the shift/add oracle" 500 arb_placed (fun c ->
        let x = Nat.of_bytes_sub (embed c) c.pre (String.length c.body) in
        Nat.equal x (oracle_of_bytes_le (Bytes.of_string c.body)));
    qtest "to_bytes_sub matches the bitwise oracle, raises iff too wide" 500
      (QCheck.pair arb_placed (QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 132)))
      (fun (c, width) ->
        let x = oracle_of_bytes_le (Bytes.of_string c.body) in
        let buf = Bytes.make (c.pre + width + c.post) '\xa5' in
        let before = Bytes.copy buf in
        if Nat.num_bits x > 8 * width then
          raises_invalid (fun () -> Nat.to_bytes_sub x buf c.pre width)
          && raises_invalid (fun () -> oracle_to_bytes_le x width)
          && Bytes.equal buf before
        else begin
          Nat.to_bytes_sub x buf c.pre width;
          Bytes.equal (Bytes.sub buf c.pre width) (oracle_to_bytes_le x width)
          && Bytes.equal (Bytes.sub buf 0 c.pre) (Bytes.sub before 0 c.pre)
          && Bytes.equal
               (Bytes.sub buf (c.pre + width) c.post)
               (Bytes.sub before (c.pre + width) c.post)
        end);
    Alcotest.test_case "packers reject ranges outside the buffer" `Quick (fun () ->
        let b = Bytes.make 8 '\001' in
        List.iter
          (fun (off, len) ->
            let what = Printf.sprintf "off=%d len=%d" off len in
            Alcotest.(check bool) ("read " ^ what) true
              (raises_invalid (fun () -> Nat.of_bytes_sub b off len));
            Alcotest.(check bool) ("write " ^ what) true
              (raises_invalid (fun () -> Nat.to_bytes_sub Nat.zero b off len)))
          [ (-1, 2); (0, 9); (7, 2); (9, 0); (0, -1) ]);
    Alcotest.test_case "packers at limb boundaries" `Quick (fun () ->
        (* 2^k - 1 and 2^k around every multiple of 31 bits up to 4 limbs. *)
        for k = 1 to 124 do
          List.iter
            (fun x ->
              let w = (Nat.num_bits x + 7) / 8 in
              let b = Bytes.create w in
              Nat.to_bytes_sub x b 0 w;
              Alcotest.check nat (Printf.sprintf "k=%d" k) x (Nat.of_bytes_sub b 0 w);
              Alcotest.(check bytes) (Printf.sprintf "k=%d oracle" k) (oracle_to_bytes_le x w) b)
            [ Nat.sub (Nat.shift_left Nat.one k) Nat.one; Nat.shift_left Nat.one k ]
        done);
  ]

let suite = suite @ packer_tests
