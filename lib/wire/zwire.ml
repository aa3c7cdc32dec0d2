(* Zwire: versioned, length-prefixed binary codec for the split V/P
   argument protocol (DESIGN.md §9). Explicit encode/decode per message —
   no Marshal — with a Decode_error taxonomy so a hostile or corrupted
   peer produces a diagnosable error, never a crash or a silently reduced
   element.

   Frame layout:   "ZW" | version u8 | tag u8 | payload length u32 BE | payload
   Naturals:       u16 byte count | little-endian bytes
   Field/group el: fixed-width little-endian, width = bytes of the modulus,
                   decoded with a strict < modulus range check
   Vectors:        u32 BE count | elements
   Query matrices: u32 BE row count | rows as vectors, all of one width;
                   decoded straight into one packed arena (Fp.Rows) *)

open Fieldlib
open Zcrypto

let magic = "ZW"

(* Version 2 extends Hello with the distributed trace id. Version 1 frames
   are still accepted (the Hello payload just lacks the trailing trace_id
   field, decoded as ""), so old verifiers interoperate with new provers;
   anything newer than [version] is rejected with Bad_version, which the
   serve path reports to the peer as an Error_msg before closing. *)
let version = 2
let min_version = 1

type error =
  | Truncated of string
  | Bad_magic
  | Bad_version of int
  | Bad_tag of int
  | Out_of_range of string
  | Trailing_bytes of int
  | Missing_context of string

exception Decode_error of error

let error_to_string = function
  | Truncated what -> Printf.sprintf "truncated while reading %s" what
  | Bad_magic -> "bad magic (expected \"ZW\")"
  | Bad_version v -> Printf.sprintf "unsupported wire version %d (speak version %d)" v version
  | Bad_tag t -> Printf.sprintf "unknown message tag %d" t
  | Out_of_range what -> Printf.sprintf "out-of-range %s" what
  | Trailing_bytes n -> Printf.sprintf "%d trailing byte(s) after message" n
  | Missing_context what -> Printf.sprintf "decoder is missing context: %s" what

let fail e = raise (Decode_error e)

type hello = {
  digest : string;
  modulus : Nat.t;
  rho : int;
  rho_lin : int;
  p_bits : int;
  inputs : Fp.el array array;
  trace_id : string; (* v2+: distributed trace id; "" = no trace *)
}

type commit_request = {
  group_p : Nat.t;
  group_q : Nat.t;
  group_g : Group.element;
  y_z : Group.element;
  y_h : Group.element;
  enc_r_z : Elgamal.ciphertext array;
  enc_r_h : Elgamal.ciphertext array;
}

type queries = {
  z_queries : Fp.Rows.t;
  h_queries : Fp.Rows.t;
  t_z : Fp.Vec.t;
  t_h : Fp.Vec.t;
}

type instance_answers = {
  claimed_io : Fp.el array;
  claimed_output : Fp.el array;
  z_resp : Fp.el array;
  h_resp : Fp.el array;
  a_t_z : Fp.el;
  a_t_h : Fp.el;
}

type msg =
  | Hello of hello
  | Hello_ok of string
  | Commit_request of commit_request
  | Commitments of (Elgamal.ciphertext * Elgamal.ciphertext) array
  | Queries of queries
  | Answers of instance_answers array
  | Verdicts of bool array
  | Error_msg of string

let tag_of_msg = function
  | Hello _ -> 1
  | Hello_ok _ -> 2
  | Commit_request _ -> 3
  | Commitments _ -> 4
  | Queries _ -> 5
  | Answers _ -> 6
  | Verdicts _ -> 7
  | Error_msg _ -> 8

let phase_of_tag = function
  | 1 | 2 -> "hello"
  | 3 | 4 -> "commit"
  | 5 -> "query"
  | 6 -> "answer"
  | 7 -> "verdict"
  | _ -> "hello" (* Error_msg and unknowns: accounted with session setup *)

let phase_of_msg m = phase_of_tag (tag_of_msg m)

type codec = { field : Fp.ctx; group_p : Nat.t option }

let codec ?group_p field = { field; group_p }

(* ------------------------------------------------------------------ *)
(* Byte accounting (Zobs)                                              *)
(* ------------------------------------------------------------------ *)

let phases = [ "hello"; "commit"; "query"; "answer"; "verdict" ]
let c_sent = Zobs.Counter.make "wire.bytes.sent"
let c_recv = Zobs.Counter.make "wire.bytes.recv"
let c_msgs = Zobs.Counter.make "wire.msgs"

let per_phase prefix =
  List.map (fun ph -> (ph, Zobs.Counter.make (prefix ^ "." ^ ph))) phases

let c_sent_phase = per_phase "wire.bytes.sent"
let c_recv_phase = per_phase "wire.bytes.recv"
let c_msgs_phase = per_phase "wire.msgs"

let count table phase n =
  match List.assoc_opt phase table with Some c -> Zobs.Counter.add c n | None -> ()

let count_sent phase n =
  Zobs.Counter.add c_sent n;
  Zobs.Counter.incr c_msgs;
  count c_sent_phase phase n;
  count c_msgs_phase phase 1

let count_recv phase n =
  Zobs.Counter.add c_recv n;
  count c_recv_phase phase n

(* ------------------------------------------------------------------ *)
(* Primitive writers                                                   *)
(* ------------------------------------------------------------------ *)

let nat_bytes n = max 1 ((Nat.num_bits n + 7) / 8)

(* Frames are built in one growable buffer. Elements are packed straight
   into it by [Nat.to_bytes_sub], so encoding allocates no [bytes] per
   element. *)
type writer = { mutable out : bytes; mutable len : int }

let reserve w n =
  let need = w.len + n in
  if need > Bytes.length w.out then begin
    let out = Bytes.create (max need (2 * Bytes.length w.out)) in
    Bytes.blit w.out 0 out 0 w.len;
    w.out <- out
  end

let put_u8 w v =
  reserve w 1;
  Bytes.set_uint8 w.out w.len (v land 0xff);
  w.len <- w.len + 1

let put_u16 w v =
  if v < 0 || v > 0xffff then invalid_arg "Zwire: u16 out of range";
  put_u8 w (v lsr 8);
  put_u8 w v

let put_u32 w v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Zwire: u32 out of range";
  put_u8 w (v lsr 24);
  put_u8 w (v lsr 16);
  put_u8 w (v lsr 8);
  put_u8 w v

let put_raw w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.out w.len n;
  w.len <- w.len + n

let put_str w s =
  put_u16 w (String.length s);
  put_raw w s

(* Fixed-width element; the caller guarantees el < modulus (always true for
   canonical Fp/group residues). *)
let put_el w ~width (e : Fp.el) =
  reserve w width;
  Nat.to_bytes_sub (Fp.to_nat e) w.out w.len width;
  w.len <- w.len + width

let put_nat w n =
  let width = nat_bytes n in
  put_u16 w width;
  put_el w ~width n

let put_vec w ~width (v : Fp.el array) =
  put_u32 w (Array.length v);
  Array.iter (put_el w ~width) v

let put_vecs w ~width (vs : Fp.el array array) =
  put_u32 w (Array.length vs);
  Array.iter (put_vec w ~width) vs

(* Packed slots go straight from limbs to frame bytes. *)
let put_slots w ~width (v : Fp.Vec.t) off n =
  reserve w (n * width);
  for i = 0 to n - 1 do
    Fp.Vec.write_bytes v (off + i) w.out w.len width;
    w.len <- w.len + width
  done

let put_packed w ~width (v : Fp.Vec.t) =
  put_u32 w (Fp.Vec.length v);
  put_slots w ~width v 0 (Fp.Vec.length v)

(* A query matrix keeps the vector-of-vectors layout on the wire: row
   count, then each row as a counted vector. *)
let put_rows w ~width (q : Fp.Rows.t) =
  put_u32 w q.Fp.Rows.rows;
  for r = 0 to q.Fp.Rows.rows - 1 do
    put_u32 w q.Fp.Rows.width;
    put_slots w ~width q.Fp.Rows.vec (Fp.Rows.row q r) q.Fp.Rows.width
  done

let put_ct w ~width (ct : Elgamal.ciphertext) =
  put_el w ~width ct.Elgamal.c1;
  put_el w ~width ct.Elgamal.c2

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                   *)
(* ------------------------------------------------------------------ *)

type reader = { buf : bytes; mutable pos : int; stop : int }

let remaining r = r.stop - r.pos

let need r n what = if remaining r < n then fail (Truncated what)

let get_u8 r what =
  need r 1 what;
  let v = Char.code (Bytes.get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let get_u16 r what =
  let hi = get_u8 r what in
  let lo = get_u8 r what in
  (hi lsl 8) lor lo

let get_u32 r what =
  let a = get_u16 r what in
  let b = get_u16 r what in
  (a lsl 16) lor b

(* Naturals and elements are read in place from the frame buffer. *)
let get_fixed r n what =
  need r n what;
  let x = Nat.of_bytes_sub r.buf r.pos n in
  r.pos <- r.pos + n;
  x

let get_str r what =
  let len = get_u16 r what in
  need r len what;
  let s = Bytes.sub_string r.buf r.pos len in
  r.pos <- r.pos + len;
  s

let get_nat r what =
  let len = get_u16 r what in
  get_fixed r len what

(* A count about to drive an [Array.init]: bound it by the bytes actually
   left in the payload so a corrupted length can never force a huge
   allocation. [min_size] is the smallest possible encoding of one item. *)
let get_count r ~min_size what =
  let n = get_u32 r what in
  if min_size > 0 && n > remaining r / min_size then fail (Truncated what);
  n

(* A transmitted residue at or above its modulus is rejected
   (Out_of_range), never silently reduced. Field elements are checked
   against the field modulus, group elements against the bare group
   modulus (no Fp.ctx at hand), with the same strictness. *)
let get_gel r ~width ~modulus what =
  let n = get_fixed r width what in
  if Nat.compare n modulus >= 0 then fail (Out_of_range what);
  (n : Fp.el)

let get_el r ~width ~ctx what = get_gel r ~width ~modulus:(Fp.modulus ctx) what

let get_vec r ~width ~ctx what =
  let n = get_count r ~min_size:width what in
  Array.init n (fun _ -> get_el r ~width ~ctx what)

let get_vecs r ~width ~ctx what =
  let n = get_count r ~min_size:4 what in
  Array.init n (fun _ -> get_vec r ~width ~ctx what)

(* Elements read straight from the frame into packed slots, with the
   same strict range check as [get_el]. *)
let get_slots r ~width ~ctx (v : Fp.Vec.t) off n what =
  need r (n * width) what;
  if Fp.Vec.read_bytes_n ctx v off n r.buf r.pos width < n then fail (Out_of_range what);
  r.pos <- r.pos + (n * width)

let get_packed r ~width ~ctx what =
  let n = get_count r ~min_size:width what in
  let v = Fp.Vec.create ctx n in
  get_slots r ~width ~ctx v 0 n what;
  v

(* Every row must have the first row's width: a ragged matrix has no
   packed form, so a differing row count is Out_of_range. The whole
   matrix must fit in what is left of the payload before its arena is
   sized. *)
let get_rows r ~width ~ctx what =
  let rows = get_count r ~min_size:4 what in
  if rows = 0 then Fp.Rows.create ctx ~rows:0 ~width:0
  else begin
    let cols = get_count r ~min_size:width what in
    let row_bytes = 4 + (cols * width) in
    if rows - 1 > (remaining r - (cols * width)) / row_bytes then fail (Truncated what);
    let q = Fp.Rows.create ctx ~rows ~width:cols in
    for i = 0 to rows - 1 do
      if i > 0 && get_u32 r what <> cols then fail (Out_of_range (what ^ " (ragged rows)"));
      get_slots r ~width ~ctx q.Fp.Rows.vec (i * cols) cols what
    done;
    q
  end

let get_ct r ~width ~modulus what =
  let c1 = get_gel r ~width ~modulus what in
  let c2 = get_gel r ~width ~modulus what in
  { Elgamal.c1; c2 }

(* ------------------------------------------------------------------ *)
(* Message payloads                                                    *)
(* ------------------------------------------------------------------ *)

let field_width codec what =
  match codec with
  | Some c -> (Fp.num_bytes c.field, c.field)
  | None -> fail (Missing_context what)

let group_width codec what =
  match codec with
  | Some { group_p = Some p; _ } -> (nat_bytes p, p)
  | _ -> fail (Missing_context what)

let encode_payload ?codec ~version:v b = function
  | Hello h ->
    let width = nat_bytes h.modulus in
    put_str b h.digest;
    put_nat b h.modulus;
    put_u16 b h.rho;
    put_u16 b h.rho_lin;
    put_u16 b h.p_bits;
    put_vecs b ~width h.inputs;
    if v >= 2 then put_str b h.trace_id
  | Hello_ok digest -> put_str b digest
  | Commit_request cr ->
    let width = nat_bytes cr.group_p in
    put_nat b cr.group_p;
    put_nat b cr.group_q;
    put_el b ~width cr.group_g;
    put_el b ~width cr.y_z;
    put_el b ~width cr.y_h;
    put_u32 b (Array.length cr.enc_r_z);
    Array.iter (put_ct b ~width) cr.enc_r_z;
    put_u32 b (Array.length cr.enc_r_h);
    Array.iter (put_ct b ~width) cr.enc_r_h
  | Commitments coms ->
    let width =
      match codec with
      | Some { group_p = Some p; _ } -> nat_bytes p
      | _ -> invalid_arg "Zwire.encode: Commitments needs a codec with group_p"
    in
    put_u32 b (Array.length coms);
    Array.iter
      (fun (cz, ch) ->
        put_ct b ~width cz;
        put_ct b ~width ch)
      coms
  | Queries q ->
    let width =
      match codec with
      | Some c -> Fp.num_bytes c.field
      | None -> invalid_arg "Zwire.encode: Queries needs a codec with the field"
    in
    put_rows b ~width q.z_queries;
    put_rows b ~width q.h_queries;
    put_packed b ~width q.t_z;
    put_packed b ~width q.t_h
  | Answers insts ->
    let width =
      match codec with
      | Some c -> Fp.num_bytes c.field
      | None -> invalid_arg "Zwire.encode: Answers needs a codec with the field"
    in
    put_u32 b (Array.length insts);
    Array.iter
      (fun a ->
        put_vec b ~width a.claimed_io;
        put_vec b ~width a.claimed_output;
        put_vec b ~width a.z_resp;
        put_vec b ~width a.h_resp;
        put_el b ~width a.a_t_z;
        put_el b ~width a.a_t_h)
      insts
  | Verdicts vs ->
    put_u32 b (Array.length vs);
    Array.iter (fun v -> put_u8 b (if v then 1 else 0)) vs
  | Error_msg s ->
    let s = if String.length s > 0xffff then String.sub s 0 0xffff else s in
    put_str b s

let decode_payload ?codec ~version:v r tag =
  match tag with
  | 1 ->
    let digest = get_str r "hello.digest" in
    let modulus = get_nat r "hello.modulus" in
    let ctx =
      if Nat.compare modulus (Nat.of_int 3) < 0 || Nat.is_even modulus then
        fail (Out_of_range "hello.modulus")
      else try Fp.create modulus with Invalid_argument _ -> fail (Out_of_range "hello.modulus")
    in
    let rho = get_u16 r "hello.rho" in
    let rho_lin = get_u16 r "hello.rho_lin" in
    let p_bits = get_u16 r "hello.p_bits" in
    let inputs = get_vecs r ~width:(nat_bytes modulus) ~ctx "hello.inputs" in
    let trace_id = if v >= 2 then get_str r "hello.trace_id" else "" in
    Hello { digest; modulus; rho; rho_lin; p_bits; inputs; trace_id }
  | 2 -> Hello_ok (get_str r "hello_ok.digest")
  | 3 ->
    let group_p = get_nat r "commit.group_p" in
    if Nat.compare group_p (Nat.of_int 3) < 0 then fail (Out_of_range "commit.group_p");
    let group_q = get_nat r "commit.group_q" in
    let width = nat_bytes group_p in
    let modulus = group_p in
    let group_g = get_gel r ~width ~modulus "commit.group_g" in
    let y_z = get_gel r ~width ~modulus "commit.y_z" in
    let y_h = get_gel r ~width ~modulus "commit.y_h" in
    let nz = get_count r ~min_size:(2 * width) "commit.enc_r_z" in
    let enc_r_z = Array.init nz (fun _ -> get_ct r ~width ~modulus "commit.enc_r_z") in
    let nh = get_count r ~min_size:(2 * width) "commit.enc_r_h" in
    let enc_r_h = Array.init nh (fun _ -> get_ct r ~width ~modulus "commit.enc_r_h") in
    Commit_request { group_p; group_q; group_g; y_z; y_h; enc_r_z; enc_r_h }
  | 4 ->
    let width, modulus = group_width codec "commitments (group parameters)" in
    let n = get_count r ~min_size:(4 * width) "commitments" in
    Commitments
      (Array.init n (fun _ ->
           let cz = get_ct r ~width ~modulus "commitments.com_z" in
           let ch = get_ct r ~width ~modulus "commitments.com_h" in
           (cz, ch)))
  | 5 ->
    let width, ctx = field_width codec "queries (field modulus)" in
    let z_queries = get_rows r ~width ~ctx "queries.z" in
    let h_queries = get_rows r ~width ~ctx "queries.h" in
    let t_z = get_packed r ~width ~ctx "queries.t_z" in
    let t_h = get_packed r ~width ~ctx "queries.t_h" in
    Queries { z_queries; h_queries; t_z; t_h }
  | 6 ->
    let width, ctx = field_width codec "answers (field modulus)" in
    let n = get_count r ~min_size:(16 + (2 * width)) "answers" in
    Answers
      (Array.init n (fun _ ->
           let claimed_io = get_vec r ~width ~ctx "answers.claimed_io" in
           let claimed_output = get_vec r ~width ~ctx "answers.claimed_output" in
           let z_resp = get_vec r ~width ~ctx "answers.z_resp" in
           let h_resp = get_vec r ~width ~ctx "answers.h_resp" in
           let a_t_z = get_el r ~width ~ctx "answers.a_t_z" in
           let a_t_h = get_el r ~width ~ctx "answers.a_t_h" in
           { claimed_io; claimed_output; z_resp; h_resp; a_t_z; a_t_h }))
  | 7 ->
    let n = get_count r ~min_size:1 "verdicts" in
    Verdicts
      (Array.init n (fun _ ->
           match get_u8 r "verdicts" with
           | 0 -> false
           | 1 -> true
           | _ -> fail (Out_of_range "verdicts (not 0/1)")))
  | 8 -> Error_msg (get_str r "error message")
  | t -> fail (Bad_tag t)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let header_len = 2 + 1 + 1 + 4

let encode ?codec ?version:(v = version) m =
  if v < min_version || v > version then
    invalid_arg (Printf.sprintf "Zwire.encode: cannot speak version %d" v);
  let b = { out = Bytes.create 256; len = 0 } in
  put_raw b magic;
  put_u8 b v;
  put_u8 b (tag_of_msg m);
  put_u32 b 0 (* payload length backpatched below *);
  encode_payload ?codec ~version:v b m;
  let out = Bytes.sub b.out 0 b.len in
  let plen = Bytes.length out - header_len in
  Bytes.set_uint8 out 4 ((plen lsr 24) land 0xff);
  Bytes.set_uint8 out 5 ((plen lsr 16) land 0xff);
  Bytes.set_uint8 out 6 ((plen lsr 8) land 0xff);
  Bytes.set_uint8 out 7 (plen land 0xff);
  count_sent (phase_of_msg m) (Bytes.length out);
  out

let decode ?codec (buf : bytes) =
  let r = { buf; pos = 0; stop = Bytes.length buf } in
  need r 2 "magic";
  if Bytes.get r.buf 0 <> magic.[0] || Bytes.get r.buf 1 <> magic.[1] then fail Bad_magic;
  r.pos <- 2;
  let v = get_u8 r "version" in
  if v < min_version || v > version then fail (Bad_version v);
  let tag = get_u8 r "tag" in
  let plen = get_u32 r "payload length" in
  if plen > remaining r then fail (Truncated "payload");
  let stop = r.pos + plen in
  if Bytes.length buf > stop then fail (Trailing_bytes (Bytes.length buf - stop));
  let r = { r with stop } in
  let m = decode_payload ?codec ~version:v r tag in
  if remaining r <> 0 then fail (Trailing_bytes (remaining r));
  count_recv (phase_of_tag tag) (Bytes.length buf);
  m

(* ------------------------------------------------------------------ *)
(* Busy / retry-after convention                                       *)
(* ------------------------------------------------------------------ *)

(* Load shedding rides on Error_msg rather than a new tag: version-2 peers
   already decode it, and bumping the protocol version would change every
   frame's version byte and break the digest-pinned transcripts. The
   payload is machine-parsable by prefix. *)

let busy_prefix = "busy retry-after-ms="

let busy_msg ~retry_after_ms =
  Error_msg (Printf.sprintf "%s%d" busy_prefix (max 0 retry_after_ms))

let retry_after_of_error s =
  let k = String.length busy_prefix in
  if String.length s > k && String.sub s 0 k = busy_prefix then
    int_of_string_opt (String.sub s k (String.length s - k))
  else None

let is_busy = function Error_msg s -> retry_after_of_error s <> None | _ -> false

(* ------------------------------------------------------------------ *)
(* Structural equality (tests)                                         *)
(* ------------------------------------------------------------------ *)

let arr_eq eq a b = Array.length a = Array.length b && Array.for_all2 eq a b
let el_eq = Fp.equal
let vec_eq = arr_eq el_eq
let vecs_eq = arr_eq vec_eq

let ct_eq (a : Elgamal.ciphertext) (b : Elgamal.ciphertext) =
  el_eq a.Elgamal.c1 b.Elgamal.c1 && el_eq a.Elgamal.c2 b.Elgamal.c2

let msg_equal a b =
  match (a, b) with
  | Hello x, Hello y ->
    x.digest = y.digest && Nat.equal x.modulus y.modulus && x.rho = y.rho
    && x.rho_lin = y.rho_lin && x.p_bits = y.p_bits && vecs_eq x.inputs y.inputs
    && x.trace_id = y.trace_id
  | Hello_ok x, Hello_ok y -> x = y
  | Commit_request x, Commit_request y ->
    Nat.equal x.group_p y.group_p && Nat.equal x.group_q y.group_q
    && el_eq x.group_g y.group_g && el_eq x.y_z y.y_z && el_eq x.y_h y.y_h
    && arr_eq ct_eq x.enc_r_z y.enc_r_z
    && arr_eq ct_eq x.enc_r_h y.enc_r_h
  | Commitments x, Commitments y ->
    arr_eq (fun (a1, a2) (b1, b2) -> ct_eq a1 b1 && ct_eq a2 b2) x y
  | Queries x, Queries y ->
    Fp.Rows.equal x.z_queries y.z_queries
    && Fp.Rows.equal x.h_queries y.h_queries
    && Fp.Vec.equal x.t_z y.t_z && Fp.Vec.equal x.t_h y.t_h
  | Answers x, Answers y ->
    arr_eq
      (fun (p : instance_answers) (q : instance_answers) ->
        vec_eq p.claimed_io q.claimed_io
        && vec_eq p.claimed_output q.claimed_output
        && vec_eq p.z_resp q.z_resp && vec_eq p.h_resp q.h_resp && el_eq p.a_t_z q.a_t_z
        && el_eq p.a_t_h q.a_t_h)
      x y
  | Verdicts x, Verdicts y -> x = y
  | Error_msg x, Error_msg y -> x = y
  | _ -> false
