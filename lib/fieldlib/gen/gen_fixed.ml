(* Writes fixed.ml to standard output: straight-line kernels for the limb
   widths the system runs (DESIGN.md §8). For each width k:

   - [cios_k]: the CIOS REDC of [Montgomery.redc_loop], unrolled over i
     and j, with b's and p's limbs and the (k+1)-limb accumulator in
     immutable locals, and the same conditional final subtraction;
   - [butterfly_k]: [Fp.Vec.butterfly]'s product, difference and sum in
     one body, the modular add and sub branch-free;
   - [slots_k]: [Fp.Vec.read_bytes_n] for elements of 4 * (31k / 32)
     bytes, the widest whole number of 32-bit words below 2^(31k):
     16 bytes at k = 5, 32 at k = 9.

   and three dispatchers on k ([cios], [butterfly], [read_slots]) that
   report whether a generated kernel ran. Every other width keeps the
   generic loops. Run by the rule in ../dune. *)

let widths = [ 5; 9 ]

let pr fmt = Printf.printf fmt

(* [sep] between the items [f 0], ..., [f (n-1)]. *)
let list n sep f = String.concat sep (List.init n f)

(* let x0 = f 0 and x1 = f 1 ... in *)
let bind n name f = pr "  let %s in\n" (list n " and " (fun j -> Printf.sprintf "%s%d = %s" name j (f j)))

let off base j = if j = 0 then base else Printf.sprintf "(%s + %d)" base j

(* The CIOS sweep over a's limbs at [a]/[ao], b's limbs already in
   b0.., p's in p0..; leaves the (k+1)-limb t0..tk, below 2p. Row 0
   starts from a zero accumulator, so its t terms are left out. *)
let emit_cios k ~a ~ao =
  for i = 0 to k - 1 do
    let t j = if i = 0 then "" else Printf.sprintf "t%d + " j in
    pr "  let ai = get %s %s in\n" a (off ao i);
    pr "  let s = %s(ai * b0) in\n" (t 0);
    pr "  let lo = s land mask in\n";
    pr "  let m = lo * p0' land mask in\n";
    pr "  let c1 = s lsr 31 and c2 = (lo + (m * p0)) lsr 31 in\n";
    for j = 1 to k - 1 do
      pr "  let s = %s(ai * b%d) + c1 in\n" (t j) j;
      pr "  let c1 = s lsr 31 in\n";
      pr "  let s = (s land mask) + (m * p%d) + c2 in\n" j;
      pr "  let c2 = s lsr 31 in\n";
      pr "  let t%d = s land mask in\n" (j - 1)
    done;
    pr "  let s = %sc1 + c2 in\n" (if i = 0 then "" else Printf.sprintf "t%d + " k);
    pr "  let t%d = s land mask and t%d = s lsr 31 in\n" (k - 1) k
  done

(* t >= p: a set top limb, or t >= p compared from the top limb down. *)
let ge k =
  let rec cmp j = if j = 0 then "t0 >= p0" else Printf.sprintf "t%d > p%d || (t%d = p%d && (%s))" j j j j (cmp (j - 1)) in
  Printf.sprintf "t%d <> 0 || %s" k (cmp (k - 1))

let emit_prologue k ~b ~bo ~p =
  bind k "b" (fun j -> Printf.sprintf "get %s %s" b (off bo j));
  bind k "p" (fun j -> Printf.sprintf "Array.unsafe_get %s %d" p j)

let emit_redc k =
  pr "\n(* [Montgomery.redc_loop] at k = %d. *)\n" k;
  pr "let cios_%d (p : int array) p0' (dst : bytes) dso (a : bytes) ao (b : bytes) bo =\n" k;
  emit_prologue k ~b:"b" ~bo:"bo" ~p:"p";
  emit_cios k ~a:"a" ~ao:"ao";
  pr "  if %s then begin\n" (ge k);
  pr "    let s = t0 - p0 in\n";
  pr "    set dst dso (s land mask);\n";
  for j = 1 to k - 1 do
    if j < k - 1 then begin
      pr "    let s = t%d - p%d + (s asr 31) in\n" j j;
      pr "    set dst %s (s land mask);\n" (off "dso" j)
    end
    else pr "    set dst %s ((t%d - p%d + (s asr 31)) land mask)\n" (off "dso" j) j j
  done;
  pr "  end\n  else begin\n";
  pr "%s\n  end\n" (list k ";\n" (fun j -> Printf.sprintf "    set dst %s t%d" (off "dso" j) j))

(* Slot j <- slot i - w * slot j, slot i <- slot i + w * slot j. *)
let emit_butterfly k =
  pr "\n(* [Fp.Vec.butterfly] at k = %d: slots [io] and [jo] of [d] (i <> j), the\n" k;
  pr "   twiddle at [two] of [tw] in Montgomery form. *)\n";
  pr "let butterfly_%d (p : int array) p0' (d : bytes) io jo (tw : bytes) two =\n" k;
  emit_prologue k ~b:"tw" ~bo:"two" ~p:"p";
  emit_cios k ~a:"d" ~ao:"jo";
  (* the product's final subtraction, rarely taken: one branch, then
     the masked subtraction into r0.. *)
  pr "  let q = if %s then -1 else 0 in\n" (ge k);
  for j = 0 to k - 1 do
    pr "  let s = t%d - (p%d land q)%s in\n" j j (if j = 0 then "" else " + (s asr 31)");
    pr "  let r%d = s land mask in\n" j
  done;
  bind k "x" (fun j -> Printf.sprintf "get d %s" (off "io" j));
  (* x - r, plus p where it borrowed *)
  for j = 0 to k - 1 do
    pr "  let s = x%d - r%d%s in\n" j j (if j = 0 then "" else " + (s asr 31)");
    pr "  let u%d = s land mask in\n" j
  done;
  pr "  let q = s asr 31 in\n";
  for j = 0 to k - 1 do
    pr "  let s = u%d + (p%d land q)%s in\n" j j (if j = 0 then "" else " + (s lsr 31)");
    pr "  set d %s (s land mask);\n" (off "jo" j)
  done;
  (* x + r, then x + r - p unless that borrowed past the carry *)
  for j = 0 to k - 1 do
    pr "  let s = x%d + r%d%s in\n" j j (if j = 0 then "" else " + (s lsr 31)");
    pr "  let u%d = s land mask in\n" j
  done;
  pr "  let c = s lsr 31 in\n";
  for j = 0 to k - 1 do
    pr "  let s = u%d - p%d%s in\n" j j (if j = 0 then "" else " + (s asr 31)");
    pr "  let v%d = s land mask in\n" j
  done;
  pr "  let keep = (c + (s asr 31)) asr 1 in\n";
  pr "%s\n" (list k ";\n" (fun j -> Printf.sprintf "  set d %s (v%d lxor ((v%d lxor u%d) land keep))" (off "io" j) j j j))

(* Bytes per element of [slots_k]. *)
let slot_bytes k = 4 * (31 * k / 32)

(* Limb j of an element from its 32-bit words w0..: bits [31j, 31j+31). *)
let limb_of_words k j =
  let nw = slot_bytes k / 4 in
  let q = 31 * j / 32 and sh = 31 * j mod 32 in
  let lo = if sh = 0 then Printf.sprintf "w%d" q else Printf.sprintf "(w%d lsr %d)" q sh in
  if q >= nw then "0"
  else if q + 1 < nw && sh > 1 then Printf.sprintf "(%s lor (w%d lsl %d)) land mask" lo (q + 1) (32 - sh)
  else if sh = 0 || q + 1 < nw then lo ^ " land mask"
  else lo

let emit_slots k =
  let nb = slot_bytes k in
  let nw = nb / 4 in
  pr "\n(* [Fp.Vec.read_bytes_n] at k = %d for %d-byte elements: slots from limb\n" k nb;
  pr "   [lo] of [l] get the [n] elements at [b.[off]] (in range, checked by the\n";
  pr "   caller), stopping at the first not below p ([pl], k limbs); returns\n";
  pr "   how many were below p. *)\n";
  pr "let slots_%d (pl : bytes) (l : bytes) lo n (b : bytes) off =\n" k;
  bind k "p" (fun j -> Printf.sprintf "get pl %d" j);
  pr "  let be = Sys.big_endian and j = ref 0 and ok = ref true in\n";
  pr "  while !ok && !j < n do\n";
  pr "    let o = lo + (!j * %d) and bo = off + (!j * %d) in\n" k nb;
  pr "    let %s in\n" (list nw " and " (fun q -> Printf.sprintf "w%d = word be b %s" q (off "bo" (4 * q))));
  for j = 0 to k - 1 do
    pr "    let l%d = %s in\n" j (limb_of_words k j);
    pr "    set l %s l%d;\n" (off "o" j) j
  done;
  let rec below j = if j = 0 then "l0 < p0" else Printf.sprintf "l%d < p%d || (l%d = p%d && (%s))" j j j j (below (j - 1)) in
  pr "    if %s then incr j else ok := false\n" (below (k - 1));
  pr "  done;\n  !j\n"

let emit_dispatch () =
  let cases f = String.concat "" (List.map (fun k -> Printf.sprintf "  | %s\n" (f k)) widths) in
  pr "\n(* The dispatchers: [false] (or -1) when k has no generated kernel. *)\n";
  pr "let cios k p p0' dst dso a ao b bo =\n  match k with\n%s  | _ -> false\n"
    (cases (fun k -> Printf.sprintf "%d ->\n    cios_%d p p0' dst dso a ao b bo;\n    true" k k));
  pr "\nlet butterfly k p p0' d io jo tw two =\n  match k with\n%s  | _ -> false\n"
    (cases (fun k -> Printf.sprintf "%d ->\n    butterfly_%d p p0' d io jo tw two;\n    true" k k));
  pr "\nlet read_slots k w pl l lo n b off =\n  match k with\n%s  | _ -> -1\n"
    (cases (fun k -> Printf.sprintf "%d when w = %d -> slots_%d pl l lo n b off" k (slot_bytes k) k))

let () =
  pr "(* Generated by lib/fieldlib/gen/gen_fixed.ml for k = %s: do not edit. *)\n\n"
    (String.concat ", " (List.map string_of_int widths));
  pr "external get64u : bytes -> int -> int64 = \"%%caml_bytes_get64u\"\n";
  pr "external set64u : bytes -> int -> int64 -> unit = \"%%caml_bytes_set64u\"\n";
  pr "external get32u : bytes -> int -> int32 = \"%%caml_bytes_get32u\"\n";
  pr "external bswap32 : int32 -> int32 = \"%%bswap_int32\"\n\n";
  pr "let get (b : bytes) i = Int64.to_int (get64u b (i lsl 3))\n";
  pr "let set (b : bytes) i v = set64u b (i lsl 3) (Int64.of_int v)\n";
  pr "let word be b i = Int32.to_int (if be then bswap32 (get32u b i) else get32u b i) land 0xffff_ffff\n";
  pr "let mask = (1 lsl 31) - 1\n";
  List.iter
    (fun k ->
      emit_redc k;
      emit_butterfly k;
      emit_slots k)
    widths;
  emit_dispatch ()
