(* Zwire codec and socket-driver tests: round-trip properties per message
   type, decode-error taxonomy on truncated/corrupted frames, and an
   end-to-end fork+socketpair run checked against the in-process loopback. *)

open Fieldlib
open Zcrypto
open Argsys

let fctx = Fp.create Primes.p61
let gp = Primes.p89
let gctx = Fp.create gp
let wcodec = Zwire.codec ~group_p:gp fctx
let qtest name count arb law = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)
let arb_seed = QCheck.make ~print:string_of_int (QCheck.Gen.int_range 0 (1 lsl 20))
let prg_of seed = Chacha.Prg.create ~seed:(Printf.sprintf "wire-%d" seed) ()
let fel = Chacha.Prg.field fctx
let gel = Chacha.Prg.field gctx

(* Plant the edge elements 0, 1 and p-1 at the front of longer vectors so
   every round-trip run also exercises the width boundaries. *)
let vec prg n =
  Array.init n (fun i ->
      match i with
      | 0 when n > 3 -> Fp.zero
      | 1 when n > 3 -> Fp.one
      | 2 when n > 3 -> Fp.sub fctx Fp.zero Fp.one
      | _ -> fel prg)

let ct prg = { Elgamal.c1 = gel prg; c2 = gel prg }
let hex prg = Printf.sprintf "%016x" (Chacha.Prg.bits64 prg)

let rt ?(codec = wcodec) msg = Zwire.msg_equal msg (Zwire.decode ~codec (Zwire.encode ~codec msg))

let gen_hello prg =
  let batch = Chacha.Prg.int_below prg 4 in
  let width = Chacha.Prg.int_below prg 5 in
  Zwire.Hello
    {
      digest = hex prg;
      modulus = Primes.p61;
      rho = 1 + Chacha.Prg.int_below prg 10;
      rho_lin = 1 + Chacha.Prg.int_below prg 10;
      p_bits = 61;
      inputs = Array.init batch (fun _ -> vec prg width);
      trace_id = (if Chacha.Prg.int_below prg 2 = 0 then "" else hex prg);
    }

let gen_commit_request prg =
  let nz = Chacha.Prg.int_below prg 5 and nh = Chacha.Prg.int_below prg 5 in
  Zwire.Commit_request
    {
      group_p = gp;
      group_q = Primes.p61;
      group_g = gel prg;
      y_z = gel prg;
      y_h = gel prg;
      enc_r_z = Array.init nz (fun _ -> ct prg);
      enc_r_h = Array.init nh (fun _ -> ct prg);
    }

(* Query matrices are rectangular: one width per matrix. *)
let rows ?(ctx = fctx) width vs = Fp.Rows.of_arrays ctx ~width vs
let packed ?(ctx = fctx) v = Fp.Vec.of_array ctx v

let gen_queries prg =
  let nq = Chacha.Prg.int_below prg 4 in
  let matrix () =
    let width = Chacha.Prg.int_below prg 6 in
    rows width (Array.init nq (fun _ -> vec prg width))
  in
  let z_queries = matrix () in
  let h_queries = matrix () in
  Zwire.Queries
    {
      z_queries;
      h_queries;
      t_z = packed (vec prg (Chacha.Prg.int_below prg 6));
      t_h = packed (vec prg (Chacha.Prg.int_below prg 6));
    }

let gen_answers prg =
  let batch = Chacha.Prg.int_below prg 4 in
  Zwire.Answers
    (Array.init batch (fun _ ->
         {
           Zwire.claimed_io = vec prg (Chacha.Prg.int_below prg 5);
           claimed_output = vec prg (Chacha.Prg.int_below prg 3);
           z_resp = vec prg (Chacha.Prg.int_below prg 6);
           h_resp = vec prg (Chacha.Prg.int_below prg 6);
           a_t_z = fel prg;
           a_t_h = fel prg;
         }))

let roundtrip_tests =
  [
    qtest "hello round-trips" 50 arb_seed (fun s -> rt (gen_hello (prg_of s)));
    qtest "hello_ok round-trips" 20 arb_seed (fun s -> rt (Zwire.Hello_ok (hex (prg_of s))));
    qtest "commit_request round-trips" 50 arb_seed (fun s -> rt (gen_commit_request (prg_of s)));
    qtest "commitments round-trip" 50 arb_seed (fun s ->
        let prg = prg_of s in
        let n = Chacha.Prg.int_below prg 5 in
        rt (Zwire.Commitments (Array.init n (fun _ -> (ct prg, ct prg)))));
    qtest "queries round-trip" 50 arb_seed (fun s -> rt (gen_queries (prg_of s)));
    qtest "answers round-trip" 50 arb_seed (fun s -> rt (gen_answers (prg_of s)));
    qtest "verdicts round-trip" 20 arb_seed (fun s ->
        let prg = prg_of s in
        let n = Chacha.Prg.int_below prg 9 in
        rt (Zwire.Verdicts (Array.init n (fun _ -> Chacha.Prg.bool prg))));
    qtest "error_msg round-trips" 20 arb_seed (fun s ->
        rt (Zwire.Error_msg ("boom " ^ hex (prg_of s))));
  ]

(* ---- Malformed frames ---- *)

let decode_fails ?codec b =
  match Zwire.decode ?codec b with
  | _ -> None
  | exception Zwire.Decode_error e -> Some e

let check_error what expected got =
  match got with
  | Some e when e = expected -> ()
  | Some e -> Alcotest.failf "%s: expected %s, got %s" what (Zwire.error_to_string expected) (Zwire.error_to_string e)
  | None -> Alcotest.failf "%s: decoded successfully" what

let sample_msg () =
  let prg = prg_of 7 in
  Zwire.Queries
    {
      z_queries = rows 5 [| vec prg 5 |];
      h_queries = rows 5 [| vec prg 5 |];
      t_z = packed (vec prg 5);
      t_h = packed (vec prg 5);
    }

let corruption_tests =
  [
    Alcotest.test_case "every truncation is a Decode_error" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (gen_hello (prg_of 3)) in
        for k = 0 to Bytes.length b - 1 do
          match decode_fails ~codec:wcodec (Bytes.sub b 0 k) with
          | Some _ -> ()
          | None -> Alcotest.failf "prefix of %d bytes decoded" k
        done);
    Alcotest.test_case "bad magic" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 0 'X';
        check_error "magic" Zwire.Bad_magic (decode_fails ~codec:wcodec b));
    Alcotest.test_case "bad version" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 '\042';
        check_error "version" (Zwire.Bad_version 42) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "bad tag" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 3 '\099';
        check_error "tag" (Zwire.Bad_tag 99) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "out-of-range element rejected, not reduced" `Quick (fun () ->
        (* The final 8 bytes of a one-instance Answers frame are a_t_h; all
           0xff exceeds p61 and must be refused. *)
        let prg = prg_of 11 in
        let msg =
          Zwire.Answers
            [|
              {
                Zwire.claimed_io = vec prg 2;
                claimed_output = vec prg 1;
                z_resp = vec prg 3;
                h_resp = vec prg 3;
                a_t_z = fel prg;
                a_t_h = fel prg;
              };
            |]
        in
        let b = Zwire.encode ~codec:wcodec msg in
        Bytes.fill b (Bytes.length b - 8) 8 '\255';
        check_error "element" (Zwire.Out_of_range "answers.a_t_h") (decode_fails ~codec:wcodec b));
    Alcotest.test_case "non-boolean verdict byte rejected" `Quick (fun () ->
        let b = Zwire.encode (Zwire.Verdicts [| true; false; true |]) in
        Bytes.set b (Bytes.length b - 1) '\007';
        check_error "verdict" (Zwire.Out_of_range "verdicts (not 0/1)") (decode_fails b));
    Alcotest.test_case "trailing junk rejected" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        let b' = Bytes.cat b (Bytes.make 3 'x') in
        check_error "junk" (Zwire.Trailing_bytes 3) (decode_fails ~codec:wcodec b'));
    Alcotest.test_case "oversized payload length is truncation" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 4 '\255';
        (match decode_fails ~codec:wcodec b with
        | Some (Zwire.Truncated _) -> ()
        | Some e -> Alcotest.failf "expected Truncated, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded with absurd length"));
    Alcotest.test_case "queries without a codec need context" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        match decode_fails b with
        | Some (Zwire.Missing_context _) -> ()
        | Some e -> Alcotest.failf "expected Missing_context, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded without codec");
    Alcotest.test_case "commitments without group context" `Quick (fun () ->
        let prg = prg_of 13 in
        let b = Zwire.encode ~codec:wcodec (Zwire.Commitments [| (ct prg, ct prg) |]) in
        match decode_fails ~codec:(Zwire.codec fctx) b with
        | Some (Zwire.Missing_context _) -> ()
        | Some e -> Alcotest.failf "expected Missing_context, got %s" (Zwire.error_to_string e)
        | None -> Alcotest.fail "decoded without group modulus");
  ]

(* ---- End-to-end: socketpair vs loopback ---- *)

let fi = Fp.of_int fctx

(* Same y = x^2 + 3 computation as test_argument.ml. *)
let square_plus_3 : Argument.computation =
  let c1 =
    { Constr.R1cs.a = Constr.Lincomb.of_var 2; b = Constr.Lincomb.of_var 2; c = Constr.Lincomb.of_var 1 }
  in
  let c2 =
    {
      Constr.R1cs.a = Constr.Lincomb.add fctx (Constr.Lincomb.of_var 1) (Constr.Lincomb.of_const (fi 3));
      b = Constr.Lincomb.of_const Fp.one;
      c = Constr.Lincomb.of_var 3;
    }
  in
  let r1cs = { Constr.R1cs.field = fctx; num_vars = 3; num_z = 1; constraints = [| c1; c2 |] } in
  let solve x =
    let x0 = x.(0) in
    let sq = Fp.mul fctx x0 x0 in
    [| Fp.one; sq; x0; Fp.add fctx sq (fi 3) |]
  in
  { Argument.r1cs; num_inputs = 1; num_outputs = 1; solve }

(* Run a batch against a prover living in its own domain, over a Unix
   socketpair. The protocol is strict request/response ping-pong, so two
   blocking endpoints in one process cannot deadlock. (Unix.fork is off
   limits here: earlier suites in the runner already spawned domains.)
   Returns the verifier-side batch result. *)
let with_prover_domain ~lookup ~server_config (body : Znet.conn -> 'a) : 'a =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let server_conn = Znet.of_fd b and client_conn = Znet.of_fd a in
  let server =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> try Znet.close server_conn with _ -> ())
          (fun () ->
            try
              Remote.handle_conn ~config:server_config ~lookup
                ~prg:(Chacha.Prg.create ~seed:"wire e2e prover" ())
                server_conn
            with Argument.Session_error _ | Znet.Net_error _ -> ()))
  in
  let finish () =
    (try Znet.close client_conn with _ -> ());
    Domain.join server
  in
  let res = try body client_conn with e -> finish (); raise e in
  finish ();
  res

let run_over_socketpair ~server_config ~seed inputs =
  let d = Argument.digest square_plus_3 in
  with_prover_domain ~server_config
    ~lookup:(fun d' -> if String.equal d' d then Some square_plus_3 else None)
    (fun conn ->
      Remote.run_conn ~config:Argument.test_config square_plus_3
        ~prg:(Chacha.Prg.create ~seed ())
        ~inputs conn)

let verdicts (r : Argument.batch_result) =
  Array.map (fun (i : Argument.instance_result) -> i.accepted) r.Argument.instances

let outputs (r : Argument.batch_result) =
  Array.map
    (fun (i : Argument.instance_result) -> Array.map Nat.to_decimal i.claimed_output)
    r.Argument.instances

let e2e_tests =
  [
    Alcotest.test_case "socket session matches loopback" `Quick (fun () ->
        let seed = "wire e2e verifier" in
        let inputs = Array.map (fun x -> [| fi x |]) [| 2; 5; 11 |] in
        let sock =
          run_over_socketpair ~server_config:Argument.test_config ~seed inputs
        in
        let loop =
          Argument.run_batch ~config:Argument.test_config square_plus_3
            ~prg:(Chacha.Prg.create ~seed ())
            ~inputs
        in
        Alcotest.(check bool) "socket all accepted" true (Argument.all_accepted sock);
        Alcotest.(check (array bool)) "same verdicts" (verdicts loop) (verdicts sock);
        Alcotest.(check (array (array string))) "same outputs" (outputs loop) (outputs sock));
    Alcotest.test_case "cheating remote prover rejected" `Quick (fun () ->
        let inputs = Array.map (fun x -> [| fi x |]) [| 3; 4; 9 |] in
        let r =
          run_over_socketpair
            ~server_config:{ Argument.test_config with Argument.strategy = Argument.Wrong_output }
            ~seed:"wire e2e cheat" inputs
        in
        Alcotest.(check bool) "none accepted" true (Argument.none_accepted r));
    Alcotest.test_case "unknown computation refused with Error_msg" `Quick (fun () ->
        let raised =
          with_prover_domain ~server_config:Argument.test_config ~lookup:(fun _ -> None)
            (fun conn ->
              try
                ignore
                  (Remote.run_conn ~config:Argument.test_config square_plus_3
                     ~prg:(Chacha.Prg.create ~seed:"wire e2e refuse v" ())
                     ~inputs:[| [| fi 2 |] |] conn);
                false
              with Argument.Session_error m -> String.length m > 0)
        in
        Alcotest.(check bool) "session error raised" true raised);
  ]

(* ---- Version negotiation ---- *)

(* v1 frames predate the Hello trace id; v2 appended it. Downlevel frames
   must keep decoding (with an empty trace id), and anything newer than
   [Zwire.version] must be refused with the Bad_version taxonomy — over a
   live connection, as an Error_msg before hanging up. *)
let version_tests =
  [
    qtest "hello encoded at v1 decodes with an empty trace id" 50 arb_seed (fun s ->
        match gen_hello (prg_of s) with
        | Zwire.Hello h ->
          Zwire.msg_equal
            (Zwire.Hello { h with Zwire.trace_id = "" })
            (Zwire.decode ~codec:wcodec (Zwire.encode ~codec:wcodec ~version:1 (Zwire.Hello h)))
        | _ -> false);
    qtest "non-hello messages are version-agnostic" 20 arb_seed (fun s ->
        let msg = gen_queries (prg_of s) in
        Zwire.msg_equal msg (Zwire.decode ~codec:wcodec (Zwire.encode ~codec:wcodec ~version:1 msg)));
    Alcotest.test_case "version below min_version refused" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 '\000';
        check_error "v0" (Zwire.Bad_version 0) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "next version refused (no silent forward-compat)" `Quick (fun () ->
        let b = Zwire.encode ~codec:wcodec (sample_msg ()) in
        Bytes.set b 2 (Char.chr (Zwire.version + 1));
        check_error "v+1" (Zwire.Bad_version (Zwire.version + 1)) (decode_fails ~codec:wcodec b));
    Alcotest.test_case "encode refuses versions outside the window" `Quick (fun () ->
        let bad v = match Zwire.encode ~version:v (Zwire.Verdicts [| true |]) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "v0" true (bad 0);
        Alcotest.(check bool) "v+1" true (bad (Zwire.version + 1)));
    Alcotest.test_case "v1 hello accepted by a current prover" `Quick (fun () ->
        (* A downlevel verifier (no trace id on the wire) must still get its
           Hello_ok: the extension degrades, it does not divide. *)
        let d = Argument.digest square_plus_3 in
        let cfg = Argument.test_config in
        let hello =
          Zwire.Hello
            {
              Zwire.digest = d;
              modulus = Primes.p61;
              rho = cfg.Argument.params.Pcp.Pcp_zaatar.rho;
              rho_lin = cfg.Argument.params.Pcp.Pcp_zaatar.rho_lin;
              p_bits = cfg.Argument.p_bits;
              inputs = [| [| fi 2 |] |];
              trace_id = "dropped-on-v1-wire";
            }
        in
        let reply =
          with_prover_domain ~server_config:cfg
            ~lookup:(fun d' -> if String.equal d' d then Some square_plus_3 else None)
            (fun conn ->
              Znet.send conn (Zwire.encode ~version:1 hello);
              Zwire.decode (Znet.recv conn))
        in
        match reply with
        | Zwire.Hello_ok _ -> ()
        | m -> Alcotest.failf "expected Hello_ok, got tag %d" (Zwire.tag_of_msg m));
    Alcotest.test_case "newer-version hello refused with Error_msg" `Quick (fun () ->
        (* A peer from the future gets a clean protocol-level refusal, not a
           dropped connection. *)
        let d = Argument.digest square_plus_3 in
        let reply =
          with_prover_domain ~server_config:Argument.test_config
            ~lookup:(fun d' -> if String.equal d' d then Some square_plus_3 else None)
            (fun conn ->
              let b = Zwire.encode (gen_hello (prg_of 17)) in
              Bytes.set b 2 (Char.chr (Zwire.version + 1));
              Znet.send conn b;
              Zwire.decode (Znet.recv conn))
        in
        let contains_version s =
          let n = String.length s and p = "version" in
          let k = String.length p in
          let rec go i = i + k <= n && (String.sub s i k = p || go (i + 1)) in
          go 0
        in
        match reply with
        | Zwire.Error_msg m -> Alcotest.(check bool) "names the version" true (contains_version m)
        | m -> Alcotest.failf "expected Error_msg, got tag %d" (Zwire.tag_of_msg m));
  ]

(* ---- In-place element reader at the frame boundaries ---- *)

(* Every element of a frame is read straight out of the frame buffer, so
   the range check must hold wherever the element sits: at the first, a
   middle and the last element position, for the p61 test field, the
   NTT-friendly p127_ntt and a group modulus in Commit_request. [p - 1]
   decodes; [p] and [2^(8w) - 1] are Out_of_range under the element's
   field name. *)

let frame_of_queries ctx x =
  let f = Fp.of_int ctx 5 in
  Zwire.encode ~codec:(Zwire.codec ctx)
    (Zwire.Queries
       {
         z_queries = rows ~ctx 3 [| [| x; f; f |] |];
         h_queries = rows ~ctx 3 [| [| f; x; f |] |];
         t_z = packed ~ctx [| x; f |];
         t_h = packed ~ctx [| f; x |];
       })

(* Header (8) then: z count (4), z vec length (4), z elements; h count (4),
   h vec length (4), h elements; t_z count (4), t_z elements; ... the
   frame's last element is t_h.(1). *)
let queries_slots ~width ~frame_len =
  [
    ("queries.z", 16);
    ("queries.h", 16 + (3 * width) + 8 + width);
    ("queries.t_z", 16 + (6 * width) + 12);
    ("queries.t_h", frame_len - width);
  ]

let frame_of_commit_request x =
  let g = Fp.of_int gctx 5 in
  Zwire.encode
    (Zwire.Commit_request
       {
         group_p = gp;
         group_q = Primes.p61;
         group_g = x;
         y_z = g;
         y_h = g;
         enc_r_z = [| { Elgamal.c1 = x; c2 = g }; { Elgamal.c1 = g; c2 = g } |];
         enc_r_h = [| { Elgamal.c1 = g; c2 = x } |];
       })

(* Header (8), group_p (2 + w), group_q (2 + 8), g, y_z, y_h, enc_r_z count
   (4), then enc_r_z.(0).c1; the frame's last element is enc_r_h.(0).c2. *)
let commit_slots ~width ~frame_len =
  let off_g = 8 + (2 + width) + (2 + 8) in
  [ ("commit.group_g", off_g); ("commit.enc_r_z", off_g + (3 * width) + 4); ("commit.enc_r_h", frame_len - width) ]

let check_boundaries ~label ~modulus ~width ~frame ~slots ~decode =
  let pm1 = Nat.sub modulus Nat.one in
  let good = frame pm1 in
  let frame_len = Bytes.length good in
  (match decode good with
  | _ -> ()
  | exception Zwire.Decode_error e -> Alcotest.failf "%s: p-1 refused: %s" label (Zwire.error_to_string e));
  let all_ones = Nat.sub (Nat.shift_left Nat.one (8 * width)) Nat.one in
  List.iter
    (fun (what, off) ->
      let expect = Bytes.create width in
      Nat.to_bytes_sub pm1 expect 0 width;
      Alcotest.(check bytes) (Printf.sprintf "%s: %s slot holds p-1" label what) expect
        (Bytes.sub good off width);
      List.iter
        (fun (vname, v) ->
          let b = Bytes.copy good in
          Nat.to_bytes_sub v b off width;
          let got = match decode b with _ -> None | exception Zwire.Decode_error e -> Some e in
          check_error (Printf.sprintf "%s: %s = %s" label what vname) (Zwire.Out_of_range what) got)
        [ ("p", modulus); ("2^(8w)-1", all_ones) ])
    (slots ~width ~frame_len)

let boundary_tests =
  let field_case label p =
    Alcotest.test_case (Printf.sprintf "element range checks at frame edges (%s)" label) `Quick
      (fun () ->
        let ctx = Fp.create p in
        check_boundaries ~label ~modulus:p ~width:(Fp.num_bytes ctx)
          ~frame:(frame_of_queries ctx) ~slots:queries_slots
          ~decode:(Zwire.decode ~codec:(Zwire.codec ctx)))
  in
  [
    field_case "p61" Primes.p61;
    field_case "p127_ntt" Primes.p127_ntt;
    field_case "p220" (Primes.p220 ());
    Alcotest.test_case "element range checks at frame edges (group p89)" `Quick (fun () ->
        check_boundaries ~label:"p89" ~modulus:gp ~width:(Fp.num_bytes gctx)
          ~frame:frame_of_commit_request ~slots:commit_slots ~decode:(fun b -> Zwire.decode b));
  ]

(* ---- Golden frames ---- *)

(* The encoder's output is part of the protocol: these digests pin the
   exact bytes of one Queries and one Commit_request frame built from a
   fixed PRG stream, so any change to the element packing (or to the
   PRG's field draws) shows up here. *)
let golden_tests =
  let digest b = Digest.to_hex (Digest.bytes b) in
  [
    Alcotest.test_case "golden queries frame" `Quick (fun () ->
        Alcotest.(check string) "digest" "a057744ccdbbcfadd780633e98d55ddf"
          (digest (Zwire.encode ~codec:wcodec (sample_msg ()))));
    Alcotest.test_case "golden commit_request frame" `Quick (fun () ->
        Alcotest.(check string) "digest" "6264c5f5b87484b09ab593ead49135a1"
          (digest (Zwire.encode (gen_commit_request (prg_of 19)))));
    Alcotest.test_case "encodes at Zwire.version" `Quick (fun () ->
        let msg = sample_msg () in
        let b = Zwire.encode ~codec:wcodec ~version:Zwire.version msg in
        Alcotest.(check int) "version byte" Zwire.version (Char.code (Bytes.get b 2));
        Alcotest.(check bool) "round-trips" true
          (Zwire.msg_equal msg (Zwire.decode ~codec:wcodec b)));
  ]

(* ---- Packed query matrices ---- *)

(* The Queries layout written out by hand, element by element from boxed
   values: the independent reference for the packed encoder, and the only
   way to build frames the packed types cannot hold (ragged rows). *)
let raw_queries ctx ~(z : Fp.el array array) ~(h : Fp.el array array) ~(tz : Fp.el array)
    ~(th : Fp.el array) =
  let w = Fp.num_bytes ctx in
  let b = Buffer.create 256 in
  let u32 buf n = Buffer.add_int32_be buf (Int32.of_int n) in
  let el x =
    let by = Bytes.create w in
    Nat.to_bytes_sub (Fp.to_nat x) by 0 w;
    Buffer.add_bytes b by
  in
  let vec v =
    u32 b (Array.length v);
    Array.iter el v
  in
  let vecs vs =
    u32 b (Array.length vs);
    Array.iter vec vs
  in
  vecs z;
  vecs h;
  vec tz;
  vec th;
  let frame = Buffer.create (Buffer.length b + 8) in
  Buffer.add_string frame Zwire.magic;
  Buffer.add_uint8 frame Zwire.version;
  Buffer.add_uint8 frame 5;
  u32 frame (Buffer.length b);
  Buffer.add_buffer frame b;
  Buffer.to_bytes frame

let packed_fields = [ ("p61", fctx); ("p127_ntt", Fp.create Primes.p127_ntt); ("p220", Fp.create (Primes.p220 ())) ]

(* Random matrices over [ctx], zero rows and zero width included, with
   0, 1 and p-1 planted as in [vec]. *)
let gen_arrays ctx prg =
  let el _ =
    match Chacha.Prg.int_below prg 8 with
    | 0 -> Fp.zero
    | 1 -> Fp.one
    | 2 -> Fp.sub ctx Fp.zero Fp.one
    | _ -> Chacha.Prg.field ctx prg
  in
  let matrix () =
    let nrows = Chacha.Prg.int_below prg 4 in
    let width = Chacha.Prg.int_below prg 6 in
    Array.init nrows (fun _ -> Array.init width el)
  in
  let z = matrix () in
  let h = matrix () in
  let tz = Array.init (Chacha.Prg.int_below prg 6) el in
  let th = Array.init (Chacha.Prg.int_below prg 6) el in
  (z, h, tz, th)

let queries_of ctx (z, h, tz, th) =
  let width m = if Array.length m = 0 then 0 else Array.length m.(0) in
  Zwire.Queries
    {
      z_queries = rows ~ctx (width z) z;
      h_queries = rows ~ctx (width h) h;
      t_z = packed ~ctx tz;
      t_h = packed ~ctx th;
    }

let decode_words_and_gcs codec b =
  ignore (Zwire.decode ~codec b) (* one-time setup lands outside the window *);
  Gc.minor ();
  let g0 = (Gc.quick_stat ()).Gc.minor_collections in
  let w0 = Gc.minor_words () in
  let m = Zwire.decode ~codec b in
  let w1 = Gc.minor_words () in
  let g1 = (Gc.quick_stat ()).Gc.minor_collections in
  (m, w1 -. w0, g1 - g0)

(* A verifier session driven over a socket up to its Queries message,
   which [tamper] replaces with raw bytes; returns the prover's reply. *)
let reply_to_tampered_queries tamper =
  let d = Argument.digest square_plus_3 in
  let cfg = Argument.test_config in
  with_prover_domain ~server_config:cfg
    ~lookup:(fun d' -> if String.equal d' d then Some square_plus_3 else None)
    (fun conn ->
      let vs =
        Argument.Verifier_session.create ~config:cfg square_plus_3
          ~prg:(Chacha.Prg.create ~seed:"wire tampered queries" ())
          ~inputs:[| [| fi 2 |] |]
      in
      let codec = Argument.Verifier_session.codec vs in
      let rec drive = function
        | Zwire.Queries q ->
          Znet.send conn (tamper q);
          Zwire.decode ~codec (Znet.recv conn)
        | m -> (
          Znet.send conn (Zwire.encode ~codec m);
          match Argument.Verifier_session.on_msg vs (Zwire.decode ~codec (Znet.recv conn)) with
          | `Send next -> drive next
          | `Finished _ -> Alcotest.fail "session finished before the Queries message")
      in
      drive (Argument.Verifier_session.initial vs))

let expect_error_reply what = function
  | Zwire.Error_msg m -> Alcotest.(check bool) (what ^ ": non-empty reason") true (String.length m > 0)
  | m -> Alcotest.failf "%s: expected Error_msg, got tag %d" what (Zwire.tag_of_msg m)

let packed_tests =
  [
    qtest "queries encode -> decode -> encode is the identity (p61, p127_ntt, p220)" 40 arb_seed
      (fun s ->
        let prg = prg_of s in
        List.for_all
          (fun (_, ctx) ->
            let codec = Zwire.codec ctx in
            let ((z, h, tz, th) as arrays) = gen_arrays ctx prg in
            let msg = queries_of ctx arrays in
            let b = Zwire.encode ~codec msg in
            let back = Zwire.decode ~codec b in
            Bytes.equal b (raw_queries ctx ~z ~h ~tz ~th)
            && Bytes.equal b (Zwire.encode ~codec back)
            && Zwire.msg_equal msg back)
          packed_fields);
    Alcotest.test_case "zero rows and zero width round-trip" `Quick (fun () ->
        List.iter
          (fun (z, h, label) ->
            let msg = queries_of fctx (z, h, [||], [||]) in
            let b = Zwire.encode ~codec:wcodec msg in
            Alcotest.(check bytes) (label ^ ": reference bytes") (raw_queries fctx ~z ~h ~tz:[||] ~th:[||]) b;
            Alcotest.(check bytes) (label ^ ": identity") b
              (Zwire.encode ~codec:wcodec (Zwire.decode ~codec:wcodec b)))
          [
            ([||], [||], "no rows");
            ([| [||]; [||]; [||] |], [| [||] |], "empty rows");
            ([||], [| [| Fp.one; Fp.zero |] |], "no z rows");
          ]);
    Alcotest.test_case "ragged query rows are Out_of_range" `Quick (fun () ->
        let f = Fp.of_int fctx 9 in
        (* short first row, long later row *)
        let ragged = [| [| f |]; [| f; f; f |] |] in
        check_error "z" (Zwire.Out_of_range "queries.z (ragged rows)")
          (decode_fails ~codec:wcodec (raw_queries fctx ~z:ragged ~h:[||] ~tz:[| f |] ~th:[||]));
        check_error "h" (Zwire.Out_of_range "queries.h (ragged rows)")
          (decode_fails ~codec:wcodec (raw_queries fctx ~z:[| [| f |] |] ~h:ragged ~tz:[| f |] ~th:[||])));
    Alcotest.test_case "ragged rows get an Error_msg from the prover session" `Quick (fun () ->
        expect_error_reply "ragged"
          (reply_to_tampered_queries (fun q ->
               let z = Fp.Rows.to_arrays q.Zwire.z_queries in
               z.(1) <- Array.append z.(1) [| Fp.one |];
               raw_queries fctx ~z ~h:(Fp.Rows.to_arrays q.Zwire.h_queries)
                 ~tz:(Fp.Vec.to_array q.Zwire.t_z) ~th:(Fp.Vec.to_array q.Zwire.t_h))));
    Alcotest.test_case "rows of the wrong width get an Error_msg from the prover session" `Quick
      (fun () ->
        List.iter
          (fun (label, widen_z) ->
            expect_error_reply label
              (reply_to_tampered_queries (fun q ->
                   let widen m = Array.map (fun r -> Array.append r [| Fp.one |]) (Fp.Rows.to_arrays m) in
                   let z = if widen_z then widen q.Zwire.z_queries else Fp.Rows.to_arrays q.Zwire.z_queries in
                   let h = if widen_z then Fp.Rows.to_arrays q.Zwire.h_queries else widen q.Zwire.h_queries in
                   raw_queries fctx ~z ~h ~tz:(Fp.Vec.to_array q.Zwire.t_z) ~th:(Fp.Vec.to_array q.Zwire.t_h))))
          [ ("width <> num_z", true); ("width <> h_len", false) ]);
    (* Regression: boxed decoding built every row with Array.init over
       fresh elements, and OCaml 5 runs a minor collection before every
       such array longer than 256 words - one per query row, each a
       stop-the-world pause when a second domain (the profiler) runs. *)
    Alcotest.test_case "queries decode: no minor GC, words per row independent of width" `Quick
      (fun () ->
        let nrows = 8 in
        let frame width =
          let prg = prg_of width in
          let m () = Array.init nrows (fun _ -> Array.init width (fun _ -> fel prg)) in
          let z = m () in
          let h = m () in
          raw_queries fctx ~z ~h ~tz:(Array.init width (fun _ -> fel prg)) ~th:[||]
        in
        let words =
          List.map
            (fun width ->
              let m, words, gcs = decode_words_and_gcs wcodec (frame width) in
              (match m with
              | Zwire.Queries q -> Alcotest.(check int) "width" width q.Zwire.z_queries.Fp.Rows.width
              | _ -> Alcotest.fail "not a Queries message");
              Alcotest.(check int) (Printf.sprintf "minor GCs at width %d" width) 0 gcs;
              Alcotest.(check bool)
                (Printf.sprintf "%.0f words for %d rows of %d" words (2 * nrows) width)
                true
                (words <= float_of_int (16 * nrows) +. 128.0);
              words)
            [ 300; 1200 ]
        in
        match words with
        | [ w300; w1200 ] ->
          (* 14,400 more elements: one word per element would show as
             thousands of words; a major-GC pacing step can shift a few. *)
          Alcotest.(check bool) "independent of width" true (Float.abs (w1200 -. w300) <= 32.0)
        | _ -> assert false);
  ]

let suite =
  roundtrip_tests @ corruption_tests @ e2e_tests @ version_tests @ boundary_tests @ golden_tests
  @ packed_tests
