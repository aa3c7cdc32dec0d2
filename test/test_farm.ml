(* Zfarm: the concurrent prover farm. Unit coverage for the LRU setup
   cache, the busy/retry-after wire convention and the resumable frame
   reader, then end-to-end farm runs over real sockets: same-digest
   connections share one cached QAP (zero server-side constructions on the
   warm path, asserted via the qap.* counters), eviction under a tiny
   cache bound, and admission control shedding a third client while two
   in-flight sessions still verify. *)

open Fieldlib
open Argsys

let fi = Test_wire.fi
let fctx = Test_wire.fctx
let square_plus_3 = Test_wire.square_plus_3
let config = Argument.test_config

(* A second computation (y = x^3) so cache tests have a distinct digest. *)
let cube : Argument.computation =
  (* z layout: slot 0 = 1, var 1 = witness x^2, var 2 = input x, var 3 = output x^3 *)
  let c1 =
    { Constr.R1cs.a = Constr.Lincomb.of_var 2; b = Constr.Lincomb.of_var 2; c = Constr.Lincomb.of_var 1 }
  in
  let c2 =
    { Constr.R1cs.a = Constr.Lincomb.of_var 1; b = Constr.Lincomb.of_var 2; c = Constr.Lincomb.of_var 3 }
  in
  let r1cs = { Constr.R1cs.field = fctx; num_vars = 3; num_z = 1; constraints = [| c1; c2 |] } in
  let solve x =
    let x0 = x.(0) in
    let sq = Fp.mul fctx x0 x0 in
    [| Fp.one; sq; x0; Fp.mul fctx sq x0 |]
  in
  { Argument.r1cs; num_inputs = 1; num_outputs = 1; solve }

let lookup =
  let d_sq = Argument.digest square_plus_3 and d_cube = Argument.digest cube in
  fun d ->
    if d = d_sq then Some square_plus_3 else if d = d_cube then Some cube else None

(* ------------------------------------------------------------------ *)
(* Setup_cache unit tests                                              *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let open Zfarm.Setup_cache in
  let c = create ~bound_bytes:200 in
  let build v bytes () = (v, bytes) in
  Alcotest.(check string) "miss builds" "A" (fst (find c "a" (build "A" 80)));
  Alcotest.(check string) "hit returns cached" "A" (fst (find c "a" (build "WRONG" 80)));
  ignore (find c "b" (build "B" 80));
  (* touch a so b is the LRU victim when c arrives *)
  ignore (find c "a" (build "WRONG" 80));
  ignore (find c "c" (build "C" 80));
  Alcotest.(check bool) "a survived (recently used)" true (mem c "a");
  Alcotest.(check bool) "b evicted (LRU)" false (mem c "b");
  Alcotest.(check bool) "c resident" true (mem c "c");
  let s = stats c in
  Alcotest.(check int) "hits" 2 s.hits;
  Alcotest.(check int) "misses" 3 s.misses;
  Alcotest.(check int) "evictions" 1 s.evictions;
  Alcotest.(check int) "entries" 2 s.entries;
  Alcotest.(check bool) "bytes within bound" true (s.bytes <= 200);
  (* an oversized entry is served but not retained *)
  Alcotest.(check string) "oversized served" "X" (fst (find c "x" (build "X" 10_000)));
  Alcotest.(check bool) "oversized not retained" false (mem c "x");
  Alcotest.(check int) "prior entries intact" 2 (stats c).entries

let test_busy_wire () =
  let m = Zwire.busy_msg ~retry_after_ms:250 in
  Alcotest.(check bool) "is_busy" true (Zwire.is_busy m);
  (match Zwire.decode (Zwire.encode m) with
  | Zwire.Error_msg s ->
    Alcotest.(check (option int)) "retry-after round-trips" (Some 250)
      (Zwire.retry_after_of_error s)
  | _ -> Alcotest.fail "busy_msg should decode as Error_msg");
  Alcotest.(check (option int)) "plain error text is not busy" None
    (Zwire.retry_after_of_error "unknown computation deadbeef");
  Alcotest.(check bool) "plain Error_msg is not busy" false
    (Zwire.is_busy (Zwire.Error_msg "nope"))

(* Dribble a frame through a socketpair one byte at a time: the reader
   must report Awaiting until the last byte lands, then the exact
   payload; then EOF at a frame boundary. *)
let test_frame_reader () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd = Znet.of_fd a and wr = Znet.of_fd b in
  Znet.set_nonblocking rd;
  let reader = Znet.Frame_reader.create () in
  Alcotest.(check bool) "empty socket awaits" true (Znet.Frame_reader.step reader rd = `Awaiting);
  let payload = Bytes.of_string "hello farm" in
  let framed = Znet.frame payload in
  for i = 0 to Bytes.length framed - 1 do
    (match Znet.Frame_reader.step reader rd with
    | `Awaiting -> ()
    | _ -> Alcotest.fail "frame completed early");
    ignore (Unix.write b framed i 1)
  done;
  (match Znet.Frame_reader.step reader rd with
  | `Frame p -> Alcotest.(check string) "payload intact" "hello farm" (Bytes.to_string p)
  | _ -> Alcotest.fail "frame should be complete");
  (* two frames back to back arrive as two steps *)
  let f1 = Znet.frame (Bytes.of_string "one") and f2 = Znet.frame (Bytes.of_string "two") in
  ignore (Unix.write b f1 0 (Bytes.length f1));
  ignore (Unix.write b f2 0 (Bytes.length f2));
  (match Znet.Frame_reader.step reader rd with
  | `Frame p -> Alcotest.(check string) "first of two" "one" (Bytes.to_string p)
  | _ -> Alcotest.fail "first frame missing");
  (match Znet.Frame_reader.step reader rd with
  | `Frame p -> Alcotest.(check string) "second of two" "two" (Bytes.to_string p)
  | _ -> Alcotest.fail "second frame missing");
  Znet.close wr;
  Alcotest.(check bool) "EOF at boundary" true (Znet.Frame_reader.step reader rd = `Eof);
  Znet.close rd;
  (* EOF mid-frame is a Closed error, like the blocking reader *)
  let a2, b2 = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd2 = Znet.of_fd a2 and wr2 = Znet.of_fd b2 in
  Znet.set_nonblocking rd2;
  let reader2 = Znet.Frame_reader.create () in
  ignore (Unix.write b2 framed 0 6);
  (match Znet.Frame_reader.step reader2 rd2 with
  | `Awaiting -> ()
  | _ -> Alcotest.fail "partial frame should await");
  Znet.close wr2;
  (match Znet.Frame_reader.step reader2 rd2 with
  | exception Znet.Net_error (Znet.Closed _) -> ()
  | _ -> Alcotest.fail "mid-frame EOF should raise Closed");
  Znet.close rd2

(* [f reader_conn writer_fd] over a fresh socketpair, nonblocking on the
   reading side. *)
let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd = Znet.of_fd a and wr = Znet.of_fd b in
  Znet.set_nonblocking rd;
  Fun.protect ~finally:(fun () -> Znet.close rd; Znet.close wr) (fun () -> f rd b)

(* A header claiming a 1 GiB frame buys nothing until the bytes arrive:
   the reader grows its payload buffer with the data, so a peer that
   sends a length prefix and stalls costs kilobytes, not a gigabyte. An
   honest multi-megabyte frame dribbled in odd-sized chunks still comes
   out byte-identical. *)
let test_frame_reader_lazy_payload () =
  with_socketpair (fun rd wr ->
      let reader = Znet.Frame_reader.create () in
      let hostile = Bytes.make 12 'x' in
      Bytes.set_int32_be hostile 0 (Int32.of_int ((1 lsl 30) - 1));
      ignore (Unix.write wr hostile 0 (Bytes.length hostile));
      let before = Gc.allocated_bytes () in
      let r = Znet.Frame_reader.step reader rd in
      let bytes = Gc.allocated_bytes () -. before in
      Alcotest.(check bool) "unfinished frame awaits" true (r = `Awaiting);
      Alcotest.(check bool)
        (Printf.sprintf "1 GiB header allocated %.0f bytes (< 1 MiB)" bytes)
        true (bytes < 1048576.0));
  with_socketpair (fun rd wr ->
      let reader = Znet.Frame_reader.create () in
      let payload = Bytes.init ((3 * 1024 * 1024) + 17) (fun i -> Char.chr ((i * 131) land 0xff)) in
      let framed = Znet.frame payload in
      let got = ref None and off = ref 0 and chunk = ref 1 in
      while !got = None do
        let n = min !chunk (Bytes.length framed - !off) in
        if n > 0 then off := !off + Unix.write wr framed !off n;
        chunk := (!chunk * 7 mod 65521) + 1;
        match Znet.Frame_reader.step reader rd with
        | `Frame p -> got := Some p
        | `Awaiting -> if n = 0 then Alcotest.fail "reader stalled with every byte written"
        | `Eof -> Alcotest.fail "unexpected EOF"
      done;
      Alcotest.(check int) "every byte consumed" (Bytes.length framed) !off;
      Alcotest.(check bool) "dribbled frame is byte-identical" true (Option.get !got = payload))

(* The blocking reader of [run --connect] obeys the same rule: a hostile
   1 GiB length prefix followed by 8 bytes and a close ends in the
   mid-frame Closed error having allocated kilobytes, and a 3 MiB frame
   written in odd-sized dribbles by another domain comes out
   byte-identical. *)
let test_recv_lazy_payload () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd = Znet.of_fd a in
  let hostile = Bytes.make 12 'x' in
  Bytes.set_int32_be hostile 0 (Int32.of_int ((1 lsl 30) - 1));
  ignore (Unix.write b hostile 0 (Bytes.length hostile));
  Unix.close b;
  let before = Gc.allocated_bytes () in
  (match Znet.recv rd with
  | _ -> Alcotest.fail "a truncated payload was accepted"
  | exception Znet.Net_error (Znet.Closed m) ->
    Alcotest.(check string) "classified as a truncated payload" "fd went away mid-frame (peer crash?)" m);
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1 GiB header allocated %.0f bytes (< 1 MiB)" bytes)
    true (bytes < 1048576.0);
  Znet.close rd;
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd = Znet.of_fd a in
  let payload = Bytes.init ((3 * 1024 * 1024) + 17) (fun i -> Char.chr ((i * 131) land 0xff)) in
  let framed = Znet.frame payload in
  let writer =
    Domain.spawn (fun () ->
        let off = ref 0 and chunk = ref 1 in
        while !off < Bytes.length framed do
          let n = min !chunk (Bytes.length framed - !off) in
          off := !off + Unix.write b framed !off n;
          chunk := (!chunk * 7 mod 65521) + 1
        done;
        Unix.close b)
  in
  let got = Znet.recv rd in
  Domain.join writer;
  Znet.close rd;
  Alcotest.(check bool) "dribbled frame is byte-identical" true (got = payload)

(* ------------------------------------------------------------------ *)
(* End-to-end farm runs                                                *)
(* ------------------------------------------------------------------ *)

(* [body stats addr] against a farm that exits after [max_conns]
   sessions; [stats] is that farm's own accounting. A body that raises
   may have opened fewer sessions, so the farm is told to stop before
   the join: the test fails by name instead of waiting forever. *)
let with_farm ?(fconfig = { Zfarm.Farm.default with arg_config = config }) ~max_conns body =
  let stats = Znet.Svcstats.create () in
  let cap = Test_serve.capture () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Zfarm.Farm.serve ~config:fconfig ~stats ~lookup ~max_conns
          ~stop:(fun () -> Atomic.get stop)
          ~log:(Test_serve.log_to cap) "127.0.0.1:0")
  in
  let addr = Test_serve.wait_for cap "listening on " in
  let ok = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !ok then Atomic.set stop true;
      Domain.join server)
    (fun () ->
      let r = body stats addr in
      ok := true;
      r)

let run_client ?(comp = square_plus_3) ~seed addr =
  let prg = Chacha.Prg.create ~seed () in
  Remote.run_connect ~config ~addr comp ~prg ~inputs:[| [| fi 5 |]; [| fi 12 |] |]

let counter = Zobs.Registry.counter_value

let qap_constructions () =
  counter "qap.backend.ntt" + counter "qap.backend.lagrange"

let spin_until ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while not (pred ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out waiting for %s" what;
    Unix.sleepf 0.005
  done

(* A client returns as soon as it holds its verdicts; the farm retires
   the session on a later loop pass, so wait for that before counting. *)
let wait_retired stats =
  spin_until "every session to retire" (fun () ->
      let _, act, _, _, _, _ = Znet.Svcstats.totals stats in
      act = 0)

(* Same-digest second connection: the farm serves it from the setup cache
   — zero server-side QAP constructions (the only qap.* construction op
   in the delta is the client's own verifier-side build) — and concurrent
   same-digest clients all verify. *)
let test_farm_cache_and_concurrency () =
  Test_serve.with_tracing @@ fun () ->
  with_farm ~max_conns:5 @@ fun stats addr ->
  let r1 = run_client ~seed:"farm-client-1" addr in
  Alcotest.(check bool) "first client verdicts" true (Argument.all_accepted r1);
  let built_cold = counter "farm.setup.built" in
  Alcotest.(check int) "cold connection built the QAP once" 1 built_cold;
  let qap_before = qap_constructions () in
  let r2 = run_client ~seed:"farm-client-2" addr in
  Alcotest.(check bool) "second client verdicts" true (Argument.all_accepted r2);
  Alcotest.(check int) "warm session: zero server-side QAP constructions" (qap_before + 1)
    (qap_constructions ());
  Alcotest.(check int) "nothing rebuilt" built_cold (counter "farm.setup.built");
  (* three more clients at once, same digest *)
  let domains =
    Array.init 3 (fun i ->
        Domain.spawn (fun () -> run_client ~seed:(Printf.sprintf "farm-conc-%d" i) addr))
  in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "concurrent client %d verdicts" i)
        true
        (Argument.all_accepted (Domain.join d)))
    domains;
  wait_retired stats;
  let shed, hits, misses, depth = Znet.Svcstats.farm_totals stats in
  Alcotest.(check int) "nothing shed" 0 shed;
  Alcotest.(check int) "one cache miss (the cold build)" 1 misses;
  Alcotest.(check int) "four warm sessions hit" 4 hits;
  Alcotest.(check int) "queue drained" 0 depth;
  let a, act, completed, failed, _, _ = Znet.Svcstats.totals stats in
  Alcotest.(check int) "all five accepted" 5 a;
  Alcotest.(check int) "none active" 0 act;
  Alcotest.(check int) "all five completed" 5 completed;
  Alcotest.(check int) "none failed" 0 failed;
  let prom = Znet.Svcstats.prometheus stats in
  List.iter
    (fun series ->
      Alcotest.(check bool) (series ^ " exposed") true (Test_serve.contains prom series))
    [
      "zaatar_server_setup_cache_hits_total 4";
      "zaatar_server_setup_cache_misses_total 1";
      "zaatar_server_connections_shed_total 0";
      "zaatar_server_queue_depth";
      "zaatar_server_session_latency_ms{quantile=\"0.99\"}";
    ]

(* A byte bound that fits exactly one entry: alternating digests evict
   each other (LRU), so every connection misses and rebuilds. *)
let test_farm_eviction_under_tiny_bound () =
  Test_serve.with_tracing @@ fun () ->
  let one_entry =
    let q = Qapb.of_r1cs ~backend:config.Argument.qap_backend square_plus_3.Argument.r1cs in
    Zfarm.Farm.approx_qap_bytes q
  in
  let fconfig =
    { Zfarm.Farm.default with arg_config = config; setup_cache_bytes = one_entry + (one_entry / 2) }
  in
  with_farm ~fconfig ~max_conns:3 @@ fun stats addr ->
  let r1 = run_client ~seed:"evict-1" addr in
  let r2 = run_client ~comp:cube ~seed:"evict-2" addr in
  let r3 = run_client ~seed:"evict-3" addr in
  List.iter (fun r -> Alcotest.(check bool) "verdicts" true (Argument.all_accepted r)) [ r1; r2; r3 ];
  let _, hits, misses, _ = Znet.Svcstats.farm_totals stats in
  Alcotest.(check int) "every connection missed" 3 misses;
  Alcotest.(check int) "no hits under the tiny bound" 0 hits;
  Alcotest.(check int) "rebuilt each time" 3 (counter "farm.setup.built")

(* Verifier pump with a barrier after the Hello_ok, so the test can hold
   two sessions in flight while a third connection arrives. *)
let pump_with_pause comp ~seed ~pause addr =
  let conn = Znet.connect addr in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  let prg = Chacha.Prg.create ~seed () in
  let vs = Argument.Verifier_session.create ~config comp ~prg ~inputs:[| [| fi 4 |] |] in
  let codec = Argument.Verifier_session.codec vs in
  Znet.send conn (Zwire.encode ~codec (Argument.Verifier_session.initial vs));
  let first = Zwire.decode ~codec (Znet.recv conn) in
  pause ();
  let rec go m =
    match Argument.Verifier_session.on_msg vs m with
    | `Send m' ->
      Znet.send conn (Zwire.encode ~codec m');
      go (Zwire.decode ~codec (Znet.recv conn))
    | `Finished (Some m') -> Znet.send conn (Zwire.encode ~codec m')
    | `Finished None -> ()
  in
  go first;
  Argument.Verifier_session.result vs

(* --max-sessions 2, no accept queue: a third concurrent client is shed
   with the busy/retry-after reply while the two in-flight sessions run
   to correct verdicts. *)
let test_farm_overload_busy () =
  let fconfig =
    { Zfarm.Farm.default with arg_config = config; max_sessions = 2; accept_queue = 0 }
  in
  with_farm ~fconfig ~max_conns:2 @@ fun stats addr ->
  let in_flight = Atomic.make 0 and release = Atomic.make false in
  let pause () =
    Atomic.incr in_flight;
    spin_until "release" (fun () -> Atomic.get release)
  in
  let clients =
    Array.init 2 (fun i ->
        Domain.spawn (fun () ->
            pump_with_pause square_plus_3 ~seed:(Printf.sprintf "hold-%d" i) ~pause addr))
  in
  spin_until "two sessions in flight" (fun () -> Atomic.get in_flight = 2);
  (* third client: shed at accept, before any protocol exchange *)
  let t0 = Unix.gettimeofday () in
  let conn = Znet.connect addr in
  let reply = Zwire.decode (Znet.recv conn) in
  let waited = Unix.gettimeofday () -. t0 in
  Znet.close conn;
  Alcotest.(check bool) "third client got busy" true (Zwire.is_busy reply);
  (match reply with
  | Zwire.Error_msg s ->
    Alcotest.(check (option int)) "retry-after hint" (Some fconfig.Zfarm.Farm.busy_retry_ms)
      (Zwire.retry_after_of_error s)
  | _ -> Alcotest.fail "expected Error_msg");
  Alcotest.(check bool) "shed promptly" true (waited < 2.0);
  Atomic.set release true;
  Array.iteri
    (fun i d ->
      Alcotest.(check bool)
        (Printf.sprintf "held client %d still verifies" i)
        true
        (Argument.all_accepted (Domain.join d)))
    clients;
  wait_retired stats;
  let shed, _, _, _ = Znet.Svcstats.farm_totals stats in
  Alcotest.(check int) "shed accounted distinctly" 1 shed;
  let _, _, completed, failed, decode_errors, _ = Znet.Svcstats.totals stats in
  Alcotest.(check int) "two completed" 2 completed;
  Alcotest.(check int) "no failures" 0 failed;
  Alcotest.(check int) "shed is not a decode error" 0 decode_errors

(* Two farms in one process, each with its own Svcstats: one serves two
   same-digest clients (a cold miss, then a cache hit), the other one
   client; neither starts its clients until both are listening. Every
   count stays with the farm that earned it. *)
let test_two_farms_independent_stats () =
  let listening = Atomic.make 0 in
  let both_listening () =
    Atomic.incr listening;
    spin_until "both farms to listen" (fun () -> Atomic.get listening = 2)
  in
  let farm_a = Atomic.make None in
  let a =
    Domain.spawn (fun () ->
        with_farm ~max_conns:2 @@ fun stats addr ->
        both_listening ();
        let r1 = run_client ~seed:"two-farms-a1" addr in
        let r2 = run_client ~seed:"two-farms-a2" addr in
        wait_retired stats;
        Atomic.set farm_a (Some stats);
        Argument.all_accepted r1 && Argument.all_accepted r2)
  in
  let b_ok, b_stats =
    with_farm ~max_conns:1 @@ fun stats addr ->
    both_listening ();
    let r = run_client ~comp:cube ~seed:"two-farms-b" addr in
    wait_retired stats;
    (Argument.all_accepted r, stats)
  in
  Alcotest.(check bool) "farm A clients verify" true (Domain.join a);
  Alcotest.(check bool) "farm B client verifies" true b_ok;
  let a_stats = Option.get (Atomic.get farm_a) in
  let check name stats ~sessions ~hits ~misses =
    let accepted, active, completed, failed, _, _ = Znet.Svcstats.totals stats in
    let _, h, m, _ = Znet.Svcstats.farm_totals stats in
    Alcotest.(check int) (name ^ " accepted") sessions accepted;
    Alcotest.(check int) (name ^ " completed") sessions completed;
    Alcotest.(check int) (name ^ " none active") 0 active;
    Alcotest.(check int) (name ^ " none failed") 0 failed;
    Alcotest.(check int) (name ^ " cache hits") hits h;
    Alcotest.(check int) (name ^ " cache misses") misses m
  in
  check "farm A" a_stats ~sessions:2 ~hits:1 ~misses:1;
  check "farm B" b_stats ~sessions:1 ~hits:0 ~misses:1

(* Flight recorder end to end: a farm with --trace-dir and a 1 ms slow
   threshold serves one traced client, then must have dumped (a) a
   Chrome-trace sidecar carrying the verifier's trace id — which
   trace-merge accepts alongside the verifier's own trace — and (b) a
   JSONL forensic bundle (every session outruns 1 ms) whose lines all
   parse and whose header carries the outcome. *)
let test_farm_flight_sidecars () =
  Test_serve.with_tracing @@ fun () ->
  let dir = Test_serve.temp_dir () in
  let fconfig =
    { Zfarm.Farm.default with arg_config = config; trace_dir = Some dir; slow_session_ms = 1 }
  in
  let trace_id = Zobs.mint_trace_id () in
  with_farm ~fconfig ~max_conns:1 (fun _ addr ->
      let prg = Chacha.Prg.create ~seed:"flight-e2e" () in
      let r =
        Remote.run_connect ~config ~trace_id ~addr square_plus_3 ~prg
          ~inputs:[| [| fi 5 |]; [| fi 12 |] |]
      in
      Alcotest.(check bool) "traced client verdicts" true (Argument.all_accepted r));
  (* the farm loop has exited (with_farm joined it), so the dumps are on disk *)
  let sidecar = Filename.concat dir "prover_conn0.json" in
  Alcotest.(check bool) "sidecar written" true (Sys.file_exists sidecar);
  let j = Zobs.Json.parse (Test_serve.read_file sidecar) in
  (match Option.bind (Zobs.Json.member "otherData" j) (Zobs.Json.member "trace_id") with
  | Some id ->
    Alcotest.(check (option string)) "sidecar carries the verifier's trace id" (Some trace_id)
      (Zobs.Json.to_str id)
  | None -> Alcotest.fail "sidecar has no trace id");
  (match Option.bind (Zobs.Json.member "traceEvents" j) Zobs.Json.to_arr with
  | Some evs -> Alcotest.(check bool) "sidecar has slices" true (List.length evs > 1)
  | None -> Alcotest.fail "sidecar has no traceEvents");
  (* merge with the verifier's own trace — same id, so trace-merge accepts *)
  let verifier_trace = Filename.concat dir "verifier.json" in
  Zobs.Sink.write_chrome_trace verifier_trace;
  let merged = Filename.concat dir "merged.json" in
  Zobs.Sink.merge_chrome_trace_files ~out:merged [ verifier_trace; sidecar ];
  let mj = Zobs.Json.parse (Test_serve.read_file merged) in
  (match Option.bind (Zobs.Json.member "otherData" mj) (Zobs.Json.member "trace_id") with
  | Some id ->
    Alcotest.(check (option string)) "merged trace keeps the id" (Some trace_id)
      (Zobs.Json.to_str id)
  | None -> Alcotest.fail "merged trace lost its id");
  (* forensic bundle: slow trigger fired, every line parses *)
  let forensic = Filename.concat dir "forensic_conn0.jsonl" in
  Alcotest.(check bool) "forensic written (slow trigger)" true (Sys.file_exists forensic);
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (Test_serve.read_file forensic))
  in
  Alcotest.(check bool) "forensic has header + events" true (List.length lines > 1);
  let parsed = List.map Zobs.Json.parse lines in
  let jstr j k = Option.bind (Zobs.Json.member k j) Zobs.Json.to_str in
  let header = List.hd parsed in
  Alcotest.(check (option string)) "header kind" (Some "session") (jstr header "kind");
  Alcotest.(check (option string)) "header outcome" (Some "slow") (jstr header "outcome");
  Alcotest.(check (option string)) "header trace id" (Some trace_id) (jstr header "trace_id");
  List.iter
    (fun l -> Alcotest.(check (option string)) "event line" (Some "event") (jstr l "kind"))
    (List.tl parsed);
  (* the ring saw the whole lifecycle: accept, phases, frames, finish *)
  let types = List.filter_map (fun l -> jstr l "type") (List.tl parsed) in
  List.iter
    (fun t ->
      Alcotest.(check bool) (t ^ " recorded") true (List.mem t types))
    [ "mark.accepted"; "phase.hello"; "frame.read"; "frame.write"; "mark.finished" ]

let suite =
  [
    Alcotest.test_case "setup cache: LRU within a byte bound" `Quick test_cache_lru;
    Alcotest.test_case "wire: busy/retry-after convention" `Quick test_busy_wire;
    Alcotest.test_case "znet: resumable frame reader" `Quick test_frame_reader;
    Alcotest.test_case "znet: frame reader allocates as bytes arrive" `Quick
      test_frame_reader_lazy_payload;
    Alcotest.test_case "znet: blocking recv allocates as bytes arrive" `Quick test_recv_lazy_payload;
    Alcotest.test_case "farm: warm sessions skip setup, concurrent clients verify" `Slow
      test_farm_cache_and_concurrency;
    Alcotest.test_case "farm: LRU eviction under a tiny cache bound" `Slow
      test_farm_eviction_under_tiny_bound;
    Alcotest.test_case "farm: overload sheds busy, in-flight sessions verify" `Slow
      test_farm_overload_busy;
    Alcotest.test_case "farm: flight sidecars merge, forensic bundle on slow" `Slow
      test_farm_flight_sidecars;
    Alcotest.test_case "farm: two farms in one process keep separate stats" `Slow
      test_two_farms_independent_stats;
  ]
