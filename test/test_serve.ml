(* End-to-end observability for the serve path, against a farm serving
   one session: the live HTTP metrics endpoint scraped mid-session on an
   ephemeral port, the farm's Svcstats counters against a full TCP
   session, per-connection byte balance against the global wire counters,
   verifier/prover Chrome-trace merging into one two-pid view under a
   single trace id, and the golden list of exposed metric families. *)

open Argsys

let fi = Test_wire.fi
let square_plus_3 = Test_wire.square_plus_3

let with_tracing f =
  Zobs.reset ();
  Zobs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Zobs.disable ();
      Zobs.reset ())
    f

let contains s affix =
  let n = String.length s and k = String.length affix in
  let rec go i = i + k <= n && (String.sub s i k = affix || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Collect serve's log lines and wait for the "<prefix>ADDR" ones that
   announce the ephemeral ports. *)
type log_capture = { mu : Mutex.t; mutable lines : string list }

let capture () = { mu = Mutex.create (); lines = [] }

let log_to c s =
  Mutex.lock c.mu;
  c.lines <- s :: c.lines;
  Mutex.unlock c.mu

let wait_for c prefix =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let hit =
      Mutex.lock c.mu;
      let r =
        List.find_map
          (fun l ->
            if
              String.length l > String.length prefix
              && String.sub l 0 (String.length prefix) = prefix
            then Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
            else None)
          c.lines
      in
      Mutex.unlock c.mu;
      r
    in
    match hit with
    | Some addr -> addr
    | None ->
      if Unix.gettimeofday () > deadline then Alcotest.failf "serve never logged %S" prefix;
      Unix.sleepf 0.01;
      go ()
  in
  go ()

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "zserve_test_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1e3)))
  in
  (try Unix.mkdir d 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  d

let lookup_sq3 =
  let d = Argument.digest square_plus_3 in
  fun d' -> if String.equal d' d then Some square_plus_3 else None

(* Run [body] against a farm in its own domain, serving one session when
   [once] (the default), else until teardown. Teardown cannot hang: any
   connection the body registered in [conn_ref] is closed, the farm is
   told to stop if the body never let it finish, and the domain is joined
   exactly once — the body calls [join] itself when it wants the farm's
   final state. *)
let with_farm_domain ?(config = Argument.test_config) ?trace_dir ?metrics_listen ?(once = true)
    stats body =
  let cap = capture () in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Zfarm.Farm.serve
          ~config:{ Zfarm.Farm.default with Zfarm.Farm.arg_config = config; trace_dir }
          ~stats ~lookup:lookup_sq3
          ?max_conns:(if once then Some 1 else None)
          ~stop:(fun () -> Atomic.get stop)
          ?metrics_listen ~log:(log_to cap) "127.0.0.1:0")
  in
  let addr = wait_for cap "listening on " in
  let conn_ref : Znet.conn option ref = ref None in
  let joined = ref false in
  let join () =
    if not !joined then begin
      joined := true;
      ignore (Domain.join server)
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (match !conn_ref with
      | Some c ->
        (try Znet.close c with _ -> ());
        conn_ref := None
      | None -> ());
      if not !joined then begin
        Atomic.set stop true;
        join ()
      end)
    (fun () -> body ~cap ~addr ~conn_ref ~join)

(* Prometheus text parses: every non-comment line ends in a number. *)
let check_prometheus_shape text =
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "unparsable metrics line %S" line
           | Some i ->
             let v = String.sub line (i + 1) (String.length line - i - 1) in
             if float_of_string_opt v = None then Alcotest.failf "non-numeric value in %S" line)

let http_tests =
  [
    Alcotest.test_case "metrics HTTP server: routes, 404, stop" `Quick (fun () ->
        let m =
          Znet.Metrics_http.start "127.0.0.1:0" ~render:(fun path ->
              match path with
              | "/metrics" -> Some ("text/plain; version=0.0.4", "fixed_metric 1\n")
              | "/json" -> Some ("application/json", "{\"ok\":true}")
              | _ -> None)
        in
        Fun.protect
          ~finally:(fun () -> Znet.Metrics_http.stop m)
          (fun () ->
            let addr = Znet.Metrics_http.bound_addr m in
            let code, body = Znet.Metrics_http.get addr "/metrics" in
            Alcotest.(check int) "200" 200 code;
            Alcotest.(check string) "body" "fixed_metric 1\n" body;
            let code, body = Znet.Metrics_http.get addr "/json" in
            Alcotest.(check int) "json 200" 200 code;
            Alcotest.(check bool) "json body parses" true
              (Zobs.Json.parse body = Zobs.Json.Obj [ ("ok", Zobs.Json.Bool true) ]);
            let code, _ = Znet.Metrics_http.get addr "/nope" in
            Alcotest.(check int) "404" 404 code));
  ]

let scrape_tests =
  [
    Alcotest.test_case "live scrape of an ephemeral-port serve mid-session" `Quick (fun () ->
        let stats = Znet.Svcstats.create () in
        with_farm_domain ~metrics_listen:"127.0.0.1:0" stats
          (fun ~cap ~addr ~conn_ref ~join ->
            let maddr = wait_for cap "metrics on " in
            (* Open a session and park it after the Hello exchange so the
               connection is live while we scrape. *)
            let conn = Znet.connect addr in
            conn_ref := Some conn;
            let cfg = Argument.test_config in
            let hello =
              Zwire.Hello
                {
                  Zwire.digest = Argument.digest square_plus_3;
                  modulus = Fieldlib.Primes.p61;
                  rho = cfg.Argument.params.Pcp.Pcp_zaatar.rho;
                  rho_lin = cfg.Argument.params.Pcp.Pcp_zaatar.rho_lin;
                  p_bits = cfg.Argument.p_bits;
                  inputs = [| [| fi 2 |] |];
                  trace_id = "";
                }
            in
            Znet.send conn (Zwire.encode hello);
            (match Zwire.decode (Znet.recv conn) with
            | Zwire.Hello_ok _ -> ()
            | m -> Alcotest.failf "expected Hello_ok, got tag %d" (Zwire.tag_of_msg m));
            let code, text = Znet.Metrics_http.get maddr "/metrics" in
            Alcotest.(check int) "scrape 200" 200 code;
            Alcotest.(check bool) "accepted counter" true
              (contains text "zaatar_server_connections_accepted_total 1");
            Alcotest.(check bool) "connection live" true
              (contains text "zaatar_server_connections_active 1");
            Alcotest.(check bool) "per-conn bytes series" true
              (contains text "zaatar_conn_bytes_sent_total");
            check_prometheus_shape text;
            let code, body = Znet.Metrics_http.get maddr "/json" in
            Alcotest.(check int) "json 200" 200 code;
            let j = Zobs.Json.parse body in
            let server_j = Option.get (Zobs.Json.member "server" j) in
            let jint k =
              Option.map int_of_float (Option.bind (Zobs.Json.member k server_j) Zobs.Json.to_num)
            in
            Alcotest.(check (option int)) "json accepted" (Some 1) (jint "accepted");
            Alcotest.(check (option int)) "json active" (Some 1) (jint "active");
            let conns =
              Option.get (Option.bind (Zobs.Json.member "connections" j) Zobs.Json.to_arr)
            in
            Alcotest.(check int) "one connection listed" 1 (List.length conns);
            (* Hang up mid-protocol: the farm records a session error and,
               its one session closed, winds down. *)
            Znet.close conn;
            conn_ref := None;
            join ();
            let accepted, active, completed, failed, _, _ = Znet.Svcstats.totals stats in
            Alcotest.(check int) "accepted" 1 accepted;
            Alcotest.(check int) "none active" 0 active;
            Alcotest.(check int) "none completed" 0 completed;
            Alcotest.(check int) "one failed" 1 failed));
  ]

let session_tests =
  [
    Alcotest.test_case "traced TCP session: counters, byte balance, merged trace" `Quick
      (fun () ->
        with_tracing (fun () ->
            let stats = Znet.Svcstats.create () in
            let dir = temp_dir () in
            let trace_id = Zobs.mint_trace_id () in
            with_farm_domain ~trace_dir:dir stats (fun ~cap:_ ~addr ~conn_ref:_ ~join ->
                let inputs = Array.map (fun x -> [| fi x |]) [| 2; 5 |] in
                let r =
                  Remote.run_connect ~config:Argument.test_config ~trace_id ~addr square_plus_3
                    ~prg:(Chacha.Prg.create ~seed:"serve e2e verifier" ())
                    ~inputs
                in
                join ();
                Alcotest.(check bool) "batch accepted" true (Argument.all_accepted r);
                let accepted, active, completed, failed, decode_errors, _ =
                  Znet.Svcstats.totals stats
                in
                Alcotest.(check int) "accepted" 1 accepted;
                Alcotest.(check int) "active drained" 0 active;
                Alcotest.(check int) "completed" 1 completed;
                Alcotest.(check int) "no failures" 0 failed;
                Alcotest.(check int) "no decode errors" 0 decode_errors;
                (* Both endpoints live in this process, so the global wire
                   counters see every byte twice — once encoded, once
                   decoded — and the prover connection's sent+recv must
                   equal either side of that ledger exactly. *)
                let counter name = List.assoc name (Zobs.Registry.counter_values ()) in
                let wire_sent = counter "wire.bytes.sent"
                and wire_recv = counter "wire.bytes.recv" in
                Alcotest.(check int) "encode/decode ledger balances" wire_sent wire_recv;
                let j = Zobs.Json.parse (Zfarm.Farm.metrics_json stats) in
                let conns =
                  Option.get (Option.bind (Zobs.Json.member "connections" j) Zobs.Json.to_arr)
                in
                let conn_j = List.hd conns in
                let jint k =
                  int_of_float
                    (Option.get (Option.bind (Zobs.Json.member k conn_j) Zobs.Json.to_num))
                in
                Alcotest.(check int) "conn bytes account for the whole session" wire_sent
                  (jint "bytes_sent" + jint "bytes_recv");
                Alcotest.(check bool) "prover sent bytes" true (jint "bytes_sent" > 0);
                Alcotest.(check bool) "prover received bytes" true (jint "bytes_recv" > 0);
                Alcotest.(check (option string)) "digest recorded"
                  (Some (Argument.digest square_plus_3))
                  (Option.bind (Zobs.Json.member "digest" conn_j) Zobs.Json.to_str);
                (* Merge the prover sidecar with a verifier-side export:
                   one file per role, two pids, one trace id. *)
                let prover_trace = Filename.concat dir "prover_conn0.json" in
                Alcotest.(check bool) "sidecar written" true (Sys.file_exists prover_trace);
                let verifier_trace = Filename.concat dir "verifier.json" in
                let merged = Filename.concat dir "merged.json" in
                Zobs.Sink.write_chrome_trace ~pid:0 ~process_name:"verifier" verifier_trace;
                Zobs.Sink.merge_chrome_trace_files ~out:merged [ verifier_trace; prover_trace ];
                let mj = Zobs.Json.parse (read_file merged) in
                Alcotest.(check (option string)) "merged trace id" (Some trace_id)
                  (Option.bind
                     (Option.bind (Zobs.Json.member "otherData" mj) (Zobs.Json.member "trace_id"))
                     Zobs.Json.to_str);
                let events =
                  Option.get (Option.bind (Zobs.Json.member "traceEvents" mj) Zobs.Json.to_arr)
                in
                let pids =
                  List.sort_uniq compare
                    (List.filter_map
                       (fun e ->
                         Option.map int_of_float
                           (Option.bind (Zobs.Json.member "pid" e) Zobs.Json.to_num))
                       events)
                in
                Alcotest.(check (list int)) "verifier and prover pids" [ 0; 1 ] pids;
                let names =
                  List.filter_map
                    (fun e ->
                      match Zobs.Json.member "ph" e with
                      | Some (Zobs.Json.Str "M") ->
                        Option.bind (Zobs.Json.member "args" e) (fun a ->
                            Option.bind (Zobs.Json.member "name" a) Zobs.Json.to_str)
                      | _ -> None)
                    events
                in
                Alcotest.(check bool) "both process names" true
                  (List.mem "verifier" names && List.mem "prover" names))))
  ]

(* Soundness over the socket: the prover answers the decoded packed
   query rows through its cheat, and the verifier must refuse every
   instance. *)
let soundness_tests =
  [
    Alcotest.test_case "TCP provers answering through nonlinear or wrong vectors are rejected" `Quick
      (fun () ->
        List.iter
          (fun (label, strategy) ->
            with_farm_domain
              ~config:{ Argument.test_config with Argument.strategy }
              (Znet.Svcstats.create ())
              (fun ~cap:_ ~addr ~conn_ref ~join ->
                let conn = Znet.connect addr in
                conn_ref := Some conn;
                let r =
                  Remote.run_conn ~config:Argument.test_config square_plus_3
                    ~prg:(Chacha.Prg.create ~seed:("tcp cheat " ^ label) ())
                    ~inputs:(Array.map (fun x -> [| fi x |]) [| 3; 4; 9 |])
                    conn
                in
                Znet.close conn;
                conn_ref := None;
                join ();
                Alcotest.(check bool) (label ^ ": none accepted") true (Argument.none_accepted r)))
          [
            ("nonlinear", Argument.Nonlinear);
            ("equivocating", Argument.Equivocate);
            ("corrupt h", Argument.Corrupt_h);
          ]);
  ]

(* ---- Golden scrape ---- *)

(* The exposition's metric families ([# TYPE] names, sorted) and the
   /json key paths, after one honest session against a farm. Lint finding
   counters and the counters other suites make are created on first use,
   so whether they appear depends on which suites ran earlier in the
   process: they are left out. *)
let type_names text =
  let created_on_use name =
    List.exists (contains name) [ "zaatar_lint_findings_"; "zaatar_test_" ]
  in
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "#"; "TYPE"; name; _ ] when not (created_on_use name) -> Some name
         | _ -> None)
  |> List.sort_uniq compare

(* Every key path of a JSON value; array elements merge under "[]". *)
let json_paths j =
  let rec go prefix j acc =
    match j with
    | Zobs.Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          let p = prefix ^ "." ^ k in
          go p v (p :: acc))
        acc kvs
    | Zobs.Json.Arr xs -> List.fold_left (fun acc x -> go (prefix ^ "[]") x acc) acc xs
    | _ -> acc
  in
  List.sort_uniq compare (go "" j [])

let scrape_after_session () =
  with_farm_domain ~metrics_listen:"127.0.0.1:0" ~once:false (Znet.Svcstats.create ())
  @@ fun ~cap ~addr ~conn_ref:_ ~join:_ ->
  let maddr = wait_for cap "metrics on " in
  let r =
    Remote.run_connect ~config:Argument.test_config ~addr square_plus_3
      ~prg:(Chacha.Prg.create ~seed:"golden scrape" ())
      ~inputs:[| [| fi 2 |] |]
  in
  Alcotest.(check bool) "session accepted" true (Argument.all_accepted r);
  let get_json () = Zobs.Json.parse (snd (Znet.Metrics_http.get maddr "/json")) in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec retired () =
    let j = get_json () in
    let server k =
      Option.bind (Option.bind (Zobs.Json.member "server" j) (Zobs.Json.member k)) Zobs.Json.to_num
    in
    match (server "active", server "completed") with
    | Some 0.0, Some 1.0 -> j
    | _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "session never retired";
      Unix.sleepf 0.01;
      retired ()
  in
  let j = retired () in
  let code, text = Znet.Metrics_http.get maddr "/metrics" in
  Alcotest.(check int) "scrape 200" 200 code;
  check_prometheus_shape text;
  (type_names text, json_paths j)

(* Every family a farm exposes after one session, tracing off. Shed and
   accepted sessions are counted once, as
   zaatar_server_connections_{shed,accepted}_total. *)
let golden_families =
  [
    "zaatar_commit_consistency_checks"; "zaatar_commit_decommit_queries"; "zaatar_commit_enc_r";
    "zaatar_compile_ginger_constraints"; "zaatar_compile_ginger_variables";
    "zaatar_compile_zaatar_constraints"; "zaatar_compile_zaatar_variables";
    "zaatar_conn_bytes_recv_total"; "zaatar_conn_bytes_sent_total";
    "zaatar_conn_duration_seconds"; "zaatar_conn_msgs_total"; "zaatar_conn_phase_seconds_total";
    "zaatar_elgamal_decrypt"; "zaatar_elgamal_encrypt"; "zaatar_elgamal_hom_op";
    "zaatar_farm_setup_built"; "zaatar_fp_inv";
    "zaatar_fp_inv_group"; "zaatar_fp_mul"; "zaatar_fp_mul_group"; "zaatar_fp_mul_lazy";
    "zaatar_fp_mul_lazy_group"; "zaatar_gc_compactions_total"; "zaatar_gc_heap_words";
    "zaatar_gc_major_collections_total"; "zaatar_gc_major_words_total";
    "zaatar_gc_minor_collections_total"; "zaatar_gc_minor_words_total";
    "zaatar_gc_promoted_words_total"; "zaatar_gc_top_heap_words"; "zaatar_group_multi_pow";
    "zaatar_group_multi_pow_terms"; "zaatar_group_pow"; "zaatar_group_pow_fixed_base";
    "zaatar_group_pow_shamir"; "zaatar_ledger_ops_total"; "zaatar_loop_busy_seconds_total";
    "zaatar_loop_iter_us"; "zaatar_loop_iterations_total"; "zaatar_loop_ready_fds";
    "zaatar_loop_ready_fds_total"; "zaatar_loop_utilization"; "zaatar_loop_wait_seconds_total";
    "zaatar_mont_mul"; "zaatar_net_frames_recv"; "zaatar_net_frames_sent";
    "zaatar_ntt_butterfly"; "zaatar_pcp_ginger_queries_1"; "zaatar_pcp_ginger_queries_2";
    "zaatar_pcp_queries_h"; "zaatar_pcp_queries_z"; "zaatar_prg_bytes"; "zaatar_prg_field";
    "zaatar_qap_backend_lagrange"; "zaatar_qap_backend_ntt";
    "zaatar_server_connections_accepted_total"; "zaatar_server_connections_active";
    "zaatar_server_connections_completed_total"; "zaatar_server_connections_failed_total";
    "zaatar_server_connections_shed_total"; "zaatar_server_decode_errors_total";
    "zaatar_server_queue_depth"; "zaatar_server_session_latency_ms";
    "zaatar_server_setup_cache_hits_total"; "zaatar_server_setup_cache_misses_total";
    "zaatar_server_timeouts_total"; "zaatar_wire_bytes_recv"; "zaatar_wire_bytes_recv_answer";
    "zaatar_wire_bytes_recv_commit"; "zaatar_wire_bytes_recv_hello";
    "zaatar_wire_bytes_recv_query"; "zaatar_wire_bytes_recv_verdict"; "zaatar_wire_bytes_sent";
    "zaatar_wire_bytes_sent_answer"; "zaatar_wire_bytes_sent_commit";
    "zaatar_wire_bytes_sent_hello"; "zaatar_wire_bytes_sent_query";
    "zaatar_wire_bytes_sent_verdict"; "zaatar_wire_msgs"; "zaatar_wire_msgs_answer";
    "zaatar_wire_msgs_commit"; "zaatar_wire_msgs_hello"; "zaatar_wire_msgs_query";
    "zaatar_wire_msgs_verdict";
  ]

(* The families tracing adds: span, ledger-phase and histogram series. *)
let golden_traced_families =
  [
    "zaatar_farm_session_ms"; "zaatar_ledger_phase_major_words_total";
    "zaatar_ledger_phase_minor_words_total"; "zaatar_ledger_phase_ops_total";
    "zaatar_ledger_phase_seconds_total"; "zaatar_span_calls_total";
    "zaatar_span_exclusive_seconds_total"; "zaatar_span_seconds_total";
    "zaatar_wire_latency_us_answer"; "zaatar_wire_latency_us_commit";
    "zaatar_wire_latency_us_hello";
  ]

let golden_json_paths =
  [
    ".connections"; ".connections[].bytes_recv"; ".connections[].bytes_sent";
    ".connections[].digest"; ".connections[].duration_s"; ".connections[].error";
    ".connections[].id"; ".connections[].msgs"; ".connections[].peer"; ".connections[].phase";
    ".connections[].phases"; ".connections[].phases.answer";
    ".connections[].phases.answer.msgs"; ".connections[].phases.answer.recv";
    ".connections[].phases.answer.seconds"; ".connections[].phases.answer.sent";
    ".connections[].phases.commit"; ".connections[].phases.commit.msgs";
    ".connections[].phases.commit.recv"; ".connections[].phases.commit.seconds";
    ".connections[].phases.commit.sent"; ".connections[].phases.hello";
    ".connections[].phases.hello.msgs"; ".connections[].phases.hello.recv";
    ".connections[].phases.hello.seconds"; ".connections[].phases.hello.sent";
    ".connections[].phases.query"; ".connections[].phases.query.msgs";
    ".connections[].phases.query.recv"; ".connections[].phases.query.seconds";
    ".connections[].phases.query.sent"; ".connections[].phases.verdict";
    ".connections[].phases.verdict.msgs"; ".connections[].phases.verdict.recv";
    ".connections[].phases.verdict.seconds"; ".connections[].phases.verdict.sent";
    ".connections[].started_s"; ".connections[].status"; ".loop"; ".loop.busy_s";
    ".loop.iter_us"; ".loop.iter_us.p50"; ".loop.iter_us.p95"; ".loop.iter_us.p99";
    ".loop.iterations"; ".loop.queue_depth_trend"; ".loop.ready_avg"; ".loop.ready_fds";
    ".loop.ready_fds.p50"; ".loop.ready_fds.p95"; ".loop.ready_fds.p99"; ".loop.utilization";
    ".loop.wait_s"; ".server"; ".server.accepted"; ".server.active"; ".server.cache_hits";
    ".server.cache_misses"; ".server.completed"; ".server.decode_errors"; ".server.failed";
    ".server.latency_ms"; ".server.latency_ms.p50"; ".server.latency_ms.p95";
    ".server.latency_ms.p99"; ".server.queue_depth"; ".server.shed"; ".server.timeouts";
  ]

(* The /json paths `zaatar stats`, `zaatar top` and zbench's probe read. *)
let reader_paths =
  [
    ".server.accepted"; ".server.active"; ".server.completed"; ".server.failed";
    ".server.decode_errors"; ".server.timeouts"; ".server.shed"; ".server.cache_hits";
    ".server.cache_misses"; ".server.queue_depth"; ".server.latency_ms.p50";
    ".server.latency_ms.p95"; ".server.latency_ms.p99"; ".loop.iterations"; ".loop.utilization";
    ".loop.ready_avg"; ".loop.iter_us.p50"; ".loop.iter_us.p95"; ".loop.iter_us.p99";
    ".connections[].id"; ".connections[].peer"; ".connections[].digest";
    ".connections[].status"; ".connections[].phase"; ".connections[].duration_s";
    ".connections[].bytes_sent"; ".connections[].bytes_recv"; ".connections[].msgs";
  ]

let golden_tests =
  [
    Alcotest.test_case "golden scrape: metric families and /json paths" `Slow (fun () ->
        Zobs.reset ();
        let families, paths = scrape_after_session () in
        Alcotest.(check (list string)) "metric families, tracing off" golden_families families;
        let traced, traced_paths = with_tracing scrape_after_session in
        Alcotest.(check (list string)) "metric families, tracing on"
          (List.sort compare (golden_families @ golden_traced_families))
          traced;
        Alcotest.(check (list string)) "/json paths" golden_json_paths paths;
        Alcotest.(check (list string)) "/json paths, tracing on" golden_json_paths traced_paths;
        List.iter
          (fun p -> Alcotest.(check bool) (p ^ " read by a client") true (List.mem p paths))
          reader_paths);
  ]

let suite = http_tests @ scrape_tests @ session_tests @ soundness_tests @ golden_tests
