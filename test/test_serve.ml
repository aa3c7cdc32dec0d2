(* End-to-end observability for the serve path: the live HTTP metrics
   endpoint scraped mid-session on an ephemeral port, Svcstats counters
   against a full TCP session, per-connection byte balance against the
   global wire counters, and verifier/prover Chrome-trace merging into one
   two-pid view under a single trace id. *)

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

(* Run [body] against a one-shot serve loop in its own domain. Teardown
   cannot hang: any connection the body registered in [conn_ref] is
   closed, the accept loop is kicked with a throwaway connect if the body
   never reached it, and the domain is joined exactly once — the body
   calls [join] itself when it wants the loop's final state. *)
let with_serve_domain serve body =
  let cap = capture () in
  let server = Domain.spawn (fun () -> serve (log_to cap)) in
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
        (try Znet.close (Znet.connect ~retries:0 addr) with _ -> ());
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
        Znet.Svcstats.reset ();
        with_serve_domain
          (fun log ->
            Remote.serve ~config:Argument.test_config ~lookup:lookup_sq3 ~once:true
              ~metrics_listen:"127.0.0.1:0" ~log "127.0.0.1:0")
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
            (* Hang up mid-protocol: the prover records a connection error
               and the once-loop winds down. *)
            Znet.close conn;
            conn_ref := None;
            join ();
            let accepted, active, completed, failed, _, _ = Znet.Svcstats.totals () in
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
            Znet.Svcstats.reset ();
            let dir = temp_dir () in
            let trace_id = Zobs.mint_trace_id () in
            with_serve_domain
              (fun log ->
                Remote.serve ~config:Argument.test_config ~lookup:lookup_sq3 ~once:true
                  ~trace_dir:dir ~log "127.0.0.1:0")
              (fun ~cap:_ ~addr ~conn_ref:_ ~join ->
                let inputs = Array.map (fun x -> [| fi x |]) [| 2; 5 |] in
                let r =
                  Remote.run_connect ~config:Argument.test_config ~trace_id ~addr square_plus_3
                    ~prg:(Chacha.Prg.create ~seed:"serve e2e verifier" ())
                    ~inputs
                in
                join ();
                Alcotest.(check bool) "batch accepted" true (Argument.all_accepted r);
                let accepted, active, completed, failed, decode_errors, _ =
                  Znet.Svcstats.totals ()
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
                let j = Zobs.Json.parse (Remote.metrics_json ()) in
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
            with_serve_domain
              (fun log ->
                Remote.serve
                  ~config:{ Argument.test_config with Argument.strategy }
                  ~lookup:lookup_sq3 ~once:true ~log "127.0.0.1:0")
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

let suite = http_tests @ scrape_tests @ session_tests @ soundness_tests
