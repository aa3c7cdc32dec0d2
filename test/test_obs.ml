open Fieldlib

(* The Zobs observability library: span nesting and exclusive-time
   arithmetic, counter accumulation across domains, Chrome-trace export
   well-formedness (via the in-house JSON parser), and the guarantee that
   the disabled path records nothing. *)

(* Every test runs with a clean slate and leaves tracing off so the other
   suites keep the single-atomic-load fast path. *)
let with_tracing f =
  Zobs.reset ();
  Zobs.enable ();
  Fun.protect ~finally:(fun () -> Zobs.disable (); Zobs.reset ()) f

let span_tests =
  [
    Alcotest.test_case "nested spans: totals, counts and exclusive time" `Quick (fun () ->
        with_tracing (fun () ->
            Zobs.Span.with_ ~name:"outer" (fun () ->
                Unix.sleepf 0.01;
                Zobs.Span.with_ ~name:"inner" (fun () -> Unix.sleepf 0.02);
                Zobs.Span.with_ ~name:"inner" (fun () -> Unix.sleepf 0.02));
            let outer = Option.get (Zobs.Span.stats "outer") in
            let inner = Option.get (Zobs.Span.stats "inner") in
            Alcotest.(check int) "outer count" 1 outer.Zobs.Span.count;
            Alcotest.(check int) "inner count" 2 inner.Zobs.Span.count;
            Alcotest.(check bool) "inner total >= 2 sleeps" true (inner.Zobs.Span.total >= 0.04);
            Alcotest.(check bool) "outer total covers children" true
              (outer.Zobs.Span.total >= inner.Zobs.Span.total +. 0.01);
            (* exclusive = duration minus direct children, within scheduling
               slop *)
            let expected_excl = outer.Zobs.Span.total -. inner.Zobs.Span.total in
            Alcotest.(check bool) "exclusive math" true
              (Float.abs (outer.Zobs.Span.exclusive -. expected_excl) < 1e-9);
            Alcotest.(check bool) "inner exclusive = total (leaf)" true
              (Float.abs (inner.Zobs.Span.exclusive -. inner.Zobs.Span.total) < 1e-9)));
    Alcotest.test_case "span returns the body's value and survives exceptions" `Quick (fun () ->
        with_tracing (fun () ->
            Alcotest.(check int) "value" 42 (Zobs.Span.with_ ~name:"v" (fun () -> 42));
            (try Zobs.Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
            (* The frame was popped: a sibling span is recorded at depth 0 and
               the aggregate for "boom" still exists. *)
            Alcotest.(check bool) "boom recorded" true (Zobs.Span.stats "boom" <> None);
            Zobs.Span.with_ ~name:"after" (fun () -> ());
            let ev =
              List.find (fun (e : Zobs.Span.event) -> e.Zobs.Span.name = "after") (Zobs.Span.events_snapshot ())
            in
            Alcotest.(check int) "depth back to 0" 0 ev.Zobs.Span.depth));
  ]

let counter_tests =
  [
    Alcotest.test_case "counter accumulates across pool domains" `Quick (fun () ->
        with_tracing (fun () ->
            let c = Zobs.Counter.make "test.pool" in
            let arr = Array.init 1000 (fun i -> i) in
            ignore (Dompool.Pool.map ~domains:4 (fun _ -> Zobs.Counter.incr c) arr);
            Alcotest.(check int) "1000 increments" 1000 (Zobs.Counter.value c)));
    Alcotest.test_case "span registry drops exited domains: 50 four-domain maps, a span per task" `Quick
      (fun () ->
        with_tracing (fun () ->
            Zobs.Span.with_ ~name:"test.main" ignore;
            let before = Zobs.Span.live_domains () in
            let self = (Domain.self () :> int) in
            let seen = ref true in
            for _ = 1 to 50 do
              let inside =
                Dompool.Pool.map ~domains:4
                  (fun _ ->
                    Zobs.Span.with_ ~name:"test.task" (fun () ->
                        List.mem (Domain.self () :> int) (Zobs.Span.live_domains ())))
                  (Array.make 8 ())
              in
              seen := !seen && Array.for_all Fun.id inside
            done;
            Alcotest.(check bool) "each task's domain registered while it ran" true !seen;
            Alcotest.(check bool) "this domain is registered" true (List.mem self before);
            (* the pool's workers park between maps; joining them drops
               their slots (a subset: a domain another suite left running
               may exit meanwhile) *)
            Dompool.Pool.shutdown ();
            Alcotest.(check bool) "no worker's slot remains" true
              (List.for_all (fun d -> List.mem d before) (Zobs.Span.live_domains ()))));
    Alcotest.test_case "pool: 200 four-domain maps start the workers once" `Quick (fun () ->
        with_tracing (fun () ->
            Zobs.Span.with_ ~name:"test.main" ignore;
            let maps () =
              for _ = 1 to 100 do
                ignore
                  (Dompool.Pool.map ~domains:4
                     (fun x -> Zobs.Span.with_ ~name:"test.task" (fun () -> x + 1))
                     (Array.make 8 0))
              done
            in
            let s0 = Dompool.Pool.spawned () in
            maps ();
            let s1 = Dompool.Pool.spawned () in
            maps ();
            Alcotest.(check bool) "at most three workers started" true (s1 - s0 <= 3);
            Alcotest.(check int) "none started after" s1 (Dompool.Pool.spawned ());
            Alcotest.(check bool) "three workers parked" true (Dompool.Pool.size () >= 3);
            let live = List.length (Zobs.Span.live_domains ()) in
            Alcotest.(check bool)
              (Printf.sprintf "%d live domains <= pool %d + caller" live (Dompool.Pool.size ()))
              true
              (live <= Dompool.Pool.size () + 1)));
    Alcotest.test_case "instrumented field ops tick their counters" `Quick (fun () ->
        with_tracing (fun () ->
            let ctx = Fp.create Primes.p127 in
            let a = Fp.of_int ctx 17 and b = Fp.of_int ctx 23 in
            for _ = 1 to 10 do
              ignore (Fp.mul ctx a b)
            done;
            let v = List.assoc "fp.mul" (Zobs.Registry.counter_values ()) in
            Alcotest.(check bool) "fp.mul >= 10" true (v >= 10)));
    Alcotest.test_case "histogram buckets by powers of two" `Quick (fun () ->
        with_tracing (fun () ->
            let h = Zobs.Histogram.make "test.hist" in
            List.iter (Zobs.Histogram.observe h) [ 0; 1; 2; 3; 1024; 1025 ];
            Alcotest.(check int) "total" 6 (Zobs.Histogram.total h);
            let snap = Zobs.Histogram.snapshot h in
            Alcotest.(check int) "1024-bucket holds both" 2 (List.assoc 1024 snap);
            Alcotest.(check int) "singleton 0 bucket" 1 (List.assoc 0 snap)));
  ]

let disabled_tests =
  [
    Alcotest.test_case "disabled: counters and spans record nothing" `Quick (fun () ->
        Zobs.disable ();
        Zobs.reset ();
        let c = Zobs.Counter.make "test.off" in
        Zobs.Counter.incr c;
        Zobs.Counter.add c 100;
        Alcotest.(check int) "counter stays 0" 0 (Zobs.Counter.value c);
        let h = Zobs.Histogram.make "test.off.hist" in
        Zobs.Histogram.observe h 42;
        Alcotest.(check int) "histogram stays empty" 0 (Zobs.Histogram.total h);
        Alcotest.(check int) "span body still runs" 7 (Zobs.Span.with_ ~name:"off" (fun () -> 7));
        Alcotest.(check bool) "no span recorded" true (Zobs.Span.stats "off" = None);
        (* Instrumented production code records nothing either. *)
        let ctx = Fp.create Primes.p127 in
        ignore (Fp.mul ctx (Fp.of_int ctx 3) (Fp.of_int ctx 5));
        Alcotest.(check int) "fp.mul stays 0" 0 (List.assoc "fp.mul" (Zobs.Registry.counter_values ())));
  ]

let chrome_trace_tests =
  [
    Alcotest.test_case "chrome trace export parses back and is well-formed" `Quick (fun () ->
        with_tracing (fun () ->
            Zobs.Span.with_ ~name:"parent" ~attrs:[ ("k", "v") ] (fun () ->
                Zobs.Span.with_ ~name:"child" (fun () -> Unix.sleepf 0.001));
            let path = Filename.temp_file "zobs" ".json" in
            Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
                Zobs.write_chrome_trace path;
                let ic = open_in_bin path in
                let s = really_input_string ic (in_channel_length ic) in
                close_in ic;
                let j = Zobs.Json.parse s in
                let events =
                  Option.get (Option.bind (Zobs.Json.member "traceEvents" j) Zobs.Json.to_arr)
                in
                (* process_name metadata event + the two recorded spans *)
                Alcotest.(check int) "three events" 3 (List.length events);
                let meta, spans =
                  List.partition
                    (fun e ->
                      Zobs.Json.to_str (Option.get (Zobs.Json.member "ph" e)) = Some "M")
                    events
                in
                Alcotest.(check int) "one metadata event" 1 (List.length meta);
                Alcotest.(check int) "two span events" 2 (List.length spans);
                List.iter
                  (fun e ->
                    let field k = Option.get (Zobs.Json.member k e) in
                    Alcotest.(check bool) "has name" true (Zobs.Json.to_str (field "name") <> None);
                    Alcotest.(check (option string)) "complete event" (Some "X")
                      (Zobs.Json.to_str (field "ph"));
                    Alcotest.(check bool) "ts >= 0" true
                      (Option.get (Zobs.Json.to_num (field "ts")) >= 0.0);
                    Alcotest.(check bool) "dur >= 0" true
                      (Option.get (Zobs.Json.to_num (field "dur")) >= 0.0))
                  spans)));
  ]

let json_tests =
  [
    Alcotest.test_case "JSON writer/parser round trip" `Quick (fun () ->
        let open Zobs.Json in
        let v =
          Obj
            [
              ("s", Str "a\"b\\c\n\t");
              ("n", Num 3.5);
              ("i", Num 42.0);
              ("b", Bool true);
              ("z", Null);
              ("a", Arr [ Num 1.0; Str "x"; Obj [ ("k", Bool false) ] ]);
            ]
        in
        Alcotest.(check bool) "round trip" true (parse (to_string v) = v));
    Alcotest.test_case "JSON parser: escapes, unicode, errors" `Quick (fun () ->
        let open Zobs.Json in
        Alcotest.(check (option string)) "unicode escape" (Some "A\xc3\xa9")
          (to_str (parse {|"Aé"|}));
        Alcotest.(check bool) "whitespace tolerated" true
          (parse "  [ 1 , 2 ]  " = Arr [ Num 1.0; Num 2.0 ]);
        let fails s = match parse s with exception Parse_error _ -> true | _ -> false in
        Alcotest.(check bool) "trailing garbage rejected" true (fails "{} x");
        Alcotest.(check bool) "bad literal rejected" true (fails "flase");
        Alcotest.(check bool) "unterminated string rejected" true (fails {|"abc|}));
  ]

let metrics_tests =
  [
    Alcotest.test_case "Metrics.to_list is sorted by phase name" `Quick (fun () ->
        let m = Argsys.Metrics.create () in
        Argsys.Metrics.add m "c" 3.0;
        Argsys.Metrics.add m "a" 1.0;
        Argsys.Metrics.add m "b" 2.0;
        Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ]
          (List.map fst (Argsys.Metrics.to_list m)));
    Alcotest.test_case "Metrics.time also opens a Zobs span" `Quick (fun () ->
        with_tracing (fun () ->
            let m = Argsys.Metrics.create () in
            let r = Argsys.Metrics.time m "phase_x" (fun () -> 5) in
            Alcotest.(check int) "result" 5 r;
            Alcotest.(check bool) "metrics entry" true (Argsys.Metrics.get m "phase_x" >= 0.0);
            let s = Option.get (Zobs.Span.stats "phase_x") in
            Alcotest.(check int) "span recorded" 1 s.Zobs.Span.count));
  ]

let percentile_tests =
  [
    Alcotest.test_case "percentiles: empty, singleton, all-equal" `Quick (fun () ->
        with_tracing (fun () ->
            let pct = Zobs.Histogram.percentile_of_snapshot in
            Alcotest.(check (option int)) "empty histogram" None (pct [] 50.0);
            let one = Zobs.Histogram.make "test.pct.one" in
            Zobs.Histogram.observe one 100;
            let snap = Zobs.Histogram.snapshot one in
            (* 100 lands in the [64, 128) bucket; every percentile of a
               single sample reports that bucket's lower bound. *)
            List.iter
              (fun p -> Alcotest.(check (option int)) (Printf.sprintf "p%.0f" p) (Some 64) (pct snap p))
              [ 0.0; 50.0; 99.0; 100.0 ];
            let eq = Zobs.Histogram.make "test.pct.eq" in
            for _ = 1 to 1000 do
              Zobs.Histogram.observe eq 7
            done;
            let snap = Zobs.Histogram.snapshot eq in
            Alcotest.(check (option int)) "p50 of all-equal" (Some 4) (pct snap 50.0);
            Alcotest.(check (option int)) "p99 of all-equal" (Some 4) (pct snap 99.0)));
    Alcotest.test_case "percentiles split a bimodal distribution" `Quick (fun () ->
        with_tracing (fun () ->
            let h = Zobs.Histogram.make "test.pct.bimodal" in
            for _ = 1 to 90 do
              Zobs.Histogram.observe h 3
            done;
            for _ = 1 to 10 do
              Zobs.Histogram.observe h 5000
            done;
            let snap = Zobs.Histogram.snapshot h in
            let pct = Zobs.Histogram.percentile_of_snapshot in
            Alcotest.(check (option int)) "p50 in the low mode" (Some 2) (pct snap 50.0);
            Alcotest.(check (option int)) "p90 still low" (Some 2) (pct snap 90.0);
            Alcotest.(check (option int)) "p99 in the high mode" (Some 4096) (pct snap 99.0)));
    Alcotest.test_case "percentiles stay coherent under concurrent observers" `Quick (fun () ->
        with_tracing (fun () ->
            let h = Zobs.Histogram.make "test.pct.par" in
            ignore
              (Dompool.Pool.map ~domains:4
                 (fun v -> Zobs.Histogram.observe h v)
                 (Array.init 1000 (fun i -> i mod 32)));
            Alcotest.(check int) "all observed" 1000 (Zobs.Histogram.total h);
            match Zobs.Histogram.percentile h 50.0 with
            | Some v -> Alcotest.(check bool) "p50 within observed range" true (v <= 16)
            | None -> Alcotest.fail "histogram empty after 1000 observations"));
  ]

let contains s affix =
  let n = String.length s and k = String.length affix in
  let rec go i = i + k <= n && (String.sub s i k = affix || go (i + 1)) in
  go 0

let prometheus_tests =
  [
    Alcotest.test_case "render: counters, quantile gauges, extra block" `Quick (fun () ->
        with_tracing (fun () ->
            let c = Zobs.Counter.make "test.prom.hits" in
            Zobs.Counter.add c 41;
            Zobs.Counter.incr c;
            let h = Zobs.Histogram.make "test.prom.lat" in
            List.iter (Zobs.Histogram.observe h) [ 1; 2; 4; 1000 ];
            let text = Zobs.Prometheus.render ~extra:"injected_metric 9\n" () in
            Alcotest.(check bool) "counter line" true (contains text "test_prom_hits 42");
            Alcotest.(check bool) "TYPE comment" true (contains text "# TYPE");
            Alcotest.(check bool) "p50 gauge" true (contains text "test_prom_lat_p50");
            Alcotest.(check bool) "histogram count" true (contains text "test_prom_lat_count 4");
            Alcotest.(check bool) "extra appended" true (contains text "injected_metric 9");
            (* Parse shape: every non-comment line is `name{labels} value`
               with a float-parsable value. *)
            String.split_on_char '\n' text
            |> List.iter (fun line ->
                   if line <> "" && line.[0] <> '#' then
                     match String.rindex_opt line ' ' with
                     | None -> Alcotest.failf "unparsable line %S" line
                     | Some i ->
                       let v = String.sub line (i + 1) (String.length line - i - 1) in
                       if float_of_string_opt v = None then
                         Alcotest.failf "non-numeric value in %S" line)));
  ]

let log_tests =
  [
    Alcotest.test_case "JSONL sink: leveled lines with structured fields" `Quick (fun () ->
        let path = Filename.temp_file "zobs_log" ".jsonl" in
        Fun.protect
          ~finally:(fun () ->
            Zobs.Log.set_sink `Off;
            Zobs.Log.set_level Zobs.Log.Info;
            Sys.remove path)
          (fun () ->
            Zobs.Log.set_sink (`File path);
            Zobs.Log.set_level Zobs.Log.Debug;
            Zobs.Log.info ~fields:[ Zobs.Log.str "peer" "1.2.3.4:5"; Zobs.Log.int "conn" 7 ]
              "connection accepted";
            Zobs.Log.error "boom";
            Zobs.Log.set_level Zobs.Log.Error;
            Zobs.Log.info "suppressed below threshold";
            Zobs.Log.set_sink `Off;
            Zobs.Log.error "dropped after sink off";
            let ic = open_in_bin path in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
            Alcotest.(check int) "two lines survive" 2 (List.length lines);
            let j = Zobs.Json.parse (List.nth lines 0) in
            let str k = Option.bind (Zobs.Json.member k j) Zobs.Json.to_str in
            Alcotest.(check (option string)) "level" (Some "info") (str "level");
            Alcotest.(check (option string)) "msg" (Some "connection accepted") (str "msg");
            Alcotest.(check (option string)) "peer field" (Some "1.2.3.4:5") (str "peer");
            Alcotest.(check (option (float 0.0))) "conn field" (Some 7.0)
              (Option.bind (Zobs.Json.member "conn" j) Zobs.Json.to_num);
            let j2 = Zobs.Json.parse (List.nth lines 1) in
            Alcotest.(check (option string)) "error level" (Some "error")
              (Option.bind (Zobs.Json.member "level" j2) Zobs.Json.to_str)));
  ]

let suite =
  span_tests @ counter_tests @ disabled_tests @ chrome_trace_tests @ json_tests @ metrics_tests
  @ percentile_tests @ prometheus_tests @ log_tests
