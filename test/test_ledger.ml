open Fieldlib

(* Zledger: the op-level cost ledger (DESIGN.md §12). Exact commit-phase
   op counts against the Costmodel predictions, per-phase attribution,
   --domains independence of the merged per-domain counters, folded-stack
   export well-formedness, and the Prometheus gc_*/ledger_* families. *)

let with_ledger f =
  Zobs.reset ();
  Zobs.enable ();
  Fun.protect ~finally:(fun () -> Zobs.disable (); Zobs.reset ()) f

let ctx = Fp.create Primes.p127

(* (name, value) pairs with only the op vector, for order-insensitive
   comparison of two ledgers. *)
let op_lists () =
  List.map
    (fun (name, (p : Zobs.Ledger.phase)) -> (name, Zobs.Ledger.ops_to_list p.Zobs.Ledger.ops))
    (Zobs.Ledger.phases ())

let commit_tests =
  [
    Alcotest.test_case "commit phase: e/h/f match the model exactly" `Quick (fun () ->
        with_ledger (fun () ->
            (* A dense commitment for a hand-picked |u|: the model predicts
               e = |u| encryptions for the request, h = beta * |u|
               homomorphic steps for beta dense proof vectors, and zero
               PCP-field multiplications anywhere in the phase. *)
            let sizes =
              {
                Costmodel.Model.z_ginger = 10;
                c_ginger = 5;
                z_zaatar = 10;
                c_zaatar = 5;
                k = 0;
                k2 = 0;
                n_x = 2;
                n_y = 2;
                t_local = 0.0;
              }
            in
            let u_len = Costmodel.Model.u_zaatar sizes in
            let beta = 3 in
            let predicted = Costmodel.Model.commit_phase_ops sizes ~beta in
            Alcotest.(check int) "model e" u_len predicted.Costmodel.Model.e_count;
            Alcotest.(check int) "model h" (beta * u_len) predicted.Costmodel.Model.h_count;
            let grp = Zcrypto.Group.cached ~field_order:Primes.p127 ~p_bits:160 () in
            let prg = Chacha.Prg.create ~seed:"ledger commit test" () in
            let before = Zobs.Ledger.snapshot () in
            let ops_of f =
              f ();
              let d = Zobs.Ledger.sub_ops (Zobs.Ledger.snapshot ()) before in
              d
            in
            let delta =
              ops_of (fun () ->
                  let req, _vs =
                    Commitment.Commit.commit_request ctx grp prg ~len:u_len
                  in
                  for _ = 1 to beta do
                    (* dense: every entry nonzero, so every entry is one
                       homomorphic accumulate step *)
                    let u =
                      Array.init u_len (fun _ -> Chacha.Prg.field_nonzero ctx prg)
                    in
                    ignore (Commitment.Commit.prover_commit req u)
                  done)
            in
            Alcotest.(check int) "ledgered e" predicted.Costmodel.Model.e_count
              delta.Zobs.Ledger.e;
            Alcotest.(check int) "ledgered h" predicted.Costmodel.Model.h_count
              delta.Zobs.Ledger.h;
            Alcotest.(check int) "ledgered f" predicted.Costmodel.Model.f_count
              delta.Zobs.Ledger.f;
            Alcotest.(check int) "no decryptions" 0 delta.Zobs.Ledger.d));
    Alcotest.test_case "with_phase attributes ops, seconds and GC" `Quick (fun () ->
        with_ledger (fun () ->
            let a = Chacha.Prg.field_nonzero ctx (Chacha.Prg.create ~seed:"wp" ()) in
            Zobs.Ledger.with_phase "phase_test" (fun () ->
                for _ = 1 to 10 do
                  ignore (Fp.mul ctx a a)
                done;
                (* Gc.quick_stat only reflects completed minor cycles, so
                   allocate well past the minor heap to force some *)
                for _ = 1 to 10 do
                  ignore (Sys.opaque_identity (List.init 100_000 (fun i -> (i, i))))
                done);
            let p = Option.get (Zobs.Ledger.phase "phase_test") in
            Alcotest.(check int) "f ops" 10 p.Zobs.Ledger.ops.Zobs.Ledger.f;
            Alcotest.(check int) "calls" 1 p.Zobs.Ledger.calls;
            Alcotest.(check bool) "seconds >= 0" true (p.Zobs.Ledger.seconds >= 0.0);
            Alcotest.(check bool) "allocated minor words" true
              (p.Zobs.Ledger.gc.Zobs.Span.minor_words > 0.0);
            (* a phase the code never opened stays absent *)
            Alcotest.(check bool) "unknown phase" true (Zobs.Ledger.phase "nope" = None)));
    Alcotest.test_case "a phase's words are its own: alone = after a fan-out, beside a live domain" `Quick
      (fun () ->
        with_ledger (fun () ->
            let words name =
              Zobs.Ledger.with_phase name (fun () ->
                  ignore (Sys.opaque_identity (List.init 10_000 (fun i -> i))));
              (Option.get (Zobs.Ledger.phase name)).Zobs.Ledger.gc.Zobs.Span.minor_words
            in
            let alone = words "alone" in
            let stop = Atomic.make false in
            let background =
              Domain.spawn (fun () ->
                  while not (Atomic.get stop) do
                    ignore (Sys.opaque_identity (List.init 1_000 (fun i -> i)))
                  done)
            in
            let beside =
              Fun.protect
                ~finally:(fun () ->
                  Atomic.set stop true;
                  Domain.join background)
                (fun () ->
                  Zobs.Ledger.with_phase "fan-out" (fun () ->
                      ignore
                        (Dompool.Pool.map ~domains:2
                           (fun x -> List.length (List.init 50_000 (fun i -> i + x)))
                           [| 1; 2; 3; 4 |]));
                  words "beside")
            in
            Alcotest.(check bool) "the phase allocated" true (alone > 10_000.0);
            Alcotest.(check (float 0.0)) "minor words" alone beside));
    Alcotest.test_case "audit_pass gates only gated rows" `Quick (fun () ->
        let row ~gated ~pass =
          {
            Costmodel.Model.phase = "p";
            op = "f";
            predicted = 1.0;
            ledgered = 1;
            ratio = 1.0;
            lo = 1.0;
            hi = 1.0;
            gated;
            pass;
            note = "";
          }
        in
        Alcotest.(check bool) "informational breach passes" true
          (Costmodel.Model.audit_pass [ row ~gated:false ~pass:false ]);
        Alcotest.(check bool) "gated breach fails" false
          (Costmodel.Model.audit_pass [ row ~gated:true ~pass:false; row ~gated:true ~pass:true ]);
        Alcotest.(check bool) "empty passes" true (Costmodel.Model.audit_pass []));
  ]

(* The ledger must be --domains independent: the per-domain counter shards
   merge deterministically and Pool fan-outs join inside their phase, so
   the same seeds give the identical per-phase op vector at any domain
   count. The batch has two instances, so every prover fan-out
   (solve_constraints, construct_u, crypto_ops, answer_queries) runs on
   the pool. *)
let domains_tests =
  [
    Alcotest.test_case "per-phase op vectors identical at --domains 1 and 4" `Slow (fun () ->
        let run domains =
          with_ledger (fun () ->
              let app = Apps.Registry.pam ~scale:1 in
              let compiled = Apps.Glue.compile ctx app in
              let comp = Apps.Glue.computation_of compiled in
              let prg = Chacha.Prg.create ~seed:"ledger domains test" () in
              let inputs =
                Array.init 2 (fun _ ->
                    Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg))
              in
              let config =
                {
                  Argsys.Argument.params = Pcp.Pcp_zaatar.test_params;
                  p_bits = 160;
                  strategy = Argsys.Argument.Honest;
                  domains;
                  qap_backend = Qapb.Auto;
                }
              in
              let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
              Alcotest.(check bool) "accepted" true (Argsys.Argument.all_accepted result);
              op_lists ())
        in
        let one = run 1 and four = run 4 in
        List.iter
          (fun phase -> Alcotest.(check bool) (phase ^ " ledgered") true (List.mem_assoc phase four))
          [ "solve_constraints"; "construct_u"; "crypto_ops"; "answer_queries" ];
        Alcotest.(check int) "same phase set" (List.length one) (List.length four);
        List.iter2
          (fun (n1, ops1) (n2, ops2) ->
            Alcotest.(check string) "phase name" n1 n2;
            List.iter2
              (fun (op, v1) (_, v2) ->
                Alcotest.(check int) (Printf.sprintf "%s.%s" n1 op) v1 v2)
              ops1 ops2)
          one four);
  ]

let export_tests =
  [
    Alcotest.test_case "folded stacks: well-formed lines, nested paths" `Quick (fun () ->
        with_ledger (fun () ->
            Zobs.Span.with_ ~name:"outer" (fun () ->
                Unix.sleepf 0.002;
                Zobs.Span.with_ ~name:"inner" (fun () -> Unix.sleepf 0.002));
            let folded = Zobs.Sink.folded_stacks () in
            Alcotest.(check bool) "non-empty" true (String.length folded > 0);
            let lines = String.split_on_char '\n' folded |> List.filter (fun l -> l <> "") in
            List.iter
              (fun l ->
                match String.rindex_opt l ' ' with
                | None -> Alcotest.failf "no weight in %S" l
                | Some i ->
                  let weight = String.sub l (i + 1) (String.length l - i - 1) in
                  (match int_of_string_opt weight with
                  | Some w -> Alcotest.(check bool) "weight positive" true (w > 0)
                  | None -> Alcotest.failf "weight %S not an integer" weight))
              lines;
            Alcotest.(check bool) "nested path present" true
              (List.exists (fun l -> String.length l >= 11 && String.sub l 0 11 = "outer;inner") lines)));
    Alcotest.test_case "Prometheus exposition: gc_* and ledger_* families" `Quick (fun () ->
        with_ledger (fun () ->
            let a = Chacha.Prg.field_nonzero ctx (Chacha.Prg.create ~seed:"prom" ()) in
            Zobs.Ledger.with_phase "prom_phase" (fun () ->
                for _ = 1 to 7 do
                  ignore (Fp.mul ctx a a)
                done);
            let body = Zobs.Prometheus.render () in
            let contains needle =
              let nl = String.length needle and bl = String.length body in
              let rec go i = i + nl <= bl && (String.sub body i nl = needle || go (i + 1)) in
              go 0
            in
            List.iter
              (fun needle ->
                Alcotest.(check bool) needle true (contains needle))
              [
                "# TYPE zaatar_gc_minor_words_total counter";
                "zaatar_gc_heap_words";
                "zaatar_ledger_ops_total{op=\"f\"}";
                "zaatar_ledger_phase_ops_total{phase=\"prom_phase\",op=\"f\"} 7";
                "zaatar_ledger_phase_seconds_total{phase=\"prom_phase\"}";
              ]));
  ]

let suite = commit_tests @ domains_tests @ export_tests
