(* The bench's gate table (Paper.gates) under the pure checker (Gate),
   against the committed BENCH_baseline.json: the baseline checked against
   itself, then one seeded regression at a time, each of which must fail
   and name its path. *)

module J = Zobs.Json

let committed = J.parse (In_channel.with_open_bin "../BENCH_baseline.json" In_channel.input_all)
let path = String.split_on_char '.'

(* Rewrite the value at a concrete path (array elements by Gate.label). *)
let rec update p f j =
  match (p, j) with
  | [], v -> f v
  | k :: rest, J.Obj kvs ->
    J.Obj (List.map (fun (k', v) -> (k', if k' = k then update rest f v else v)) kvs)
  | k :: rest, J.Arr xs ->
    J.Arr (List.mapi (fun i x -> if Gate.label i x = k then update rest f x else x) xs)
  | _ -> j

let set p v = update p (fun _ -> v)
let scale p k = update p (function J.Num x -> J.Num (x *. k) | v -> v)
let get p j = List.assoc p (Gate.expand (List.map (fun _ -> "*") p) j)

(* Append [k: v] to the object, or [v] to the array, at [p]. *)
let add p k v =
  update p (function
    | J.Obj kvs -> J.Obj (kvs @ [ (k, v) ])
    | J.Arr xs -> J.Arr (xs @ [ v ])
    | j -> j)

(* The committed baseline has no alloc section (the baseline target set
   does not run alloc), so a clean run gets one at half of each ceiling.
   Its own obs_overhead ratio, 1.08, breaches the 1.03 ceiling (a
   wall-clock reading, see the self-check below), so the clean run takes a
   ratio of 1.0 and every mutation is seen alone. *)
let clean =
  committed
  |> set (path "obs_overhead.overhead_ratio") (J.Num 1.0)
  |> add [] "alloc"
       (J.Obj
          (List.map
             (fun (k, c) -> (k, J.Obj [ ("words_per_op", J.Num (c /. 2.0)) ]))
             Paper.alloc_ceilings))

let failures ?(gates = [ Gate.Model; Gate.Ledger; Gate.Baseline ]) ?(base = clean) run =
  List.concat_map
    (fun gate ->
      let baseline = if gate = Gate.Baseline then Some base else None in
      snd
        (Gate.check ?baseline ~drift:Gate.default_drift ~band:Gate.default_band gate Paper.gates
           run))
    gates

let starts_with prefix s = String.starts_with ~prefix s

let expect_pass run () =
  Alcotest.(check (list string)) "no gate failures" [] (failures run)

let expect_fail ?base ~names run () =
  let fails = failures ?base run in
  if not (List.exists (starts_with (names ^ ":")) fails) then
    Alcotest.failf "no failure names %s; got [%s]" names (String.concat "; " fails)

let self_check () =
  (* Every gate the committed baseline is refreshed under: --baseline and
     --check-model. The one row it may breach is its own wall-clock
     obs_overhead ratio. *)
  let fails = failures ~gates:[ Gate.Model; Gate.Baseline ] ~base:committed committed in
  List.iter
    (fun f ->
      if not (starts_with "obs_overhead.overhead_ratio:" f) then
        Alcotest.failf "committed baseline fails its own gate: %s" f)
    fails

let ghost_phase = get (path "ledger.construct_u") committed

let ghost_app =
  update [ "name" ] (fun _ -> J.Str "ghost") (get (path "lint.apps.pam") committed)

let ghost_model_app =
  update [ "name" ] (fun _ -> J.Str "ghost") (get (path "model.apps.pam") committed)

let mutation name ?base ~names run = Alcotest.test_case name `Quick (expect_fail ?base ~names run)

let () =
  Alcotest.run "bench-gate"
    [
      ( "gate",
        [
          Alcotest.test_case "committed baseline against itself" `Quick self_check;
          Alcotest.test_case "clean run passes every gate" `Quick (expect_pass clean);
          mutation "network byte count +1" ~names:"network.per_phase.query.sent"
            (update (path "network.per_phase.query.sent")
               (function J.Num x -> J.Num (x +. 1.0) | v -> v)
               clean);
          mutation "ledger op +1" ~names:"ledger.construct_u.ops.f"
            (update (path "ledger.construct_u.ops.f")
               (function J.Num x -> J.Num (x +. 1.0) | v -> v)
               clean);
          mutation "farm transcripts differ" ~names:"farm.transcripts_identical"
            (set (path "farm.transcripts_identical") (J.Bool false) clean);
          mutation "model delta x5" ~names:"model.apps.pam.phases.total.delta"
            (scale (path "model.apps.pam.phases.total.delta") 5.0 clean);
          mutation "lint backend_s x5" ~names:"lint.apps.pam.backend_s"
            (scale (path "lint.apps.pam.backend_s") 5.0 clean);
          Alcotest.test_case "lint backend_s /5 passes (upper-only)" `Quick
            (expect_pass (scale (path "lint.apps.pam.backend_s") 0.2 clean));
          mutation "obs_overhead ratio 1.04" ~names:"obs_overhead.overhead_ratio"
            (set (path "obs_overhead.overhead_ratio") (J.Num 1.04) clean);
          mutation "quick config mismatch" ~names:"config.quick"
            (set (path "config.quick") (J.Bool true) clean);
          mutation "ghost ledger phase in the run" ~names:"ledger.ghost.ops.f"
            (add [ "ledger" ] "ghost" ghost_phase clean);
          mutation "ghost ledger phase in the baseline" ~names:"ledger.ghost.ops.f"
            ~base:(add [ "ledger" ] "ghost" ghost_phase clean)
            clean;
          mutation "ghost lint app in the run" ~names:"lint.apps.ghost.findings"
            (add (path "lint.apps") "" ghost_app clean);
          mutation "ghost model app in the baseline" ~names:"model.apps.ghost.phases.total.delta"
            ~base:(add (path "model.apps") "" ghost_model_app clean)
            clean;
          mutation "alloc row over its ceiling" ~names:"alloc.fp.mul.words_per_op"
            (set [ "alloc"; "fp.mul"; "words_per_op" ] (J.Num 121.0) clean);
          mutation "gated audit row fails" ~names:"profile.audit.0"
            (set (path "profile.audit.0.pass") (J.Bool false) clean);
        ] );
    ]
