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
let get p j = List.assoc p (Gate.expand (List.map (fun _ -> "*") p) j)

(* Append [k: v] to the object, or [v] to the array, at [p]. *)
let add p k v =
  update p (function
    | J.Obj kvs -> J.Obj (kvs @ [ (k, v) ])
    | J.Arr xs -> J.Arr (xs @ [ v ])
    | j -> j)

(* The committed baseline has no alloc section (the baseline target set
   does not run alloc), so a clean run gets one at half of each ceiling
   and every mutation is seen alone. *)
let clean =
  committed
  |> add [] "alloc"
       (J.Obj
          (List.map
             (fun (k, c) -> (k, J.Obj [ ("words_per_op", J.Num (c /. 2.0)) ]))
             Paper.alloc_ceilings))

let failures ?(gates = [ Gate.Ledger; Gate.Baseline ]) ?(base = clean) run =
  List.concat_map
    (fun gate ->
      let baseline = if gate = Gate.Baseline then Some base else None in
      snd (Gate.check ?baseline gate Paper.gates run))
    gates

let starts_with prefix s = String.starts_with ~prefix s

let expect_pass run () =
  Alcotest.(check (list string)) "no gate failures" [] (failures run)

let expect_fail ?base ~names run () =
  let fails = failures ?base run in
  if not (List.exists (starts_with (names ^ ":")) fails) then
    Alcotest.failf "no failure names %s; got [%s]" names (String.concat "; " fails)

(* The committed baseline under --baseline against itself: no row may
   fail, and none is exempt. *)
let self_check () =
  Alcotest.(check (list string))
    "committed baseline passes its own gate" []
    (failures ~gates:[ Gate.Baseline ] ~base:committed committed)

let mutation name ?base ~names run = Alcotest.test_case name `Quick (expect_fail ?base ~names run)

let ghost_phase = get (path "ledger.construct_u") committed

let ghost_app =
  update [ "name" ] (fun _ -> J.Str "ghost") (get (path "lint.apps.pam") committed)

let ghost_exec_app =
  update [ "name" ] (fun _ -> J.Str "ghost") (get (path "exec.apps.pam") committed)

let bump p = update (path p) (function J.Num x -> J.Num (x +. 1.0) | v -> v)
let scale p k = update (path p) (function J.Num x -> J.Num (x *. k) | v -> v)

(* Seconds are recorded but never gated: a run five times slower (or
   faster) in wall clock passes every gate. *)
let seconds_ungated () =
  let run =
    clean
    |> scale "lint.apps.pam.backend_s" 5.0
    |> scale "exec.apps.pam.interp_s" 5.0
    |> scale "exec.apps.bisection.interp_s" 0.2
  in
  if run = clean then Alcotest.fail "scaling moved no seconds";
  expect_pass run ()

(* Every alloc row exactly at its ceiling: a ceiling is inclusive. *)
let at_ceilings =
  List.fold_left
    (fun j (k, c) -> set [ "alloc"; k; "words_per_op" ] (J.Num c) j)
    clean Paper.alloc_ceilings

(* An alloc row one word over the ceiling Paper.alloc_ceilings gives it. *)
let over_ceiling k =
  mutation
    ("alloc " ^ k ^ " over its ceiling")
    ~names:("alloc." ^ k ^ ".words_per_op")
    (set [ "alloc"; k; "words_per_op" ] (J.Num (List.assoc k Paper.alloc_ceilings +. 1.0)) clean)

let () =
  Alcotest.run "bench-gate"
    [
      ( "gate",
        [
          Alcotest.test_case "committed baseline against itself" `Quick self_check;
          Alcotest.test_case "clean run passes every gate" `Quick (expect_pass clean);
          mutation "network byte count +1" ~names:"network.per_phase.query.sent"
            (bump "network.per_phase.query.sent" clean);
          mutation "ledger op +1" ~names:"ledger.construct_u.ops.f"
            (bump "ledger.construct_u.ops.f" clean);
          mutation "exec row visits +1" ~names:"exec.apps.pam.row_visits"
            (bump "exec.apps.pam.row_visits" clean);
          mutation "fuzz discrepancy +1" ~names:"exec.fuzz.discrepancies"
            (bump "exec.fuzz.discrepancies" clean);
          Alcotest.test_case "seconds x5 and /5 pass (ungated)" `Quick seconds_ungated;
          mutation "quick config mismatch" ~names:"config.quick"
            (set (path "config.quick") (J.Bool true) clean);
          mutation "ghost ledger phase in the run" ~names:"ledger.ghost.ops.f"
            (add [ "ledger" ] "ghost" ghost_phase clean);
          mutation "ghost ledger phase in the baseline" ~names:"ledger.ghost.ops.f"
            ~base:(add [ "ledger" ] "ghost" ghost_phase clean)
            clean;
          mutation "ghost lint app in the run" ~names:"lint.apps.ghost.findings"
            (add (path "lint.apps") "" ghost_app clean);
          mutation "ghost exec app in the baseline" ~names:"exec.apps.ghost.row_visits"
            ~base:(add (path "exec.apps") "" ghost_exec_app clean)
            clean;
          Alcotest.test_case "alloc rows at their ceilings pass" `Quick (expect_pass at_ceilings);
          over_ceiling "fp.mul";
          over_ceiling "flight.record";
          over_ceiling "profiler.sample";
          mutation "gated audit row fails" ~names:"profile.audit.0"
            (set (path "profile.audit.0.pass") (J.Bool false) clean);
        ] );
    ]
