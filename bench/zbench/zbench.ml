(* zbench: the repository's end-to-end benchmark. Each workload runs
   against a real `zaatar serve` child process (or, for the toolchain, in
   process), checks every output, and reports the end-to-end metrics
   BENCHMARK.json lists; a traced run (--trace 1) adds the layer probe and
   reports the per-layer metrics instead. See README.md for why each
   workload exists and how each metric is defined.

     zbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
            [--json OUT] [--cli PATH] [--spec PATH] [--smoke]
     zbench compare A.json... -- B.json... [--spec PATH]

   The last line of standard output is the run's result as one JSON
   object. *)

open Fieldlib
open Argsys
open Session

type kind =
  | Verify of int  (** a live Verifier_session per batch of this many instances *)
  | Replay  (** recorded beta=1 sessions replayed over the connections *)
  | Toolchain  (** compile, lint and exec in process *)

type workload = {
  name : string;
  kind : kind;
  proto : proto;  (** the server's protocol (toolchain: the probe's and the field) *)
  apps : Apps.App_def.t list;  (** served programs; for the toolchain, the compiled ones *)
  probe_apps : Apps.App_def.t list;  (** programs the layer probe runs through the protocol *)
  conns : int;
}

(* `zaatar serve` defaults: Mersenne p127, so `auto` picks Lagrange. *)
let serve_defaults =
  {
    field = Primes.p127;
    backend = Qapb.Auto;
    params = { Pcp.Pcp_zaatar.rho = 2; rho_lin = 5 };
    p_bits = 256;
    flags = [];
  }

let ntt =
  { serve_defaults with field = Primes.p127_ntt; backend = Qapb.Ntt; flags = [ "--qap-backend"; "ntt" ] }

(* The three smallest suite programs: served workloads set every program
   up three times per run, and the larger programs' Lagrange set-up alone
   would not fit a run's time budget. *)
let served_apps = Apps.Registry.[ lcs ~scale:1; bisection ~scale:1; pam ~scale:1 ]
let sweep = List.concat_map snd (Apps.Registry.sweep ())

let workloads =
  let served name kind proto conns = { name; kind; proto; apps = served_apps; probe_apps = served_apps; conns } in
  [
    served "verify-batch8" (Verify 8) ntt 2;
    served "serve-ntt" Replay ntt 2;
    served "serve-lagrange" Replay serve_defaults 2;
    { name = "toolchain"; kind = Toolchain; proto = serve_defaults; apps = sweep; probe_apps = served_apps; conns = 1 };
  ]

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

type env = {
  cli : string;
  dir : string;  (** per-run scratch: sources and server logs *)
  seed : int;
  seconds : float;
  reps : int;  (** set-up repetitions *)
  trace : bool;
  tally : tally;
}

and tally = { mutable attempted : int; mutable failed : int; mu : Mutex.t }

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A seed-derived stream, independent for every purpose string. *)
let prg env w what = Chacha.Prg.create ~seed:(Printf.sprintf "zbench %s %d %s" w.name env.seed what) ()

(* The program of op [i]: each round visits every program once, in its
   own seed-derived order. *)
let schedule env w n =
  let perms = Hashtbl.create 16 and mu = Mutex.create () in
  fun i ->
    let perm =
      Mutex.protect mu (fun () ->
          let r = i / n in
          match Hashtbl.find_opt perms r with
          | Some p -> p
          | None ->
            let p = Array.init n Fun.id and g = prg env w (Printf.sprintf "order %d" r) in
            for k = n - 1 downto 1 do
              let j = Chacha.Prg.int_below g (k + 1) in
              let t = p.(k) in
              p.(k) <- p.(j);
              p.(j) <- t
            done;
            Hashtbl.replace perms r p;
            p)
    in
    perm.(i mod n)

(* Run [f] as one checked attempt: [None], a failed check or any error
   (session, network, codec or otherwise) counts as failed. *)
let attempt env what f =
  let t = env.tally in
  Mutex.protect t.mu (fun () -> t.attempted <- t.attempted + 1);
  let fail msg =
    Mutex.protect t.mu (fun () -> t.failed <- t.failed + 1);
    Printf.eprintf "zbench: %s failed: %s\n%!" what msg;
    None
  in
  match f () with
  | Some _ as r -> r
  | None -> fail "wrong output"
  | exception Probe.Check m -> fail m
  | exception Znet.Net_error e -> fail (Znet.error_to_string e)
  | exception Argument.Session_error m -> fail m
  | exception Zwire.Decode_error e -> fail (Zwire.error_to_string e)
  | exception e -> fail (Printexc.to_string e)

type op = { app : int; latency : float; ok : bool; work : float; repeated : bool }

(* Closed loop over [conns] domains: each takes the next op as soon as its
   last one finished, until [seconds] have passed and the current round of
   [round] ops is complete, so every run measures whole rounds. *)
let closed_loop ~conns ~seconds ~round f =
  let mu = Mutex.create () and issued = ref 0 in
  let t0 = now () in
  let take () =
    Mutex.protect mu (fun () ->
        if !issued > 0 && !issued mod round = 0 && now () -. t0 >= seconds then None
        else begin
          incr issued;
          Some (!issued - 1)
        end)
  in
  let rec worker acc = match take () with None -> acc | Some i -> worker (f i :: acc) in
  let others = List.init (conns - 1) (fun _ -> Domain.spawn (fun () -> worker [])) in
  let mine = worker [] in
  let ops = mine @ List.concat_map Domain.join others in
  (ops, now () -. t0)

type outcome = {
  setup_s : float;
  ops : op list;
  wall : float;
  rss_mb : float;
  layers : (string * (string * float)) list;  (** the probe's, when traced *)
}

(* Latency is the geometric mean over programs of each program's median,
   so no single program's share of the rounds sets it. *)
let end_to_end o =
  let ok = List.filter (fun op -> op.ok) o.ops in
  let apps = List.sort_uniq compare (List.map (fun op -> op.app) ok) in
  let app_median a = median (List.filter_map (fun op -> if op.app = a then Some op.latency else None) ok) in
  let log_sum = List.fold_left (fun s a -> s +. log (app_median a)) 0.0 apps in
  [
    ("setup_s", ("s", o.setup_s));
    ("latency_ms", ("ms", exp (log_sum /. float_of_int (List.length apps)) *. 1000.0));
    ("work_per_s", ("1/s", List.fold_left (fun s op -> s +. op.work) 0.0 ok /. o.wall));
    ("peak_rss_mb", ("MiB", o.rss_mb));
  ]

let repeated_share o =
  let n = List.length o.ops in
  if n = 0 then 0.0
  else float_of_int (List.length (List.filter (fun op -> op.repeated) o.ops)) /. float_of_int n

(* ------------------------------------------------------------------ *)
(* The layer probe                                                      *)
(* ------------------------------------------------------------------ *)

let write_sources env (programs : program list) =
  List.map
    (fun (p : program) ->
      let f = Filename.concat env.dir (p.app.Apps.App_def.name ^ ".zl") in
      Out_channel.with_open_bin f (fun oc -> output_string oc p.app.Apps.App_def.source);
      f)
    programs

let serve env w ~files ~tag =
  span "zbench.spawn" (fun () ->
      Proc.spawn ~cli:env.cli
        ~log:(Filename.concat env.dir (Printf.sprintf "%s-%s.log" w.name tag))
        ~files ~args:w.proto.flags ~metrics:env.trace)

(* The probe over [crypto] programs, whose frames go to [srv], and the
   toolchain layers over the workload's programs. *)
let probe env w ~srv ~beta crypto =
  let acc = Probe.create () in
  let g = prg env w "probe" in
  List.iter
    (fun (p : program) ->
      ignore
        (attempt env ("probe " ^ p.app.Apps.App_def.name) (fun () ->
             Some (Probe.crypto acc ~proto:w.proto ~beta ~prg:g ~addr:srv.Proc.addr p))))
    crypto;
  let ctx = Fp.create w.proto.field in
  List.iter
    (fun (app : Apps.App_def.t) ->
      ignore
        (attempt env ("probe toolchain " ^ app.Apps.App_def.name) (fun () ->
             Some (Probe.toolchain acc ~prg:g ctx app))))
    w.apps;
  Probe.add acc "argsys.residue_ms" "ms" (Probe.residue acc);
  (match srv.Proc.metrics with
  | Some m -> ignore (attempt env "scrape /json" (fun () -> Some (Probe.scrape acc m)))
  | None -> ());
  Probe.to_list acc

(* ------------------------------------------------------------------ *)
(* Served workloads                                                     *)
(* ------------------------------------------------------------------ *)

(* A session is identified by its Hello (which carries its inputs) and its
   commit request (its fresh Enc(r)). *)
let session_key steps =
  List.filter_map
    (fun s -> if s.phase = "hello" || s.phase = "commit" then Some (Bytes.to_string s.frame) else None)
    steps
  |> String.concat "" |> Digest.string

(* A verifier session of [beta] seed-derived instances of [p]; its
   batch randomness (queries, Enc(r), challenges) is drawn here. *)
let prepare w ~beta (p : program) g =
  let ints = Array.init beta (fun _ -> p.app.Apps.App_def.gen_inputs g) in
  let vs =
    span "verifier_session.create" (fun () ->
        Argument.Verifier_session.create ~config:(config w.proto) p.comp ~prg:(Chacha.Prg.split g)
          ~inputs:(Array.map (Apps.Glue.field_inputs p.ctx) ints))
  in
  (ints, vs)

(* Run a prepared session against [addr]; [None] unless every instance is
   accepted with the native outputs. *)
let verify ~addr (p : program) (ints, vs) =
  let r, steps = live ~addr vs in
  if honest_and_correct p ints r then Some steps else None

let run_served env w =
  let programs = Array.of_list (List.map (program w.proto) w.apps) in
  let n = Array.length programs in
  let files = write_sources env (Array.to_list programs) in
  let seen = Hashtbl.create 64 and seen_mu = Mutex.create () in
  let sent_before key =
    Mutex.protect seen_mu (fun () ->
        let r = Hashtbl.mem seen key in
        Hashtbl.replace seen key ();
        r)
  in
  (* Set-up, [env.reps] times on fresh servers: spawn, then one verified
     beta=1 session per program, which compiles and caches every QAP. The
     first repetition records its sessions; the later ones replay them and
     must get the same bytes back. The verifier's batch randomness is drawn
     beforehand, so every repetition times the same work. *)
  let warm = Array.mapi (fun i p -> prepare w ~beta:1 p (prg env w ("warm " ^ string_of_int i))) programs in
  let recorded = Array.make n [] in
  let setup_once rep =
    let t0 = now () in
    let srv = serve env w ~files ~tag:(string_of_int rep) in
    let served = Proc.served_digests srv in
    Array.iteri
      (fun i (p : program) ->
        let what = Printf.sprintf "%s set-up %d %s" w.name rep p.app.Apps.App_def.name in
        ignore
          (attempt env what (fun () ->
               if not (List.mem p.digest served) then raise (Probe.Check "the server serves other digests");
               if rep = 1 then
                 verify ~addr:srv.Proc.addr p warm.(i)
                 |> Option.map (fun steps ->
                        recorded.(i) <- steps;
                        ignore (sent_before (session_key steps)))
               else if fst (replay ~addr:srv.Proc.addr recorded.(i)) then Some ()
               else None)))
      programs;
    (srv, now () -. t0)
  in
  let rec setups rep times =
    let srv, dt = span "zbench.setup" (fun () -> setup_once rep) in
    if rep = env.reps then (srv, dt :: times)
    else begin
      Proc.stop srv;
      setups (rep + 1) (dt :: times)
    end
  in
  let srv, setup_times = setups 1 [] in
  Fun.protect ~finally:(fun () -> Proc.stop srv) @@ fun () ->
  let pick = schedule env w n in
  let addr = srv.Proc.addr in
  let op i =
    let a = pick i in
    let p = programs.(a) in
    let what = Printf.sprintf "%s op %d %s" w.name i p.app.Apps.App_def.name in
    span "zbench.op" @@ fun () ->
    match w.kind with
    | Verify beta ->
      let t0 = now () in
      let r =
        attempt env what (fun () -> verify ~addr p (prepare w ~beta p (prg env w ("op " ^ string_of_int i))))
      in
      let latency = now () -. t0 in
      let repeated = match r with Some steps -> sent_before (session_key steps) | None -> false in
      { app = a; latency; ok = r <> None; work = float_of_int beta; repeated }
    | Replay | Toolchain ->
      let r =
        attempt env what (fun () ->
            let ok, t = replay ~addr recorded.(a) in
            if ok then Some t.wall else None)
      in
      let repeated = sent_before (session_key recorded.(a)) in
      { app = a; latency = Option.value r ~default:0.0; ok = r <> None; work = 1.0; repeated }
  in
  let ops, wall =
    span "zbench.measure" (fun () -> closed_loop ~conns:w.conns ~seconds:env.seconds ~round:n op)
  in
  let rss_mb = Proc.peak_rss_mb srv.Proc.pid in
  let layers =
    if not env.trace then []
    else
      let beta = match w.kind with Verify b -> b | Replay | Toolchain -> 1 in
      probe env w ~srv ~beta (Array.to_list programs)
  in
  { setup_s = median setup_times; ops; wall; rss_mb; layers }

(* ------------------------------------------------------------------ *)
(* Toolchain workload                                                   *)
(* ------------------------------------------------------------------ *)

let run_toolchain env w =
  let ctx = Fp.create w.proto.field in
  let apps = Array.of_list w.apps in
  let n = Array.length apps in
  (* Latency covers compile, lint and exec, not the checks that follow. *)
  let op tag i a =
    let app = apps.(a) in
    let acc = Probe.create () in
    match
      attempt env (Printf.sprintf "%s %s %d %s" w.name tag i app.Apps.App_def.name) (fun () ->
          Some (Probe.toolchain acc ~prg:(prg env w (Printf.sprintf "%s %d" tag i)) ctx app))
    with
    | Some rows ->
      let ms =
        List.fold_left (fun s m -> s +. Probe.get acc m) 0.0
          [ "zlang.compile_ms"; "zlint.backend_ms"; "zexec.solve_ms" ]
      in
      { app = a; latency = ms /. 1000.0; ok = true; work = float_of_int rows; repeated = false }
    | None -> { app = a; latency = 0.0; ok = false; work = 0.0; repeated = false }
  in
  (* Set-up: a warm-up round over every program, [env.reps] times. *)
  let setup_times =
    List.init env.reps (fun rep ->
        span "zbench.setup" (fun () ->
            let t0 = now () in
            Array.iteri (fun a _ -> ignore (op (Printf.sprintf "warm %d" rep) a a)) apps;
            now () -. t0))
  in
  let pick = schedule env w n in
  let ops, wall =
    span "zbench.measure" (fun () ->
        closed_loop ~conns:w.conns ~seconds:env.seconds ~round:n (fun i ->
            span "zbench.op" (fun () -> op "op" i (pick i))))
  in
  let rss_mb = Proc.peak_rss_mb (Unix.getpid ()) in
  let layers =
    if not env.trace then []
    else begin
      (* The protocol layers need a server of their own here. *)
      let crypto = List.map (program w.proto) w.probe_apps in
      let srv = serve env w ~files:(write_sources env crypto) ~tag:"probe" in
      Fun.protect ~finally:(fun () -> Proc.stop srv) (fun () -> probe env w ~srv ~beta:1 crypto)
    end
  in
  { setup_s = median setup_times; ops; wall; rss_mb; layers }

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun (n, (u, v)) -> Printf.printf "  %-36s %16.4f %s\n" n v u) metrics

(* Run one workload; returns its result line, its --json entry and
   whether it was correct. Name drift against the spec exits 2. *)
let run_one (spec : Spec.t) env w =
  if env.trace then Zobs.reset ();
  Printf.printf "== %s (seed %d, %.0f s, trace %b)\n%!" w.name env.seed env.seconds env.trace;
  let o = match w.kind with Toolchain -> run_toolchain env w | Verify _ | Replay -> run_served env w in
  let e2e = end_to_end o in
  let layers = o.layers @ [ ("zbench.repeated_frame_share", ("ratio", repeated_share o)) ] in
  let metrics = if env.trace then layers else e2e in
  let drift =
    Spec.drift spec.Spec.end_to_end e2e @ if env.trace then Spec.drift spec.Spec.per_layer layers else []
  in
  if drift <> [] then begin
    List.iter (Printf.eprintf "zbench: %s (BENCHMARK.json)\n") drift;
    exit 2
  end;
  let finite = List.for_all (fun (_, (_, v)) -> Float.is_finite v) metrics in
  let t = env.tally in
  let correct = finite && t.failed = 0 && List.exists (fun op -> op.ok) o.ops in
  (* With no successful op a value can be undefined; such a run is
     incorrect, and JSON has no NaN, so it reports 0. *)
  let defined = List.map (fun (n, (u, v)) -> (n, (u, if Float.is_finite v then v else 0.0))) in
  Printf.printf "%d ops in %.2f s (%d checked attempts, %d failed); repeated_frame_share %.3f\n"
    (List.length o.ops) o.wall t.attempted t.failed (repeated_share o);
  print_table (if env.trace then "end to end (traced)" else "end to end") e2e;
  if env.trace then begin
    print_table "per layer (layer probe)" layers;
    let path = Printf.sprintf ".zbench/%s-seed%d.trace.json" w.name env.seed in
    Zobs.write_chrome_trace ~process_name:"zbench" path;
    Printf.printf "wrote %s (Chrome trace; loads in ui.perfetto.dev)\n" path
  end;
  let line = Spec.result_line ~correct ~attempted:t.attempted ~failed:t.failed (defined metrics) in
  let entry =
    Printf.sprintf
      "{\"workload\": %S, \"seed\": %d, \"trace\": %b, \"correct\": %b, \"end_to_end\": {%s}, \"metrics\": {%s}}"
      w.name env.seed env.trace correct
      (Spec.metrics_json (defined e2e))
      (Spec.metrics_json (defined metrics))
  in
  (line, entry, correct)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()


let usage =
  "zbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json OUT] [--cli PATH] \
   [--spec PATH] [--smoke]\n\
   zbench compare A.json... -- B.json... [--spec PATH]"

let load_spec path =
  match Spec.load path with
  | s -> s
  | exception (Sys_error m | Failure m | Zobs.Json.Parse_error m) ->
    Printf.eprintf "zbench: cannot read %s: %s\n" path m;
    exit 2

let compare_main args =
  let rec split spec a b in_b = function
    | "--spec" :: p :: rest -> split p a b in_b rest
    | "--" :: rest -> split spec a b true rest
    | f :: rest -> if in_b then split spec a (f :: b) in_b rest else split spec (f :: a) b in_b rest
    | [] -> (spec, List.rev a, List.rev b)
  in
  match split "BENCHMARK.json" [] [] false args with
  | spec, (_ :: _ as a), (_ :: _ as b) -> exit (Compare.run (load_spec spec) a b)
  | _ ->
    prerr_endline usage;
    exit 2

(* --smoke: one round of every workload on the smallest programs, one
   set-up, traced, so every correctness check and the probe run. *)
let smoke_variant w =
  let lcs = [ Apps.Registry.lcs ~scale:1 ] in
  { w with apps = (if w.kind = Toolchain then List.filteri (fun i _ -> i < 3) sweep else lcs); probe_apps = lcs }

let main () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let json = ref None and spec_path = ref "BENCHMARK.json" and smoke = ref false in
  let cli = ref (Filename.concat (Filename.dirname Sys.executable_name) "../../bin/zaatar_cli.exe") in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per workload");
      ("--trace", Arg.Set_int trace, "0|1 traced run: layer probe and per-layer metrics");
      ("--json", Arg.String (fun s -> json := Some s), "OUT write the runs for `zbench compare`");
      ("--cli", Arg.Set_string cli, "PATH the zaatar CLI (default: the one built beside zbench)");
      ("--spec", Arg.Set_string spec_path, "PATH the benchmark spec (default: BENCHMARK.json)");
      ("--smoke", Arg.Set smoke, " one traced round of every workload on the smallest programs");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec = load_spec !spec_path in
  let names = List.map (fun w -> w.name) workloads in
  if names <> spec.Spec.workloads then begin
    Printf.eprintf "zbench: workloads [%s] differ from BENCHMARK.json's [%s]\n" (String.concat " " names)
      (String.concat " " spec.Spec.workloads);
    exit 2
  end;
  let selected =
    match !workload with
    | None -> workloads
    | Some n -> (
      match List.find_opt (fun w -> w.name = n) workloads with
      | Some w -> [ w ]
      | None ->
        Printf.eprintf "zbench: unknown workload %s (%s)\n" n (String.concat ", " names);
        exit 2)
  in
  if not (Sys.file_exists !cli) then begin
    Printf.eprintf "zbench: no zaatar CLI at %s\n" !cli;
    exit 2
  end;
  let selected = if !smoke then List.map smoke_variant selected else selected in
  let traced = !trace = 1 || !smoke in
  if traced then Zobs.enable ();
  if not (Sys.file_exists ".zbench") then Unix.mkdir ".zbench" 0o755;
  let dir = Printf.sprintf ".zbench/run-%d" (Unix.getpid ()) in
  Unix.mkdir dir 0o755;
  let runs =
    List.map
      (fun w ->
        let env =
          {
            cli = !cli;
            dir;
            seed = !seed;
            seconds = (if !smoke then 0.0 else !seconds);
            reps = (if !smoke then 1 else 3);
            trace = traced;
            tally = { attempted = 0; failed = 0; mu = Mutex.create () };
          }
        in
        let line, entry, ok = run_one spec env w in
        print_endline line;
        (entry, ok))
      selected
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc ("[" ^ String.concat ",\n" (List.map fst runs) ^ "]\n")))
    !json;
  let ok = List.for_all snd runs in
  if ok then rm_rf dir else Printf.eprintf "zbench: server logs kept in %s\n" dir;
  exit (if ok then 0 else 1)

let () = match Array.to_list Sys.argv with _ :: "compare" :: args -> compare_main args | _ -> main ()
