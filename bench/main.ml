(* The evaluation harness driver: regenerates the paper's §5 and Appendix
   A.2 from the experiment table in paper.ml, writes the BENCH_run.json
   summary, and runs the regression gates (gate.ml) over it.

     dune exec bench/main.exe                 -- everything, scaled-down sizes
     dune exec bench/main.exe -- fig4         -- one experiment
     dune exec bench/main.exe -- all --scale 2 --paper-params

   `usage` lists the experiments. *)

open Fieldlib
open Paper

let usage () =
  Printf.printf
    "usage: bench [all|%s]\n\
    \       [--scale N] [--batch N] [--pbits N] [--paper-params] [--quick] [--domains N]\n\
    \       [--qap-backend auto|ntt|lagrange]\n\
    \       [--trace OUT.json] [--metrics] [--json OUT.json]\n\
    \       [--check-ledger] [--baseline FILE]\n\
    \       [--history FILE.jsonl] [--trend N]\n"
    (String.concat "|" (List.map (fun e -> e.name) experiments));
  exit 2

(* Machine-readable run summary (BENCH_run.json): configuration,
   per-experiment wall times, the sections the experiments returned, and
   the Zobs counter/histogram/span totals accumulated across the run.
   Written with the in-house Zobs.Json writer and parsed back with its
   parser as a self-check — scripts/ci.sh greps for the "parsed back OK"
   line. *)
let summary_json cfg (experiments : (string * float) list) sections : Zobs.Json.t =
  let open Zobs.Json in
  let experiments =
    Arr
      (List.map
         (fun (name, wall) -> Obj [ ("name", Str name); ("wall_s", num wall) ])
         experiments)
  in
  let counters = Obj (List.map (fun (n, v) -> (n, int v)) (Zobs.Registry.counter_values ())) in
  (* Histograms that never recorded a sample render as noise (an empty
     array per registered name, backend-dependent); omit them, matching
     the Prometheus and JSONL sinks. *)
  let histograms =
    Obj
      (List.filter_map
         (fun (n, buckets) ->
           if List.for_all (fun (_, c) -> c = 0) buckets then None
           else
             Some
               (n, Arr (List.map (fun (lo, c) -> Obj [ ("ge", int lo); ("count", int c) ]) buckets)))
         (Zobs.Registry.histogram_values ()))
  in
  let spans =
    Arr
      (List.map
         (fun (name, (s : Zobs.Span.stat)) ->
           Obj
             [
               ("name", Str name);
               ("count", int s.Zobs.Span.count);
               ("total_s", num s.Zobs.Span.total);
               ("exclusive_s", num s.Zobs.Span.exclusive);
             ])
         (Zobs.Span.totals ()))
  in
  Obj
    ([
       ("schema", Str "zaatar-bench-run/1");
       ("config", config_json cfg);
       ("experiments", experiments);
     ]
    @ sections
    @ [ ("counters", counters); ("histograms", histograms); ("spans", spans) ])

let write_summary path summary =
  let oc = open_out path in
  output_string oc (Zobs.Json.to_string summary);
  output_char oc '\n';
  close_out oc;
  (* Round-trip self-check through our own parser. *)
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Zobs.Json.(member "experiments" (parse s)) with
  | Some (Zobs.Json.Arr l) ->
    Printf.printf "\nBENCH summary: wrote %s (%d experiment(s); parsed back OK)\n" path (List.length l)
  | _ ->
    Printf.eprintf "BENCH summary: %s failed to parse back\n" path;
    exit 1

(* Read and parse the --baseline file before any experiment runs, so a bad
   path fails in milliseconds rather than after the whole run. *)
let load_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg ->
    (* Sys_error messages usually lead with the path already. *)
    let why = if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg in
    Printf.eprintf "baseline: cannot read %s\n" why;
    exit 1
  | s -> (
    try Zobs.Json.parse s
    with Zobs.Json.Parse_error _ ->
      Printf.eprintf "baseline: %s does not parse as JSON\n" path;
      exit 1)

(* BENCH_history.jsonl: one line per gated run (--check-ledger or
   --baseline), appended before the gates execute so a
   breach still leaves its evidence behind. scripts/ci.sh prints the
   last-N trend with --trend. *)

let dnum j keys =
  match Gate.expand keys j with [ (_, Zobs.Json.Num x) ] -> Some x | _ -> None

let append_history cfg path (experiments : (string * float) list) sections =
  let open Zobs.Json in
  let line =
    Obj
      ([
         ("ts", Num (Unix.time ()));
         ("config", config_json cfg);
         ("experiments", Obj (List.map (fun (n, w) -> (n, Num w)) experiments));
       ]
      @ List.filter (fun (k, _) -> k = "ledger" || k = "alloc") sections)
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  output_string oc (to_string line);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended this gated run to %s\n" path

let print_trend path n =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "--trend: %s does not exist (run a gated bench first)\n" path;
    exit 1
  end;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  (* [lines] is newest-first; show the last [n] oldest-first. *)
  let last = List.filteri (fun i _ -> i < n) !lines |> List.rev in
  Printf.printf "last %d gated run(s) in %s:\n" (List.length last) path;
  Printf.printf "  %-17s %6s %10s %10s %13s\n" "when" "batch" "commit_s" "setup_s" "construct_f";
  List.iter
    (fun l ->
      match Zobs.Json.parse l with
      | exception _ -> Printf.printf "  (unparseable line)\n"
      | j ->
        let when_ =
          match dnum j [ "ts" ] with
          | None -> "-"
          | Some ts ->
            let tm = Unix.localtime ts in
            Printf.sprintf "%04d-%02d-%02d %02d:%02d" (tm.Unix.tm_year + 1900)
              (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
        in
        let show fmt = function None -> "-" | Some v -> Printf.sprintf fmt v in
        Printf.printf "  %-17s %6s %10s %10s %13s\n" when_
          (show "%.0f" (dnum j [ "config"; "batch" ]))
          (show "%.4f" (dnum j [ "ledger"; "crypto_ops"; "seconds" ]))
          (show "%.4f" (dnum j [ "ledger"; "verifier_setup"; "seconds" ]))
          (show "%.0f" (dnum j [ "ledger"; "construct_u"; "ops"; "f" ])))
    last

let () =
  let cfg = ref default_cfg in
  let targets = ref [] in
  let trace = ref None and metrics = ref false and json = ref "BENCH_run.json" in
  let baseline = ref None and check_ledger = ref false in
  let history = ref "BENCH_history.jsonl" and trend = ref None in
  let args = Array.to_list Sys.argv |> List.tl in
  (* Flag validation: a typo'd value dies with a clear message instead of
     an int_of_string backtrace mid-run. *)
  let pos_int flag v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ ->
      Printf.eprintf "%s expects a positive integer, got %S\n" flag v;
      exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
      cfg := { !cfg with scale = pos_int "--scale" v };
      parse rest
    | "--batch" :: v :: rest ->
      cfg := { !cfg with batch = pos_int "--batch" v };
      parse rest
    | "--pbits" :: v :: rest ->
      cfg := { !cfg with p_bits = pos_int "--pbits" v };
      parse rest
    | "--paper-params" :: rest ->
      cfg := { !cfg with rho = 8; rho_lin = 20; p_bits = 1024 };
      parse rest
    | "--quick" :: rest ->
      cfg := { !cfg with quick = true };
      parse rest
    | "--domains" :: v :: rest ->
      cfg := { !cfg with domains = pos_int "--domains" v };
      parse rest
    | "--qap-backend" :: v :: rest ->
      (match Qapb.backend_of_string v with
      | Some b -> cfg := { !cfg with qap_backend = b }
      | None ->
        Printf.eprintf "--qap-backend expects auto|ntt|lagrange, got %S\n" v;
        exit 2);
      parse rest
    | "--trace" :: v :: rest ->
      trace := Some v;
      parse rest
    | "--metrics" :: rest ->
      metrics := true;
      parse rest
    | "--json" :: v :: rest ->
      json := v;
      parse rest
    | "--check-ledger" :: rest ->
      check_ledger := true;
      parse rest
    | "--history" :: v :: rest ->
      history := v;
      parse rest
    | "--trend" :: v :: rest ->
      trend := Some (pos_int "--trend" v);
      parse rest
    | "--baseline" :: v :: rest ->
      baseline := Some v;
      parse rest
    | t :: rest when String.length t > 0 && t.[0] <> '-' ->
      targets := t :: !targets;
      parse rest
    | _ -> usage ()
  in
  parse args;
  (* --trend is a read-only mode: print the history tail and exit. *)
  (match !trend with
  | Some n ->
    print_trend !history n;
    exit 0
  | None -> ());
  let baseline = Option.map (fun path -> (path, load_baseline path)) !baseline in
  let active =
    List.filter_map
      (fun (g, on) -> if on then Some g else None)
      [ (Gate.Ledger, !check_ledger); (Gate.Baseline, baseline <> None) ]
  in
  let find name =
    match List.find_opt (fun e -> e.name = name) experiments with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown experiment %S\n" name;
      usage ()
  in
  let targets = if !targets = [] then [ "all" ] else List.rev !targets in
  let targets =
    List.concat_map (fun t -> if t = "all" then experiments else [ find t ]) targets
  in
  (* Each active gate pulls in the experiments whose rows it checks. *)
  let targets =
    targets
    @ List.filter
        (fun e ->
          (not (List.memq e targets))
          && List.exists (fun (r : Gate.row) -> List.mem r.gate active) e.gates)
        experiments
  in
  let cfg = !cfg in
  (* The bench always traces: the JSON summary reports counter and span
     totals, and --trace/--metrics only choose extra output forms. *)
  Zobs.enable ();
  Printf.printf
    "zaatar bench: field = %d bits, rho = %d, rho_lin = %d, group = %d bits, batch = %d, scale = %d, qap = %s\n"
    (Nat.num_bits cfg.field) cfg.rho cfg.rho_lin cfg.p_bits cfg.batch cfg.scale
    (Qapb.backend_to_string cfg.qap_backend);
  (* A section an experiment returns again replaces the earlier one. *)
  let sections = ref [] in
  let timed_experiments =
    List.map
      (fun e ->
        let fresh, wall = time_thunk (fun () -> e.run cfg) in
        sections :=
          List.filter (fun (k, _) -> not (List.mem_assoc k fresh)) !sections @ fresh;
        (e.name, wall))
      targets
  in
  let sections = !sections in
  let summary = summary_json cfg timed_experiments sections in
  write_summary !json summary;
  (* Gated runs leave a history line (config, per-phase seconds, op ledger,
     alloc counts) even when a gate then fails. *)
  if active <> [] then append_history cfg !history timed_experiments sections;
  (match !trace with
  | Some path ->
    Zobs.write_chrome_trace path;
    Printf.printf "wrote %s (chrome trace; load in chrome://tracing or ui.perfetto.dev)\n" path
  | None -> ());
  if !metrics then Format.printf "@.== telemetry ==@.%a" Zobs.report ();
  (* Gates last: the summary, trace and telemetry are already on disk for
     diagnosis when a gate exits non-zero. *)
  let failed = ref false in
  List.iter
    (fun gate ->
      let base = match gate with Gate.Baseline -> Option.map snd baseline | _ -> None in
      let n, fails = Gate.check ?baseline:base gate gates summary in
      let prefix, ok =
        match gate with
        | Gate.Ledger ->
          ( "--check-ledger: ",
            "--check-ledger OK: every gated op ratio inside its band; hot-path words/op under ceilings" )
        | Gate.Baseline ->
          ( "baseline: ",
            Printf.sprintf
              "baseline check OK against %s: %d value(s), key sets identical both ways, all exact"
              (Option.fold ~none:"" ~some:fst baseline) n )
      in
      if fails = [] then print_endline ok
      else begin
        failed := true;
        List.iter (fun f -> Printf.eprintf "%s%s\n" prefix f) fails
      end)
    active;
  if !failed then exit 1;
  print_newline ()
