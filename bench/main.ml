(* The evaluation harness: regenerates every table and figure of the
   paper's §5 and Appendix A.2. See DESIGN.md §3 for the experiment index
   and EXPERIMENTS.md for recorded paper-vs-measured results.

     dune exec bench/main.exe                 -- everything, scaled-down sizes
     dune exec bench/main.exe -- fig4         -- one experiment
     dune exec bench/main.exe -- all --scale 2 --paper-params

   Experiments: micro bechamel model fig4 fig5 fig6 fig7 fig8 fig9
   soundness ablation.

   Ginger's costs are *estimated from its cost model* (Figure 3's left
   column, parameterized by our measured microbenchmarks), exactly as the
   paper does: "we use estimates, rather than empirics, because the
   computations would be too expensive under Ginger" (§5.1). Zaatar numbers
   are measured end to end. *)

open Fieldlib

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type cfg = {
  field : Nat.t;
  scale : int;
  rho : int;
  rho_lin : int;
  p_bits : int;
  batch : int;
  quick : bool;
  domains : int; (* Pool domains for the commitment pipeline (--domains) *)
  qap_backend : Qapb.backend; (* --qap-backend auto|ntt|lagrange *)
}

let default_cfg =
  {
    (* The NTT-friendly 127-bit prime (2-adicity 62): same width as the
       paper's Mersenne p127, but able to host the production NTT prover
       path, so the default bench exercises it. Force the Mersenne field's
       pipeline with --qap-backend lagrange (identical over either prime:
       the Lagrange path never uses the 2-adic structure). *)
    field = Primes.p127_ntt;
    scale = 1;
    rho = 3;
    rho_lin = 10;
    p_bits = 512;
    batch = 2;
    quick = false;
    domains = 1;
    qap_backend = Qapb.Auto;
  }

let ctx_of cfg = Fp.create cfg.field

(* The padded NTT domain the configured backend resolves to for a system
   of [nc] constraints, mirroring Qapb.of_r1cs's selection rule; None =
   the Lagrange pipeline. Drives the backend-aware cost model. *)
let ntt_domain_of cfg ctx ~nc =
  let pick =
    match cfg.qap_backend with
    | Qapb.Lagrange -> false
    | Qapb.Ntt -> true
    | Qapb.Auto -> nc > 0 && Qapb.ntt_viable ctx nc
  in
  if pick then Some (Polylib.Ntt.next_pow2 nc) else None

let protocol cfg = { Pcp.Pcp_zaatar.rho = cfg.rho; rho_lin = cfg.rho_lin }
let model_protocol cfg = { Costmodel.Model.rho = cfg.rho; rho_lin = cfg.rho_lin }

let banner title =
  Printf.printf "\n=======================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=======================================================================\n%!"

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

let time_thunk f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Local (native) per-instance execution time: the baseline of Figures 5
   and 7. *)
let measure_local (app : Apps.App_def.t) prg =
  let inputs = Array.init 8 (fun _ -> app.Apps.App_def.gen_inputs prg) in
  (* warm up + calibrate iteration count *)
  let _, once = time_thunk (fun () -> ignore (app.Apps.App_def.native inputs.(0))) in
  let iters = max 20 (min 50_000 (int_of_float (0.2 /. (once +. 1e-9)))) in
  let _, total =
    time_thunk (fun () ->
        for i = 1 to iters do
          ignore (app.Apps.App_def.native inputs.(i land 7))
        done)
  in
  total /. float_of_int iters

let microbench_cache : (string, Costmodel.Params.t) Hashtbl.t = Hashtbl.create 4

let measured_params cfg =
  let key = Printf.sprintf "%s/%d" (Nat.to_hex cfg.field) cfg.p_bits in
  match Hashtbl.find_opt microbench_cache key with
  | Some p -> p
  | None ->
    let ctx = ctx_of cfg in
    let grp = Zcrypto.Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
    let p = Costmodel.Params.measure ~iters:(if cfg.quick then 200 else 1000) ctx grp in
    Hashtbl.add microbench_cache key p;
    p

(* One full measured Zaatar run per benchmark, cached and reused across
   figures. *)
type bench_run = {
  app : Apps.App_def.t;
  compiled : Zlang.Compile.compiled;
  stats : Zlang.Compile.stats;
  t_local : float;
  result : Argsys.Argument.batch_result;
  prover_per_instance : float;
  batch : int;
}

let run_cache : (string, bench_run) Hashtbl.t = Hashtbl.create 8

let bench_run cfg (app : Apps.App_def.t) : bench_run =
  let key =
    app.Apps.App_def.name ^ "/" ^ app.Apps.App_def.params_desc ^ "/"
    ^ Qapb.backend_to_string cfg.qap_backend
  in
  match Hashtbl.find_opt run_cache key with
  | Some r -> r
  | None ->
    let ctx = ctx_of cfg in
    let prg = Chacha.Prg.create ~seed:("bench " ^ key) () in
    let compiled = Apps.Glue.compile ctx app in
    let stats = Zlang.Compile.stats compiled in
    let t_local = measure_local app prg in
    let comp = Apps.Glue.computation_of compiled in
    let inputs =
      Array.init cfg.batch (fun _ ->
          Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg))
    in
    let config =
      {
        Argsys.Argument.params = protocol cfg;
        p_bits = cfg.p_bits;
        strategy = Argsys.Argument.Honest;
        domains = cfg.domains;
        qap_backend = cfg.qap_backend;
      }
    in
    let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
    if not (Argsys.Argument.all_accepted result) then
      failwith (key ^ ": verification unexpectedly failed");
    let prover_per_instance = Argsys.Metrics.total result.Argsys.Argument.prover /. float_of_int cfg.batch in
    let r = { app; compiled; stats; t_local; result; prover_per_instance; batch = cfg.batch } in
    Hashtbl.add run_cache key r;
    r

(* Compile-only cache: Figure 9 needs encoding statistics, not measured
   runs. *)
let stats_cache : (string, Zlang.Compile.stats) Hashtbl.t = Hashtbl.create 8

let compiled_stats cfg (app : Apps.App_def.t) : Zlang.Compile.stats =
  let key = app.Apps.App_def.name ^ "/" ^ app.Apps.App_def.params_desc in
  match Hashtbl.find_opt stats_cache key with
  | Some s -> s
  | None ->
    let s =
      match Hashtbl.find_opt run_cache key with
      | Some r -> r.stats
      | None -> Zlang.Compile.stats (Apps.Glue.compile (ctx_of cfg) app)
    in
    Hashtbl.add stats_cache key s;
    s

let sizes_of_run (r : bench_run) : Costmodel.Model.sizes =
  Costmodel.Model.sizes_of_stats r.stats ~n_x:r.compiled.Zlang.Compile.num_inputs
    ~n_y:r.compiled.Zlang.Compile.num_outputs ~t_local:r.t_local

let ginger_prover_estimate cfg (r : bench_run) =
  let p = measured_params cfg in
  (Costmodel.Model.ginger_prover p (model_protocol cfg) (sizes_of_run r)).Costmodel.Model.total_p

let orders_of_magnitude a b = log10 (a /. b)

let fmt_s v =
  if v >= 3600.0 then Printf.sprintf "%.1f h" (v /. 3600.0)
  else if v >= 60.0 then Printf.sprintf "%.1f min" (v /. 60.0)
  else if v >= 1.0 then Printf.sprintf "%.2f s" v
  else if v >= 1e-3 then Printf.sprintf "%.2f ms" (v *. 1e3)
  else Printf.sprintf "%.1f us" (v *. 1e6)

(* ------------------------------------------------------------------ *)
(* T-micro: §5.1 microbenchmark table                                  *)
(* ------------------------------------------------------------------ *)

let run_micro cfg =
  banner "Microbenchmarks (section 5.1 table): per-operation CPU costs";
  Printf.printf
    "(paper, GMP + 1024-bit ElGamal on a 2.53GHz Xeon: 128-bit row was\n\
    \ e=65us d=170us h=91us f_lazy=68ns f=210ns f_div=2us c=160ns)\n\n";
  let fields = [ ("128-bit (2^127-1)", Primes.p127); ("220-bit", Primes.p220 ()) ] in
  List.iter
    (fun (label, field) ->
      let c = { cfg with field } in
      let p = measured_params c in
      Printf.printf "%-18s %s\n%!" label (Format.asprintf "%a" Costmodel.Params.pp_row p))
    fields

(* Bechamel-based version of the same table: one Test.make per operation,
   grouped per field size. *)
let run_bechamel cfg =
  banner "Microbenchmarks via bechamel (OLS estimates, ns/op)";
  let open Bechamel in
  let make_group label field =
    let ctx = Fp.create field in
    let grp = Zcrypto.Group.cached ~field_order:field ~p_bits:cfg.p_bits () in
    let prg = Chacha.Prg.create ~seed:"bechamel" () in
    let sk, pk = Zcrypto.Elgamal.keygen grp prg in
    let a = Chacha.Prg.field_nonzero ctx prg and b = Chacha.Prg.field_nonzero ctx prg in
    let ct = Zcrypto.Elgamal.encrypt pk prg a in
    ignore sk;
    Test.make_grouped ~name:label ~fmt:"%s %s"
      [
        Test.make ~name:"f (field mul)" (Staged.stage (fun () -> ignore (Fp.mul ctx a b)));
        Test.make ~name:"f_lazy" (Staged.stage (fun () -> ignore (Fp.mul_lazy ctx a b)));
        Test.make ~name:"f_div" (Staged.stage (fun () -> ignore (Fp.div ctx a b)));
        Test.make ~name:"c (prg field)" (Staged.stage (fun () -> ignore (Chacha.Prg.field ctx prg)));
        Test.make ~name:"h (hom add+mul)"
          (Staged.stage (fun () -> ignore (Zcrypto.Elgamal.hom_add pk ct (Zcrypto.Elgamal.hom_scale pk ct a))));
      ]
  in
  let test =
    Test.make_grouped ~name:"micro" ~fmt:"%s/%s"
      [ make_group "128bit" Primes.p127 ]
  in
  let benchmark () =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg' = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.3) ~stabilize:false () in
    let raw = Benchmark.all cfg' instances test in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = benchmark () in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-40s %12.1f ns/op\n" name est
      | _ -> Printf.printf "  %-40s (no estimate)\n" name)
    results;
  flush stdout

(* ------------------------------------------------------------------ *)
(* F3: cost-model validation (Figure 3)                                *)
(* ------------------------------------------------------------------ *)

(* Filled by run_model and folded into BENCH_run.json under "model":
   per-application predicted vs. measured prover seconds and their ratio
   (delta), per phase. `--check-model` turns a delta outside the tolerance
   band into a non-zero exit; `--baseline` compares deltas against a
   committed BENCH_baseline.json. [model_rows] keeps the raw numbers so the
   gates need not re-parse their own JSON. *)
let model_section : Zobs.Json.t ref = ref Zobs.Json.Null
let model_rows : (string * (string * float * float) list) list ref = ref []

(* The model's two phases against the prover's four measured spans:
   construct_u covers solving the constraints and building the proof
   vector; issue_responses covers the commitment crypto and answering the
   PCP queries. *)
let model_phases cfg (r : bench_run) =
  let p = measured_params cfg in
  let sizes = sizes_of_run r in
  let ctx = ctx_of cfg in
  let ntt_domain = ntt_domain_of cfg ctx ~nc:sizes.Costmodel.Model.c_zaatar in
  let zp =
    Costmodel.Model.zaatar_prover ?ntt_domain ~exp_bits:(Fp.bits ctx) p (model_protocol cfg)
      sizes
  in
  let m = r.result.Argsys.Argument.prover in
  let per name = Argsys.Metrics.get m name /. float_of_int r.batch in
  [
    ( "construct_u",
      zp.Costmodel.Model.construct_u,
      per "solve_constraints" +. per "construct_u" );
    ( "issue_responses",
      zp.Costmodel.Model.issue_responses,
      per "crypto_ops" +. per "answer_queries" );
    ("total", zp.Costmodel.Model.total_p, r.prover_per_instance);
  ]

let run_model cfg =
  banner "Figure 3: cost model vs. measured Zaatar prover";
  Printf.printf "(paper: empirical CPU costs are 5-15%% larger than the model's predictions)\n\n";
  Printf.printf "%-28s %-16s %12s %12s %8s\n" "computation" "phase" "model" "measured" "ratio";
  let rows =
    List.map
      (fun (app : Apps.App_def.t) ->
        let r = bench_run cfg app in
        let phases = model_phases cfg r in
        List.iteri
          (fun i (ph, predicted, measured) ->
            Printf.printf "%-28s %-16s %12s %12s %7.2fx\n%!"
              (if i = 0 then app.Apps.App_def.display else "")
              ph (fmt_s predicted) (fmt_s measured) (measured /. predicted))
          phases;
        (app.Apps.App_def.name, phases))
      (Apps.Registry.suite ~scale:cfg.scale ())
  in
  model_rows := rows;
  let num x = Zobs.Json.Num x in
  model_section :=
    Zobs.Json.Obj
      [
        ( "apps",
          Zobs.Json.Arr
            (List.map
               (fun (name, phases) ->
                 Zobs.Json.Obj
                   [
                     ("name", Zobs.Json.Str name);
                     ( "phases",
                       Zobs.Json.Obj
                         (List.map
                            (fun (ph, predicted, measured) ->
                              ( ph,
                                Zobs.Json.Obj
                                  [
                                    ("predicted_s", num predicted);
                                    ("measured_s", num measured);
                                    ("delta", num (measured /. predicted));
                                  ] ))
                            phases) );
                   ])
               rows) );
      ]

(* --check-model gate: every application's total measured/predicted ratio
   must land inside the band. Only the total is gated — the per-phase
   split disagrees by construction (crypto_ops runs under a parallel
   Dompool map where the model prices sequential work, and at small scales
   constant factors swamp the model's asymptotic terms) and the paper only
   validates totals. Per-phase deltas are still recorded in the JSON and
   held to the committed baseline by --baseline. The default band is
   deliberately wide: it catches an order-of-magnitude regression (a
   broken kernel, a mis-costed phase), not scheduler jitter. *)
let check_model (lo, hi) =
  if !model_rows = [] then begin
    Printf.eprintf "--check-model: the model experiment did not run\n";
    exit 1
  end;
  let breaches =
    List.concat_map
      (fun (name, phases) ->
        List.filter_map
          (fun (ph, predicted, measured) ->
            let delta = measured /. predicted in
            if ph = "total" && (delta < lo || delta > hi || Float.is_nan delta) then
              Some (name, ph, delta)
            else None)
          phases)
      !model_rows
  in
  if breaches = [] then
    Printf.printf "\ncost model check OK: all deltas within [%.2f, %.2f]\n%!" lo hi
  else begin
    List.iter
      (fun (name, ph, delta) ->
        Printf.eprintf "cost model breach: %s/%s measured/predicted = %.2fx outside [%.2f, %.2f]\n"
          name ph delta lo hi)
      breaches;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* F4: prover per-instance running time, Zaatar vs Ginger              *)
(* ------------------------------------------------------------------ *)

let run_fig4 cfg =
  banner "Figure 4: per-instance prover running time (Zaatar measured, Ginger modeled)";
  Printf.printf "(paper: improvements of 1-6 orders of magnitude; root finding the smallest)\n\n";
  Printf.printf "%-28s %12s %14s %22s\n" "computation" "Zaatar" "Ginger (est.)" "improvement";
  List.iter
    (fun app ->
      let r = bench_run cfg app in
      let ginger = ginger_prover_estimate cfg r in
      Printf.printf "%-28s %12s %14s %18.1f orders\n%!" app.Apps.App_def.display
        (fmt_s r.prover_per_instance) (fmt_s ginger)
        (orders_of_magnitude ginger r.prover_per_instance))
    (Apps.Registry.suite ~scale:cfg.scale ())

(* ------------------------------------------------------------------ *)
(* F5: prover cost decomposition                                       *)
(* ------------------------------------------------------------------ *)

let run_fig5 cfg =
  banner "Figure 5: per-instance cost of the Zaatar prover vs local execution";
  Printf.printf "%-28s %10s | %10s %12s %10s %10s %12s\n" "computation (Psi)" "local"
    "solve" "construct u" "crypto" "answer" "e2e CPU";
  List.iter
    (fun app ->
      let r = bench_run cfg app in
      let m = r.result.Argsys.Argument.prover in
      let per name = Argsys.Metrics.get m name /. float_of_int r.batch in
      Printf.printf "%-28s %10s | %10s %12s %10s %10s %12s\n%!" app.Apps.App_def.display
        (fmt_s r.t_local)
        (fmt_s (per "solve_constraints"))
        (fmt_s (per "construct_u"))
        (fmt_s (per "crypto_ops"))
        (fmt_s (per "answer_queries"))
        (fmt_s r.prover_per_instance))
    (Apps.Registry.suite ~scale:cfg.scale ());
  Printf.printf
    "\n(paper at full scale: ~40%% constructing u, ~35%% crypto, remainder answering;\n\
    \ e2e minutes against milliseconds of local time)\n"

(* ------------------------------------------------------------------ *)
(* F6: parallelizing and distributing the prover                       *)
(* ------------------------------------------------------------------ *)

(* Prover-only batch with separate compute and crypto parallelism; the
   "GPU" configurations give the crypto phase extra domains (see DESIGN.md
   substitutions). *)
let prover_batch_wall cfg ~compute_domains ~crypto_domains (comp : Argsys.Argument.computation)
    (qap : Qapb.t) queries req_z req_h inputs =
  (* Force lazy QAP structures before entering domains. *)
  Qapb.prewarm qap;
  ignore cfg;
  let num_z = comp.Argsys.Argument.r1cs.Constr.R1cs.num_z in
  let ctx = comp.Argsys.Argument.r1cs.Constr.R1cs.field in
  let parts, t_compute =
    Dompool.Pool.timed_map ~domains:compute_domains
      (fun x ->
        let w = comp.Argsys.Argument.solve x in
        let h = Qapb.prover_h qap w in
        (Array.sub w 1 num_z, h))
      inputs
  in
  let _, t_crypto =
    Dompool.Pool.timed_map ~domains:crypto_domains
      (fun (z, h) ->
        (Commitment.Commit.prover_commit req_z z, Commitment.Commit.prover_commit req_h h))
      parts
  in
  let _, t_answer =
    Dompool.Pool.timed_map ~domains:compute_domains
      (fun (z, h) -> Pcp.Pcp_zaatar.answer (Pcp.Oracle.honest ctx z h) queries)
      parts
  in
  t_compute +. t_crypto +. t_answer

(* Single-domain prover batch, returning the three phase times. *)
let prover_batch_phases cfg (comp : Argsys.Argument.computation) (qap : Qapb.t) queries req_z req_h
    inputs =
  ignore cfg;
  Qapb.prewarm qap;
  let num_z = comp.Argsys.Argument.r1cs.Constr.R1cs.num_z in
  let ctx = comp.Argsys.Argument.r1cs.Constr.R1cs.field in
  let parts, t_compute =
    Dompool.Pool.timed_map ~domains:1
      (fun x ->
        let w = comp.Argsys.Argument.solve x in
        let h = Qapb.prover_h qap w in
        (Array.sub w 1 num_z, h))
      inputs
  in
  let _, t_crypto =
    Dompool.Pool.timed_map ~domains:1
      (fun (z, h) ->
        (Commitment.Commit.prover_commit req_z z, Commitment.Commit.prover_commit req_h h))
      parts
  in
  let _, t_answer =
    Dompool.Pool.timed_map ~domains:1
      (fun (z, h) -> Pcp.Pcp_zaatar.answer (Pcp.Oracle.honest ctx z h) queries)
      parts
  in
  (t_compute, t_crypto, t_answer)

let run_fig6 cfg =
  banner "Figure 6: speedups from parallelizing and distributing the prover";
  Printf.printf
    "(paper: near-linear speedup with more hardware; GPU crypto offload ~20%%.\n\
    \ Substitution: cores = domains, GPUs = extra domains for the crypto phase.)\n\n";
  let cores = Dompool.Pool.num_cores () in
  Printf.printf "host has %d available cores\n\n" cores;
  let beta = if cfg.quick then 4 else 8 in
  let apps = [ Apps.Registry.pam ~scale:cfg.scale; Apps.Registry.apsp ~scale:cfg.scale ] in
  List.iter
    (fun (app : Apps.App_def.t) ->
      let ctx = ctx_of cfg in
      let prg = Chacha.Prg.create ~seed:("fig6 " ^ app.Apps.App_def.name) () in
      let compiled = Apps.Glue.compile ctx app in
      let comp = Apps.Glue.computation_of compiled in
      let qap = Qapb.of_r1cs ~backend:cfg.qap_backend comp.Argsys.Argument.r1cs in
      let queries = Pcp.Pcp_zaatar.gen_queries ~params:(protocol cfg) qap prg in
      let grp = Zcrypto.Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
      let num_z = comp.Argsys.Argument.r1cs.Constr.R1cs.num_z in
      let req_z, _ = Commitment.Commit.commit_request ctx grp prg ~len:num_z in
      let req_h, _ = Commitment.Commit.commit_request ctx grp prg ~len:(Qapb.h_len qap) in
      let inputs =
        Array.init beta (fun _ -> Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg))
      in
      let wall ~c ~g =
        prover_batch_wall cfg ~compute_domains:c ~crypto_domains:(c + g) comp qap queries req_z
          req_h inputs
      in
      (* Single-domain run with per-phase times, for the ideal projections
         (the paper's own "(ideal)" bars). *)
      let t_compute, t_crypto, t_answer = prover_batch_phases cfg comp qap queries req_z req_h inputs in
      let base = t_compute +. t_crypto +. t_answer in
      Printf.printf "%s (batch = %d, 1C latency %s: compute %s, crypto %s, answer %s):\n"
        app.Apps.App_def.display beta (fmt_s base) (fmt_s t_compute) (fmt_s t_crypto) (fmt_s t_answer);
      Printf.printf "  %-12s %12s %9s\n" "config" "latency" "speedup";
      List.iter
        (fun (label, c, g) ->
          if c = 1 || (cores > 1 && c + g <= cores) then begin
            let t = if c = 1 && g = 0 then base else wall ~c ~g in
            Printf.printf "  %-12s %12s %8.2fx\n%!" label (fmt_s t) (base /. t)
          end
          else begin
            (* Ideal projection: each phase parallelizes over min(domains,
               batch) independent instances. *)
            let ideal =
              (t_compute /. float_of_int (min c beta))
              +. (t_crypto /. float_of_int (min (c + g) beta))
              +. (t_answer /. float_of_int (min c beta))
            in
            Printf.printf "  %-12s %12s %8.2fx\n%!" (label ^ " (ideal)") (fmt_s ideal) (base /. ideal)
          end)
        [ ("1C", 1, 0); ("2C", 2, 0); ("4C", 4, 0); ("2C+2G", 2, 2); ("4C+4G", 4, 4); ("8C+8G", 8, 8) ];
      if cores = 1 then
        Printf.printf
          "  (single-core host: multi-domain rows are ideal projections from the\n\
          \   measured phase times; the domain pool itself is exercised by the tests)\n")
    apps

(* ------------------------------------------------------------------ *)
(* F7: break-even batch sizes                                          *)
(* ------------------------------------------------------------------ *)

let run_fig7 cfg =
  banner "Figure 7: break-even batch sizes (Zaatar measured+model, Ginger modeled)";
  Printf.printf
    "(paper: Zaatar's break-even batch sizes are several orders of magnitude\n\
    \ smaller than Ginger's)\n\n";
  let p = measured_params cfg in
  Printf.printf "%-28s %16s %16s %14s\n" "computation" "Zaatar (model)" "Ginger (model)" "improvement";
  List.iter
    (fun app ->
      let r = bench_run cfg app in
      let s = sizes_of_run r in
      let pz = Costmodel.Model.zaatar_breakeven p (model_protocol cfg) s in
      let pg = Costmodel.Model.ginger_breakeven p (model_protocol cfg) s in
      let show = function None -> "never" | Some b -> Printf.sprintf "%d" b in
      let improvement =
        match (pz, pg) with
        | Some bz, Some bg -> Printf.sprintf "%8.1f orders" (log10 (float_of_int bg /. float_of_int bz))
        | _ -> "-"
      in
      Printf.printf "%-28s %16s %16s %14s\n%!" app.Apps.App_def.display (show pz) (show pg) improvement)
    (Apps.Registry.suite ~scale:cfg.scale ());
  Printf.printf
    "\nNote: with native-int local execution and toy input sizes, verification\n\
     rarely breaks even at all (the paper's baseline executes multiprecision\n\
     GMP programs at m=20..300). The table below therefore re-evaluates the\n\
     model at the PAPER'S input sizes, deriving |Z|, |C|, K2 from Figure 9's\n\
     closed forms and taking the paper's measured local times — with OUR\n\
     measured operation costs. This is the shape Figure 7 reports.\n\n";
  let paper_cases =
    (* name, |Z|g, |C|g, |Z|z, |C|z, |x|, |y|, local seconds (paper Fig. 5/9) *)
    let pam =
      let m = 20 and d = 128 in
      ( "PAM clustering (m=20 d=128)", 20 * m * m * d, 20 * m * m * d, 60 * m * m * d,
        60 * m * m * d, m * d, m + 2, 51.6e-3 )
    in
    let bisect =
      let m = 256 and l = 8 in
      ( "root finding (m=256 L=8)", 2 * m * l, 2 * m * l, m * m * l, m * m * l,
        (m * m) + (2 * m) + 1, 1, 0.8 )
    in
    let apsp =
      let m = 25 in
      ( "all-pairs s.p. (m=25)", 84 * m * m * m, 89 * m * m * m, 84 * m * m * m, 89 * m * m * m,
        m * m, m * m, 8.1e-3 )
    in
    let fk =
      let m = 100 and n = 13 in
      ("Fannkuch (m=100)", 2200 * m, 2200 * m, 2200 * m, 2200 * m, m * n, m + 1, 0.8e-3)
    in
    let lcs =
      let m = 300 in
      ("LCS (m=300)", 43 * m * m, 43 * m * m, 43 * m * m, 43 * m * m, 2 * m, 1, 1.4e-3)
    in
    [ pam; bisect; apsp; fk; lcs ]
  in
  let print_paper_table params protocol_p label =
    Printf.printf "\n-- %s --\n" label;
    Printf.printf "%-28s %16s %16s %14s\n" "computation (paper size)" "Zaatar" "Ginger" "improvement";
    List.iter
      (fun (name, zg, cg, zz, cz, n_x, n_y, t_local) ->
        let s =
          {
            Costmodel.Model.z_ginger = zg;
            c_ginger = cg;
            z_zaatar = zz;
            c_zaatar = cz;
            k = 3 * cg;
            k2 = zz - zg;
            n_x;
            n_y;
            t_local;
          }
        in
        let pz = Costmodel.Model.zaatar_breakeven params protocol_p s in
        let pg = Costmodel.Model.ginger_breakeven params protocol_p s in
        let show = function None -> "never" | Some b -> Printf.sprintf "%.1e" (float_of_int b) in
        let improvement =
          match (pz, pg) with
          | Some bz, Some bg ->
            Printf.sprintf "%8.1f orders" (log10 (float_of_int bg /. float_of_int bz))
          | _ -> "-"
        in
        Printf.printf "%-28s %16s %16s %14s\n%!" name (show pz) (show pg) improvement)
      paper_cases
  in
  print_paper_table p (model_protocol cfg) "with OUR measured operation costs";
  (* The paper's own §5.1 microbenchmark constants, at its rho = 8,
     rho_lin = 20. *)
  let paper_constants =
    {
      Costmodel.Params.e = 65e-6;
      d = 170e-6;
      h = 91e-6;
      f_lazy = 68e-9;
      f = 210e-9;
      f_div = 2e-6;
      c = 160e-9;
      field_bits = 128;
      group_bits = 1024;
    }
  in
  print_paper_table paper_constants { Costmodel.Model.rho = 8; rho_lin = 20 }
    "with the PAPER'S published operation costs (GMP + 1024-bit ElGamal)"

(* ------------------------------------------------------------------ *)
(* F8: scalability sweep                                               *)
(* ------------------------------------------------------------------ *)

let run_fig8 cfg =
  banner "Figure 8: prover running time, three input sizes per computation";
  Printf.printf "(paper: Zaatar's prover scales linearly; Ginger's quadratically)\n\n";
  List.iter
    (fun (label, sized_apps) ->
      Printf.printf "%s:\n" label;
      Printf.printf "  %-16s %10s %12s %14s %12s\n" "size" "|C|zaatar" "Zaatar" "Ginger (est.)" "|u|ginger";
      List.iter
        (fun app ->
          let r = bench_run cfg app in
          let ginger = ginger_prover_estimate cfg r in
          Printf.printf "  %-16s %10d %12s %14s %12d\n%!" app.Apps.App_def.params_desc
            r.stats.Zlang.Compile.c_zaatar (fmt_s r.prover_per_instance) (fmt_s ginger)
            r.stats.Zlang.Compile.u_ginger)
        sized_apps;
      print_newline ())
    (Apps.Registry.sweep ~scale:cfg.scale ())

(* ------------------------------------------------------------------ *)
(* F9: computation encodings                                           *)
(* ------------------------------------------------------------------ *)

let run_fig9 cfg =
  banner "Figure 9: computation encodings and proof-vector sizes";
  Printf.printf "%-28s %-12s %9s %9s %9s %9s %12s %12s %8s\n" "computation" "O(.)" "|Z|ging"
    "|Z|zaat" "|C|ging" "|C|zaat" "|u|ginger" "|u|zaatar" "K2";
  List.iter
    (fun (_, sized_apps) ->
      List.iter
        (fun (app : Apps.App_def.t) ->
          let s = compiled_stats cfg app in
          Printf.printf "%-16s %-11s %-12s %9d %9d %9d %9d %12d %12d %8d\n%!"
            app.Apps.App_def.display app.Apps.App_def.params_desc app.Apps.App_def.big_o
            s.Zlang.Compile.z_ginger s.Zlang.Compile.z_zaatar s.Zlang.Compile.c_ginger
            s.Zlang.Compile.c_zaatar s.Zlang.Compile.u_ginger s.Zlang.Compile.u_zaatar
            s.Zlang.Compile.k2)
        sized_apps)
    (Apps.Registry.sweep ~scale:cfg.scale ());
  Printf.printf "\n(for all computations, Zaatar's proof vector is far shorter than Ginger's;\n\
                 bisection has the densest K2, its Ginger encoding being unusually concise)\n"

(* ------------------------------------------------------------------ *)
(* Baseline validation: Ginger measured end-to-end at tiny scale        *)
(* ------------------------------------------------------------------ *)

(* The paper can only *estimate* Ginger at evaluation sizes. At tiny sizes
   we can actually run it (quadratic proof vector and all), giving a
   measured-vs-measured Zaatar/Ginger point and an empirical check of the
   Ginger column of Figure 3. *)
let run_baseline cfg =
  banner "Baseline validation: Ginger argument measured end-to-end (tiny sizes)";
  let ctx = ctx_of cfg in
  (* Chosen so that the witness holds near-full-width field values (the
     homomorphic-op cost is exponent-size dependent) and so that Ginger
     really has unbound variables: iterated squaring forces
     materialization. *)
  let sources =
    [
      ("iterated squaring (8 lanes)",
       "computation qmap(input int24 x[8], output int64 y) {\n\
        \  var int64 s = 0;\n\
        \  for i in 0..8 {\n\
        \    var int64 t = x[i] + 1;\n\
        \    t = t * t;\n\
        \    t = t * t;\n\
        \    s = s + t;\n\
        \  }\n\
        \  y = s;\n\
        }",
       Array.init 8 (fun i -> (1 lsl 19) + (7919 * (i + 1))));
      ("polynomial eval (deg 8, Horner)",
       "computation horner(input int12 c[9], input int12 x, output int64 y) {\n\
        \  var int64 acc = 0;\n\
        \  for i in 0..9 { acc = acc * x + c[i]; }\n\
        \  y = acc;\n\
        }",
       Array.append (Array.init 9 (fun i -> 1000 + (17 * i))) [| 2019 |]);
    ]
  in
  let p = measured_params cfg in
  Printf.printf "%-32s %12s %14s %14s %12s\n" "computation" "|u|ginger" "Ginger meas."
    "Ginger model" "Zaatar meas.";
  List.iter
    (fun (label, src, raw_inputs) ->
      let compiled = Zlang.Compile.compile ~ctx src in
      let stats = Zlang.Compile.stats compiled in
      let prg = Chacha.Prg.create ~seed:("baseline " ^ label) () in
      let x = Array.map (Fp.of_int ctx) raw_inputs in
      (* Ginger, measured. *)
      let gcomp =
        {
          Argsys.Argument_ginger.ginger = compiled.Zlang.Compile.ginger;
          num_inputs = compiled.Zlang.Compile.num_inputs;
          num_outputs = compiled.Zlang.Compile.num_outputs;
          solve = compiled.Zlang.Compile.solve_ginger;
        }
      in
      let gconfig =
        {
          Argsys.Argument_ginger.params = { Pcp.Pcp_ginger.rho = cfg.rho; rho_lin = cfg.rho_lin };
          p_bits = cfg.p_bits;
          cheat = false;
          domains = cfg.domains;
        }
      in
      let gres = Argsys.Argument_ginger.run_instance ~config:gconfig gcomp ~prg ~x in
      if not gres.Argsys.Argument_ginger.accepted then failwith (label ^ ": ginger run rejected");
      let ginger_measured = Argsys.Metrics.total gres.Argsys.Argument_ginger.prover in
      (* Ginger, modeled at the same sizes. *)
      let sizes =
        Costmodel.Model.sizes_of_stats stats ~n_x:compiled.Zlang.Compile.num_inputs
          ~n_y:compiled.Zlang.Compile.num_outputs ~t_local:1e-6
      in
      let ginger_model = (Costmodel.Model.ginger_prover p (model_protocol cfg) sizes).Costmodel.Model.total_p in
      (* Zaatar, measured on the same computation. *)
      let zcomp = Apps.Glue.computation_of compiled in
      let zconfig =
        {
          Argsys.Argument.params = protocol cfg;
          p_bits = cfg.p_bits;
          strategy = Argsys.Argument.Honest;
          domains = cfg.domains;
          qap_backend = cfg.qap_backend;
        }
      in
      let zres = Argsys.Argument.run_batch ~config:zconfig zcomp ~prg ~inputs:[| x |] in
      if not (Argsys.Argument.all_accepted zres) then failwith (label ^ ": zaatar run rejected");
      let zaatar_measured = Argsys.Metrics.total zres.Argsys.Argument.prover in
      Printf.printf "%-32s %12d %14s %14s %12s\n%!" label stats.Zlang.Compile.u_ginger
        (fmt_s ginger_measured) (fmt_s ginger_model) (fmt_s zaatar_measured))
    sources;
  Printf.printf
    "\n(the measured Ginger cost lands within a small factor of the Figure 3\n\
     Ginger model at identical sizes — the empirical anchor for every\n\
     estimated comparison; even at |Z| of a few dozen the quadratic proof\n\
     vector already puts Ginger a few-fold behind Zaatar, a gap that grows\n\
     linearly in |Z| from here)\n"

(* ------------------------------------------------------------------ *)
(* Soundness (Appendix A.2)                                            *)
(* ------------------------------------------------------------------ *)

let run_soundness cfg =
  banner "Appendix A.2: soundness parameters and empirical rejection rates";
  Printf.printf "paper parameters: delta = 0.0294, rho_lin = 20, kappa = 0.177, rho = 8\n";
  Printf.printf "soundness error bound: kappa^rho = 0.177^8 = %.2e  (< 9.6e-7)\n\n" (0.177 ** 8.0);
  let trials = if cfg.quick then 50 else 200 in
  let ctx = ctx_of cfg in
  (* A deliberately small computation: the per-repetition rejection
     probability of the algebraic tests is 1 - O(|C|/|F|) regardless of
     circuit size, and a tiny circuit lets us afford many independent
     protocol runs. Single-repetition PCP so that the *per-repetition*
     rate is what is measured. *)
  let compiled =
    Zlang.Compile.compile ~ctx
      "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"
  in
  let comp = Apps.Glue.computation_of compiled in
  let app_inputs prg = [| Chacha.Prg.int_below prg 10000; Chacha.Prg.int_below prg 10000 |] in
  let strategies =
    [
      (Argsys.Argument.Wrong_output, "wrong output");
      (Argsys.Argument.Corrupt_witness, "corrupt witness");
      (Argsys.Argument.Corrupt_h, "corrupt H");
      (Argsys.Argument.Equivocate, "equivocation");
      (Argsys.Argument.Nonlinear, "non-linear oracle");
    ]
  in
  Printf.printf "empirical rejection at rho = 1, rho_lin = 2 (%d trials each):\n" trials;
  List.iter
    (fun (strategy, label) ->
      let rejected = ref 0 in
      for i = 1 to trials do
        let prg = Chacha.Prg.create ~seed:(Printf.sprintf "sound %s %d" label i) () in
        let inputs = [| Apps.Glue.field_inputs ctx (app_inputs prg) |] in
        let config =
          { Argsys.Argument.params = Pcp.Pcp_zaatar.test_params; p_bits = 192; strategy; domains = 1; qap_backend = cfg.qap_backend }
        in
        let r = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
        if Argsys.Argument.none_accepted r then incr rejected
      done;
      Printf.printf "  %-22s %4d/%d rejected (%.1f%%)\n%!" label !rejected trials
        (100.0 *. float_of_int !rejected /. float_of_int trials))
    strategies;
  (* Honest completeness at the same parameters. *)
  let accepted = ref 0 in
  let honest_trials = max 10 (trials / 10) in
  for i = 1 to honest_trials do
    let prg = Chacha.Prg.create ~seed:(Printf.sprintf "sound honest %d" i) () in
    let inputs = [| Apps.Glue.field_inputs ctx (app_inputs prg) |] in
    let config =
      {
        Argsys.Argument.params = Pcp.Pcp_zaatar.test_params;
        p_bits = 192;
        strategy = Argsys.Argument.Honest;
        domains = 1;
        qap_backend = cfg.qap_backend;
      }
    in
    let r = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
    if Argsys.Argument.all_accepted r then incr accepted
  done;
  Printf.printf "  %-22s %4d/%d accepted (completeness must be 100%%)\n" "honest prover" !accepted honest_trials

(* ------------------------------------------------------------------ *)
(* NTT vs Lagrange: the prover hot path head to head                   *)
(* ------------------------------------------------------------------ *)

(* The tentpole experiment: run every benchmark app end to end under both
   QAP backends and compare (1) prover_h wall time via the split span
   names (qap_ntt.prover_h vs qap.prover_h — prover_h_forced emits its
   own spans and cannot pollute these), (2) construct_u minor-word
   allocation via the ledger's per-phase GC deltas, (3) verdicts, which
   must agree exactly, and (4) the packed NTT H against the boxed
   subproduct-tree reference over the same domain, which must match
   bit for bit. Correctness disagreement exits 1; the speed and
   allocation ratios land in BENCH_run.json under "ntt_vs_lagrange". *)
let ntt_section : Zobs.Json.t ref = ref Zobs.Json.Null

let run_ntt_vs_lagrange cfg =
  banner "NTT vs Lagrange: prover_h wall, construct_u allocation, verdict agreement";
  let ctx = ctx_of cfg in
  let ok = ref true in
  let span_total name =
    match List.assoc_opt name (Zobs.Span.totals ()) with
    | Some st -> st.Zobs.Span.total
    | None -> 0.0
  in
  let apps =
    let l = Apps.Registry.suite ~scale:cfg.scale () in
    if cfg.quick then [ List.hd l ] else l
  in
  if not (Qapb.ntt_viable ctx 2) then begin
    Printf.printf "field has no 2-adic structure: NTT arm not viable, skipping\n";
    ntt_section := Zobs.Json.Obj [ ("skipped", Zobs.Json.Bool true) ]
  end
  else begin
    let rows =
      List.map
        (fun (app : Apps.App_def.t) ->
          let iprg = Chacha.Prg.create ~seed:("nvl inputs " ^ app.Apps.App_def.name) () in
          let compiled = Apps.Glue.compile ctx app in
          let comp = Apps.Glue.computation_of compiled in
          let inputs =
            Array.init cfg.batch (fun _ ->
                Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs iprg))
          in
          let arm backend span_name =
            (* Fresh ledger so the construct_u GC delta belongs to this
               arm alone; same protocol seed so both arms face identical
               queries. *)
            Zobs.Ledger.reset ();
            let s0 = span_total span_name in
            let config =
              {
                Argsys.Argument.params = protocol cfg;
                p_bits = cfg.p_bits;
                strategy = Argsys.Argument.Honest;
                domains = cfg.domains;
                qap_backend = backend;
              }
            in
            let prg = Chacha.Prg.create ~seed:("nvl run " ^ app.Apps.App_def.name) () in
            let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
            let wall = span_total span_name -. s0 in
            let minor =
              match Zobs.Ledger.phase "construct_u" with
              | Some ph -> ph.Zobs.Ledger.gc.Zobs.Span.minor_words
              | None -> 0.0
            in
            let verdicts =
              Array.map
                (fun (i : Argsys.Argument.instance_result) -> i.Argsys.Argument.accepted)
                result.Argsys.Argument.instances
            in
            (verdicts, wall, minor)
          in
          let v_ntt, w_ntt, m_ntt = arm Qapb.Ntt "qap_ntt.prover_h" in
          let v_lag, w_lag, m_lag = arm Qapb.Lagrange "qap.prover_h" in
          let verdicts_agree = v_ntt = v_lag in
          let all_accepted = Array.for_all Fun.id v_ntt in
          (* Differential H: packed fast path vs boxed subproduct-tree
             reference over the same roots-of-unity domain. *)
          let h_ok =
            let qntt = Qap_ntt.of_r1cs comp.Argsys.Argument.r1cs in
            let w = comp.Argsys.Argument.solve inputs.(0) in
            let h = Qap_ntt.prover_h qntt w in
            let hr = Qap_ntt.prover_h_reference qntt w in
            Array.length h = Array.length hr && Array.for_all2 Fp.equal h hr
          in
          if not (verdicts_agree && all_accepted && h_ok) then ok := false;
          let wall_ratio = w_lag /. w_ntt and alloc_ratio = m_lag /. Float.max 1.0 m_ntt in
          Printf.printf
            "%-28s prover_h %s -> %s (%5.1fx)  construct_u minor words %12.0f -> %10.0f (%5.1fx)  %s%s\n%!"
            app.Apps.App_def.display (fmt_s w_lag) (fmt_s w_ntt) wall_ratio m_lag m_ntt
            alloc_ratio
            (if verdicts_agree && all_accepted then "verdicts ok" else "VERDICTS DIVERGE")
            (if h_ok then ", H ok" else ", H MISMATCH");
          let num x = Zobs.Json.Num x in
          ( app.Apps.App_def.name,
            Zobs.Json.Obj
              [
                ("lagrange", Zobs.Json.Obj [ ("prover_h_s", num w_lag); ("construct_u_minor_words", num m_lag) ]);
                ("ntt", Zobs.Json.Obj [ ("prover_h_s", num w_ntt); ("construct_u_minor_words", num m_ntt) ]);
                ("wall_ratio", num wall_ratio);
                ("alloc_ratio", num alloc_ratio);
                ("verdicts_agree", Zobs.Json.Bool (verdicts_agree && all_accepted));
                ("h_matches_reference", Zobs.Json.Bool h_ok);
              ] ))
        apps
    in
    ntt_section := Zobs.Json.Obj rows;
    if not !ok then begin
      Printf.eprintf "ntt-vs-lagrange: backend disagreement (see above)\n";
      exit 1
    end
  end

(* ------------------------------------------------------------------ *)
(* Ablations (design choices called out in DESIGN.md)                  *)
(* ------------------------------------------------------------------ *)

let rec run_ablation cfg =
  banner "Ablations: substrate algorithm choices";
  let ctx = ctx_of cfg in
  let prg = Chacha.Prg.create ~seed:"ablation" () in
  let reps = if cfg.quick then 3 else 10 in
  let bench label f =
    let _, t = time_thunk (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    Printf.printf "  %-46s %10s\n%!" label (fmt_s (t /. float_of_int reps))
  in
  Printf.printf "polynomial multiplication (degree 1023, 127-bit field):\n";
  let a = Polylib.Poly.random ctx prg 1023 and b = Polylib.Poly.random ctx prg 1023 in
  bench "schoolbook" (fun () -> Polylib.Poly.mul_schoolbook ctx a b);
  bench "karatsuba (production path)" (fun () -> Polylib.Poly.mul ctx a b);
  let fr = Fp.create Primes.bls12_381_fr in
  let ntt = Polylib.Ntt.create fr in
  let a' = Polylib.Poly.random fr prg 1023 and b' = Polylib.Poly.random fr prg 1023 in
  bench "karatsuba (255-bit NTT-friendly field)" (fun () -> Polylib.Poly.mul fr a' b');
  bench "NTT (roots of unity, modern sigma choice)" (fun () -> Polylib.Ntt.mul ntt a' b');
  Printf.printf "\npolynomial division (degree 2046 by degree 1023):\n";
  let big = Polylib.Poly.mul ctx a b in
  bench "schoolbook long division" (fun () -> Polylib.Poly.div_rem ctx big a);
  bench "Newton iteration (production path)" (fun () -> Polylib.Poly.div_rem_fast ctx big a);
  Printf.printf "\nfield inversion (127-bit field):\n";
  let xs = Array.init 256 (fun _ -> Chacha.Prg.field_nonzero ctx prg) in
  bench "extended Euclid x256 (production path)" (fun () -> Array.map (Fp.inv ctx) xs);
  bench "Fermat exponentiation x256" (fun () -> Array.map (Fp.inv_fermat ctx) xs);
  bench "batch inversion x256 (query weights path)" (fun () -> Fp.batch_inv ctx xs);
  Printf.printf "\ngroup exponentiation (%d-bit modulus, 127-bit exponents):\n" cfg.p_bits;
  let grp = Zcrypto.Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
  let exps = Array.init 16 (fun _ -> Fp.to_nat (Chacha.Prg.field ctx prg)) in
  bench "windowed Montgomery ladder (generic path)" (fun () ->
      Array.map (Zcrypto.Group.pow grp grp.Zcrypto.Group.g) exps);
  bench "Barrett ladder" (fun () ->
      Array.map (Zcrypto.Group.pow_barrett grp grp.Zcrypto.Group.g) exps);
  bench "fixed-base window table (commit path)" (fun () ->
      Array.map (Zcrypto.Group.fb_pow grp (Zcrypto.Group.fb_g grp)) exps);
  let bases = Array.map (Zcrypto.Group.pow grp grp.Zcrypto.Group.g) exps in
  bench "Pippenger multi-exp, 16 terms (hom_dot path)" (fun () ->
      Zcrypto.Group.multi_pow grp bases exps);
  Printf.printf "\nprover H(t) pipeline at |C| = 511 (interpolate, multiply, divide):\n";
  (* Over the NTT-friendly field so the two sigma_j choices are compared
     like for like: the paper's arithmetic progression + subproduct trees
     vs. roots of unity + NTT. *)
  let sys, w = random_r1cs_for_h fr 511 in
  let qap = Qap.of_r1cs sys in
  ignore (Lazy.force qap.Qap.divisor);
  ignore (Lazy.force qap.Qap.interp);
  bench "sigma_j = j, subproduct trees (paper, §A.3)" (fun () -> Qap.prover_h qap w);
  let qntt = Qap_ntt.of_r1cs sys in
  bench "sigma_j = roots of unity, NTT (modern)" (fun () -> Qap_ntt.prover_h qntt w);
  (* Nat.karatsuba_threshold sweep: the cutover only matters above field
     width (127-bit elements are 5 limbs), i.e. for the group arithmetic,
     so sweep at commitment-group widths. The tuned default is recorded
     in EXPERIMENTS.md and set in lib/fieldlib/nat.ml. *)
  Printf.printf "\nNat.karatsuba_threshold sweep (Nat.mul x1000; 31-bit limbs):\n";
  let rand_nat limbs =
    Nat.of_limbs
      (Array.init limbs (fun i ->
           let v = Chacha.Prg.int_below prg (1 lsl 30) in
           if i = limbs - 1 then v lor (1 lsl 29) else v))
  in
  let saved = Nat.get_karatsuba_threshold () in
  List.iter
    (fun (label, limbs) ->
      let x = rand_nat limbs and y = rand_nat limbs in
      List.iter
        (fun t ->
          Nat.set_karatsuba_threshold t;
          bench
            (Printf.sprintf "Nat.mul %s, threshold %d" label t)
            (fun () ->
              for _ = 1 to 1000 do
                ignore (Nat.mul x y)
              done))
        [ 8; 16; 24; 32; 48; 64 ])
    [ ("512-bit (17 limbs)", 17); ("1024-bit (34 limbs)", 34); ("2048-bit (67 limbs)", 67) ];
  Nat.set_karatsuba_threshold saved

and random_r1cs_for_h ctx nc =
  let prg = Chacha.Prg.create ~seed:"hbench" () in
  let n = nc in
  let w = Array.init (n + 1) (fun i -> if i = 0 then Fp.one else Chacha.Prg.field ctx prg) in
  let constraints =
    Array.init nc (fun _ ->
        let rand_row () =
          let t = ref Constr.Lincomb.zero in
          for _ = 0 to 2 do
            t :=
              Constr.Lincomb.add_term ctx !t
                (Chacha.Prg.int_below prg (n + 1))
                (Chacha.Prg.field ctx prg)
          done;
          !t
        in
        let a = rand_row () and b = rand_row () and c0 = rand_row () in
        let target = Fp.mul ctx (Constr.Lincomb.eval ctx a w) (Constr.Lincomb.eval ctx b w) in
        let fix = Fp.sub ctx target (Constr.Lincomb.eval ctx c0 w) in
        { Constr.R1cs.a; b; c = Constr.Lincomb.add_term ctx c0 0 fix })
  in
  ({ Constr.R1cs.field = ctx; num_vars = n; num_z = n / 2; constraints }, w)

(* ------------------------------------------------------------------ *)
(* Multiexp: exponentiation-kernel ablation (DESIGN.md §8)             *)
(* ------------------------------------------------------------------ *)

(* Filled by run_multiexp and folded into BENCH_run.json under "multiexp".
   scripts/ci.sh runs this experiment in smoke mode and fails the build if
   any kernel result diverges from the naive ladder. *)
let multiexp_section : Zobs.Json.t ref = ref Zobs.Json.Null

let run_multiexp cfg =
  banner "Multiexp ablation: naive ladder vs fixed-base window vs Pippenger";
  let open Zcrypto in
  let ctx = ctx_of cfg in
  let prg = Chacha.Prg.create ~seed:"multiexp" () in
  let agree = ref true in
  let check label ok =
    if not ok then begin
      agree := false;
      Printf.printf "  DIVERGENCE: %s\n%!" label
    end
  in
  let num x = Zobs.Json.Num x and int n = Zobs.Json.Num (float_of_int n) in
  (* -- single fixed base: g^e for many e, at the configured group size -- *)
  let grp = Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
  let fb_lengths = if cfg.quick then [ 32; 128 ] else [ 64; 256; 1024 ] in
  let _, t_table = time_thunk (fun () -> ignore (Group.fb_g grp)) in
  Printf.printf "fixed-base g-table build (%d-bit group): %s (one-time, cached on the group)\n"
    cfg.p_bits (fmt_s t_table);
  Printf.printf "%-10s %12s %14s %9s\n" "exps" "naive" "fixed-base" "speedup";
  let fixed_rows =
    List.map
      (fun len ->
        let exps = Array.init len (fun _ -> Fp.to_nat (Chacha.Prg.field ctx prg)) in
        let naive, t_naive =
          time_thunk (fun () -> Array.map (Group.pow grp grp.Group.g) exps)
        in
        let fixed, t_fixed =
          time_thunk (fun () -> Array.map (Group.fb_pow grp (Group.fb_g grp)) exps)
        in
        check (Printf.sprintf "fixed-base len=%d" len)
          (Array.for_all2 Group.equal naive fixed);
        Printf.printf "%-10d %12s %14s %8.2fx\n%!" len (fmt_s t_naive) (fmt_s t_fixed)
          (t_naive /. t_fixed);
        Zobs.Json.Obj
          [ ("len", int len); ("naive_s", num t_naive); ("fixed_base_s", num t_fixed) ])
      fb_lengths
  in
  (* -- Pippenger multi-exponentiation over random bases -- *)
  Printf.printf "\n%-10s %12s %14s %9s\n" "terms" "naive" "Pippenger" "speedup";
  let naive_multi bases exps =
    let acc = ref Group.one in
    Array.iteri (fun i b -> acc := Group.mul grp !acc (Group.pow grp b exps.(i))) bases;
    !acc
  in
  let pip_rows =
    List.map
      (fun len ->
        let bases =
          Array.init len (fun _ -> Group.fb_pow grp (Group.fb_g grp) (Fp.to_nat (Chacha.Prg.field ctx prg)))
        in
        let exps = Array.init len (fun _ -> Fp.to_nat (Chacha.Prg.field ctx prg)) in
        let naive, t_naive = time_thunk (fun () -> naive_multi bases exps) in
        let pip, t_pip = time_thunk (fun () -> Group.multi_pow grp bases exps) in
        check (Printf.sprintf "pippenger len=%d" len) (Group.equal naive pip);
        Printf.printf "%-10d %12s %14s %8.2fx\n%!" len (fmt_s t_naive) (fmt_s t_pip)
          (t_naive /. t_pip);
        Zobs.Json.Obj [ ("len", int len); ("naive_s", num t_naive); ("pippenger_s", num t_pip) ])
      fb_lengths
  in
  (* -- the commit phase end to end, at the paper's 1024-bit keys --
     Kernel arm: commit_request (fixed-base tables + parallel Enc(r)) and
     prover_commit (Pippenger hom_dot). Naive arm: the pre-kernel path —
     generic ladders per encryption, hom_scale/hom_add fold per commitment
     — replayed from the same transcript so the ciphertexts must match
     bit for bit. *)
  let len = if cfg.quick then 96 else 512 in
  let domains = min (Dompool.Pool.num_cores ()) 8 in
  let grp1024 = Group.cached ~field_order:cfg.field ~p_bits:1024 () in
  Printf.printf "\ncommit phase at 1024-bit keys, |r| = %d (Enc(r) over %d domain(s)):\n" len domains;
  let (req, _vs), t_enc_kernel =
    time_thunk (fun () ->
        Commitment.Commit.commit_request ~domains ctx grp1024
          (Chacha.Prg.create ~seed:"multiexp commit" ())
          ~len)
  in
  (* Replay the identical transcript for the naive arm. *)
  let replay = Chacha.Prg.create ~seed:"multiexp commit" () in
  let _, pk = Elgamal.keygen grp1024 replay in
  let r = Array.init len (fun _ -> Chacha.Prg.field ctx replay) in
  let ks = Array.init len (fun _ -> Fp.to_nat (Chacha.Prg.field_nonzero grp1024.Group.modq replay)) in
  let enc_naive i =
    let m = r.(i) and k = ks.(i) in
    let gm = Group.pow grp1024 grp1024.Group.g (Fp.to_nat m) in
    {
      Elgamal.c1 = Group.pow grp1024 grp1024.Group.g k;
      c2 = Group.mul grp1024 gm (Group.pow grp1024 pk.Elgamal.y k);
    }
  in
  let enc_r_naive, t_enc_naive = time_thunk (fun () -> Array.init len enc_naive) in
  check "commit Enc(r)"
    (Array.for_all2
       (fun (a : Elgamal.ciphertext) (b : Elgamal.ciphertext) ->
         Group.equal a.Elgamal.c1 b.Elgamal.c1 && Group.equal a.Elgamal.c2 b.Elgamal.c2)
       req.Commitment.Commit.enc_r enc_r_naive);
  let u =
    Array.init len (fun i ->
        if i mod 7 = 0 then Fp.zero
        else if i mod 5 = 0 then Fp.one
        else Chacha.Prg.field ctx prg)
  in
  let com_kernel, t_com_kernel = time_thunk (fun () -> Commitment.Commit.prover_commit req u) in
  let com_naive, t_com_naive =
    time_thunk (fun () -> Elgamal.hom_dot_naive req.Commitment.Commit.pk req.Commitment.Commit.enc_r u)
  in
  check "prover_commit"
    (Group.equal com_kernel.Elgamal.c1 com_naive.Elgamal.c1
    && Group.equal com_kernel.Elgamal.c2 com_naive.Elgamal.c2);
  let t_naive = t_enc_naive +. t_com_naive and t_kernel = t_enc_kernel +. t_com_kernel in
  Printf.printf "  %-24s %12s %12s %9s\n" "" "naive" "kernels" "speedup";
  Printf.printf "  %-24s %12s %12s %8.2fx\n" "Enc(r)" (fmt_s t_enc_naive) (fmt_s t_enc_kernel)
    (t_enc_naive /. t_enc_kernel);
  Printf.printf "  %-24s %12s %12s %8.2fx\n" "prover_commit" (fmt_s t_com_naive)
    (fmt_s t_com_kernel) (t_com_naive /. t_com_kernel);
  Printf.printf "  %-24s %12s %12s %8.2fx\n%!" "commit phase total" (fmt_s t_naive)
    (fmt_s t_kernel) (t_naive /. t_kernel);
  multiexp_section :=
    Zobs.Json.Obj
      [
        ("p_bits", int cfg.p_bits);
        ("fixed_base", Zobs.Json.Arr fixed_rows);
        ("pippenger", Zobs.Json.Arr pip_rows);
        ( "commit_phase",
          Zobs.Json.Obj
            [
              ("p_bits", int 1024);
              ("len", int len);
              ("domains", int domains);
              ("enc_naive_s", num t_enc_naive);
              ("enc_kernel_s", num t_enc_kernel);
              ("commit_naive_s", num t_com_naive);
              ("commit_kernel_s", num t_com_kernel);
              ("naive_s", num t_naive);
              ("kernel_s", num t_kernel);
              ("speedup", num (t_naive /. t_kernel));
            ] );
        ("kernels_agree", Zobs.Json.Bool !agree);
      ];
  if !agree then Printf.printf "\nmultiexp kernels agree with the naive ladder\n%!"
  else begin
    Printf.eprintf "multiexp: kernel results diverge from the naive ladder\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Wire: network accounting for the split V/P protocol (Figure 9 vein) *)
(* ------------------------------------------------------------------ *)

(* Filled by run_wire and folded into BENCH_run.json under "network". The
   loopback driver encodes and decodes every protocol message, so the
   wire.* counters measure exactly what `zaatar serve` would move over a
   socket; sent and received must balance or the run fails. *)
let wire_section : Zobs.Json.t ref = ref Zobs.Json.Null

let wire_phases = [ "hello"; "commit"; "query"; "answer"; "verdict" ]

let run_wire cfg =
  banner "Wire protocol: bytes moved per phase of the split verifier/prover argument";
  let ctx = ctx_of cfg in
  let compiled =
    Zlang.Compile.compile ~ctx
      "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"
  in
  let comp = Apps.Glue.computation_of compiled in
  let prg = Chacha.Prg.create ~seed:"bench wire" () in
  let batch = max 2 cfg.batch in
  let inputs =
    Array.init batch (fun _ ->
        Apps.Glue.field_inputs ctx
          [| Chacha.Prg.int_below prg 10000; Chacha.Prg.int_below prg 10000 |])
  in
  let config =
    {
      Argsys.Argument.params = protocol cfg;
      p_bits = cfg.p_bits;
      strategy = Argsys.Argument.Honest;
      domains = cfg.domains;
      qap_backend = cfg.qap_backend;
    }
  in
  let snapshot () =
    let vals = Zobs.Registry.counter_values () in
    fun name -> match List.assoc_opt name vals with Some v -> v | None -> 0
  in
  let before = snapshot () in
  let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
  if not (Argsys.Argument.all_accepted result) then failwith "wire: verification failed";
  let after = snapshot () in
  let delta name = after name - before name in
  let sent = delta "wire.bytes.sent" and recv = delta "wire.bytes.recv" in
  let msgs = delta "wire.msgs" in
  Printf.printf "batch of %d instance(s), field %d bits, group %d bits\n\n" batch
    (Nat.num_bits cfg.field) cfg.p_bits;
  Printf.printf "%-10s %12s %12s %8s\n" "phase" "sent B" "recv B" "msgs";
  let per_phase =
    List.map
      (fun ph ->
        let s = delta ("wire.bytes.sent." ^ ph)
        and r = delta ("wire.bytes.recv." ^ ph)
        and m = delta ("wire.msgs." ^ ph) in
        Printf.printf "%-10s %12d %12d %8d\n" ph s r m;
        (ph, s, r, m))
      wire_phases
  in
  Printf.printf "%-10s %12d %12d %8d\n%!" "total" sent recv msgs;
  let num n = Zobs.Json.Num (float_of_int n) in
  wire_section :=
    Zobs.Json.Obj
      [
        ("batch", num batch);
        ("bytes_sent", num sent);
        ("bytes_recv", num recv);
        ("msgs", num msgs);
        ("balanced", Zobs.Json.Bool (sent = recv));
        ( "per_phase",
          Zobs.Json.Obj
            (List.map
               (fun (ph, s, r, m) ->
                 (ph, Zobs.Json.Obj [ ("sent", num s); ("recv", num r); ("msgs", num m) ]))
               per_phase) );
      ];
  (* Cross-check: the loopback driver decodes every byte it encodes, so an
     imbalance means a codec phase is unaccounted. *)
  if sent <> recv || sent = 0 then begin
    Printf.eprintf "wire: sent (%d) and received (%d) bytes do not balance\n" sent recv;
    exit 1
  end;
  Printf.printf "\nsent and received bytes balance (%d B over %d message(s))\n%!" sent msgs

(* ------------------------------------------------------------------ *)
(* Farm: concurrent prover farm vs the sequential accept loop          *)
(* ------------------------------------------------------------------ *)

(* Filled by run_farm and folded into BENCH_run.json under "farm".
   Sessions/sec and latency percentiles at N concurrent verifier clients
   against (a) the pre-farm sequential accept loop, (b) the farm event
   loop with the setup cache, (c) the farm with the cache disabled.

   The clients are *replay* clients: one real verifier session is
   recorded (frames sent, replies received, verdict checked), then every
   client replays the same byte stream, sleeping [think_ms] before each
   frame to emulate off-box verifier compute, and asserts the prover's
   replies are byte-identical (the honest prover draws nothing from its
   PRG, so replies are a deterministic function of the received frames).
   Identical clients hit both arms, so the comparison isolates the
   server: the sequential loop is held hostage by each client's think
   time, the event loop overlaps them. *)
let farm_section : Zobs.Json.t ref = ref Zobs.Json.Null

let record_session ~config comp ~prg ~inputs addr =
  let conn = Znet.connect addr in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  let vs = Argsys.Argument.Verifier_session.create ~config comp ~prg ~inputs in
  let codec = Argsys.Argument.Verifier_session.codec vs in
  let transcript = ref [] in
  let exchange m =
    let b = Zwire.encode ~codec m in
    Znet.send conn b;
    let r = Znet.recv conn in
    transcript := (b, Some r) :: !transcript;
    Zwire.decode ~codec r
  in
  let rec go m =
    match Argsys.Argument.Verifier_session.on_msg vs m with
    | `Send m' -> go (exchange m')
    | `Finished (Some m') ->
      let b = Zwire.encode ~codec m' in
      Znet.send conn b;
      transcript := (b, None) :: !transcript
    | `Finished None -> ()
  in
  go (exchange (Argsys.Argument.Verifier_session.initial vs));
  if not (Argsys.Argument.all_accepted (Argsys.Argument.Verifier_session.result vs)) then
    failwith "farm: recorded session did not verify";
  List.rev !transcript

let replay_session ~think_s ~addr transcript =
  let conn = Znet.connect addr in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  List.for_all
    (fun (sent, expect) ->
      Unix.sleepf think_s;
      Znet.send conn sent;
      match expect with
      | None -> true
      | Some r -> Bytes.equal r (Znet.recv conn))
    transcript

let run_farm cfg =
  banner "Farm: sessions/sec at concurrent verifier clients (event loop vs sequential accept)";
  let ctx = ctx_of cfg in
  let compiled =
    Zlang.Compile.compile ~ctx
      "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"
  in
  let comp = Apps.Glue.computation_of compiled in
  let config =
    {
      Argsys.Argument.params = protocol cfg;
      p_bits = cfg.p_bits;
      strategy = Argsys.Argument.Honest;
      domains = cfg.domains;
      qap_backend = cfg.qap_backend;
    }
  in
  let lookup =
    let d = Argsys.Argument.digest comp in
    fun d' -> if String.equal d' d then Some comp else None
  in
  let clients = 8 in
  let think_ms = if cfg.quick then 25 else 60 in
  let think_s = float_of_int think_ms /. 1000.0 in
  let inputs = [| Apps.Glue.field_inputs ctx [| 7; 11 |] |] in
  (* Record the reference session against a throwaway one-shot server. *)
  let transcript =
    let srv = Znet.listen "127.0.0.1:0" in
    let addr = Znet.bound_addr srv in
    let server =
      Domain.spawn (fun () ->
          let c = Znet.accept srv in
          (try
             Argsys.Remote.handle_conn ~config ~lookup
               ~prg:(Chacha.Prg.create ~seed:"bench farm record prover" ())
               c
           with _ -> ());
          try Znet.close c with _ -> ())
    in
    let t =
      record_session ~config comp
        ~prg:(Chacha.Prg.create ~seed:"bench farm verifier" ())
        ~inputs addr
    in
    Domain.join server;
    Znet.close_server srv;
    t
  in
  let frames = List.length transcript in
  Printf.printf
    "%d concurrent same-digest clients, %d frame(s)/session, %d ms think before each frame\n\n"
    clients frames think_ms;
  let run_clients addr =
    let t0 = Unix.gettimeofday () in
    let doms =
      Array.init clients (fun _ -> Domain.spawn (fun () -> replay_session ~think_s ~addr transcript))
    in
    let ok = Array.for_all (fun d -> Domain.join d) doms in
    (Unix.gettimeofday () -. t0, ok)
  in
  (* Arm 1: the pre-farm behavior — accept, serve to completion, repeat. *)
  let seq_wall, seq_ok =
    let srv = Znet.listen ~backlog:(clients + 4) "127.0.0.1:0" in
    let addr = Znet.bound_addr srv in
    let server =
      Domain.spawn (fun () ->
          for i = 1 to clients do
            let c = Znet.accept srv in
            (try
               Argsys.Remote.handle_conn ~config ~lookup
                 ~prg:(Chacha.Prg.create ~seed:(Printf.sprintf "bench farm seq %d" i) ())
                 c
             with _ -> ());
            try Znet.close c with _ -> ()
          done)
    in
    let r = run_clients addr in
    Domain.join server;
    Znet.close_server srv;
    r
  in
  (* Arms 2 and 3: the farm event loop, with and without the setup cache. *)
  let farm_arm ~cache_bytes =
    Znet.Svcstats.reset ();
    let fc =
      {
        Zfarm.Farm.default with
        arg_config = config;
        max_sessions = clients + 2;
        setup_cache_bytes = cache_bytes;
      }
    in
    let mu = Mutex.create () in
    let lines = ref [] in
    let log s =
      Mutex.lock mu;
      lines := s :: !lines;
      Mutex.unlock mu
    in
    let server =
      Domain.spawn (fun () ->
          Zfarm.Farm.serve ~config:fc ~lookup ~max_conns:clients ~log "127.0.0.1:0")
    in
    let addr =
      let prefix = "listening on " in
      let k = String.length prefix in
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec poll () =
        let hit =
          Mutex.lock mu;
          let r =
            List.find_map
              (fun l ->
                if String.length l > k && String.sub l 0 k = prefix then
                  Some (String.sub l k (String.length l - k))
                else None)
              !lines
          in
          Mutex.unlock mu;
          r
        in
        match hit with
        | Some a -> a
        | None ->
          if Unix.gettimeofday () > deadline then failwith "farm: serve never bound";
          Unix.sleepf 0.005;
          poll ()
      in
      poll ()
    in
    let wall, ok = run_clients addr in
    Domain.join server;
    let _, hits, misses, _ = Znet.Svcstats.farm_totals () in
    let lat = Znet.Svcstats.latency_ms () in
    (wall, ok, hits, misses, lat)
  in
  let built_before = Zobs.Registry.counter_value "farm.setup.built" in
  let farm_wall, farm_ok, hits, misses, (p50, p95, p99) =
    farm_arm ~cache_bytes:Zfarm.Farm.default.Zfarm.Farm.setup_cache_bytes
  in
  let warm_builds = Zobs.Registry.counter_value "farm.setup.built" - built_before - 1 in
  let nocache_wall, nocache_ok, _, _, _ = farm_arm ~cache_bytes:0 in
  let per_s w = float_of_int clients /. w in
  let speedup = seq_wall /. farm_wall in
  Printf.printf "%-28s %10s %14s\n" "server" "wall s" "sessions/s";
  Printf.printf "%-28s %10.3f %14.2f\n" "sequential accept loop" seq_wall (per_s seq_wall);
  Printf.printf "%-28s %10.3f %14.2f\n" "farm (setup cache)" farm_wall (per_s farm_wall);
  Printf.printf "%-28s %10.3f %14.2f\n\n" "farm (cache disabled)" nocache_wall (per_s nocache_wall);
  Printf.printf "speedup vs sequential: %.2fx (acceptance floor 4x)\n" speedup;
  Printf.printf "setup cache: %d hit(s), %d miss(es); warm-session QAP constructions: %d\n" hits
    misses warm_builds;
  Printf.printf "session latency ms (farm, cached): p50 %.1f  p95 %.1f  p99 %.1f\n%!" p50 p95 p99;
  let ok = seq_ok && farm_ok && nocache_ok in
  if not ok then begin
    Printf.eprintf "farm: a replayed session saw a reply that differs from the recorded bytes\n";
    exit 1
  end;
  if warm_builds <> 0 then begin
    Printf.eprintf "farm: %d QAP construction(s) on warm sessions (cache should serve them)\n"
      warm_builds;
    exit 1
  end;
  let num n = Zobs.Json.Num (float_of_int n) and fnum x = Zobs.Json.Num x in
  farm_section :=
    Zobs.Json.Obj
      [
        ("clients", num clients);
        ("think_ms", num think_ms);
        ("frames_per_session", num frames);
        ("seq_wall_s", fnum seq_wall);
        ("farm_wall_s", fnum farm_wall);
        ("farm_nocache_wall_s", fnum nocache_wall);
        ("seq_sessions_per_s", fnum (per_s seq_wall));
        ("farm_sessions_per_s", fnum (per_s farm_wall));
        ("speedup", fnum speedup);
        ("cache_hits", num hits);
        ("cache_misses", num misses);
        ("warm_qap_constructions", num warm_builds);
        ( "latency_ms",
          Zobs.Json.Obj [ ("p50", fnum p50); ("p95", fnum p95); ("p99", fnum p99) ] );
        ("transcripts_identical", Zobs.Json.Bool ok);
      ]

(* ------------------------------------------------------------------ *)
(* Zscope overhead: flight recorder + sampling profiler cost           *)
(* ------------------------------------------------------------------ *)

(* Filled by run_obs_overhead and folded into BENCH_run.json under
   "obs_overhead". Two farm arms serve the same replayed client fleet:
   one with the Zscope instrumentation on (per-session flight recorder at
   its default capacity plus the sampling profiler at its default rate),
   one with both disabled (--flight-cap 0 --profile-hz 0). The acceptance
   band holds the on-arm to within 3% of the off-arm's sessions/sec
   (DESIGN.md §15's overhead budget); --baseline enforces it. *)
let obs_section : Zobs.Json.t ref = ref Zobs.Json.Null

let obs_overhead_band = 1.03

let run_obs_overhead cfg =
  banner "Zscope overhead: farm sessions/sec, flight recorder + sampler on vs off";
  let ctx = ctx_of cfg in
  let compiled =
    Zlang.Compile.compile ~ctx
      "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"
  in
  let comp = Apps.Glue.computation_of compiled in
  let config =
    {
      Argsys.Argument.params = protocol cfg;
      p_bits = cfg.p_bits;
      strategy = Argsys.Argument.Honest;
      domains = cfg.domains;
      qap_backend = cfg.qap_backend;
    }
  in
  let lookup =
    let d = Argsys.Argument.digest comp in
    fun d' -> if String.equal d' d then Some comp else None
  in
  let clients = 8 in
  let rounds = if cfg.quick then 2 else 3 in
  let inputs = [| Apps.Glue.field_inputs ctx [| 7; 11 |] |] in
  let transcript =
    let srv = Znet.listen "127.0.0.1:0" in
    let addr = Znet.bound_addr srv in
    let server =
      Domain.spawn (fun () ->
          let c = Znet.accept srv in
          (try
             Argsys.Remote.handle_conn ~config ~lookup
               ~prg:(Chacha.Prg.create ~seed:"bench obs record prover" ())
               c
           with _ -> ());
          try Znet.close c with _ -> ())
    in
    let t =
      record_session ~config comp
        ~prg:(Chacha.Prg.create ~seed:"bench obs verifier" ())
        ~inputs addr
    in
    Domain.join server;
    Znet.close_server srv;
    t
  in
  (* No think time: the comparison is server-bound on purpose, so any
     recorder/sampler cost lands squarely in the measured wall. One arm
     run = [clients] replayed sessions; best-of-[rounds] walls filter
     scheduler noise. *)
  let run_clients addr =
    let t0 = Unix.gettimeofday () in
    let doms =
      Array.init clients (fun _ ->
          Domain.spawn (fun () -> replay_session ~think_s:0.0 ~addr transcript))
    in
    let ok = Array.for_all (fun d -> Domain.join d) doms in
    (Unix.gettimeofday () -. t0, ok)
  in
  let arm ~flight_cap ~profile_hz =
    let best = ref infinity and all_ok = ref true in
    for _ = 1 to rounds do
      Znet.Svcstats.reset ();
      let fc =
        {
          Zfarm.Farm.default with
          arg_config = config;
          max_sessions = clients + 2;
          flight_cap;
          profile_hz;
        }
      in
      let mu = Mutex.create () in
      let lines = ref [] in
      let log s =
        Mutex.lock mu;
        lines := s :: !lines;
        Mutex.unlock mu
      in
      let server =
        Domain.spawn (fun () ->
            Zfarm.Farm.serve ~config:fc ~lookup ~max_conns:clients ~log "127.0.0.1:0")
      in
      let addr =
        let prefix = "listening on " in
        let k = String.length prefix in
        let deadline = Unix.gettimeofday () +. 10.0 in
        let rec poll () =
          let hit =
            Mutex.lock mu;
            let r =
              List.find_map
                (fun l ->
                  if String.length l > k && String.sub l 0 k = prefix then
                    Some (String.sub l k (String.length l - k))
                  else None)
                !lines
            in
            Mutex.unlock mu;
            r
          in
          match hit with
          | Some a -> a
          | None ->
            if Unix.gettimeofday () > deadline then failwith "obs-overhead: serve never bound";
            Unix.sleepf 0.005;
            poll ()
        in
        poll ()
      in
      let wall, ok = run_clients addr in
      Domain.join server;
      all_ok := !all_ok && ok;
      if wall < !best then best := wall
    done;
    (!best, !all_ok)
  in
  let on_wall, on_ok =
    arm ~flight_cap:Zfarm.Farm.default.Zfarm.Farm.flight_cap
      ~profile_hz:Zfarm.Farm.default.Zfarm.Farm.profile_hz
  in
  let off_wall, off_ok = arm ~flight_cap:0 ~profile_hz:0 in
  let per_s w = float_of_int clients /. w in
  (* >1 means the instrumented arm was slower; <1 is measurement noise in
     the on-arm's favor. *)
  let ratio = on_wall /. off_wall in
  Printf.printf "%-36s %10s %14s\n" "farm arm" "wall s" "sessions/s";
  Printf.printf "%-36s %10.3f %14.2f\n" "recorder + sampler on (defaults)" on_wall (per_s on_wall);
  Printf.printf "%-36s %10.3f %14.2f\n\n" "recorder + sampler off" off_wall (per_s off_wall);
  Printf.printf "overhead: %.2f%% (band: <= %.0f%%; best of %d round(s) per arm)\n%!"
    ((ratio -. 1.0) *. 100.0)
    ((obs_overhead_band -. 1.0) *. 100.0)
    rounds;
  if not (on_ok && off_ok) then begin
    Printf.eprintf "obs-overhead: a replayed session saw a reply that differs from the record\n";
    exit 1
  end;
  let num n = Zobs.Json.Num (float_of_int n) and fnum x = Zobs.Json.Num x in
  obs_section :=
    Zobs.Json.Obj
      [
        ("clients", num clients);
        ("rounds", num rounds);
        ("on_wall_s", fnum on_wall);
        ("off_wall_s", fnum off_wall);
        ("on_sessions_per_s", fnum (per_s on_wall));
        ("off_sessions_per_s", fnum (per_s off_wall));
        ("overhead_ratio", fnum ratio);
        ("band", fnum obs_overhead_band);
        ("transcripts_identical", Zobs.Json.Bool (on_ok && off_ok));
      ]

(* ------------------------------------------------------------------ *)
(* Lint: Zlint analyzer timing and finding counts over the suite       *)
(* ------------------------------------------------------------------ *)

(* Filled by run_lint and folded into BENCH_run.json under "lint". The
   benchmark computations are the largest systems we compile, so timing
   the backend analyzer over them is the regression canary for Zlint
   itself; finding counts are deterministic for a fixed configuration and
   must stay at zero (the suite ships clean). *)
let lint_section : Zobs.Json.t ref = ref Zobs.Json.Null

let run_lint cfg =
  banner "Zlint: analyzer wall-clock and finding counts over the benchmark suite";
  let ctx = ctx_of cfg in
  let apps = Apps.Registry.suite ~scale:cfg.scale () in
  let apps = if cfg.quick then [ List.hd apps ] else apps in
  Printf.printf "%-28s %8s %8s %10s %10s %7s\n" "computation" "rows" "vars" "frontend s"
    "backend s" "finds";
  let rows =
    List.map
      (fun (app : Apps.App_def.t) ->
        let front, t_front =
          time_thunk (fun () -> Zlint.Frontend.check_source app.Apps.App_def.source)
        in
        let compiled = Apps.Glue.compile ctx app in
        let sys = Zlang.Compile.zaatar_r1cs compiled in
        let back, t_back = time_thunk (fun () -> Zlint.lint_compiled compiled) in
        let findings = front @ back in
        Printf.printf "%-28s %8d %8d %10.4f %10.4f %7d\n" app.Apps.App_def.name
          (Constr.R1cs.num_constraints sys)
          sys.Constr.R1cs.num_vars t_front t_back (List.length findings);
        (app.Apps.App_def.name, Constr.R1cs.num_constraints sys, t_front, t_back, findings))
      apps
  in
  let total_findings = List.concat_map (fun (_, _, _, _, f) -> f) rows in
  let count sev = Zlint.Diagnostic.count_severity sev total_findings in
  let errors = count Zlint.Diagnostic.Error
  and warns = count Zlint.Diagnostic.Warn
  and infos = count Zlint.Diagnostic.Info in
  let num x = Zobs.Json.Num x and int n = Zobs.Json.Num (float_of_int n) in
  lint_section :=
    Zobs.Json.Obj
      [
        ( "apps",
          Zobs.Json.Arr
            (List.map
               (fun (name, nc, t_front, t_back, findings) ->
                 Zobs.Json.Obj
                   [
                     ("name", Zobs.Json.Str name);
                     ("rows", int nc);
                     ("frontend_s", num t_front);
                     ("backend_s", num t_back);
                     ("findings", int (List.length findings));
                   ])
               rows) );
        ("errors", int errors);
        ("warnings", int warns);
        ("info", int infos);
      ];
  Printf.printf "\nlint totals: %d error(s), %d warning(s), %d info\n%!" errors warns infos;
  (* The shipped suite linting dirty is itself a regression. *)
  if errors > 0 then begin
    Printf.eprintf "lint: benchmark suite has error-severity findings\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Exec: Zexec interpreter throughput and fuzz campaign rate           *)
(* ------------------------------------------------------------------ *)

(* The witness-solving interpreter (DESIGN.md §16) re-derives each app's
   witness from inputs alone; its constraint-propagation throughput is
   compared against the compiler's gadget-replay solver on the same
   systems, and the differential fuzz campaign's program rate rides
   along. Pinned/defaulted counts and fuzz discrepancies are
   seed-deterministic, so --baseline compares them exactly; seconds get
   the usual drift band. *)
let exec_section : Zobs.Json.t ref = ref Zobs.Json.Null

let run_exec cfg =
  banner "Zexec: interpreter solve throughput vs. the compiler's solver, fuzz program rate";
  let ctx = ctx_of cfg in
  let apps = Apps.Registry.suite ~scale:cfg.scale () in
  let apps = if cfg.quick then [ List.hd apps ] else apps in
  let prg = Chacha.Prg.create ~seed:"bench exec" () in
  Printf.printf "%-28s %8s %10s %10s %10s %7s %7s\n" "computation" "rows" "compile_s"
    "interp_s" "rows/s" "pinned" "free";
  let rows =
    List.map
      (fun (app : Apps.App_def.t) ->
        let compiled = Apps.Glue.compile ctx app in
        let sys = Zlang.Compile.zaatar_r1cs compiled in
        let nc = Constr.R1cs.num_constraints sys in
        let ints = app.Apps.App_def.gen_inputs prg in
        let finputs = Apps.Glue.field_inputs ctx ints in
        let w_compiler, t_compiler =
          time_thunk (fun () -> compiled.Zlang.Compile.solve_zaatar finputs)
        in
        let r, t_interp = time_thunk (fun () -> Zexec.Exec.solve sys ~inputs:finputs) in
        match r with
        | Error e ->
          Printf.eprintf "exec: %s: %s\n" app.Apps.App_def.name (Zexec.Exec.error_to_text e);
          exit 1
        | Ok (w, st) ->
          Array.iteri
            (fun v x ->
              if not (Fp.equal x w.(v)) then begin
                Printf.eprintf "exec: %s: witness differs from the compiler at w%d\n"
                  app.Apps.App_def.name v;
                exit 1
              end)
            w_compiler;
          Printf.printf "%-28s %8d %10.4f %10.4f %10.0f %7d %7d\n" app.Apps.App_def.name nc
            t_compiler t_interp
            (float_of_int nc /. t_interp)
            st.Zexec.Exec.pinned st.Zexec.Exec.defaulted;
          (app.Apps.App_def.name, nc, t_compiler, t_interp, st))
      apps
  in
  let fuzz_count = if cfg.quick then 20 else 60 in
  let report, t_fuzz =
    time_thunk (fun () ->
        Zfuzz.Fuzz.campaign ~verdict_every:0 ~ctx ~seed:42 ~count:fuzz_count ())
  in
  let bad = List.length report.Zfuzz.Fuzz.discrepancies in
  Printf.printf "\nfuzz campaign: %d program(s) in %.2fs (%.1f prog/s), %d discrepancy(ies)\n%!"
    report.Zfuzz.Fuzz.programs t_fuzz
    (float_of_int report.Zfuzz.Fuzz.programs /. t_fuzz)
    bad;
  let num x = Zobs.Json.Num x and int n = Zobs.Json.Num (float_of_int n) in
  exec_section :=
    Zobs.Json.Obj
      [
        ( "apps",
          Zobs.Json.Arr
            (List.map
               (fun (name, nc, t_compiler, t_interp, (st : Zexec.Exec.stats)) ->
                 Zobs.Json.Obj
                   [
                     ("name", Zobs.Json.Str name);
                     ("rows", int nc);
                     ("compiler_s", num t_compiler);
                     ("interp_s", num t_interp);
                     ("rows_per_s", num (float_of_int nc /. t_interp));
                     ("pinned", int st.Zexec.Exec.pinned);
                     ("defaulted", int st.Zexec.Exec.defaulted);
                   ])
               rows) );
        ( "fuzz",
          Zobs.Json.Obj
            [
              ("programs", int report.Zfuzz.Fuzz.programs);
              ("seconds", num t_fuzz);
              ("programs_per_s", num (float_of_int report.Zfuzz.Fuzz.programs /. t_fuzz));
              ("discrepancies", int bad);
            ] );
      ];
  (* A discrepancy in the bench seed is a real compiler/interpreter bug. *)
  if bad > 0 then begin
    Printf.eprintf "exec: the fuzz campaign found %d discrepancy(ies)\n" bad;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Alloc: words allocated per primitive op (Zledger GC profiling)      *)
(* ------------------------------------------------------------------ *)

(* [Gc.minor_words] is an exact allocation counter (not a sample), so
   delta/iters is the precise per-op allocation footprint. Folded into
   BENCH_run.json under "alloc" and into BENCH_history.jsonl. *)
let alloc_section : Zobs.Json.t ref = ref Zobs.Json.Null

(* words/op per kernel, kept for the --check-ledger allocation gate. *)
let alloc_rows : (string * float) list ref = ref []

let run_alloc cfg =
  banner "Allocation profile: minor words per primitive operation";
  let ctx = ctx_of cfg in
  let prg = Chacha.Prg.create ~seed:"alloc bench" () in
  let grp = Zcrypto.Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
  let _sk, pk = Zcrypto.Elgamal.keygen grp prg in
  let a = Chacha.Prg.field_nonzero ctx prg and b = Chacha.Prg.field_nonzero ctx prg in
  let m = Chacha.Prg.field ctx prg in
  let fast = if cfg.quick then 20_000 else 200_000 in
  let slow = if cfg.quick then 50 else 300 in
  (* One Queries frame (4096 elements over the bench field) for the codec
     row, which reports words per decoded element, not per frame. *)
  let codec = Zwire.codec ctx in
  let random_rows rows =
    let q = Fp.Rows.create ctx ~rows ~width:512 in
    for i = 0 to (rows * 512) - 1 do
      Chacha.Prg.field_into ctx prg q.Fp.Rows.vec i
    done;
    q
  in
  let qframe =
    Zwire.encode ~codec
      (Zwire.Queries
         {
           z_queries = random_rows 3;
           h_queries = random_rows 3;
           t_z = (random_rows 1).Fp.Rows.vec;
           t_h = (random_rows 1).Fp.Rows.vec;
         })
  in
  (* The prover's answers to a 4,096-term query set (8 rows of 512) plus
     its decommit vector; the row reports words per query term. *)
  let answer_rows = random_rows 8 and answer_t = (random_rows 1).Fp.Rows.vec in
  let answer_u = Array.init 512 (fun _ -> Chacha.Prg.field ctx prg) in
  (* The verifier's query generation for the pam program at the configured
     rho / rho_lin; the row reports words per element drawn into a row. *)
  let gq_qap =
    let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx (Apps.Registry.pam ~scale:cfg.scale)) in
    Qapb.of_r1cs ~backend:cfg.qap_backend comp.Argsys.Argument.r1cs
  in
  Qapb.prewarm gq_qap;
  let gq_sampled =
    cfg.rho * 2 * cfg.rho_lin * ((Qapb.sys gq_qap).Constr.R1cs.num_z + Qapb.h_len gq_qap)
  in
  (* One prover commitment over a 1,024-term vector with only generic
     coefficients (every term a Pippenger term), Enc(r) prepared per call
     as the unprepared path does; the row reports words per term. *)
  let hom_terms = 1024 in
  let enc_r = Array.init hom_terms (fun _ -> Zcrypto.Elgamal.encrypt pk prg m) in
  let u =
    Array.init hom_terms (fun _ ->
        let x = Chacha.Prg.field ctx prg in
        if Fp.is_zero x || Fp.equal x Fp.one then Fp.of_int ctx 2 else x)
  in
  (* kernel, iterations, elements per iteration, one iteration *)
  let kernels =
    [
      ("fp.mul", fast, 1, fun () -> ignore (Fp.mul ctx a b));
      ("fp.mul_lazy", fast, 1, fun () -> ignore (Fp.mul_lazy ctx a b));
      ("fp.inv", fast / 10, 1, fun () -> ignore (Fp.inv ctx a));
      ("prg.field", fast / 10, 1, fun () -> ignore (Chacha.Prg.field ctx prg));
      ("elgamal.encrypt", slow, 1, fun () -> ignore (Zcrypto.Elgamal.encrypt pk prg m));
      ( "elgamal.hom_dot",
        (if cfg.quick then 2 else 5),
        hom_terms,
        fun () -> ignore (Zcrypto.Elgamal.hom_dot pk enc_r u) );
      ( "ntt.butterfly",
        fast,
        1,
        (* the packed hot-path butterfly: must be allocation-free *)
        let vb = Fp.Vec.of_array ctx [| a; b |] in
        let twb = Fp.Vec.of_array ctx [| m |] in
        let scb = Fp.scratch_for ctx in
        fun () -> Fp.Vec.butterfly ctx scb vb 0 1 twb 0 );
      ( "zwire.decode_el",
        (if cfg.quick then 5 else 20),
        4096,
        fun () -> ignore (Zwire.decode ~codec qframe) );
      ( "commit.prover_answer",
        (if cfg.quick then 5 else 20),
        4096,
        fun () -> ignore (Commitment.Commit.prover_answer ctx answer_u answer_rows answer_t) );
      ( "pcp.gen_queries",
        (if cfg.quick then 1 else 3),
        gq_sampled,
        fun () -> ignore (Pcp.Pcp_zaatar.gen_queries ~params:(protocol cfg) gq_qap prg) );
    ]
  in
  Printf.printf "  %-18s %10s %14s %12s\n" "kernel" "iters" "words/op" "us/op";
  let rows =
    List.map
      (fun (name, iters, elems, f) ->
        f ();
        (* warm-up: one-time setup allocations land outside the window *)
        let w0 = Gc.minor_words () in
        let (), t = time_thunk (fun () -> for _ = 1 to iters do f () done) in
        let ops = float_of_int (iters * elems) in
        let words = (Gc.minor_words () -. w0) /. ops in
        let us = 1e6 *. t /. ops in
        Printf.printf "  %-18s %10d %14.1f %12.3f\n" name iters words us;
        (name, iters, words, us))
      kernels
  in
  alloc_rows := List.map (fun (name, _, words, _) -> (name, words)) rows;
  alloc_section :=
    Zobs.Json.Obj
      (List.map
         (fun (name, iters, words, us) ->
           ( name,
             Zobs.Json.Obj
               [
                 ("iters", Zobs.Json.Num (float_of_int iters));
                 ("words_per_op", Zobs.Json.Num words);
                 ("us_per_op", Zobs.Json.Num us);
               ] ))
         rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Profile: ledger overhead + the Figure-3 op audit (DESIGN.md §12)    *)
(* ------------------------------------------------------------------ *)

let profile_section : Zobs.Json.t ref = ref Zobs.Json.Null
let ledger_section : Zobs.Json.t ref = ref Zobs.Json.Null
let ledger_audit_rows : Costmodel.Model.audit_row list ref = ref []

let run_profile cfg =
  banner "Zledger: instrumentation overhead and the op audit";
  let ctx = ctx_of cfg in
  (* (1) Overhead: the multiexp commit arm with ledger counters off vs on.
     Arms alternate and each side keeps its minimum over [reps], so
     scheduler noise doesn't masquerade as instrumentation cost; the
     sharded counters are a DLS read + unsynchronized int bump per op, so
     the budget is < 3% (acceptance criterion). *)
  let len = if cfg.quick then 96 else 512 in
  let domains = min (Dompool.Pool.num_cores ()) 8 in
  let grp = Zcrypto.Group.cached ~field_order:cfg.field ~p_bits:cfg.p_bits () in
  let commit_once () =
    let prg = Chacha.Prg.create ~seed:"ledger overhead" () in
    let req, _vs = Commitment.Commit.commit_request ~domains ctx grp prg ~len in
    let u =
      Array.init len (fun i -> if i mod 7 = 0 then Fp.zero else Chacha.Prg.field ctx prg)
    in
    ignore (Commitment.Commit.prover_commit req u)
  in
  commit_once ();
  let reps = if cfg.quick then 2 else 3 in
  let t_off = ref infinity and t_on = ref infinity in
  let was_on = Zobs.enabled () in
  for _ = 1 to reps do
    Zobs.disable ();
    let (), t = time_thunk commit_once in
    t_off := min !t_off t;
    Zobs.enable ();
    let (), t = time_thunk commit_once in
    t_on := min !t_on t
  done;
  if not was_on then Zobs.disable ();
  let overhead_ratio = !t_on /. !t_off in
  Printf.printf
    "commit arm (|u| = %d, %d domain(s)): ledger off %s, on %s — overhead %+.2f%%\n\n" len
    domains (fmt_s !t_off) (fmt_s !t_on)
    (100.0 *. (overhead_ratio -. 1.0));
  (* (2) Op audit: a dedicated argument run, ledgered from a clean slate,
     audited against the Figure-3 op-count model. Seeds are fixed, so the
     per-phase op vector is deterministic and baseline-comparable. *)
  Zobs.Ledger.reset ();
  let app = Apps.Registry.pam ~scale:cfg.scale in
  let compiled = Apps.Glue.compile ctx app in
  let comp = Apps.Glue.computation_of compiled in
  let prg = Chacha.Prg.create ~seed:"ledger audit" () in
  let inputs =
    Array.init cfg.batch (fun _ ->
        Apps.Glue.field_inputs ctx (app.Apps.App_def.gen_inputs prg))
  in
  let config =
    {
      Argsys.Argument.params = protocol cfg;
      p_bits = cfg.p_bits;
      strategy = Argsys.Argument.Honest;
      domains = cfg.domains;
      qap_backend = cfg.qap_backend;
    }
  in
  let result = Argsys.Argument.run_batch ~config comp ~prg ~inputs in
  if not (Argsys.Argument.all_accepted result) then begin
    Printf.eprintf "profile: the audit batch was REJECTED\n";
    exit 1
  end;
  let stats = Zlang.Compile.stats compiled in
  let sizes =
    Costmodel.Model.sizes_of_stats stats ~n_x:compiled.Zlang.Compile.num_inputs
      ~n_y:compiled.Zlang.Compile.num_outputs ~t_local:0.0
  in
  let rows =
    let ntt_domain = ntt_domain_of cfg ctx ~nc:sizes.Costmodel.Model.c_zaatar in
    Costmodel.Model.zaatar_op_audit ?ntt_domain (model_protocol cfg) sizes ~beta:cfg.batch
      ~ledger:Zobs.Ledger.phase
  in
  ledger_audit_rows := rows;
  ledger_section := Zobs.Ledger.phases_json ();
  let gated = List.filter (fun r -> r.Costmodel.Model.gated) rows in
  let in_band = List.filter (fun (r : Costmodel.Model.audit_row) -> r.pass) gated in
  Printf.printf "  %-22s %-8s %12s %12s %8s %s\n" "phase" "op" "predicted" "ledgered" "ratio"
    "status";
  List.iter
    (fun (r : Costmodel.Model.audit_row) ->
      Printf.printf "  %-22s %-8s %12.0f %12d %8.3f %s\n" r.phase r.op r.predicted r.ledgered
        r.ratio
        (if not r.gated then "info" else if r.pass then "ok" else "FAIL"))
    rows;
  Printf.printf "op audit (%s, batch %d): %d/%d gated rows in band\n%!" app.Apps.App_def.name
    cfg.batch (List.length in_band) (List.length gated);
  let num x = Zobs.Json.Num x and int n = Zobs.Json.Num (float_of_int n) in
  let row_json (r : Costmodel.Model.audit_row) =
    Zobs.Json.Obj
      [
        ("phase", Zobs.Json.Str r.phase);
        ("op", Zobs.Json.Str r.op);
        ("predicted", num r.predicted);
        ("ledgered", int r.ledgered);
        ("ratio", num r.ratio);
        ("lo", num r.lo);
        ("hi", num r.hi);
        ("gated", Zobs.Json.Bool r.gated);
        ("pass", Zobs.Json.Bool r.pass);
      ]
  in
  profile_section :=
    Zobs.Json.Obj
      [
        ( "overhead",
          Zobs.Json.Obj
            [
              ("len", int len);
              ("domains", int domains);
              ("off_s", num !t_off);
              ("on_s", num !t_on);
              ("overhead_ratio", num overhead_ratio);
            ] );
        ("audit", Zobs.Json.Arr (List.map row_json rows));
      ]

(* --check-ledger gate: every gated audit row must sit inside its
   documented band (the bands live in Costmodel.Model.zaatar_op_audit and
   are documented in DESIGN.md §12). Informational rows never fail it. *)
let check_ledger () =
  match !ledger_audit_rows with
  | [] ->
    Printf.eprintf "--check-ledger: the profile experiment did not run\n";
    exit 1
  | rows ->
    let breaches =
      List.filter (fun (r : Costmodel.Model.audit_row) -> r.gated && not r.pass) rows
    in
    if breaches <> [] then begin
      List.iter
        (fun (r : Costmodel.Model.audit_row) ->
          Printf.eprintf "--check-ledger: %s/%s ratio %.3f outside [%.2f, %.2f] (%s)\n" r.phase
            r.op r.ratio r.lo r.hi r.note)
        breaches;
      exit 1
    end;
    (* Allocation gate: ceilings on words/op for the hot-path kernels (from
       the alloc experiment). The packed butterfly must stay allocation
       free; the boxed field mults allocate their result nat and nothing
       else, with headroom for GC accounting noise. A PRG field draw holds
       to its result nat (plus rejection retries), far below the quadratic
       converter's ~584 words. Query elements are never boxed: a decoded
       Queries element and an answered query term cost a fraction of a
       word (the matrix records and arenas), and a sampled query element
       only its share of the boxed tau-query vectors. Group exponentiation runs on packed
       Montgomery slices, so an encryption allocates its nonce draw and
       the two converted-out residues (~21,000 words on the boxed REDC),
       and a commitment term only its share of the partition arrays. *)
    let alloc_bands =
      [
        ("fp.mul", 120.0);
        ("fp.mul_lazy", 120.0);
        ("ntt.butterfly", 2.0);
        ("zwire.decode_el", 1.0);
        ("commit.prover_answer", 1.0);
        ("pcp.gen_queries", 4.0);
        ("prg.field", 64.0);
        ("elgamal.encrypt", 2000.0);
        ("elgamal.hom_dot", 32.0);
      ]
    in
    List.iter
      (fun (kernel, ceiling) ->
        match List.assoc_opt kernel !alloc_rows with
        | None ->
          Printf.eprintf "--check-ledger: the alloc experiment has no %s row\n" kernel;
          exit 1
        | Some words ->
          if words > ceiling then begin
            Printf.eprintf "--check-ledger: %s allocates %.1f words/op (ceiling %.1f)\n" kernel
              words ceiling;
            exit 1
          end)
      alloc_bands;
    Printf.printf
      "--check-ledger OK: every gated op ratio inside its band; hot-path words/op under ceilings\n"

(* --baseline gate: diff this run against a committed BENCH_baseline.json
   (refresh with `dune exec bench/main.exe -- model wire lint profile
   --json BENCH_baseline.json`). Wire bytes are deterministic for a fixed
   configuration, so the network section must match exactly; lint finding
   counts are deterministic too, while analyzer seconds and model deltas
   are wall-clock and may drift by at most [drift]x either way. *)
let baseline_diff ~drift path cfg =
  let failed = ref false in
  let err fmt =
    Printf.ksprintf
      (fun s ->
        failed := true;
        Printf.eprintf "baseline: %s\n" s)
      fmt
  in
  let base =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    try Zobs.Json.parse s
    with _ ->
      Printf.eprintf "baseline: %s does not parse as JSON\n" path;
      exit 1
  in
  let jnum j k = Option.bind (Zobs.Json.member k j) Zobs.Json.to_num in
  (* The configuration must match, or byte-exact comparison is
     meaningless. *)
  (match Zobs.Json.member "config" base with
  | None -> err "%s has no config section" path
  | Some bc ->
    List.iter
      (fun (k, v) ->
        match jnum bc k with
        | Some b when int_of_float b = v -> ()
        | Some b -> err "config mismatch: %s = %d here, %d in baseline" k v (int_of_float b)
        | None -> err "config key %s missing from baseline" k)
      [
        ("field_bits", Nat.num_bits cfg.field);
        ("rho", cfg.rho);
        ("rho_lin", cfg.rho_lin);
        ("p_bits", cfg.p_bits);
        ("batch", cfg.batch);
        ("scale", cfg.scale);
      ];
    (match Zobs.Json.member "quick" bc with
    | Some (Zobs.Json.Bool b) when b = cfg.quick -> ()
    | Some (Zobs.Json.Bool b) -> err "config mismatch: quick = %b here, %b in baseline" cfg.quick b
    | _ -> err "config key quick missing from baseline"));
  (* Network: deterministic, compared exactly. *)
  (match (Zobs.Json.member "network" base, !wire_section) with
  | None, Zobs.Json.Null -> err "neither run has a network section (run the wire experiment)"
  | None, _ -> err "%s has no network section — refresh the baseline" path
  | Some _, Zobs.Json.Null -> err "this run has no network section (wire experiment did not run)"
  | Some bn, cn ->
    let check_counts ctx b c =
      List.iter
        (fun k ->
          match (jnum b k, jnum c k) with
          | Some bv, Some cv when bv = cv -> ()
          | Some bv, Some cv ->
            err "network%s.%s: %d here, %d in baseline" ctx k (int_of_float cv) (int_of_float bv)
          | _ -> err "network%s.%s missing" ctx k)
    in
    check_counts "" bn cn [ "bytes_sent"; "bytes_recv"; "msgs" ];
    (match (Zobs.Json.member "per_phase" bn, Zobs.Json.member "per_phase" cn) with
    | Some bp, Some cp ->
      List.iter
        (fun ph ->
          match (Zobs.Json.member ph bp, Zobs.Json.member ph cp) with
          | Some b, Some c -> check_counts ("." ^ ph) b c [ "sent"; "recv"; "msgs" ]
          | _ -> err "network.per_phase.%s missing" ph)
        wire_phases
    | _ -> err "network.per_phase missing"));
  (* Farm: client count, frames/session, cache hit/miss counts, the
     warm-session construction count (must stay 0) and transcript
     identity are deterministic and compared exactly; the speedup over
     the sequential loop is wall-clock and held to the drift band. *)
  (match (Zobs.Json.member "farm" base, !farm_section) with
  | None, Zobs.Json.Null -> err "neither run has a farm section (run the farm experiment)"
  | None, _ -> err "%s has no farm section — refresh the baseline" path
  | Some _, Zobs.Json.Null -> err "this run has no farm section (farm experiment did not run)"
  | Some bf, cf ->
    List.iter
      (fun k ->
        match (jnum bf k, jnum cf k) with
        | Some bv, Some cv when bv = cv -> ()
        | Some bv, Some cv ->
          err "farm.%s: %d here, %d in baseline" k (int_of_float cv) (int_of_float bv)
        | _ -> err "farm.%s missing" k)
      [ "clients"; "frames_per_session"; "cache_hits"; "cache_misses"; "warm_qap_constructions" ];
    (match Zobs.Json.member "transcripts_identical" cf with
    | Some (Zobs.Json.Bool true) -> ()
    | _ -> err "farm.transcripts_identical is not true");
    (match (jnum bf "speedup", jnum cf "speedup") with
    | Some b, Some c ->
      let d = c /. b in
      if d > drift || d < 1.0 /. drift || Float.is_nan d then
        err "farm.speedup: %.2fx vs. baseline %.2fx drifts beyond %gx" c b drift
    | _ -> err "farm.speedup missing"));
  (* Zscope overhead: an absolute band, not a drift band — the recorder
     and sampler must cost at most (band-1) of the uninstrumented farm's
     sessions/sec on every gated run. *)
  (match (Zobs.Json.member "obs_overhead" base, !obs_section) with
  | None, Zobs.Json.Null ->
    err "neither run has an obs_overhead section (run the obs-overhead experiment)"
  | None, _ -> err "%s has no obs_overhead section — refresh the baseline" path
  | Some _, Zobs.Json.Null ->
    err "this run has no obs_overhead section (obs-overhead experiment did not run)"
  | Some _, cf -> (
    match jnum cf "overhead_ratio" with
    | Some r ->
      if r > obs_overhead_band || Float.is_nan r then
        err "obs_overhead: recorder+sampler cost %.1f%% of sessions/sec (band %.0f%%)"
          ((r -. 1.0) *. 100.0)
          ((obs_overhead_band -. 1.0) *. 100.0)
    | None -> err "obs_overhead.overhead_ratio missing"));
  (* Model: wall-clock, so each phase's measured/predicted delta may move,
     but only within [1/drift, drift] of the committed delta. *)
  (match Zobs.Json.member "model" base with
  | None -> if !model_rows <> [] then err "%s has no model section — refresh the baseline" path
  | Some bm ->
    if !model_rows = [] then err "this run has no model section (model experiment did not run)"
    else begin
      let bapps =
        match Option.bind (Zobs.Json.member "apps" bm) Zobs.Json.to_arr with
        | Some l -> l
        | None -> []
      in
      let baseline_delta name ph =
        List.find_map
          (fun app ->
            match Option.bind (Zobs.Json.member "name" app) Zobs.Json.to_str with
            | Some n when n = name ->
              Option.bind (Zobs.Json.member "phases" app) (fun phs ->
                  Option.bind (Zobs.Json.member ph phs) (fun p -> jnum p "delta"))
            | _ -> None)
          bapps
      in
      List.iter
        (fun (name, phases) ->
          List.iter
            (fun (ph, predicted, measured) ->
              let cur = measured /. predicted in
              match baseline_delta name ph with
              | None -> err "model %s/%s missing from baseline" name ph
              | Some b ->
                let d = cur /. b in
                if d > drift || d < 1.0 /. drift || Float.is_nan d then
                  err "model %s/%s: delta %.2fx vs. baseline %.2fx drifts beyond %gx" name ph
                    cur b drift)
            phases)
        !model_rows
    end);
  (* Lint: finding counts are deterministic (compared exactly); analyzer
     seconds are wall-clock and gated by the same drift band as the model. *)
  (match (Zobs.Json.member "lint" base, !lint_section) with
  | None, Zobs.Json.Null -> err "neither run has a lint section (run the lint experiment)"
  | None, _ -> err "%s has no lint section — refresh the baseline" path
  | Some _, Zobs.Json.Null -> err "this run has no lint section (lint experiment did not run)"
  | Some bl, cl ->
    List.iter
      (fun k ->
        match (jnum bl k, jnum cl k) with
        | Some bv, Some cv when bv = cv -> ()
        | Some bv, Some cv ->
          err "lint.%s: %d here, %d in baseline" k (int_of_float cv) (int_of_float bv)
        | _ -> err "lint.%s missing" k)
      [ "errors"; "warnings"; "info" ];
    let apps_of j =
      match Option.bind (Zobs.Json.member "apps" j) Zobs.Json.to_arr with
      | Some l ->
        List.filter_map
          (fun a ->
            match Option.bind (Zobs.Json.member "name" a) Zobs.Json.to_str with
            | Some n -> Some (n, a)
            | None -> None)
          l
      | None -> []
    in
    let bapps = apps_of bl in
    List.iter
      (fun (name, capp) ->
        match List.assoc_opt name bapps with
        | None -> err "lint app %s missing from baseline" name
        | Some bapp ->
          (match (jnum bapp "findings", jnum capp "findings") with
          | Some bv, Some cv when bv = cv -> ()
          | Some bv, Some cv ->
            err "lint %s: %d finding(s) here, %d in baseline" name (int_of_float cv)
              (int_of_float bv)
          | _ -> err "lint %s finding count missing" name);
          (match (jnum bapp "rows", jnum capp "rows") with
          | Some bv, Some cv when bv = cv -> ()
          | Some bv, Some cv ->
            err "lint %s: %d row(s) here, %d in baseline" name (int_of_float cv)
              (int_of_float bv)
          | _ -> err "lint %s row count missing" name);
          (match (jnum bapp "backend_s", jnum capp "backend_s") with
          | Some b, Some c ->
            let d = c /. b in
            if d > drift || Float.is_nan d then
              err "lint %s: analyzer %.4fs vs. baseline %.4fs drifts beyond %gx" name c b drift
          | _ -> err "lint %s backend_s missing" name))
      (apps_of cl));
  (* Exec: the interpreter's pinned/defaulted counts and the fuzz
     campaign's discrepancy count are seed-deterministic (compared
     exactly); interpreter seconds get the drift band. *)
  (match (Zobs.Json.member "exec" base, !exec_section) with
  | None, Zobs.Json.Null -> err "neither run has an exec section (run the exec experiment)"
  | None, _ -> err "%s has no exec section — refresh the baseline" path
  | Some _, Zobs.Json.Null -> err "this run has no exec section (exec experiment did not run)"
  | Some bx, cx ->
    (match
       ( Option.bind (Zobs.Json.member "fuzz" bx) (fun f -> jnum f "discrepancies"),
         Option.bind (Zobs.Json.member "fuzz" cx) (fun f -> jnum f "discrepancies") )
     with
    | Some bv, Some cv when bv = cv -> ()
    | Some bv, Some cv ->
      err "exec fuzz: %d discrepancy(ies) here, %d in baseline" (int_of_float cv)
        (int_of_float bv)
    | _ -> err "exec fuzz discrepancy count missing");
    let apps_of j =
      match Option.bind (Zobs.Json.member "apps" j) Zobs.Json.to_arr with
      | Some l ->
        List.filter_map
          (fun a ->
            match Option.bind (Zobs.Json.member "name" a) Zobs.Json.to_str with
            | Some n -> Some (n, a)
            | None -> None)
          l
      | None -> []
    in
    let bapps = apps_of bx in
    List.iter
      (fun (name, capp) ->
        match List.assoc_opt name bapps with
        | None -> err "exec app %s missing from baseline" name
        | Some bapp ->
          List.iter
            (fun k ->
              match (jnum bapp k, jnum capp k) with
              | Some bv, Some cv when bv = cv -> ()
              | Some bv, Some cv ->
                err "exec %s: %s = %d here, %d in baseline" name k (int_of_float cv)
                  (int_of_float bv)
              | _ -> err "exec %s: %s missing" name k)
            [ "rows"; "pinned"; "defaulted" ];
          (match (jnum bapp "interp_s", jnum capp "interp_s") with
          | Some b, Some c ->
            let d = c /. b in
            if d > drift || Float.is_nan d then
              err "exec %s: interpreter %.4fs vs. baseline %.4fs drifts beyond %gx" name c b
                drift
          | _ -> err "exec %s: interp_s missing" name))
      (apps_of cx));
  (* Ledger: the audit run's per-phase op vector is seed-deterministic, so
     every op count must match the baseline exactly. Seconds and GC words
     are wall-clock/runtime-version dependent and are not compared. *)
  (match (Zobs.Json.member "ledger" base, !ledger_section) with
  | None, Zobs.Json.Null -> err "neither run has a ledger section (run the profile experiment)"
  | None, _ -> err "%s has no ledger section — refresh the baseline" path
  | Some _, Zobs.Json.Null -> err "this run has no ledger section (profile experiment did not run)"
  | Some bl, cur ->
    let phases_of = function
      | Zobs.Json.Obj fields -> fields
      | _ -> []
    in
    List.iter
      (fun (phase, cph) ->
        match Zobs.Json.member phase bl with
        | None -> err "ledger phase %s missing from baseline" phase
        | Some bph -> (
          match (Zobs.Json.member "ops" bph, Zobs.Json.member "ops" cph) with
          | Some (Zobs.Json.Obj bops), Some (Zobs.Json.Obj cops) ->
            List.iter
              (fun (op, cv) ->
                match (List.assoc_opt op bops, cv) with
                | Some (Zobs.Json.Num bv), Zobs.Json.Num cv when bv = cv -> ()
                | Some (Zobs.Json.Num bv), Zobs.Json.Num cv ->
                  err "ledger %s.%s: %d op(s) here, %d in baseline" phase op (int_of_float cv)
                    (int_of_float bv)
                | _ -> err "ledger %s.%s missing from baseline" phase op)
              cops
          | _ -> err "ledger phase %s has no ops" phase))
      (phases_of cur));
  if !failed then exit 1
  else
    Printf.printf
      "baseline check OK against %s: network bytes and ledger ops identical, lint and exec \
       counts identical, model/lint/exec timings within %gx\n%!"
      path drift

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage () =
  print_endline
    "usage: bench [all|micro|bechamel|model|baseline|fig4|fig5|fig6|fig7|fig8|fig9|soundness|ablation|ntt-vs-lagrange|multiexp|wire|farm|obs-overhead|lint|exec|alloc|profile]\n\
    \       [--scale N] [--batch N] [--pbits N] [--paper-params] [--quick] [--domains N]\n\
    \       [--qap-backend auto|ntt|lagrange]\n\
    \       [--trace OUT.json] [--metrics] [--json OUT.json]\n\
    \       [--check-model] [--model-band LO:HI] [--check-ledger] [--baseline FILE] [--drift X]\n\
    \       [--history FILE.jsonl] [--trend N]";
  exit 2

(* "all" in paper-figure order (micro first: later figures reuse its
   measured constants). *)
let all_experiments =
  [ "micro"; "bechamel"; "fig9"; "model"; "fig4"; "fig5"; "fig7"; "fig8"; "fig6"; "baseline";
    "soundness"; "ablation"; "ntt-vs-lagrange"; "multiexp"; "wire"; "farm"; "obs-overhead";
    "lint"; "exec"; "alloc"; "profile" ]

(* Machine-readable run summary (BENCH_run.json): configuration,
   per-experiment wall times, and the Zobs counter/histogram/span totals
   accumulated across the run. Written with the in-house Zobs.Json writer
   and parsed back with its parser as a self-check — scripts/ci.sh greps
   for the "parsed back OK" line. *)
let summary_json cfg (experiments : (string * float) list) : Zobs.Json.t =
  let open Zobs.Json in
  let num x = Num x and int n = Num (float_of_int n) in
  let config =
    Obj
      [
        ("field_bits", int (Nat.num_bits cfg.field));
        ("rho", int cfg.rho);
        ("rho_lin", int cfg.rho_lin);
        ("p_bits", int cfg.p_bits);
        ("batch", int cfg.batch);
        ("scale", int cfg.scale);
        ("quick", Bool cfg.quick);
        ("qap_backend", Str (Qapb.backend_to_string cfg.qap_backend));
      ]
  in
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
  let multiexp =
    match !multiexp_section with Null -> [] | m -> [ ("multiexp", m) ]
  in
  let ntt_vs_lagrange =
    match !ntt_section with Null -> [] | m -> [ ("ntt_vs_lagrange", m) ]
  in
  let network = match !wire_section with Null -> [] | m -> [ ("network", m) ] in
  let farm = match !farm_section with Null -> [] | m -> [ ("farm", m) ] in
  let obs = match !obs_section with Null -> [] | m -> [ ("obs_overhead", m) ] in
  let model = match !model_section with Null -> [] | m -> [ ("model", m) ] in
  let lint = match !lint_section with Null -> [] | m -> [ ("lint", m) ] in
  let exec = match !exec_section with Null -> [] | m -> [ ("exec", m) ] in
  let alloc = match !alloc_section with Null -> [] | m -> [ ("alloc", m) ] in
  let profile = match !profile_section with Null -> [] | m -> [ ("profile", m) ] in
  let ledger = match !ledger_section with Null -> [] | m -> [ ("ledger", m) ] in
  Obj
    ([
       ("schema", Str "zaatar-bench-run/1");
       ("config", config);
       ("experiments", experiments);
     ]
    @ multiexp @ ntt_vs_lagrange @ network @ farm @ obs @ model @ lint @ exec @ alloc @ profile
    @ ledger
    @ [ ("counters", counters); ("histograms", histograms); ("spans", spans) ])

let write_summary cfg path experiments =
  let oc = open_out path in
  output_string oc (Zobs.Json.to_string (summary_json cfg experiments));
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

(* BENCH_history.jsonl: one line per gated run (--check-model,
   --check-ledger or --baseline), appended before the gates execute so a
   breach still leaves its evidence behind. scripts/ci.sh prints the
   last-N trend with --trend. *)

let deep j keys =
  List.fold_left (fun acc k -> Option.bind acc (Zobs.Json.member k)) (Some j) keys

let dnum j keys = Option.bind (deep j keys) Zobs.Json.to_num

let append_history cfg path (experiments : (string * float) list) =
  let open Zobs.Json in
  let num x = Num x and int n = Num (float_of_int n) in
  let line =
    Obj
      ([
         ("ts", num (Unix.time ()));
         ( "config",
           Obj
             [
               ("field_bits", int (Nat.num_bits cfg.field));
               ("rho", int cfg.rho);
               ("rho_lin", int cfg.rho_lin);
               ("p_bits", int cfg.p_bits);
               ("batch", int cfg.batch);
               ("scale", int cfg.scale);
               ("quick", Bool cfg.quick);
             ] );
         ("experiments", Obj (List.map (fun (n, w) -> (n, num w)) experiments));
       ]
      @ (match !ledger_section with Null -> [] | l -> [ ("ledger", l) ])
      @ (match !alloc_section with Null -> [] | a -> [ ("alloc", a) ])
      @
      match
        match !profile_section with Null -> None | p -> dnum p [ "overhead"; "overhead_ratio" ]
      with
      | None -> []
      | Some r -> [ ("overhead_ratio", num r) ])
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
  Printf.printf "  %-17s %6s %10s %10s %13s %9s\n" "when" "batch" "commit_s" "setup_s"
    "construct_f" "overhead";
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
        Printf.printf "  %-17s %6s %10s %10s %13s %9s\n" when_
          (show "%.0f" (dnum j [ "config"; "batch" ]))
          (show "%.4f" (dnum j [ "ledger"; "crypto_ops"; "seconds" ]))
          (show "%.4f" (dnum j [ "ledger"; "verifier_setup"; "seconds" ]))
          (show "%.0f" (dnum j [ "ledger"; "construct_u"; "ops"; "f" ]))
          (show "%.3fx" (dnum j [ "overhead_ratio" ])))
    last

let () =
  let cfg = ref default_cfg in
  let targets = ref [] in
  let trace = ref None and metrics = ref false and json = ref "BENCH_run.json" in
  let check = ref false and band = ref (0.2, 5.0) in
  let baseline = ref None and drift = ref 4.0 in
  let check_ledger_flag = ref false in
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
    | "--check-model" :: rest ->
      check := true;
      parse rest
    | "--model-band" :: v :: rest ->
      (match String.split_on_char ':' v with
      | [ lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi when lo > 0.0 && hi > lo -> band := (lo, hi)
        | _ ->
          Printf.eprintf "--model-band expects LO:HI with 0 < LO < HI, got %S\n" v;
          exit 2)
      | _ ->
        Printf.eprintf "--model-band expects LO:HI, got %S\n" v;
        exit 2);
      parse rest
    | "--check-ledger" :: rest ->
      check_ledger_flag := true;
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
    | "--drift" :: v :: rest ->
      (match float_of_string_opt v with
      | Some d when d > 1.0 -> drift := d
      | _ ->
        Printf.eprintf "--drift expects a factor > 1, got %S\n" v;
        exit 2);
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
  let targets = if !targets = [] then [ "all" ] else List.rev !targets in
  let targets = List.concat_map (fun t -> if t = "all" then all_experiments else [ t ]) targets in
  (* The gates need their experiments to have run: --check-model and
     --baseline pull in model, --baseline also pulls in wire and lint,
     --check-ledger and --baseline pull in profile. *)
  let targets =
    let need =
      (if !check || !baseline <> None then [ "model" ] else [])
      @ (if !baseline <> None then [ "wire" ] else [])
      @ (if !baseline <> None then [ "farm" ] else [])
      @ (if !baseline <> None then [ "obs-overhead" ] else [])
      @ (if !baseline <> None then [ "lint" ] else [])
      @ (if !baseline <> None then [ "exec" ] else [])
      @ (if !check_ledger_flag || !baseline <> None then [ "profile" ] else [])
      @ if !check_ledger_flag then [ "alloc" ] else []
    in
    targets @ List.filter (fun t -> not (List.mem t targets)) need
  in
  let cfg = !cfg in
  (* The bench always traces: the JSON summary reports counter and span
     totals, and --trace/--metrics only choose extra output forms. *)
  Zobs.enable ();
  Printf.printf
    "zaatar bench: field = %d bits, rho = %d, rho_lin = %d, group = %d bits, batch = %d, scale = %d, qap = %s\n"
    (Nat.num_bits cfg.field) cfg.rho cfg.rho_lin cfg.p_bits cfg.batch cfg.scale
    (Qapb.backend_to_string cfg.qap_backend);
  let run = function
    | "micro" -> run_micro cfg
    | "bechamel" -> run_bechamel cfg
    | "model" -> run_model cfg
    | "fig4" -> run_fig4 cfg
    | "fig5" -> run_fig5 cfg
    | "fig6" -> run_fig6 cfg
    | "fig7" -> run_fig7 cfg
    | "fig8" -> run_fig8 cfg
    | "fig9" -> run_fig9 cfg
    | "baseline" -> run_baseline cfg
    | "soundness" -> run_soundness cfg
    | "ablation" -> run_ablation cfg
    | "ntt-vs-lagrange" -> run_ntt_vs_lagrange cfg
    | "multiexp" -> run_multiexp cfg
    | "wire" -> run_wire cfg
    | "farm" -> run_farm cfg
    | "obs-overhead" -> run_obs_overhead cfg
    | "lint" -> run_lint cfg
    | "exec" -> run_exec cfg
    | "alloc" -> run_alloc cfg
    | "profile" -> run_profile cfg
    | t ->
      Printf.eprintf "unknown experiment %S\n" t;
      usage ()
  in
  let timed_experiments =
    List.map
      (fun name ->
        let (), wall = time_thunk (fun () -> run name) in
        (name, wall))
      targets
  in
  write_summary cfg !json timed_experiments;
  (* Gated runs leave a history line (config, per-phase seconds, op ledger,
     alloc counts) even when a gate then fails. *)
  if !check || !check_ledger_flag || !baseline <> None then
    append_history cfg !history timed_experiments;
  (match !trace with
  | Some path ->
    Zobs.write_chrome_trace path;
    Printf.printf "wrote %s (chrome trace; load in chrome://tracing or ui.perfetto.dev)\n" path
  | None -> ());
  if !metrics then Format.printf "@.== telemetry ==@.%a" Zobs.report ();
  (* Gates last: the summary, trace and telemetry are already on disk for
     diagnosis when a gate exits non-zero. *)
  if !check then check_model !band;
  if !check_ledger_flag then check_ledger ();
  (match !baseline with Some p -> baseline_diff ~drift:!drift p cfg | None -> ());
  print_newline ()
