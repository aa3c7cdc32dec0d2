(* The paper's §5 evaluation and Appendix A.2 as bench experiments: every
   table and figure, the Figure 3 cost-model check, the §5.1
   microbenchmarks and the ablations. [experiments] at the bottom is the
   one list the driver (main.ml) reads: each entry's name, run function,
   the BENCH_run.json sections it returns and the gate rows (Gate) its
   sections are held to. See DESIGN.md §3 for the experiment index and
   EXPERIMENTS.md for recorded paper-vs-measured results.

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

(* The honest argument at the configured protocol, group and backend. *)
let arg_config cfg =
  {
    Argsys.Argument.params = protocol cfg;
    p_bits = cfg.p_bits;
    strategy = Argsys.Argument.Honest;
    domains = cfg.domains;
    qap_backend = cfg.qap_backend;
  }

let num x = Zobs.Json.Num x
let int n = Zobs.Json.Num (float_of_int n)

(* The "config" object of BENCH_run.json and of each BENCH_history.jsonl
   line. *)
let config_json cfg =
  Zobs.Json.Obj
    [
      ("field_bits", int (Nat.num_bits cfg.field));
      ("rho", int cfg.rho);
      ("rho_lin", int cfg.rho_lin);
      ("p_bits", int cfg.p_bits);
      ("batch", int cfg.batch);
      ("scale", int cfg.scale);
      ("quick", Zobs.Json.Bool cfg.quick);
      ("qap_backend", Zobs.Json.Str (Qapb.backend_to_string cfg.qap_backend));
    ]

(* --baseline: every config key but the backend must match the baseline's,
   or comparing counts exactly is meaningless. *)
let config_gates =
  Gate.(rows Baseline Exact)
    (List.map (( ^ ) "config.") [ "field_bits"; "rho"; "rho_lin"; "p_bits"; "batch"; "scale"; "quick" ])

(* The small program behind the wire, farm and soundness experiments. *)
let sq3 = "computation sq3(input int32 x, input int32 w, output int32 y) { y = x*x + w*w + 3; }"

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
    let result = Argsys.Argument.run_batch ~config:(arg_config cfg) comp ~prg ~inputs in
    if not (Argsys.Argument.all_accepted result) then
      failwith (key ^ ": verification unexpectedly failed");
    let prover_per_instance = Argsys.Metrics.total result.Argsys.Argument.prover /. float_of_int cfg.batch in
    let r = { app; compiled; stats; t_local; result; prover_per_instance; batch = cfg.batch } in
    Hashtbl.add run_cache key r;
    r

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

(* BENCH_run.json's "model" section: per application and phase, the
   predicted and measured prover seconds and their ratio (delta). *)
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

(* Prover-only batch with separate compute and crypto parallelism, returning
   the three phase times; the "GPU" configurations give the crypto phase
   extra domains (see DESIGN.md substitutions). *)
let prover_batch ~compute_domains ~crypto_domains (comp : Argsys.Argument.computation)
    (qap : Qapb.t) queries req_z req_h inputs =
  (* Force lazy QAP structures before entering domains. *)
  Qapb.prewarm qap;
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
      let run ~c ~g =
        prover_batch ~compute_domains:c ~crypto_domains:(c + g) comp qap queries req_z req_h inputs
      in
      let wall ~c ~g =
        let t_compute, t_crypto, t_answer = run ~c ~g in
        t_compute +. t_crypto +. t_answer
      in
      (* Single-domain run with per-phase times, for the ideal projections
         (the paper's own "(ideal)" bars). *)
      let t_compute, t_crypto, t_answer = run ~c:1 ~g:0 in
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
      f_packed = 210e-9 (* one GMP multiplication kernel *);
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
          let s = Zlang.Compile.stats (Apps.Glue.compile (ctx_of cfg) app) in
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
      let zres = Argsys.Argument.run_batch ~config:(arg_config cfg) zcomp ~prg ~inputs:[| x |] in
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
  let comp = Apps.Glue.computation_of (Zlang.Compile.compile ~ctx sq3) in
  (* Single repetition, 192-bit group, one domain. *)
  let config strategy =
    { (arg_config cfg) with params = Pcp.Pcp_zaatar.test_params; p_bits = 192; strategy; domains = 1 }
  in
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
        let r = Argsys.Argument.run_batch ~config:(config strategy) comp ~prg ~inputs in
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
    let r = Argsys.Argument.run_batch ~config:(config Argsys.Argument.Honest) comp ~prg ~inputs in
    if Argsys.Argument.all_accepted r then incr accepted
  done;
  Printf.printf "  %-22s %4d/%d accepted (completeness must be 100%%)\n" "honest prover" !accepted honest_trials

(* ------------------------------------------------------------------ *)
(* NTT vs Lagrange: the prover hot path head to head                   *)
(* ------------------------------------------------------------------ *)

(* Run every benchmark app end to end under both
   QAP backends and compare (1) prover_h wall time via the split span
   names (qap_ntt.prover_h vs qap.prover_h — prover_h_forced emits its
   own spans and cannot pollute these), (2) construct_u minor-word
   allocation via the ledger's per-phase GC deltas, (3) verdicts, which
   must agree exactly, and (4) the packed NTT H against the
   subproduct-tree reference over the same domain (Karatsuba, not an
   NTT), which must match bit for bit. Correctness disagreement exits
   1; the speed and allocation ratios are the "ntt_vs_lagrange"
   section. *)
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
    Zobs.Json.Obj [ ("skipped", Zobs.Json.Bool true) ]
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
            let config = { (arg_config cfg) with qap_backend = backend } in
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
          (* Differential H: NTT fast path vs subproduct-tree reference
             over the same roots-of-unity domain. *)
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
    if not !ok then begin
      Printf.eprintf "ntt-vs-lagrange: backend disagreement (see above)\n";
      exit 1
    end;
    Zobs.Json.Obj rows
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

(* The "multiexp" section. scripts/ci.sh runs this experiment in smoke
   mode and fails the build if any kernel result diverges from the naive
   ladder. *)
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
  if not !agree then begin
    Printf.eprintf "multiexp: kernel results diverge from the naive ladder\n";
    exit 1
  end;
  Printf.printf "\nmultiexp kernels agree with the naive ladder\n%!";
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
    ]

(* ------------------------------------------------------------------ *)
(* Wire: network accounting for the split V/P protocol (Figure 9 vein) *)
(* ------------------------------------------------------------------ *)

(* The "network" section. The loopback driver encodes and decodes every
   protocol message, so the wire.* counters measure exactly what `zaatar
   serve` would move over a socket; sent and received must balance or the
   run fails. *)
let run_wire cfg =
  banner "Wire protocol: bytes moved per phase of the split verifier/prover argument";
  let ctx = ctx_of cfg in
  let comp = Apps.Glue.computation_of (Zlang.Compile.compile ~ctx sq3) in
  let prg = Chacha.Prg.create ~seed:"bench wire" () in
  let batch = max 2 cfg.batch in
  let inputs =
    Array.init batch (fun _ ->
        Apps.Glue.field_inputs ctx
          [| Chacha.Prg.int_below prg 10000; Chacha.Prg.int_below prg 10000 |])
  in
  let snapshot () =
    let vals = Zobs.Registry.counter_values () in
    fun name -> match List.assoc_opt name vals with Some v -> v | None -> 0
  in
  let before = snapshot () in
  let result = Argsys.Argument.run_batch ~config:(arg_config cfg) comp ~prg ~inputs in
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
      [ "hello"; "commit"; "query"; "answer"; "verdict" ]
  in
  Printf.printf "%-10s %12d %12d %8d\n%!" "total" sent recv msgs;
  (* Cross-check: the loopback driver decodes every byte it encodes, so an
     imbalance means a codec phase is unaccounted. *)
  if sent <> recv || sent = 0 then begin
    Printf.eprintf "wire: sent (%d) and received (%d) bytes do not balance\n" sent recv;
    exit 1
  end;
  Printf.printf "\nsent and received bytes balance (%d B over %d message(s))\n%!" sent msgs;
  Zobs.Json.Obj
    [
      ("batch", int batch);
      ("bytes_sent", int sent);
      ("bytes_recv", int recv);
      ("msgs", int msgs);
      ("balanced", Zobs.Json.Bool (sent = recv));
      ( "per_phase",
        Zobs.Json.Obj
          (List.map
             (fun (ph, s, r, m) ->
               (ph, Zobs.Json.Obj [ ("sent", int s); ("recv", int r); ("msgs", int m) ]))
             per_phase) );
    ]

(* ------------------------------------------------------------------ *)
(* Farm: concurrent prover farm vs one-session-at-a-time serving       *)
(* ------------------------------------------------------------------ *)

(* Run [f addr] against a farm in its own domain that exits after
   [max_conns] sessions; returns [f]'s result and the farm's stats. *)
let with_bench_farm ~what ~(config : Zfarm.Farm.config) ~lookup ~max_conns f =
  let stats = Znet.Svcstats.create () in
  let bound = Atomic.make None in
  let prefix = "listening on " in
  let k = String.length prefix in
  let log l =
    if String.length l > k && String.sub l 0 k = prefix then
      Atomic.set bound (Some (String.sub l k (String.length l - k)))
  in
  let server =
    Domain.spawn (fun () -> Zfarm.Farm.serve ~config ~stats ~lookup ~max_conns ~log "127.0.0.1:0")
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec addr () =
    match Atomic.get bound with
    | Some a -> a
    | None ->
      if Unix.gettimeofday () > deadline then failwith (what ^ ": serve never bound");
      Unix.sleepf 0.005;
      addr ()
  in
  let r = f (addr ()) in
  Domain.join server;
  (r, stats)

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

(* The farm and obs-overhead fixture. The clients are *replay* clients:
   one real verifier session over sq3 is recorded (frames sent, replies
   received, verdict checked) against a one-shot farm, then every client
   replays the same byte stream, sleeping [think_s] before each frame to
   emulate off-box verifier compute, and asserts the prover's replies are
   byte-identical (the honest prover draws nothing from its PRG, so
   replies are a deterministic function of the received frames). Returns
   the frames per session and [serve ~think_s fc]: [fleet_clients]
   concurrent replays against one farm arm, as ((wall, all replies
   identical), the arm's stats). *)
let fleet_clients = 8

let farm_fleet cfg ~what ~seed =
  let ctx = ctx_of cfg in
  let comp = Apps.Glue.computation_of (Zlang.Compile.compile ~ctx sq3) in
  let config = arg_config cfg in
  let lookup =
    let d = Argsys.Argument.digest comp in
    fun d' -> if String.equal d' d then Some comp else None
  in
  let farm fc = with_bench_farm ~what ~config:{ fc with Zfarm.Farm.arg_config = config } ~lookup in
  let transcript, _ =
    farm Zfarm.Farm.default ~max_conns:1
      (record_session ~config comp ~prg:(Chacha.Prg.create ~seed ())
         ~inputs:[| Apps.Glue.field_inputs ctx [| 7; 11 |] |])
  in
  let serve ~think_s fc =
    farm fc ~max_conns:fleet_clients (fun addr ->
        let t0 = Unix.gettimeofday () in
        let doms =
          Array.init fleet_clients (fun _ ->
              Domain.spawn (fun () -> replay_session ~think_s ~addr transcript))
        in
        let ok = Array.for_all Domain.join doms in
        (Unix.gettimeofday () -. t0, ok))
  in
  (List.length transcript, serve)

(* The "farm" section: sessions/sec and latency percentiles at
   [fleet_clients] concurrent verifier clients against (a) a farm
   admitting one session at a time with no setup cache (the others park
   in its accept queue — the pre-farm sequential accept loop's
   behaviour), (b) the farm event loop with the setup cache, (c) the farm
   with the cache disabled. Identical clients hit every arm, so the
   comparison isolates the server: one-at-a-time serving is held hostage
   by each client's think time, the event loop overlaps them. *)
let run_farm cfg =
  banner "Farm: sessions/sec at concurrent verifier clients (event loop vs one at a time)";
  let frames, serve = farm_fleet cfg ~what:"farm" ~seed:"bench farm verifier" in
  let clients = fleet_clients in
  let think_ms = if cfg.quick then 25 else 60 in
  Printf.printf
    "%d concurrent same-digest clients, %d frame(s)/session, %d ms think before each frame\n\n"
    clients frames think_ms;
  let farm_arm ~max_sessions ~cache_bytes =
    let (wall, ok), stats =
      serve ~think_s:(float_of_int think_ms /. 1000.0)
        {
          Zfarm.Farm.default with
          max_sessions;
          accept_queue = clients;
          setup_cache_bytes = cache_bytes;
        }
    in
    let _, hits, misses, _ = Znet.Svcstats.farm_totals stats in
    (wall, ok, hits, misses, Znet.Svcstats.latency_ms stats)
  in
  let seq_wall, seq_ok, _, _, _ = farm_arm ~max_sessions:1 ~cache_bytes:0 in
  (* Arms 2 and 3: the farm event loop, with and without the setup cache. *)
  let farm_arm = farm_arm ~max_sessions:(clients + 2) in
  let built_before = Zobs.Registry.counter_value "farm.setup.built" in
  let farm_wall, farm_ok, hits, misses, (p50, p95, p99) =
    farm_arm ~cache_bytes:Zfarm.Farm.default.Zfarm.Farm.setup_cache_bytes
  in
  let warm_builds = Zobs.Registry.counter_value "farm.setup.built" - built_before - 1 in
  let nocache_wall, nocache_ok, _, _, _ = farm_arm ~cache_bytes:0 in
  let per_s w = float_of_int clients /. w in
  let speedup = seq_wall /. farm_wall in
  Printf.printf "%-28s %10s %14s\n" "server" "wall s" "sessions/s";
  Printf.printf "%-28s %10.3f %14.2f\n" "one at a time (no cache)" seq_wall (per_s seq_wall);
  Printf.printf "%-28s %10.3f %14.2f\n" "farm (setup cache)" farm_wall (per_s farm_wall);
  Printf.printf "%-28s %10.3f %14.2f\n\n" "farm (cache disabled)" nocache_wall (per_s nocache_wall);
  Printf.printf "speedup vs one at a time: %.2fx (acceptance floor 4x)\n" speedup;
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
  Zobs.Json.Obj
    [
      ("clients", int clients);
      ("think_ms", int think_ms);
      ("frames_per_session", int frames);
      ("seq_wall_s", num seq_wall);
      ("farm_wall_s", num farm_wall);
      ("farm_nocache_wall_s", num nocache_wall);
      ("seq_sessions_per_s", num (per_s seq_wall));
      ("farm_sessions_per_s", num (per_s farm_wall));
      ("speedup", num speedup);
      ("cache_hits", int hits);
      ("cache_misses", int misses);
      ("warm_qap_constructions", int warm_builds);
      ("latency_ms", Zobs.Json.Obj [ ("p50", num p50); ("p95", num p95); ("p99", num p99) ]);
      ("transcripts_identical", Zobs.Json.Bool ok);
    ]

(* ------------------------------------------------------------------ *)
(* Zscope overhead: flight recorder + sampling profiler cost           *)
(* ------------------------------------------------------------------ *)

(* The "obs_overhead" section. Two farm arms serve the same replayed
   client fleet: one with the Zscope instrumentation on (per-session
   flight recorder at its default capacity plus the sampling profiler at
   its default rate), one with both disabled (--flight-cap 0
   --profile-hz 0). The acceptance band holds the on-arm to within 3% of
   the off-arm's sessions/sec (DESIGN.md §15's overhead budget);
   --baseline enforces it. *)
let obs_overhead_band = 1.03

let run_obs_overhead cfg =
  banner "Zscope overhead: farm sessions/sec, flight recorder + sampler on vs off";
  let _, serve = farm_fleet cfg ~what:"obs-overhead" ~seed:"bench obs verifier" in
  let clients = fleet_clients in
  let rounds = if cfg.quick then 2 else 3 in
  (* No think time: the comparison is server-bound on purpose, so any
     recorder/sampler cost lands squarely in the measured wall. One arm
     run = [clients] replayed sessions; best-of-[rounds] walls filter
     scheduler noise. *)
  let arm ~flight_cap ~profile_hz =
    let best = ref infinity and all_ok = ref true in
    for _ = 1 to rounds do
      let (wall, ok), _ =
        serve ~think_s:0.0
          { Zfarm.Farm.default with max_sessions = clients + 2; flight_cap; profile_hz }
      in
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
  Zobs.Json.Obj
    [
      ("clients", int clients);
      ("rounds", int rounds);
      ("on_wall_s", num on_wall);
      ("off_wall_s", num off_wall);
      ("on_sessions_per_s", num (per_s on_wall));
      ("off_sessions_per_s", num (per_s off_wall));
      ("overhead_ratio", num ratio);
      ("band", num obs_overhead_band);
      ("transcripts_identical", Zobs.Json.Bool (on_ok && off_ok));
    ]

(* ------------------------------------------------------------------ *)
(* Lint: Zlint analyzer timing and finding counts over the suite       *)
(* ------------------------------------------------------------------ *)

(* The "lint" section. The benchmark computations are the largest systems we compile, so timing
   the backend analyzer over them is the regression canary for Zlint
   itself; finding counts are deterministic for a fixed configuration and
   must stay at zero (the suite ships clean). *)
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
  Printf.printf "\nlint totals: %d error(s), %d warning(s), %d info\n%!" errors warns infos;
  (* The shipped suite linting dirty is itself a regression. *)
  if errors > 0 then begin
    Printf.eprintf "lint: benchmark suite has error-severity findings\n";
    exit 1
  end;
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
    ]

(* ------------------------------------------------------------------ *)
(* Exec: Zexec interpreter throughput and fuzz campaign rate           *)
(* ------------------------------------------------------------------ *)

(* The "exec" section. The witness-solving interpreter (DESIGN.md §16) re-derives each app's
   witness from inputs alone; its constraint-propagation throughput is
   compared against the compiler's gadget-replay solver on the same
   systems, and the differential fuzz campaign's program rate rides
   along. Pinned/defaulted counts and fuzz discrepancies are
   seed-deterministic, so --baseline compares them exactly; seconds get
   the usual drift band. *)
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
  (* A discrepancy in the bench seed is a real compiler/interpreter bug. *)
  if bad > 0 then begin
    Printf.eprintf "exec: the fuzz campaign found %d discrepancy(ies)\n" bad;
    exit 1
  end;
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
    ]

(* ------------------------------------------------------------------ *)
(* Alloc: words allocated per primitive op (Zledger GC profiling)      *)
(* ------------------------------------------------------------------ *)

(* [Gc.minor_words] is an exact allocation counter (not a sample), so
   delta/iters is the precise per-op allocation footprint: the "alloc"
   section, also copied into BENCH_history.jsonl. *)
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
  let pam = Apps.Registry.pam ~scale:cfg.scale in
  let pam_comp = Apps.Glue.computation_of (Apps.Glue.compile ctx pam) in
  let gq_qap = Qapb.of_r1cs ~backend:cfg.qap_backend pam_comp.Argsys.Argument.r1cs in
  Qapb.prewarm gq_qap;
  (* The prover's H for one pam witness; the row reports words per
     padded-domain slot. *)
  let pam_w =
    pam_comp.Argsys.Argument.solve
      (Apps.Glue.field_inputs ctx
         (pam.Apps.App_def.gen_inputs (Chacha.Prg.create ~seed:"alloc bench pam" ())))
  in
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
  (* One Karatsuba product of two seeded degree-511 polynomials; the row
     reports words per counted lazy product (62,208 when both are dense). *)
  let poly_a, poly_b =
    let pprg = Chacha.Prg.create ~seed:"alloc bench poly" () in
    (Polylib.Poly.random ctx pprg 511, Polylib.Poly.random ctx pprg 511)
  in
  let poly_products =
    let was_on = Zobs.enabled () in
    Zobs.enable ();
    let c0 = Zobs.Registry.counter_value "fp.mul_lazy" in
    ignore (Polylib.Poly.mul ctx poly_a poly_b);
    let n = Zobs.Registry.counter_value "fp.mul_lazy" - c0 in
    if not was_on then Zobs.disable ();
    n
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
        (* the packed hot-path butterfly, its twiddle in Montgomery form
           as the NTT plans hold it: must be allocation-free *)
        let vb = Fp.Vec.of_array ctx [| a; b |] in
        let twb = Fp.Vec.create ctx 1 in
        Fp.Vec.set_mont ctx twb 0 m;
        let scb = Fp.scratch_for ctx in
        fun () -> Fp.Vec.butterfly ctx scb vb 0 1 twb 0 );
      ( "qap.prover_h",
        (if cfg.quick then 2 else 5),
        Qapb.h_len gq_qap,
        fun () -> ignore (Qapb.prover_h gq_qap pam_w) );
      ( "poly.mul",
        (if cfg.quick then 2 else 5),
        poly_products,
        fun () -> ignore (Polylib.Poly.mul ctx poly_a poly_b) );
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
  print_newline ();
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
       rows)

(* ------------------------------------------------------------------ *)
(* Profile: ledger overhead + the Figure-3 op audit (DESIGN.md §12)    *)
(* ------------------------------------------------------------------ *)

(* The "profile" section (overhead and audit rows) and the "ledger"
   section (the audit run's per-phase op vector). *)
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
  let result = Argsys.Argument.run_batch ~config:(arg_config cfg) comp ~prg ~inputs in
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
  [
    ( "profile",
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
        ] );
    ("ledger", Zobs.Ledger.phases_json ());
  ]


(* ------------------------------------------------------------------ *)
(* The experiment table                                                *)
(* ------------------------------------------------------------------ *)

type experiment = {
  name : string;
  run : cfg -> (string * Zobs.Json.t) list;  (* its BENCH_run.json sections *)
  gates : Gate.row list;  (* the checks its sections are held to *)
}

let report name f = { name; run = (fun cfg -> f cfg; []); gates = [] }
let section ?(gates = []) name key f = { name; run = (fun cfg -> [ (key, f cfg) ]); gates }

(* Allocation ceilings (words/op) for the hot-path kernels of the alloc
   experiment. The packed butterfly must stay allocation free; the boxed
   field mults allocate their result nat and nothing else, with headroom
   for GC accounting noise. A PRG field draw holds to its result nat (plus
   rejection retries), far below the quadratic converter's ~584 words.
   Query elements are never boxed: a decoded Queries element and an
   answered query term cost a fraction of a word (the matrix records and
   arenas), and a sampled query element only its share of the boxed
   tau-query vectors. Group exponentiation runs on packed Montgomery
   slices, so an encryption allocates its nonce draw and the two
   converted-out residues (~21,000 words on the boxed REDC), and a
   commitment term only its share of the partition arrays. The NTT
   prover's H costs its packed arenas and the boxed result, a few words
   per domain slot; boxing the row evaluations again would cost ~80.
   Karatsuba runs on packed slices and its leaves reduce straight into
   their slots, so a lazy product costs only its share of the packed
   operands and the boxed result (~60 words on the boxed recursion, 0.8
   with a boxed residue per leaf coefficient). *)
let alloc_ceilings =
  [ ("fp.mul", 120.0); ("fp.mul_lazy", 120.0); ("ntt.butterfly", 2.0); ("qap.prover_h", 12.0);
    ("poly.mul", 1.0); ("zwire.decode_el", 1.0); ("commit.prover_answer", 1.0); ("pcp.gen_queries", 4.0);
    ("prg.field", 64.0); ("elgamal.encrypt", 2000.0); ("elgamal.hom_dot", 32.0) ]

(* In "all" order, paper figures first (micro leads: later figures reuse
   its measured constants). Gate rows: counts that are deterministic for
   a fixed configuration are Exact; wall-clock values get the --drift
   band, Drift_up where only a slowdown is a regression. *)
let experiments =
  Gate.
    [
      report "micro" run_micro;
      report "bechamel" run_bechamel;
      report "fig9" run_fig9;
      (* --check-model gates only each total: the per-phase split
         disagrees by construction (crypto_ops runs under a parallel
         Dompool map where the model prices sequential work, and at small
         scales constant factors swamp the model's asymptotic terms), and
         the paper only validates totals. --baseline holds every phase's
         delta to the committed one. *)
      section "model" "model" run_model
        ~gates:
          (rows Model Band [ "model.apps.*.phases.total.delta" ]
          @ rows Baseline Drift [ "model.apps.*.phases.*.delta" ]);
      report "fig4" run_fig4;
      report "fig5" run_fig5;
      report "fig7" run_fig7;
      report "fig8" run_fig8;
      report "fig6" run_fig6;
      report "baseline" run_baseline;
      report "soundness" run_soundness;
      report "ablation" run_ablation;
      section "ntt-vs-lagrange" "ntt_vs_lagrange" run_ntt_vs_lagrange;
      section "multiexp" "multiexp" run_multiexp;
      section "wire" "network" run_wire
        ~gates:
          (rows Baseline Exact
             [ "network.bytes_sent"; "network.bytes_recv"; "network.msgs";
               "network.per_phase.*.sent"; "network.per_phase.*.recv"; "network.per_phase.*.msgs" ]);
      (* The warm-session construction count must stay 0. *)
      section "farm" "farm" run_farm
        ~gates:
          (rows Baseline Exact
             [ "farm.clients"; "farm.frames_per_session"; "farm.cache_hits"; "farm.cache_misses";
               "farm.warm_qap_constructions" ]
          @ rows Baseline Is_true [ "farm.transcripts_identical" ]
          @ rows Baseline Drift [ "farm.speedup" ]);
      (* An absolute band, not a drift band: the recorder and sampler must
         cost at most (band-1) of the uninstrumented farm's sessions/sec
         on every gated run. *)
      section "obs-overhead" "obs_overhead" run_obs_overhead
        ~gates:(rows Baseline (Ceiling obs_overhead_band) [ "obs_overhead.overhead_ratio" ]);
      section "lint" "lint" run_lint
        ~gates:
          (rows Baseline Exact
             [ "lint.errors"; "lint.warnings"; "lint.info"; "lint.apps.*.findings"; "lint.apps.*.rows" ]
          @ rows Baseline Drift_up [ "lint.apps.*.backend_s" ]);
      section "exec" "exec" run_exec
        ~gates:
          (rows Baseline Exact
             [ "exec.fuzz.discrepancies"; "exec.apps.*.rows"; "exec.apps.*.pinned";
               "exec.apps.*.defaulted" ]
          @ rows Baseline Drift_up [ "exec.apps.*.interp_s" ]);
      section "alloc" "alloc" run_alloc
        ~gates:
          (List.map
             (fun (k, c) -> { gate = Ledger; kind = Ceiling c; path = [ "alloc"; k; "words_per_op" ] })
             alloc_ceilings);
      (* Every gated audit row must sit inside its band (the bands live in
         Costmodel.Model.zaatar_op_audit, DESIGN.md §12); informational
         rows never fail it. The audit run's per-phase op vector is
         seed-deterministic; its seconds and GC words are not compared. *)
      {
        name = "profile";
        run = run_profile;
        gates =
          rows Ledger (Implies ("gated", "pass")) [ "profile.audit.*" ]
          @ rows Baseline Exact [ "ledger.*.ops.*" ];
      };
    ]

(* Every gate row: the configuration's and each experiment's. *)
let gates = config_gates @ List.concat_map (fun e -> e.gates) experiments
