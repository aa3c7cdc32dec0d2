(* The layer probe: one batch per program, run in protocol order by
   calling each library's public functions from here, so every layer's
   wall time, allocation and op counts are measured without touching the
   libraries. The probe then encodes the verifier's frames, decodes them
   with the prover's codec, steps a Prover_session over them (its replies
   must equal what the probe computed layer by layer), and replays the
   frames to the `zaatar serve` child, whose replies must match too.
   Values are summed over the probed programs. Op counts come from Zobs
   counters, so the probe needs Zobs enabled. *)

open Fieldlib
open Argsys
open Session

type acc = { tbl : (string, string * float) Hashtbl.t; mutable order : string list }

let create () = { tbl = Hashtbl.create 64; order = [] }

let add acc name unit v =
  match Hashtbl.find_opt acc.tbl name with
  | Some (u, x) -> Hashtbl.replace acc.tbl name (u, x +. v)
  | None ->
    Hashtbl.replace acc.tbl name (unit, v);
    acc.order <- name :: acc.order

let get acc name = match Hashtbl.find_opt acc.tbl name with Some (_, v) -> v | None -> 0.0
let to_list acc = List.rev_map (fun n -> (n, Hashtbl.find acc.tbl n)) acc.order

let counter = Zobs.Registry.counter_value

(* Run [f] under a span named after [metric] and add its wall time (ms),
   its minor allocation ([kwords], thousands of words) and the delta of
   each [(metric, counter)] in [ops] to [acc]. *)
let measure acc ?kwords ?(ops = []) metric f =
  let c0 = List.map (fun (_, c) -> counter c) ops in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = Zobs.Span.with_ ~name:metric f in
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  add acc metric "ms" (dt *. 1000.0);
  Option.iter (fun k -> add acc k "kwords" (dw /. 1000.0)) kwords;
  List.iter2 (fun (m, c) v0 -> add acc m "count" (float_of_int (counter c - v0))) ops c0;
  r

(* Wall ms of [f], without recording it as a metric. *)
let clock f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

exception Check of string

let check cond what = if not cond then raise (Check what)

(* One batch of [beta] instances of [p] through every layer; [addr] is the
   server the recorded frames are replayed to. *)
let crypto acc ~proto ~beta ~prg ~addr (p : program) =
  let ctx = p.ctx and comp = p.comp in
  let cfg = config proto in
  let num_z = comp.Argument.r1cs.Constr.R1cs.num_z in
  let fp0 = List.map counter [ "fp.mul"; "fp.mul_lazy"; "fp.inv" ] in
  let verifier_ms = ref 0.0 in
  let v metric ?kwords ?ops f =
    let r, dt = clock (fun () -> measure acc ?kwords ?ops metric f) in
    verifier_ms := !verifier_ms +. dt;
    r
  in
  let qap =
    v "qap.build_ms" (fun () ->
        let q = Qapb.of_r1cs ~backend:proto.backend comp.Argument.r1cs in
        Qapb.prewarm q;
        q)
  in
  let grp = Zcrypto.Group.cached ~field_order:(Fp.modulus ctx) ~p_bits:proto.p_bits () in
  let queries =
    v "pcp.gen_queries_ms" ~kwords:"pcp.gen_queries_kwords"
      ~ops:[ ("pcp.queries", "pcp.queries_z"); ("pcp.queries", "pcp.queries_h"); ("chacha.prg_field", "prg.field") ]
      (fun () -> Pcp.Pcp_zaatar.gen_queries ~params:proto.params qap prg)
  in
  let (req_z, vs_z), (req_h, vs_h) =
    v "commitment.request_ms" ~kwords:"commitment.request_kwords"
      ~ops:[ ("zcrypto.encrypt", "elgamal.encrypt"); ("chacha.prg_field", "prg.field") ]
      (fun () ->
        let z = Commitment.Commit.commit_request ctx grp prg ~len:num_z in
        (z, Commitment.Commit.commit_request ctx grp prg ~len:(Qapb.h_len qap)))
  in
  let ch_z, ch_h =
    v "commitment.challenge_ms" ~ops:[ ("chacha.prg_field", "prg.field") ] (fun () ->
        ( Commitment.Commit.decommit_challenge ctx vs_z prg queries.Pcp.Pcp_zaatar.z_queries,
          Commitment.Commit.decommit_challenge ctx vs_h prg queries.Pcp.Pcp_zaatar.h_queries ))
  in
  let ints = Array.init beta (fun _ -> p.app.Apps.App_def.gen_inputs prg) in
  let xs = Array.map (Apps.Glue.field_inputs ctx) ints in
  (* The prover's side, instance by instance. *)
  let parts =
    Array.map
      (fun x ->
        let w = measure acc "zlang.solve_ms" (fun () -> comp.Argument.solve x) in
        let h =
          measure acc "qap.prover_h_ms" ~kwords:"qap.prover_h_kwords"
            ~ops:[ ("polylib.ntt_butterflies", "ntt.butterfly") ]
            (fun () -> Qapb.prover_h qap w)
        in
        let z = Array.sub w 1 num_z in
        let coms =
          measure acc "commitment.prover_commit_ms"
            ~ops:[ ("zcrypto.multi_pow_terms", "group.multi_pow.terms"); ("fieldlib.mont_mul", "mont.mul") ]
            (fun () -> (Commitment.Commit.prover_commit req_z z, Commitment.Commit.prover_commit req_h h))
        in
        (w, z, h, coms))
      xs
  in
  let answers =
    Array.map
      (fun (w, z, h, _) ->
        let resp =
          measure acc "pcp.answer_ms" (fun () ->
              Pcp.Pcp_zaatar.answer (Pcp.Oracle.honest ctx z h) queries)
        in
        let a_z, a_h =
          measure acc "commitment.prover_answer_ms" (fun () ->
              ( Commitment.Commit.prover_answer ctx z queries.Pcp.Pcp_zaatar.z_queries ch_z.Commitment.Commit.t,
                Commitment.Commit.prover_answer ctx h queries.Pcp.Pcp_zaatar.h_queries ch_h.Commitment.Commit.t ))
        in
        check
          (Array.for_all2 Fp.equal a_z.Commitment.Commit.a resp.Pcp.Pcp_zaatar.z_resp
          && Array.for_all2 Fp.equal a_h.Commitment.Commit.a resp.Pcp.Pcp_zaatar.h_resp)
          "commitment answers differ from the PCP answers";
        {
          Zwire.claimed_io = Argument.io_of_w comp w;
          claimed_output = Argument.outputs_of_w comp w;
          z_resp = resp.Pcp.Pcp_zaatar.z_resp;
          h_resp = resp.Pcp.Pcp_zaatar.h_resp;
          a_t_z = a_z.Commitment.Commit.a_t;
          a_t_h = a_h.Commitment.Commit.a_t;
        })
      parts
  in
  (* The verifier's per-instance checks: the probe's own verdicts. *)
  Array.iteri
    (fun i (a : Zwire.instance_answers) ->
      let _, _, _, (com_z, com_h) = parts.(i) in
      let consistent =
        v "commitment.consistency_ms" ~ops:[ ("zcrypto.pow_shamir", "group.pow.shamir") ] (fun () ->
            Commitment.Commit.consistency_check vs_z ch_z ~commitment:com_z
              { Commitment.Commit.a = a.Zwire.z_resp; a_t = a.Zwire.a_t_z }
            && Commitment.Commit.consistency_check vs_h ch_h ~commitment:com_h
                 { Commitment.Commit.a = a.Zwire.h_resp; a_t = a.Zwire.a_t_h })
      in
      let verdict =
        v "pcp.decide_ms" (fun () ->
            Pcp.Pcp_zaatar.decide qap queries
              { Pcp.Pcp_zaatar.z_resp = a.Zwire.z_resp; h_resp = a.Zwire.h_resp }
              ~io:a.Zwire.claimed_io)
      in
      check (consistent && Pcp.Pcp_zaatar.accepts verdict) "the probe's verifier rejected an honest proof";
      check
        (Apps.Glue.int_outputs ctx a.Zwire.claimed_output = p.app.Apps.App_def.native ints.(i))
        "claimed outputs differ from the native reference")
    answers;
  List.iter2
    (fun (m, c) c0 -> add acc m "count" (float_of_int (counter c - c0)))
    [ ("fieldlib.fp_mul", "fp.mul"); ("fieldlib.fp_mul_lazy", "fp.mul_lazy"); ("fieldlib.fp_inv", "fp.inv") ]
    fp0;
  (* The codec and the prover's state machine over the same messages. *)
  let vcodec = Zwire.codec ~group_p:grp.Zcrypto.Group.p ctx in
  let hello =
    Zwire.Hello
      {
        Zwire.digest = p.digest;
        modulus = Fp.modulus ctx;
        rho = proto.params.Pcp.Pcp_zaatar.rho;
        rho_lin = proto.params.Pcp.Pcp_zaatar.rho_lin;
        p_bits = proto.p_bits;
        inputs = xs;
        trace_id = "";
      }
  in
  let commit_request =
    Zwire.Commit_request
      {
        Zwire.group_p = grp.Zcrypto.Group.p;
        group_q = grp.Zcrypto.Group.q;
        group_g = grp.Zcrypto.Group.g;
        y_z = req_z.Commitment.Commit.pk.Zcrypto.Elgamal.y;
        y_h = req_h.Commitment.Commit.pk.Zcrypto.Elgamal.y;
        enc_r_z = req_z.Commitment.Commit.enc_r;
        enc_r_h = req_h.Commitment.Commit.enc_r;
      }
  in
  let query =
    Zwire.Queries
      {
        Zwire.z_queries = queries.Pcp.Pcp_zaatar.z_queries;
        h_queries = queries.Pcp.Pcp_zaatar.h_queries;
        t_z = ch_z.Commitment.Commit.t;
        t_h = ch_h.Commitment.Commit.t;
      }
  in
  let hello_b, t_hello = clock (fun () -> Zwire.encode ~codec:vcodec hello) in
  verifier_ms := !verifier_ms +. t_hello;
  let commit_b = v "zwire.encode_ms.commit" (fun () -> Zwire.encode ~codec:vcodec commit_request) in
  let query_b = v "zwire.encode_ms.query" (fun () -> Zwire.encode ~codec:vcodec query) in
  let verdict_b = Zwire.encode (Zwire.Verdicts (Array.make beta true)) in
  let expected =
    [
      Zwire.Hello_ok p.digest;
      Zwire.Commitments (Array.map (fun (_, _, _, c) -> c) parts);
      Zwire.Answers answers;
    ]
  in
  let ps =
    Argument.Prover_session.create ~config:cfg
      ~setup:(fun _ _ -> qap)
      ~lookup:(fun d -> if d = p.digest then Some comp else None)
      ~prg:(Chacha.Prg.create ~seed:"zbench probe prover" ())
      ()
  in
  (* Decode with the prover's codec, step, encode the reply; returns the
     reply bytes and the phase's in-process cost (ms). *)
  let prover_step phase frame want =
    let codec = Argument.Prover_session.codec ps in
    let m, t_dec =
      clock (fun () ->
          measure acc ("zwire.decode_ms." ^ phase)
            ?kwords:(if phase = "query" then Some "zwire.decode_kwords.query" else None)
            (fun () -> Zwire.decode ?codec frame))
    in
    let reply, t_step =
      clock (fun () ->
          measure acc ("argsys.prover_step_ms." ^ phase) (fun () ->
              Argument.Prover_session.on_msg ps m))
    in
    match reply with
    | `Send r ->
      let pcodec = Argument.Prover_session.codec ps in
      let b, t_enc = clock (fun () -> Zwire.encode ?codec:pcodec r) in
      (* Compared on the wire, where every element has one encoding. *)
      check
        (Bytes.equal b (Zwire.encode ?codec:pcodec want))
        ("the prover session's " ^ phase ^ " reply differs from the layers'");
      (* The verifier decodes the reply. *)
      let _, t_vdec = clock (fun () -> Zwire.decode ~codec:vcodec b) in
      verifier_ms := !verifier_ms +. t_vdec;
      (b, t_dec +. t_step +. t_enc)
    | `Finished _ -> raise (Check ("the prover session finished early at " ^ phase))
  in
  let frames = [ ("hello", hello_b); ("commit", commit_b); ("query", query_b) ] in
  let replies = List.map2 (fun (ph, f) want -> (ph, f, prover_step ph f want)) frames expected in
  let bytes ph n = add acc ("zwire.bytes." ^ ph) "bytes" (float_of_int n) in
  List.iter
    (fun (ph, f, (b, _)) ->
      if ph = "query" then begin
        bytes "query" (Bytes.length f);
        bytes "answer" (Bytes.length b)
      end
      else bytes ph (Bytes.length f + Bytes.length b))
    replies;
  bytes "verdict" (Bytes.length verdict_b);
  (* The same frames over the socket to the served prover. *)
  let steps =
    List.map (fun (phase, frame, (b, _)) -> { phase; frame; reply = Some b }) replies
    @ [ { phase = "verdict"; frame = verdict_b; reply = None } ]
  in
  let ok, t = replay ~addr steps in
  check ok "the served prover's replies differ from the in-process prover's";
  List.iter
    (fun (ph, _, (_, local_ms)) ->
      let wait_ms = List.assoc ph t.waits *. 1000.0 in
      add acc ("znet.reply_wait_ms." ^ ph) "ms" wait_ms;
      add acc ("zfarm.overhead_ms." ^ ph) "ms" (wait_ms -. local_ms))
    replies;
  add acc "argsys.verifier_ms_per_instance" "ms" (!verifier_ms /. float_of_int beta);
  add acc "znet.wait_ms_per_instance" "ms" (t.wait *. 1000.0 /. float_of_int beta)

(* Compile, lint and exec one program; returns its constraint rows. Lint
   must find no errors, and exec's witness must equal the compiler's, with
   the native outputs. *)
let toolchain acc ~prg ctx (app : Apps.App_def.t) =
  let name = app.Apps.App_def.name in
  let compiled =
    measure acc "zlang.compile_ms" (fun () -> Zlang.Compile.compile ~ctx app.Apps.App_def.source)
  in
  let sys = Zlang.Compile.zaatar_r1cs compiled in
  let rows = Constr.R1cs.num_constraints sys in
  add acc "constr.rows" "count" (float_of_int rows);
  add acc "constr.vars" "count" (float_of_int sys.Constr.R1cs.num_vars);
  let findings = measure acc "zlint.backend_ms" (fun () -> Zlint.lint_compiled compiled) in
  check (not (Zlint.Diagnostic.has_errors findings)) (name ^ ": lint errors");
  let ints = app.Apps.App_def.gen_inputs prg in
  let x = Apps.Glue.field_inputs ctx ints in
  match
    measure acc "zexec.solve_ms" ~kwords:"zexec.solve_kwords" (fun () -> Zexec.Exec.solve sys ~inputs:x)
  with
  | Error e -> raise (Check (Zexec.Exec.error_to_text e))
  | Ok (w, st) ->
    add acc "zexec.row_visits" "count" (float_of_int st.Zexec.Exec.row_visits);
    check
      (Array.for_all2 Fp.equal w (compiled.Zlang.Compile.solve_zaatar x))
      (name ^ ": exec witness differs from the compiler's");
    check
      (Apps.Glue.int_outputs ctx (Zlang.Compile.outputs_zaatar compiled w) = app.Apps.App_def.native ints)
      (name ^ ": exec outputs differ from the native reference");
    rows

(* Residue: the prover session's step time that no probed layer accounts
   for (witness checks, proof-part bookkeeping, the a_t dot products). *)
let residue acc =
  let g = get acc in
  g "argsys.prover_step_ms.hello" +. g "argsys.prover_step_ms.commit"
  +. g "argsys.prover_step_ms.query" -. g "zlang.solve_ms" -. g "qap.prover_h_ms"
  -. g "commitment.prover_commit_ms" -. g "pcp.answer_ms"

(* Server-side counters from the farm's /json endpoint. *)
let scrape acc metrics_addr =
  let code, body = Znet.Metrics_http.get metrics_addr "/json" in
  check (code = 200) "the /json endpoint did not answer 200";
  let j = Zobs.Json.parse body in
  let num path =
    List.fold_left (fun j k -> Option.bind j (Zobs.Json.member k)) (Some j) path
    |> Fun.flip Option.bind Zobs.Json.to_num
    |> Option.value ~default:0.0
  in
  let hits = num [ "server"; "cache_hits" ] and misses = num [ "server"; "cache_misses" ] in
  add acc "zfarm.cache_hit_ratio" "ratio" (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
  add acc "zfarm.loop_utilization" "ratio" (num [ "loop"; "utilization" ]);
  add acc "zfarm.shed" "count" (num [ "server"; "shed" ])
