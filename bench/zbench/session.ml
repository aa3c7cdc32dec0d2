(* Verifier-side sessions over a real socket: a live session driven by a
   real Verifier_session, and a replay of recorded verifier frames whose
   replies must match the recording byte for byte. Every call into Znet,
   Zwire and the session runs under a span, so a traced run shows where
   the client's time went. *)

open Fieldlib
open Argsys

(* The protocol parameters a workload runs with; [flags] are the matching
   `zaatar serve` options. *)
type proto = {
  field : Nat.t;
  backend : Qapb.backend;
  params : Pcp.Pcp_zaatar.params;
  p_bits : int;
  flags : string list;
}

let config p =
  {
    Argument.params = p.params;
    p_bits = p.p_bits;
    strategy = Argument.Honest;
    domains = 1;
    qap_backend = p.backend;
  }

(* One served program, compiled the way `zaatar serve` compiles it. *)
type program = {
  app : Apps.App_def.t;
  ctx : Fp.ctx;
  comp : Argument.computation;
  digest : string;
}

let program proto app =
  let ctx = Fp.create proto.field in
  let comp = Apps.Glue.computation_of (Apps.Glue.compile ctx app) in
  { app; ctx; comp; digest = Argument.digest comp }

(* One exchange per verifier frame: its phase, its bytes and the reply the
   prover sent (none after the final Verdicts). *)
type step = { phase : string; frame : bytes; reply : bytes option }

type timing = {
  wall : float;  (** connect to the last send, seconds *)
  wait : float;  (** blocked in Znet, seconds *)
  waits : (string * float) list;  (** per phase: frame sent to reply received *)
}

let span name f = Zobs.Span.with_ ~name f
let now = Unix.gettimeofday

let connect addr = span "znet.connect" (fun () -> Znet.connect ~timeout_ms:60_000 addr)

(* Send one frame and, when [reply], block for the answer. *)
let exchange conn frame ~reply =
  let t0 = now () in
  span "znet.send" (fun () -> Znet.send conn frame);
  let r = if reply then Some (span "znet.recv" (fun () -> Znet.recv conn)) else None in
  (r, now () -. t0)

(* Drive [vs] to completion against the prover at [addr]; returns the
   verifier's result and the recorded exchange. *)
let live ~addr vs =
  let conn = connect addr in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  let codec = Argument.Verifier_session.codec vs in
  let steps = ref [] in
  let send m ~reply =
    let frame = span "zwire.encode" (fun () -> Zwire.encode ~codec m) in
    let r, _ = exchange conn frame ~reply in
    steps := { phase = Zwire.phase_of_msg m; frame; reply = r } :: !steps;
    r
  in
  let rec pump m =
    match send m ~reply:true with
    | None -> ()
    | Some r -> (
      let reply = span "zwire.decode" (fun () -> Zwire.decode ~codec r) in
      match span "verifier_session.on_msg" (fun () -> Argument.Verifier_session.on_msg vs reply) with
      | `Send m' -> pump m'
      | `Finished (Some last) -> ignore (send last ~reply:false)
      | `Finished None -> ())
  in
  pump (Argument.Verifier_session.initial vs);
  (Argument.Verifier_session.result vs, List.rev !steps)

(* Resend recorded frames; [true] when every reply equals the recording. *)
let replay ~addr steps =
  let t0 = now () in
  let conn = connect addr in
  Fun.protect ~finally:(fun () -> Znet.close conn) @@ fun () ->
  let waits = ref [] in
  let ok =
    List.for_all
      (fun s ->
        let r, w = exchange conn s.frame ~reply:(s.reply <> None) in
        waits := (s.phase, w) :: !waits;
        match (r, s.reply) with
        | Some got, Some want -> Bytes.equal got want
        | _ -> true)
      steps
  in
  let waits = List.rev !waits in
  (ok, { wall = now () -. t0; wait = List.fold_left (fun a (_, w) -> a +. w) 0.0 waits; waits })

(* Claimed outputs equal the native reference and every instance passed. *)
let honest_and_correct (p : program) (inputs : int array array) (r : Argument.batch_result) =
  Argument.all_accepted r
  && Array.length r.Argument.instances = Array.length inputs
  && Array.for_all2
       (fun (inst : Argument.instance_result) ints ->
         match Apps.Glue.int_outputs p.ctx inst.Argument.claimed_output with
         | outs -> outs = p.app.Apps.App_def.native ints
         | exception Failure _ -> false)
       r.Argument.instances inputs
