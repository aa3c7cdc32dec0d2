(* Zledger: self-auditing cost accounting. The third pillar of Zobs next to
   spans and counters — an op-level ledger of the paper's Figure 3
   primitives, attributed per protocol phase, together with GC/allocation
   deltas.

   The ledger does not maintain counters of its own: the op vector is a
   *view* over the named Zobs counters the substrate already increments on
   its hot paths (fp.mul, elgamal.encrypt, ...), so an op costs exactly one
   counter bump no matter how many consumers read it. The mapping to the
   paper's taxonomy:

     e       elgamal.encrypt        ElGamal encryptions (exponent encoding)
     d       elgamal.decrypt        decryptions, plus commit.consistency_checks:
             + consistency_checks   the argument never calls Dec directly — the
                                    check IS the decryption, rearranged into one
                                    Shamir double exponentiation (lib/commit)
     h       elgamal.hom_op         homomorphic accumulate steps (adds, scales
                                    and Pippenger terms in hom_dot)
     f       fp.mul                 field multiplications (PCP field only; the
                                    group modulus counts under fp.mul.group)
     f_lazy  fp.mul_lazy            multiplications without the final reduction
     f_div   fp.inv                 field inversions (div = inv + mul)
     c       prg.field              pseudorandom field elements (ChaCha +
                                    rejection)
     butterfly ntt.butterfly        NTT butterflies (fused mul+add+sub on the
                                    packed hot path; the mul is also counted
                                    under f)

   [with_phase] snapshots the merged counter view and a [Span.gc_now]
   reading around a unit of work and accumulates the deltas into a global
   per-phase table. Phases are sequential on the calling domain and every
   [Pool] fan-out joins inside its phase, so the merged op deltas are
   exact under any [--domains] count. The word counts are the calling
   domain's own ([Gc.counters]); a worker's words reach the phase once per
   job, through [worker_scope], which Pool workers run each job in, and no
   other live domain's (a profiler ticker, a metrics server) reach it at
   all. The collection and compaction counts are process-wide. *)

type ops = { e : int; d : int; h : int; f : int; f_lazy : int; f_div : int; c : int; butterfly : int }

let zero_ops = { e = 0; d = 0; h = 0; f = 0; f_lazy = 0; f_div = 0; c = 0; butterfly = 0 }

let add_ops a b =
  {
    e = a.e + b.e;
    d = a.d + b.d;
    h = a.h + b.h;
    f = a.f + b.f;
    f_lazy = a.f_lazy + b.f_lazy;
    f_div = a.f_div + b.f_div;
    c = a.c + b.c;
    butterfly = a.butterfly + b.butterfly;
  }

let sub_ops a b =
  {
    e = a.e - b.e;
    d = a.d - b.d;
    h = a.h - b.h;
    f = a.f - b.f;
    f_lazy = a.f_lazy - b.f_lazy;
    f_div = a.f_div - b.f_div;
    c = a.c - b.c;
    butterfly = a.butterfly - b.butterfly;
  }

(* (paper row, counter value) pairs, in Figure 3 order. *)
let ops_to_list o =
  [
    ("e", o.e); ("d", o.d); ("h", o.h); ("f", o.f); ("f_lazy", o.f_lazy); ("f_div", o.f_div);
    ("c", o.c); ("butterfly", o.butterfly);
  ]

let snapshot () =
  let v = Registry.counter_value in
  {
    e = v "elgamal.encrypt";
    d = v "elgamal.decrypt" + v "commit.consistency_checks";
    h = v "elgamal.hom_op";
    f = v "fp.mul";
    f_lazy = v "fp.mul_lazy";
    f_div = v "fp.inv";
    c = v "prg.field";
    butterfly = v "ntt.butterfly";
  }

(* ---- per-phase accounting ---- *)

type phase = { ops : ops; gc : Span.gc_stat; seconds : float; calls : int }

let mu = Mutex.create ()
let table : (string, phase) Hashtbl.t = Hashtbl.create 16

(* GC deltas reported by Pool workers: accumulated here and folded into
   whichever phase is open on the caller when its map returns — a map
   always returns inside its phase. *)
let worker_gc = ref Span.gc_zero

let read_worker_gc () =
  Mutex.lock mu;
  let g = !worker_gc in
  Mutex.unlock mu;
  g

(* A Pool worker's share of one job: note the words it allocated for the
   caller's open phase, and fold its counter shards into the shared base
   (Registry.flush_domain), both before the caller can return. The
   readings bracket the job so that their own allocation stays outside
   it; its collection counts are left out, as the phase's own reading,
   process-wide, already holds them. [f] must not raise. *)
let worker_scope f =
  if not (Registry.on ()) then f ()
  else begin
    let _, pr0, ma0 = Gc.counters () in
    let mi0 = Gc.minor_words () in
    f ();
    let mi1 = Gc.minor_words () in
    let _, pr1, ma1 = Gc.counters () in
    Mutex.lock mu;
    worker_gc :=
      Span.gc_add !worker_gc
        { Span.gc_zero with minor_words = mi1 -. mi0; major_words = ma1 -. ma0; promoted_words = pr1 -. pr0 };
    Mutex.unlock mu;
    Registry.flush_domain ()
  end

let accumulate name ~ops ~gc ~seconds =
  Mutex.lock mu;
  let prev =
    match Hashtbl.find_opt table name with
    | Some p -> p
    | None -> { ops = zero_ops; gc = Span.gc_zero; seconds = 0.0; calls = 0 }
  in
  Hashtbl.replace table name
    {
      ops = add_ops prev.ops ops;
      gc = Span.gc_add prev.gc gc;
      seconds = prev.seconds +. seconds;
      calls = prev.calls + 1;
    };
  Mutex.unlock mu

let with_phase name f =
  if not (Registry.on ()) then f ()
  else begin
    let ops0 = snapshot () in
    let gc0 = Span.gc_now () in
    let wgc0 = read_worker_gc () in
    let t0 = Unix.gettimeofday () in
    let finish () =
      let seconds = Unix.gettimeofday () -. t0 in
      let gc = Span.gc_add (Span.gc_delta gc0 (Span.gc_now ())) (Span.gc_sub (read_worker_gc ()) wgc0) in
      accumulate name ~ops:(sub_ops (snapshot ()) ops0) ~gc ~seconds
    in
    Fun.protect ~finally:finish f
  end

let phases () =
  Mutex.lock mu;
  let l = Hashtbl.fold (fun name p acc -> (name, p) :: acc) table [] in
  Mutex.unlock mu;
  List.sort compare l

let phase name =
  Mutex.lock mu;
  let r = Hashtbl.find_opt table name in
  Mutex.unlock mu;
  r

(* Process-wide op totals since the last reset (phase-independent). *)
let total = snapshot

let reset () =
  Mutex.lock mu;
  Hashtbl.reset table;
  worker_gc := Span.gc_zero;
  Mutex.unlock mu

(* ---- rendering ---- *)

let pp_ops fmt o =
  Format.fprintf fmt "e=%d d=%d h=%d f=%d f_lazy=%d f_div=%d c=%d butterfly=%d" o.e o.d o.h o.f
    o.f_lazy o.f_div o.c o.butterfly

let pp_table fmt () =
  let ph = phases () in
  if ph <> [] then begin
    Format.fprintf fmt "ledger (per phase):@.";
    Format.fprintf fmt "  %-24s %10s %10s %10s %12s %12s %12s %12s %12s %12s@." "phase" "seconds"
      "e|d" "h" "f" "f_lazy" "f_div" "c" "butterfly" "minor words";
    List.iter
      (fun (name, p) ->
        Format.fprintf fmt "  %-24s %10.4f %10s %10d %12d %12d %12d %12d %12d %12.0f@." name
          p.seconds
          (Printf.sprintf "%d|%d" p.ops.e p.ops.d)
          p.ops.h p.ops.f p.ops.f_lazy p.ops.f_div p.ops.c p.ops.butterfly
          p.gc.Span.minor_words)
      ph
  end

let json_of_gc (g : Span.gc_stat) =
  Json.Obj
    [
      ("minor_words", Json.Num g.Span.minor_words);
      ("major_words", Json.Num g.Span.major_words);
      ("promoted_words", Json.Num g.Span.promoted_words);
      ("minor_collections", Json.Num (float_of_int g.Span.minor_collections));
      ("major_collections", Json.Num (float_of_int g.Span.major_collections));
      ("compactions", Json.Num (float_of_int g.Span.compactions));
    ]

let json_of_ops o =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) (ops_to_list o))

let phases_json () =
  Json.Obj
    (List.map
       (fun (name, p) ->
         ( name,
           Json.Obj
             [
               ("seconds", Json.Num p.seconds);
               ("calls", Json.Num (float_of_int p.calls));
               ("ops", json_of_ops p.ops);
               ("gc", json_of_gc p.gc);
             ] ))
       (phases ()))
