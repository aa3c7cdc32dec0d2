(* The global observability switchboard. One atomic [enabled] flag gates
   every counter increment, histogram observation and span: when tracing is
   off an instrumented hot path pays a single atomic load and a predictable
   branch, so production-mode cost is indistinguishable from uninstrumented
   code. All metric objects self-register here at module-init time so the
   sinks can enumerate them without a central name list. *)

let enabled = Atomic.make false

let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* A second, independent gate for the sampling profiler (Profiler): with
   [stacks] on and full tracing off, Span.with_ keeps each domain's
   open-span stack current — one DLS load and two list conses per span —
   without recording events, aggregates or GC deltas. That is the
   "always-on, low-overhead" mode the farm runs in production; enabling
   full tracing supersedes it (the traced path maintains the same stack). *)
let stacks = Atomic.make false

let stacks_on () = Atomic.get stacks
let enable_stacks () = Atomic.set stacks true
let disable_stacks () = Atomic.set stacks false

let mu = Mutex.create ()

(* The distributed trace id: minted by the verifier, carried to the prover
   in the wire Hello, stamped into every Chrome-trace export so the merge
   step (Sink.merge_chrome_trace_files) can correlate the two processes.
   Empty means "no distributed trace". *)
let trace_id_v = ref ""

let set_trace_id id =
  Mutex.lock mu;
  trace_id_v := id;
  Mutex.unlock mu

let trace_id () =
  Mutex.lock mu;
  let id = !trace_id_v in
  Mutex.unlock mu;
  id

(* (name, read, reset). Registration replaces an existing entry with the
   same name so re-created metrics (tests) don't shadow stale readers. *)
let counters : (string * (unit -> int) * (unit -> unit)) list ref = ref []
let histograms : (string * (unit -> (int * int) list) * (unit -> unit)) list ref = ref []

let register_counter name read reset =
  Mutex.lock mu;
  counters := (name, read, reset) :: List.filter (fun (n, _, _) -> n <> name) !counters;
  Mutex.unlock mu

let register_histogram name read reset =
  Mutex.lock mu;
  histograms := (name, read, reset) :: List.filter (fun (n, _, _) -> n <> name) !histograms;
  Mutex.unlock mu

let counter_values () =
  Mutex.lock mu;
  let l = List.map (fun (n, read, _) -> (n, read ())) !counters in
  Mutex.unlock mu;
  List.sort compare l

(* Current value of one named counter; 0 when no metric registered under
   that name (the library owning it may not be linked in). *)
let counter_value name =
  Mutex.lock mu;
  let r = List.find_opt (fun (n, _, _) -> n = name) !counters in
  Mutex.unlock mu;
  match r with Some (_, read, _) -> read () | None -> 0

(* Per-domain flush hooks: sharded counters register one so a Pool worker
   can fold its domain-local cells into the shared base at the end of a
   job. Called on the worker's own domain. *)
let flushers : (unit -> unit) list ref = ref []

let register_flusher f =
  Mutex.lock mu;
  flushers := f :: !flushers;
  Mutex.unlock mu

let flush_domain () =
  Mutex.lock mu;
  let fs = !flushers in
  Mutex.unlock mu;
  List.iter (fun f -> f ()) fs

let histogram_values () =
  Mutex.lock mu;
  let l = List.map (fun (n, read, _) -> (n, read ())) !histograms in
  Mutex.unlock mu;
  List.sort compare l

let reset () =
  Mutex.lock mu;
  List.iter (fun (_, _, r) -> r ()) !counters;
  List.iter (fun (_, _, r) -> r ()) !histograms;
  Mutex.unlock mu
