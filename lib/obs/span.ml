(* Hierarchical timing spans. Each domain keeps its own open-span stack in
   domain-local storage, so worker domains trace independently; completed
   spans land in one mutex-protected event buffer together with a per-name
   aggregate (total / exclusive wall time and call count). Exclusive time is
   a span's duration minus the durations of its direct children — the
   quantity the Figure 5 phase table needs when phases nest. *)

type event = {
  name : string;
  attrs : (string * string) list;
  ts : float; (* absolute start, seconds *)
  dur : float; (* seconds *)
  excl : float; (* dur minus direct children: the span's self time *)
  tid : int; (* domain id *)
  depth : int; (* nesting depth at open time, per domain *)
}

type stat = { total : float; exclusive : float; count : int }

(* Per-name GC deltas, accumulated from a {!gc_now} reading taken at span
   open and close. Word counts are floats because that is what Gc
   reports. They are the calling domain's own in OCaml 5 — minor words
   from [Gc.minor_words] (exact; [Gc.counters]' minor figure lags the
   allocation pointer), promoted and major words from [Gc.counters] — so
   a span sees the allocation of the domain it ran on and nothing of any
   other live domain (Pool workers account theirs via
   Ledger.worker_scope). [Gc.quick_stat]'s word counts would take in
   every domain's. The collection and compaction counts do come from
   [Gc.quick_stat] and are process-wide: a collection stops every
   domain. *)
type gc_stat = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

let gc_zero =
  {
    minor_words = 0.0;
    major_words = 0.0;
    promoted_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
  }

let gc_sub a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    major_words = a.major_words -. b.major_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
    compactions = a.compactions - b.compactions;
  }

(* The calling domain's minor words and (_, promoted, major) words, and
   the process-wide collection counts. *)
type gc_reading = float * (float * float * float) * Gc.stat

let gc_now () : gc_reading =
  let mi = Gc.minor_words () in
  (mi, Gc.counters (), Gc.quick_stat ())

let gc_delta ((mi0, (_, pr0, ma0), g0) : gc_reading) ((mi1, (_, pr1, ma1), g1) : gc_reading) =
  {
    minor_words = mi1 -. mi0;
    major_words = ma1 -. ma0;
    promoted_words = pr1 -. pr0;
    minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    compactions = g1.Gc.compactions - g0.Gc.compactions;
  }

type frame = {
  fname : string;
  fattrs : (string * string) list;
  start : float;
  gc0 : gc_reading; (* GC state at open, for the per-name gc aggregates *)
  mutable child : float; (* accumulated duration of direct children *)
}

let mu = Mutex.create ()
let events : event list ref = ref []
let n_events = ref 0
let dropped = ref 0

(* Backstop against unbounded growth if someone puts a span on a per-field-op
   path: beyond this the aggregates keep accumulating but raw events drop. *)
let max_events = 1_000_000

let aggs : (string, float * float * int) Hashtbl.t = Hashtbl.create 32
let gc_aggs : (string, gc_stat) Hashtbl.t = Hashtbl.create 32

(* Live-stack registry: every domain that opens a span registers its
   DLS stack ref here (once, from the DLS initializer) and drops it when
   it exits, so the sampling profiler's ticker domain can walk the open-
   span stacks of the live domains without touching the recording path.
   Reading another domain's ref is a benign race in
   the OCaml 5 memory model — a single-word read observes some previously
   stored list spine, and spines are immutable — so the sampler sees a
   recent consistent stack with zero synchronization cost on the mutator.
   Only the table itself is mutex-protected. *)
let live_mu = Mutex.create ()
let live : (int, frame list ref) Hashtbl.t = Hashtbl.create 8

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let r = ref [] in
      let tid = (Domain.self () :> int) in
      Mutex.lock live_mu;
      Hashtbl.replace live tid r;
      Mutex.unlock live_mu;
      Domain.at_exit (fun () ->
          Mutex.lock live_mu;
          Hashtbl.remove live tid;
          Mutex.unlock live_mu);
      r)

(* The domains the registry holds, by id. *)
let live_domains () =
  Mutex.lock live_mu;
  let l = Hashtbl.fold (fun tid _ acc -> tid :: acc) live [] in
  Mutex.unlock live_mu;
  List.sort compare l

(* One sample of every domain's open-span path, outermost first; domains
   with no open span are omitted. *)
let live_stacks () =
  Mutex.lock live_mu;
  let l = Hashtbl.fold (fun tid r acc -> (tid, !r) :: acc) live [] in
  Mutex.unlock live_mu;
  List.filter_map
    (fun (tid, frames) ->
      match frames with
      | [] -> None
      | _ -> Some (tid, List.rev_map (fun f -> f.fname) frames))
    l

let now () = Unix.gettimeofday ()

let record ~name ~attrs ~start ~dur ~excl ~depth ~gc =
  let tid = (Domain.self () :> int) in
  Mutex.lock mu;
  if !n_events < max_events then begin
    events := { name; attrs; ts = start; dur; excl; tid; depth } :: !events;
    incr n_events
  end
  else incr dropped;
  let t, e, c = match Hashtbl.find_opt aggs name with Some s -> s | None -> (0.0, 0.0, 0) in
  Hashtbl.replace aggs name (t +. dur, e +. excl, c + 1);
  let g = match Hashtbl.find_opt gc_aggs name with Some g -> g | None -> gc_zero in
  Hashtbl.replace gc_aggs name (gc_add g gc);
  Mutex.unlock mu

(* Shared dummy for stacks-only frames: nothing reads their gc0/start, so
   one reading taken at module init serves every frame. *)
let gc_dummy = gc_now ()

(* Stacks-only span: push/pop the frame so [live_stacks] sees the path,
   skip timing, GC snapshots and the mutex-protected record. *)
let with_stack_only ~name ~attrs f =
  let stack = Domain.DLS.get stack_key in
  let fr = { fname = name; fattrs = attrs; start = 0.0; gc0 = gc_dummy; child = 0.0 } in
  stack := fr :: !stack;
  Fun.protect
    ~finally:(fun () ->
      let rec pop = function
        | top :: rest when top == fr -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      stack := pop !stack)
    f

let with_ ?(attrs = []) ~name f =
  if not (Registry.on ()) then
    if Registry.stacks_on () then with_stack_only ~name ~attrs f else f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let fr = { fname = name; fattrs = attrs; start = now (); gc0 = gc_now (); child = 0.0 } in
    let depth = List.length !stack in
    stack := fr :: !stack;
    let finish () =
      let dur = now () -. fr.start in
      let gc = gc_delta fr.gc0 (gc_now ()) in
      (* Pop down to (and including) our frame; intermediate frames can only
         appear if an exception skipped a finaliser, which Fun.protect
         prevents — but recover rather than corrupt the stack. *)
      let rec pop = function
        | top :: rest when top == fr -> rest
        | _ :: rest -> pop rest
        | [] -> []
      in
      stack := pop !stack;
      (match !stack with parent :: _ -> parent.child <- parent.child +. dur | [] -> ());
      record ~name ~attrs:fr.fattrs ~start:fr.start ~dur ~excl:(Float.max 0.0 (dur -. fr.child))
        ~depth ~gc
    in
    Fun.protect ~finally:finish f
  end

let events_snapshot () =
  Mutex.lock mu;
  let l = List.rev !events in
  Mutex.unlock mu;
  l

(* Number of events recorded so far: a mark taken before a unit of work
   (one served connection) lets [events_since] slice out just that unit's
   spans for a per-connection sidecar trace. *)
let event_count () =
  Mutex.lock mu;
  let n = !n_events in
  Mutex.unlock mu;
  n

let events_since mark =
  let l = events_snapshot () in
  let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  drop mark l

let totals () =
  Mutex.lock mu;
  let l =
    Hashtbl.fold (fun name (total, exclusive, count) acc -> (name, { total; exclusive; count }) :: acc) aggs []
  in
  Mutex.unlock mu;
  List.sort compare l

let stats name =
  Mutex.lock mu;
  let r = Hashtbl.find_opt aggs name in
  Mutex.unlock mu;
  Option.map (fun (total, exclusive, count) -> { total; exclusive; count }) r

let gc_totals () =
  Mutex.lock mu;
  let l = Hashtbl.fold (fun name g acc -> (name, g) :: acc) gc_aggs [] in
  Mutex.unlock mu;
  List.sort compare l

let gc_stats name =
  Mutex.lock mu;
  let r = Hashtbl.find_opt gc_aggs name in
  Mutex.unlock mu;
  r

let dropped_events () = !dropped

let reset () =
  Mutex.lock mu;
  events := [];
  n_events := 0;
  dropped := 0;
  Hashtbl.reset aggs;
  Hashtbl.reset gc_aggs;
  Mutex.unlock mu
