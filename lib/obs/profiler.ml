(* Zscope sampling profiler (DESIGN.md §15): an always-on wall-clock
   profiler over every domain in the process. A ticker domain wakes
   [hz] times a second and snapshots each domain's live open-span stack
   (Span.live_stacks — maintained even with full tracing off, via
   Registry.enable_stacks), folding each sample into a
   `root;child;leaf count` table. The output is the flamegraph.pl /
   inferno folded-stacks format, served live at /profile and scraped by
   `zaatar profile --live`.

   Cost model: the mutators pay only the stacks-only span path (a DLS load
   and two conses per span); the sampler pays one hashtable upsert per
   non-idle domain per tick on its own domain. At the default 97 Hz that
   is invisible next to a single field multiplication batch; the bench
   alloc experiment holds the words a tick allocates under a ceiling
   (profiler.sample) in --check-ledger. 97 rather than 100 so the
   tick never phase-locks with millisecond-periodic work. *)

type t = {
  interval_s : float;
  mu : Mutex.t;
  samples : (string, int) Hashtbl.t;  (* folded stack -> samples *)
  mutable ticks : int;  (* total wakeups *)
  mutable busy : int;  (* wakeups that found at least one open span *)
  mutable started_at : float;
  stopping : bool Atomic.t;
  mutable ticker : unit Domain.t option;
}

let default_hz = 97

let make ?(hz = default_hz) () =
  {
    interval_s = 1.0 /. float_of_int (max 1 hz);
    mu = Mutex.create ();
    samples = Hashtbl.create 64;
    ticks = 0;
    busy = 0;
    started_at = 0.0;
    stopping = Atomic.make true;
    ticker = None;
  }

let sample_once t =
  let stacks = Span.live_stacks () in
  Mutex.lock t.mu;
  t.ticks <- t.ticks + 1;
  if stacks <> [] then begin
    t.busy <- t.busy + 1;
    List.iter
      (fun (_tid, names) ->
        let key = String.concat ";" names in
        Hashtbl.replace t.samples key
          (1 + match Hashtbl.find_opt t.samples key with Some v -> v | None -> 0))
      stacks
  end;
  Mutex.unlock t.mu

let running t = not (Atomic.get t.stopping)

(* Start the ticker domain (idempotent) and switch the span layer into
   stacks-only maintenance so there is something to sample even when full
   tracing is off. *)
let start t =
  if not (running t) then begin
    Registry.enable_stacks ();
    Atomic.set t.stopping false;
    t.started_at <- Unix.gettimeofday ();
    t.ticker <-
      Some
        (Domain.spawn (fun () ->
             while not (Atomic.get t.stopping) do
               sample_once t;
               Unix.sleepf t.interval_s
             done))
  end

let stop t =
  if running t then begin
    Atomic.set t.stopping true;
    match t.ticker with
    | Some d ->
      Domain.join d;
      t.ticker <- None
    | None -> ()
  end

let reset t =
  Mutex.lock t.mu;
  Hashtbl.reset t.samples;
  t.ticks <- 0;
  t.busy <- 0;
  t.started_at <- Unix.gettimeofday ();
  Mutex.unlock t.mu

type stats = { s_ticks : int; s_busy : int; s_distinct : int; s_elapsed : float }

let stats t =
  Mutex.lock t.mu;
  let s =
    {
      s_ticks = t.ticks;
      s_busy = t.busy;
      s_distinct = Hashtbl.length t.samples;
      s_elapsed = (if t.started_at = 0.0 then 0.0 else Unix.gettimeofday () -. t.started_at);
    }
  in
  Mutex.unlock t.mu;
  s

(* flamegraph.pl input: `path;to;leaf <samples>` per line, sorted for
   stable output. Idle ticks (no open span anywhere) render as one
   "(idle)" line so sample totals — and therefore flame widths — reflect
   wall-clock utilization, not just busy time. *)
let folded t =
  Mutex.lock t.mu;
  let lines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.samples [] in
  let idle = t.ticks - t.busy in
  Mutex.unlock t.mu;
  let lines = if idle > 0 then ("(idle)", idle) :: lines else lines in
  String.concat ""
    (List.map (fun (k, v) -> Printf.sprintf "%s %d\n" k v) (List.sort compare lines))
