(* Svcstats: per-connection accounting for one prover farm. Unlike the
   Zobs registry — process-global, gated by the tracing flag — these stats
   are always on (the server operator wants them regardless of tracing)
   and keyed by connection, so one scrape distinguishes a slow peer from a
   slow prover. The global Zobs counters keep the cumulative totals; a
   [t] adds the per-connection breakdown the `--metrics-listen` endpoint
   and `zaatar stats` expose.

   Each farm owns its [t]. All of a [t]'s state, its connections
   included, lives behind one mutex: the farm loop and its Pool workers
   mutate while the metrics HTTP domain renders snapshots. *)

type phase_stats = {
  mutable p_sent : int; (* bytes *)
  mutable p_recv : int;
  mutable p_msgs : int;
  mutable p_seconds : float; (* wall time attributed to the phase *)
}

type conn = {
  mu : Mutex.t; (* the owning [t]'s *)
  id : int;
  peer : string;
  mutable digest : string; (* computation digest, once the Hello names it *)
  started : float;
  mutable finished : float option;
  mutable status : string; (* "active" | "ok" | "error" *)
  mutable error : string;
  mutable bytes_sent : int;
  mutable bytes_recv : int;
  mutable msgs : int;
  mutable phases : (string * phase_stats) list; (* insertion order *)
}

(* Completed-connection ring capacity (--recent-cap). The ring feeds the
   latency percentiles and the per-connection series, so its depth trades
   scrape-payload size against percentile sample count. *)
let default_recent_cap = 64
let depth_trend_cap = 120

type t = {
  mu : Mutex.t;
  recent_cap : int;
  mutable next_id : int;
  mutable accepted : int;
  mutable failed : int;
  mutable completed : int;
  mutable decode_errors : int;
  mutable timeouts : int;
  (* Farm-layer accounting: connections shed by admission control
     (distinct from decode errors — the peer did nothing wrong, the server
     was full), setup-cache traffic, and the accept-queue depth gauge. *)
  mutable shed : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable queue_depth : int;
  mutable active : conn list;
  mutable recent : conn list; (* finished connections, newest first *)
  (* Event-loop health (Zscope, DESIGN.md §15): per-iteration accounting
     of the farm's select loop, always on like everything else here. *)
  mutable loop_iters : int;
  mutable loop_busy_s : float; (* seconds spent working between select returns *)
  mutable loop_wait_s : float; (* seconds parked inside select *)
  mutable loop_ready_total : int;
  loop_iter_us : Zobs.Histogram.t; (* whole-iteration duration, µs *)
  loop_ready : Zobs.Histogram.t; (* fds ready per wakeup *)
  mutable depth_trend : (float * int) list; (* (ts, queue depth), newest first *)
}

let create ?(recent_cap = default_recent_cap) () =
  {
    mu = Mutex.create ();
    recent_cap = max 1 recent_cap;
    next_id = 0;
    accepted = 0;
    failed = 0;
    completed = 0;
    decode_errors = 0;
    timeouts = 0;
    shed = 0;
    cache_hits = 0;
    cache_misses = 0;
    queue_depth = 0;
    active = [];
    recent = [];
    loop_iters = 0;
    loop_busy_s = 0.0;
    loop_wait_s = 0.0;
    loop_ready_total = 0;
    loop_iter_us = Zobs.Histogram.create "loop.iter_us";
    loop_ready = Zobs.Histogram.create "loop.ready_fds";
    depth_trend = [];
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let take n l = List.filteri (fun i _ -> i < n) l

let begin_conn t ~peer =
  locked t.mu (fun () ->
      t.accepted <- t.accepted + 1;
      let c =
        {
          mu = t.mu;
          id = t.next_id;
          peer;
          digest = "";
          started = Unix.gettimeofday ();
          finished = None;
          status = "active";
          error = "";
          bytes_sent = 0;
          bytes_recv = 0;
          msgs = 0;
          phases = [];
        }
      in
      t.next_id <- t.next_id + 1;
      t.active <- c :: t.active;
      c)

let phase_of c name =
  match List.assoc_opt name c.phases with
  | Some p -> p
  | None ->
    let p = { p_sent = 0; p_recv = 0; p_msgs = 0; p_seconds = 0.0 } in
    c.phases <- c.phases @ [ (name, p) ];
    p

let set_digest (c : conn) d = locked c.mu (fun () -> c.digest <- d)

let record_sent (c : conn) ~phase n =
  locked c.mu (fun () ->
      c.bytes_sent <- c.bytes_sent + n;
      c.msgs <- c.msgs + 1;
      let p = phase_of c phase in
      p.p_sent <- p.p_sent + n;
      p.p_msgs <- p.p_msgs + 1)

let record_recv (c : conn) ~phase n =
  locked c.mu (fun () ->
      c.bytes_recv <- c.bytes_recv + n;
      let p = phase_of c phase in
      p.p_recv <- p.p_recv + n)

let record_phase_time (c : conn) ~phase s =
  locked c.mu (fun () ->
      let p = phase_of c phase in
      p.p_seconds <- p.p_seconds +. s)

let record_decode_error t = locked t.mu (fun () -> t.decode_errors <- t.decode_errors + 1)
let record_timeout t = locked t.mu (fun () -> t.timeouts <- t.timeouts + 1)
let record_shed t = locked t.mu (fun () -> t.shed <- t.shed + 1)
let record_cache_hit t = locked t.mu (fun () -> t.cache_hits <- t.cache_hits + 1)
let record_cache_miss t = locked t.mu (fun () -> t.cache_misses <- t.cache_misses + 1)
let set_queue_depth t n = locked t.mu (fun () -> t.queue_depth <- n)

(* One event-loop iteration: [wait_s] inside select, [busy_s] doing work
   after it, [ready] fds select reported. Also samples the current accept-
   queue depth into the bounded trend ring. *)
let record_loop_iter t ~busy_s ~wait_s ~ready =
  locked t.mu (fun () ->
      t.loop_iters <- t.loop_iters + 1;
      t.loop_busy_s <- t.loop_busy_s +. busy_s;
      t.loop_wait_s <- t.loop_wait_s +. wait_s;
      t.loop_ready_total <- t.loop_ready_total + ready;
      Zobs.Histogram.record t.loop_iter_us (int_of_float ((busy_s +. wait_s) *. 1e6));
      Zobs.Histogram.record t.loop_ready ready;
      t.depth_trend <-
        (Unix.gettimeofday (), t.queue_depth) :: take (depth_trend_cap - 1) t.depth_trend)

let loop_utilization_unlocked t =
  let total = t.loop_busy_s +. t.loop_wait_s in
  if total <= 0.0 then 0.0 else t.loop_busy_s /. total

(* (iterations, busy_s, wait_s, ready_total), for tests. *)
let loop_totals t =
  locked t.mu (fun () -> (t.loop_iters, t.loop_busy_s, t.loop_wait_s, t.loop_ready_total))

let end_conn t c outcome =
  locked t.mu (fun () ->
      c.finished <- Some (Unix.gettimeofday ());
      (match outcome with
      | `Ok ->
        c.status <- "ok";
        t.completed <- t.completed + 1
      | `Error msg ->
        c.status <- "error";
        c.error <- msg;
        t.failed <- t.failed + 1);
      t.active <- List.filter (fun x -> x.id <> c.id) t.active;
      t.recent <- take t.recent_cap (c :: t.recent))

let duration_s c =
  match c.finished with Some t -> t -. c.started | None -> Unix.gettimeofday () -. c.started

(* Session-latency percentiles over the completed-connection ring: the
   always-on counterpart of the (tracing-gated) wire latency histograms.
   Nearest-rank on up to [recent_cap] samples. *)
let latency_ms_unlocked t =
  let ds =
    List.filter_map (fun c -> Option.map (fun f -> (f -. c.started) *. 1000.0) c.finished)
      t.recent
    |> Array.of_list
  in
  Array.sort compare ds;
  let pct q =
    let n = Array.length ds in
    if n = 0 then 0.0
    else ds.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  (pct 0.50, pct 0.95, pct 0.99)

let latency_ms t = locked t.mu (fun () -> latency_ms_unlocked t)

(* ------------------------------------------------------------------ *)
(* Renderers                                                           *)
(* ------------------------------------------------------------------ *)

(* Per-connection Prometheus series, labelled by connection id, peer,
   digest and phase. Prepended to the global Zobs exposition by the
   metrics endpoint via [Zobs.Prometheus.render ~extra]. *)
let prometheus t =
  locked t.mu (fun () ->
      let b = Buffer.create 2048 in
      let open Zobs.Prometheus in
      let int_series kind name v =
        typ b name kind;
        int_metric b ~name v
      in
      let float_series kind name v =
        typ b name kind;
        float_metric b ~name v
      in
      int_series "counter" "zaatar_server_connections_accepted_total" t.accepted;
      int_series "gauge" "zaatar_server_connections_active" (List.length t.active);
      int_series "counter" "zaatar_server_connections_completed_total" t.completed;
      int_series "counter" "zaatar_server_connections_failed_total" t.failed;
      int_series "counter" "zaatar_server_decode_errors_total" t.decode_errors;
      int_series "counter" "zaatar_server_timeouts_total" t.timeouts;
      int_series "counter" "zaatar_server_connections_shed_total" t.shed;
      int_series "counter" "zaatar_server_setup_cache_hits_total" t.cache_hits;
      int_series "counter" "zaatar_server_setup_cache_misses_total" t.cache_misses;
      int_series "gauge" "zaatar_server_queue_depth" t.queue_depth;
      int_series "counter" "zaatar_loop_iterations_total" t.loop_iters;
      float_series "counter" "zaatar_loop_busy_seconds_total" t.loop_busy_s;
      float_series "counter" "zaatar_loop_wait_seconds_total" t.loop_wait_s;
      float_series "gauge" "zaatar_loop_utilization" (loop_utilization_unlocked t);
      int_series "counter" "zaatar_loop_ready_fds_total" t.loop_ready_total;
      histogram b ~name:"zaatar_loop_iter_us" (Zobs.Histogram.snapshot t.loop_iter_us);
      histogram b ~name:"zaatar_loop_ready_fds" (Zobs.Histogram.snapshot t.loop_ready);
      let p50, p95, p99 = latency_ms_unlocked t in
      typ b "zaatar_server_session_latency_ms" "gauge";
      List.iter
        (fun (q, v) ->
          float_metric b ~labels:[ ("quantile", q) ] ~name:"zaatar_server_session_latency_ms" v)
        [ ("0.5", p50); ("0.95", p95); ("0.99", p99) ];
      let conns = t.active @ t.recent in
      if conns <> [] then begin
        List.iter
          (fun (n, k) -> typ b n k)
          [
            ("zaatar_conn_bytes_sent_total", "counter");
            ("zaatar_conn_bytes_recv_total", "counter");
            ("zaatar_conn_msgs_total", "counter");
            ("zaatar_conn_phase_seconds_total", "counter");
            ("zaatar_conn_duration_seconds", "gauge");
          ];
        List.iter
          (fun c ->
            let base =
              [ ("conn", string_of_int c.id); ("peer", c.peer); ("digest", c.digest) ]
            in
            float_metric b ~labels:(base @ [ ("status", c.status) ])
              ~name:"zaatar_conn_duration_seconds" (duration_s c);
            List.iter
              (fun (phase, p) ->
                let labels = base @ [ ("phase", phase) ] in
                int_metric b ~labels ~name:"zaatar_conn_bytes_sent_total" p.p_sent;
                int_metric b ~labels ~name:"zaatar_conn_bytes_recv_total" p.p_recv;
                int_metric b ~labels ~name:"zaatar_conn_msgs_total" p.p_msgs;
                float_metric b ~labels ~name:"zaatar_conn_phase_seconds_total" p.p_seconds)
              c.phases)
          conns
      end;
      Buffer.contents b)

(* The phase the connection is currently in: the last entry of the
   insertion-ordered phase list — what `zaatar top`'s per-session table
   shows. *)
let current_phase c =
  match List.rev c.phases with (name, _) :: _ -> name | [] -> ""

let conn_json c =
  let open Zobs.Json in
  Obj
    [
      ("id", Num (float_of_int c.id));
      ("peer", Str c.peer);
      ("digest", Str c.digest);
      ("status", Str c.status);
      ("phase", Str (current_phase c));
      ("error", Str c.error);
      ("started_s", Num c.started);
      ("duration_s", Num (duration_s c));
      ("bytes_sent", Num (float_of_int c.bytes_sent));
      ("bytes_recv", Num (float_of_int c.bytes_recv));
      ("msgs", Num (float_of_int c.msgs));
      ( "phases",
        Obj
          (List.map
             (fun (name, p) ->
               ( name,
                 Obj
                   [
                     ("sent", Num (float_of_int p.p_sent));
                     ("recv", Num (float_of_int p.p_recv));
                     ("msgs", Num (float_of_int p.p_msgs));
                     ("seconds", Num p.p_seconds);
                   ] ))
             c.phases) );
    ]

let json t =
  locked t.mu (fun () ->
      let open Zobs.Json in
      Obj
        [
          ( "server",
            Obj
              [
                ("accepted", Num (float_of_int t.accepted));
                ("active", Num (float_of_int (List.length t.active)));
                ("completed", Num (float_of_int t.completed));
                ("failed", Num (float_of_int t.failed));
                ("decode_errors", Num (float_of_int t.decode_errors));
                ("timeouts", Num (float_of_int t.timeouts));
                ("shed", Num (float_of_int t.shed));
                ("cache_hits", Num (float_of_int t.cache_hits));
                ("cache_misses", Num (float_of_int t.cache_misses));
                ("queue_depth", Num (float_of_int t.queue_depth));
                ( "latency_ms",
                  let p50, p95, p99 = latency_ms_unlocked t in
                  Obj [ ("p50", Num p50); ("p95", Num p95); ("p99", Num p99) ] );
              ] );
          ( "loop",
            let pcts h =
              let p q =
                Option.fold ~none:0.0 ~some:float_of_int (Zobs.Histogram.percentile h q)
              in
              Obj [ ("p50", Num (p 50.0)); ("p95", Num (p 95.0)); ("p99", Num (p 99.0)) ]
            in
            Obj
              [
                ("iterations", Num (float_of_int t.loop_iters));
                ("busy_s", Num t.loop_busy_s);
                ("wait_s", Num t.loop_wait_s);
                ("utilization", Num (loop_utilization_unlocked t));
                ( "ready_avg",
                  Num
                    (if t.loop_iters = 0 then 0.0
                     else float_of_int t.loop_ready_total /. float_of_int t.loop_iters) );
                ("iter_us", pcts t.loop_iter_us);
                ("ready_fds", pcts t.loop_ready);
                ( "queue_depth_trend",
                  Arr (List.rev_map (fun (_, d) -> Num (float_of_int d)) t.depth_trend) );
              ] );
          ("connections", Arr (List.map conn_json (t.active @ t.recent)));
        ])

(* Quick snapshot for tests and the bench. *)
let totals t =
  locked t.mu (fun () ->
      (t.accepted, List.length t.active, t.completed, t.failed, t.decode_errors, t.timeouts))

(* Farm-layer snapshot: shed count, cache hits/misses, queue depth. *)
let farm_totals t = locked t.mu (fun () -> (t.shed, t.cache_hits, t.cache_misses, t.queue_depth))
