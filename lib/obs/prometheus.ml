(* Prometheus text exposition (format 0.0.4) of the Zobs registry: every
   counter, histogram (with cumulative le-buckets and approximate
   p50/p95/p99 gauges) and span aggregate, rendered on demand by the
   `--metrics-listen` endpoint. Metric names are the Zobs dotted names with
   a `zaatar_` prefix and dots mapped to underscores, so
   `wire.bytes.sent.hello` scrapes as `zaatar_wire_bytes_sent_hello`. *)

let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    name

(* Label values need backslash, double-quote and newline escaped per the
   exposition format. *)
let escape_label v =
  let b = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let metric b ?(labels = []) ~name v =
  Buffer.add_string b name;
  (match labels with
  | [] -> ()
  | labels ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, lv) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "%s=\"%s\"" k (escape_label lv)))
      labels;
    Buffer.add_char b '}');
  Buffer.add_string b (Printf.sprintf " %s\n" v)

let typ b name kind = Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)

let int_metric b ?labels ~name v = metric b ?labels ~name (string_of_int v)
let float_metric b ?labels ~name v = metric b ?labels ~name (Printf.sprintf "%.9g" v)

let render_counters b =
  List.iter
    (fun (name, v) ->
      let n = "zaatar_" ^ sanitize name in
      typ b n "counter";
      int_metric b ~name:n v)
    (Registry.counter_values ())

(* One histogram family: cumulative le-buckets, count, and approximate
   p50/p95/p99 gauges; nothing for an empty snapshot. Bucket i of a Zobs
   histogram counts values in [lo, 2*lo), so the inclusive upper bound
   Prometheus wants for `le` is 2*lo - 1 (and 0 for the v <= 0 bucket). *)
let histogram b ~name buckets =
  if buckets <> [] then begin
    typ b name "histogram";
    let total =
      List.fold_left
        (fun acc (lo, c) ->
          let acc = acc + c in
          let le = if lo = 0 then "0" else string_of_int ((2 * lo) - 1) in
          int_metric b ~labels:[ ("le", le) ] ~name:(name ^ "_bucket") acc;
          acc)
        0 buckets
    in
    int_metric b ~labels:[ ("le", "+Inf") ] ~name:(name ^ "_bucket") total;
    int_metric b ~name:(name ^ "_count") total;
    List.iter
      (fun (suffix, p) ->
        match Histogram.percentile_of_snapshot buckets p with
        | Some v -> int_metric b ~name:(name ^ "_" ^ suffix) v
        | None -> ())
      [ ("p50", 50.0); ("p95", 95.0); ("p99", 99.0) ]
  end

let render_histograms b =
  List.iter
    (fun (name, buckets) -> histogram b ~name:("zaatar_" ^ sanitize name) buckets)
    (Registry.histogram_values ())

let render_spans b =
  let spans = Span.totals () in
  if spans <> [] then begin
    List.iter
      (fun (tname, kind) -> typ b tname kind)
      [
        ("zaatar_span_seconds_total", "counter");
        ("zaatar_span_exclusive_seconds_total", "counter");
        ("zaatar_span_calls_total", "counter");
      ];
    List.iter
      (fun (name, (s : Span.stat)) ->
        let labels = [ ("name", name) ] in
        float_metric b ~labels ~name:"zaatar_span_seconds_total" s.Span.total;
        float_metric b ~labels ~name:"zaatar_span_exclusive_seconds_total" s.Span.exclusive;
        int_metric b ~labels ~name:"zaatar_span_calls_total" s.Span.count)
      spans
  end

(* Ledger gauges: Figure-3 op totals since process start, plus the same op
   vector and GC deltas attributed per protocol phase — what a `serve`
   operator needs to see op rates and GC pressure per scrape. *)
let render_ledger b =
  let total = Ledger.total () in
  typ b "zaatar_ledger_ops_total" "counter";
  List.iter
    (fun (op, v) -> int_metric b ~labels:[ ("op", op) ] ~name:"zaatar_ledger_ops_total" v)
    (Ledger.ops_to_list total);
  let phases = Ledger.phases () in
  if phases <> [] then begin
    List.iter
      (fun (tname, kind) -> typ b tname kind)
      [
        ("zaatar_ledger_phase_ops_total", "counter");
        ("zaatar_ledger_phase_seconds_total", "counter");
        ("zaatar_ledger_phase_minor_words_total", "counter");
        ("zaatar_ledger_phase_major_words_total", "counter");
      ];
    List.iter
      (fun (phase, (p : Ledger.phase)) ->
        List.iter
          (fun (op, v) ->
            int_metric b
              ~labels:[ ("phase", phase); ("op", op) ]
              ~name:"zaatar_ledger_phase_ops_total" v)
          (Ledger.ops_to_list p.Ledger.ops);
        let labels = [ ("phase", phase) ] in
        float_metric b ~labels ~name:"zaatar_ledger_phase_seconds_total" p.Ledger.seconds;
        float_metric b ~labels ~name:"zaatar_ledger_phase_minor_words_total"
          p.Ledger.gc.Span.minor_words;
        float_metric b ~labels ~name:"zaatar_ledger_phase_major_words_total"
          p.Ledger.gc.Span.major_words)
      phases
  end

(* GC gauges: the live [Gc.quick_stat] of the scraped process. Counter-like
   fields (words, collections) are monotonic; heap sizes are point-in-time
   gauges. *)
let render_gc b =
  let g = Gc.quick_stat () in
  List.iter
    (fun (name, v) ->
      typ b name "counter";
      float_metric b ~name v)
    [
      ("zaatar_gc_minor_words_total", g.Gc.minor_words);
      ("zaatar_gc_major_words_total", g.Gc.major_words);
      ("zaatar_gc_promoted_words_total", g.Gc.promoted_words);
      ("zaatar_gc_minor_collections_total", float_of_int g.Gc.minor_collections);
      ("zaatar_gc_major_collections_total", float_of_int g.Gc.major_collections);
      ("zaatar_gc_compactions_total", float_of_int g.Gc.compactions);
    ];
  List.iter
    (fun (name, v) ->
      typ b name "gauge";
      float_metric b ~name v)
    [
      ("zaatar_gc_heap_words", float_of_int g.Gc.heap_words);
      ("zaatar_gc_top_heap_words", float_of_int g.Gc.top_heap_words);
    ]

(* [extra] lets a caller (the serve metrics endpoint) prepend its own
   already-rendered exposition lines — per-connection series the global
   registry does not know about. *)
let render ?(extra = "") () =
  let b = Buffer.create 4096 in
  Buffer.add_string b extra;
  render_counters b;
  render_histograms b;
  render_spans b;
  render_ledger b;
  render_gc b;
  Buffer.contents b
