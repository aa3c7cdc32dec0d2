#!/bin/sh
# Repo CI: formatting gate, build, tests, and a bench smoke test that
# asserts the machine-readable run summary is emitted and parses back.
set -eu

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== format check =="
  dune build @fmt
else
  echo "== format check skipped (ocamlformat not installed) =="
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== build =="
dune build

echo "== release build (the same warning bar, generated kernels included) =="
dune build --profile release --build-dir "$tmp/release"

echo "== tests =="
dune runtest

echo "== lint (examples and fixtures) =="
# Every shipped example must be clean under both Zlint layers; every
# deliberately-broken fixture must keep firing its diagnostic, and the
# error-severity ones must exit with the documented code 2.
dune build bin/zaatar_cli.exe
dune exec bin/zaatar_cli.exe -- lint examples/*.zl \
  || { echo "shipped examples must lint clean" >&2; exit 1; }
for f in test/lint_fixtures/*; do
  case "$f" in
    # Error-severity fixtures: lint must exit 2 (not 0, not a crash).
    */zl000_*|*/zl001_*|*/zl003_*|*/zl006_*|*/zr001_*|*/zr002_*|*/zr007_*|*/fuzz_broken_*)
      if dune exec bin/zaatar_cli.exe -- lint "$f" > /dev/null 2>&1; then
        echo "lint did not fail on broken fixture $f" >&2; exit 1
      fi
      rc=0; dune exec bin/zaatar_cli.exe -- lint "$f" > /dev/null 2>&1 || rc=$?
      [ "$rc" -eq 2 ] || { echo "lint exited $rc (want 2) on $f" >&2; exit 1; }
      ;;
    # The unroll fixture only trips its budget when one is set.
    */zl004_*)
      out="$(dune exec bin/zaatar_cli.exe -- lint "$f" --unroll-budget 1000)" \
        || { echo "lint exited non-zero on warn-only fixture $f" >&2; exit 1; }
      echo "$out" | grep -q "ZL004" \
        || { echo "unroll budget finding missing for $f" >&2; exit 1; }
      ;;
    # Warn/info fixtures: must report at least one finding but exit 0.
    *)
      out="$(dune exec bin/zaatar_cli.exe -- lint "$f")" \
        || { echo "lint exited non-zero on warn-only fixture $f" >&2; exit 1; }
      echo "$out" | grep -q ": warn\|: info" \
        || { echo "no finding reported for fixture $f" >&2; exit 1; }
      ;;
  esac
done

echo "== unroll budget and literal range (compile-error fixtures) =="
# A 10^8-iteration loop must fail to compile at once with an error naming
# the unroll budget: exit 124 from timeout means the compiler hung, and
# success means the budget is gone.
bomb=test/lint_fixtures/zl000_unroll_bomb.zl
rc=0; out="$(timeout 5 ./_build/default/bin/zaatar_cli.exe compile "$bomb" 2>&1)" || rc=$?
[ "$rc" -ne 124 ] || { echo "compiling $bomb hung past 5 s" >&2; exit 1; }
[ "$rc" -ne 0 ] || { echo "compiling $bomb succeeded; the unroll budget is gone" >&2; exit 1; }
echo "$out" | grep -q "unroll budget" \
  || { echo "compile of $bomb failed without naming the unroll budget: $out" >&2; exit 1; }
# An integer literal past max_int is a classified compile error (exit 1,
# a "compile:" message), not an uncaught exception (exit 125).
lit=test/lint_fixtures/zl000_int_literal.zl
rc=0; out="$(timeout 5 ./_build/default/bin/zaatar_cli.exe compile "$lit" 2>&1)" || rc=$?
[ "$rc" -eq 1 ] || { echo "compiling $lit exited $rc (want 1): $out" >&2; exit 1; }
echo "$out" | grep -q "^compile:" \
  || { echo "compile of $lit failed without a compile: message: $out" >&2; exit 1; }

echo "== exec smoke (interpreter vs compiled witnesses) =="
# The witness-solving interpreter must re-derive the compiled prover's
# witness bit-for-bit on every benchmark app from the inputs alone, and
# its outputs must match the native reference.
dune exec bin/zaatar_cli.exe -- exec --check \
  || { echo "interpreter disagreed with the compiled witness" >&2; exit 1; }

echo "== fuzz smoke (seed-pinned differential campaign) =="
# 50 random ZL programs through the differential oracle (native eval vs
# compiled witness vs interpreter solve, verdict sampling included); the
# campaign exits non-zero on any discrepancy.
dune exec bin/zaatar_cli.exe -- fuzz --seed 42 --count 50 \
  || { echo "differential fuzz campaign found discrepancies" >&2; exit 1; }

echo "== bench smoke (summary JSON) =="
dune exec bench/main.exe -- micro --quick --json "$tmp/BENCH_run.json" | tee "$tmp/bench.out"
test -s "$tmp/BENCH_run.json" || { echo "BENCH_run.json missing or empty" >&2; exit 1; }
grep -q "parsed back OK" "$tmp/bench.out" || { echo "summary did not parse back" >&2; exit 1; }
grep -q '"schema":"zaatar-bench-run/1"' "$tmp/BENCH_run.json" || { echo "summary schema missing" >&2; exit 1; }

echo "== multiexp smoke (kernel vs naive ladder) =="
# The multiexp experiment cross-checks every exponentiation kernel
# (fixed-base window, Shamir, Pippenger, the parallel commit pipeline)
# against the generic ladder and exits non-zero on any divergence.
dune exec bench/main.exe -- multiexp --quick --json "$tmp/MULTIEXP_run.json" | tee "$tmp/multiexp.out"
grep -q "multiexp kernels agree" "$tmp/multiexp.out" || { echo "multiexp kernels diverged from the naive ladder" >&2; exit 1; }
grep -q '"multiexp"' "$tmp/MULTIEXP_run.json" || { echo "multiexp section missing from summary" >&2; exit 1; }
grep -q '"kernels_agree":true' "$tmp/MULTIEXP_run.json" || { echo "multiexp kernels_agree not recorded" >&2; exit 1; }

echo "== wire smoke (loopback byte accounting) =="
# The wire experiment runs a batch through the split V/P session machinery
# and exits non-zero if sent and received bytes do not balance.
dune exec bench/main.exe -- wire --quick --json "$tmp/WIRE_run.json" | tee "$tmp/wire.out"
grep -q "sent and received bytes balance" "$tmp/wire.out" || { echo "wire bytes did not balance" >&2; exit 1; }
grep -q '"network"' "$tmp/WIRE_run.json" || { echo "network section missing from summary" >&2; exit 1; }
grep -q '"balanced":true' "$tmp/WIRE_run.json" || { echo "network balance not recorded" >&2; exit 1; }

echo "== cost model report smoke (bench model) =="
# The model experiment records predicted vs. measured prover seconds per
# phase into the summary. Wall clock is reported, not gated: the
# deterministic Figure-3 check is the op audit under --check-ledger below.
dune exec bench/main.exe -- model --quick --json "$tmp/MODEL_run.json" | tee "$tmp/model.out"
grep -q '"model"' "$tmp/MODEL_run.json" || { echo "model section missing from summary" >&2; exit 1; }
grep -q '"delta"' "$tmp/MODEL_run.json" || { echo "model deltas missing from summary" >&2; exit 1; }

echo "== ledger gate (bench --check-ledger) + history trend =="
# The profile experiment ledgers a deterministic argument run and audits
# its per-phase op counts against the Figure-3 op model; --check-ledger
# turns a gated row outside its documented band into a non-zero exit.
# Gated runs append one JSONL line to the history file; --trend prints it.
dune exec bench/main.exe -- alloc profile --quick --check-ledger \
  --json "$tmp/LEDGER_run.json" --history "$tmp/history.jsonl" | tee "$tmp/ledger.out"
grep -q -- "--check-ledger OK" "$tmp/ledger.out" || { echo "check-ledger did not report OK" >&2; exit 1; }
grep -q "words/op under ceilings" "$tmp/ledger.out" || { echo "allocation gate did not run" >&2; exit 1; }
grep -q '"ledger"' "$tmp/LEDGER_run.json" || { echo "ledger section missing from summary" >&2; exit 1; }
grep -q '"alloc"' "$tmp/LEDGER_run.json" || { echo "alloc section missing from summary" >&2; exit 1; }
grep -q '"profiler.sample"' "$tmp/LEDGER_run.json" || { echo "profiler tick allocation not recorded" >&2; exit 1; }
test -s "$tmp/history.jsonl" || { echo "gated run did not append to the history file" >&2; exit 1; }
dune exec bench/main.exe -- --trend 5 --history "$tmp/history.jsonl" | tee "$tmp/trend.out"
grep -q "gated run(s)" "$tmp/trend.out" || { echo "--trend did not print the history tail" >&2; exit 1; }

echo "== baseline gate (bench --baseline, exact) =="
# Every --baseline row is a deterministic count (wire bytes, lint
# findings, exec solve stats, per-phase ledger ops), so the committed
# full-config baseline must pass exactly. A --quick run against it must
# fail on the config mismatch with exit 1.
dune exec bench/main.exe -- wire lint exec profile --baseline BENCH_baseline.json \
  --json "$tmp/BASE_run.json" --history "$tmp/base_history.jsonl" | tee "$tmp/base.out"
grep -q "baseline check OK" "$tmp/base.out" || { echo "baseline gate did not report OK" >&2; exit 1; }
rc=0
dune exec bench/main.exe -- wire --quick --baseline BENCH_baseline.json \
  --json "$tmp/BASE_fail.json" --history "$tmp/base_history.jsonl" > "$tmp/base_fail.out" 2>&1 || rc=$?
[ "$rc" -eq 1 ] || { echo "baseline breach exited $rc (want 1)" >&2; cat "$tmp/base_fail.out" >&2; exit 1; }
grep -q "^baseline: config.quick" "$tmp/base_fail.out" \
  || { echo "baseline breach did not name config.quick" >&2; cat "$tmp/base_fail.out" >&2; exit 1; }

echo "== ntt-vs-lagrange smoke (QAP backend differential) =="
# Runs a benchmark app end to end under both QAP backends: the verdicts
# must agree, the packed NTT H must equal the subproduct-tree reference
# (packed Karatsuba under the boxed Poly API, an algorithm independent
# of the NTT), the Lagrange H must equal Qap.prover_h_reference
# (Lagrange-basis interpolation, schoolbook product and long division:
# no Karatsuba, no Newton iteration, no cached reciprocal), and the
# wall/allocation ratios land in the summary. The experiment itself
# exits non-zero on any divergence.
dune exec bench/main.exe -- ntt-vs-lagrange --quick --json "$tmp/NTT_run.json" | tee "$tmp/ntt.out"
grep -q "verdicts ok" "$tmp/ntt.out" || { echo "backend verdicts diverged" >&2; exit 1; }
grep -q ", H ok" "$tmp/ntt.out" || { echo "NTT H does not match the reference" >&2; exit 1; }
grep -q '"ntt_vs_lagrange"' "$tmp/NTT_run.json" || { echo "ntt_vs_lagrange section missing from summary" >&2; exit 1; }
grep -q '"verdicts_agree":true' "$tmp/NTT_run.json" || { echo "verdict agreement not recorded" >&2; exit 1; }
grep -q '"h_matches_reference":true' "$tmp/NTT_run.json" || { echo "H reference equality not recorded" >&2; exit 1; }
grep -q "Lagrange H ok" "$tmp/ntt.out" || { echo "Lagrange H does not match the reference" >&2; exit 1; }
grep -q '"lagrange_h_matches_reference":true' "$tmp/NTT_run.json" || { echo "Lagrange H reference equality not recorded" >&2; exit 1; }

echo "== profile smoke (zaatar profile, folded stacks) =="
# The profile subcommand must pass its op audit on the shipped matmul
# example and emit non-empty, well-formed folded stacks ("path us" lines,
# the input format of flamegraph.pl).
dune exec bin/zaatar_cli.exe -- profile examples/matmul.zl --folded "$tmp/matmul.folded" \
  | tee "$tmp/profile.out"
grep -q "op audit OK" "$tmp/profile.out" || { echo "zaatar profile audit failed" >&2; exit 1; }
test -s "$tmp/matmul.folded" || { echo "folded stacks output missing or empty" >&2; exit 1; }
if grep -qvE '^[^ ]+ [0-9]+$' "$tmp/matmul.folded"; then
  echo "folded stacks output malformed" >&2; cat "$tmp/matmul.folded" >&2; exit 1
fi

echo "== socket smoke (zaatar serve / run --connect, metrics + traces) =="
# Start a one-shot prover on an ephemeral port with the live metrics
# endpoint and per-connection trace sidecars, scrape the endpoint with
# `zaatar stats`, verify a traced batch against it over TCP, and merge the
# verifier's trace with the farm's flight-recorder sidecar into one
# two-pid view.
dune build bin/zaatar_cli.exe
mkdir -p "$tmp/traces"
: > "$tmp/serve.log"
dune exec bin/zaatar_cli.exe -- serve examples/payroll.zl --listen 127.0.0.1:0 --once \
  --metrics-listen 127.0.0.1:0 --trace "$tmp/prover_proc.json" --trace-dir "$tmp/traces" \
  --log-json "$tmp/serve_log.jsonl" \
  > "$tmp/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/^listening on //p' "$tmp/serve.log")"
  maddr="$(sed -n 's/^metrics on //p' "$tmp/serve.log")"
  [ -n "$addr" ] && [ -n "$maddr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "prover never reported its address; server log:" >&2
  cat "$tmp/serve.log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
[ -n "$maddr" ] || { echo "prover never reported its metrics address" >&2; cat "$tmp/serve.log" >&2; kill "$serve_pid" 2>/dev/null; exit 1; }
dune exec bin/zaatar_cli.exe -- stats "$maddr" | tee "$tmp/stats.out"
grep -q "accepted" "$tmp/stats.out" || { echo "stats scrape missing server counters" >&2; exit 1; }
dune exec bin/zaatar_cli.exe -- stats "$maddr" --raw | tee "$tmp/stats_raw.out"
grep -q "zaatar_server_connections_accepted_total" "$tmp/stats_raw.out" \
  || { echo "Prometheus exposition missing accepted counter" >&2; exit 1; }
if ! dune exec bin/zaatar_cli.exe -- run examples/payroll.zl -i 38,45,40,52,31 \
    --connect "$addr" --trace "$tmp/verifier.json" | tee "$tmp/remote.out"; then
  echo "remote verification failed; server log:" >&2
  cat "$tmp/serve.log" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
fi
grep -q "verified" "$tmp/remote.out" || { echo "remote run did not verify" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q "trace id " "$tmp/remote.out" || { echo "verifier did not mint a trace id" >&2; exit 1; }
wait "$serve_pid" || { echo "prover exited non-zero; server log:" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q "session complete" "$tmp/serve.log" || { echo "prover did not complete the session" >&2; cat "$tmp/serve.log" >&2; exit 1; }
grep -q '"peer"' "$tmp/serve_log.jsonl" || { echo "structured log lines missing peer field" >&2; exit 1; }
test -s "$tmp/traces/prover_conn0.json" || { echo "prover trace sidecar missing" >&2; exit 1; }
dune exec bin/zaatar_cli.exe -- trace-merge "$tmp/verifier.json" "$tmp/traces/prover_conn0.json" \
  -o "$tmp/merged.json"
grep -q '"pid":0' "$tmp/merged.json" || { echo "merged trace missing verifier pid" >&2; exit 1; }
grep -q '"pid":1' "$tmp/merged.json" || { echo "merged trace missing prover pid" >&2; exit 1; }
grep -q '"producer":"zobs-merge"' "$tmp/merged.json" || { echo "merged trace malformed" >&2; exit 1; }

echo "== farm smoke (concurrent prover farm) =="
# The default serve path is the Zfarm event loop: run 8 concurrent
# verifier clients against one farm (--max-sessions 4 keeps half of them
# parked in the accept queue until a slot frees), expect every verdict to
# pass and the Prometheus endpoint to report at least one setup-cache hit
# (7 of the 8 same-digest sessions reuse the cached QAP). The clients
# invoke the built binary directly so they don't contend on the dune lock.
dune build bin/zaatar_cli.exe
zcli="_build/default/bin/zaatar_cli.exe"
mkdir -p "$tmp/farm_traces"
: > "$tmp/farm.log"
# --trace-dir turns on the per-session flight recorder (Chrome-trace
# sidecar per connection); --slow-session-ms 1 forces every session over
# the slow threshold so forensic JSONL bundles are dumped too.
"$zcli" serve examples/payroll.zl --listen 127.0.0.1:0 --max-sessions 4 \
  --metrics-listen 127.0.0.1:0 --trace-dir "$tmp/farm_traces" \
  --slow-session-ms 1 > "$tmp/farm.log" 2>&1 &
farm_pid=$!
faddr=""
for _ in $(seq 1 100); do
  faddr="$(sed -n 's/^listening on //p' "$tmp/farm.log")"
  fmaddr="$(sed -n 's/^metrics on //p' "$tmp/farm.log")"
  [ -n "$faddr" ] && [ -n "$fmaddr" ] && break
  kill -0 "$farm_pid" 2>/dev/null || break
  sleep 0.1
done
if [ -z "$faddr" ]; then
  echo "farm never reported its address; server log:" >&2
  cat "$tmp/farm.log" >&2
  kill "$farm_pid" 2>/dev/null || true
  exit 1
fi
[ -n "$fmaddr" ] || { echo "farm never reported its metrics address" >&2; cat "$tmp/farm.log" >&2; kill "$farm_pid" 2>/dev/null; exit 1; }
# Readiness: poll /healthz until the event loop reports ok (200), the way
# an orchestrator's startup probe would, instead of trusting the log line.
healthz_ok=""
for _ in $(seq 1 100); do
  if python3 -c "
import sys, urllib.request
try:
    body = urllib.request.urlopen('http://$fmaddr/healthz', timeout=1).read()
except Exception:
    sys.exit(1)
sys.exit(0 if body.strip() == b'ok' else 1)
" 2>/dev/null; then healthz_ok=yes; break; fi
  kill -0 "$farm_pid" 2>/dev/null || break
  sleep 0.1
done
[ -n "$healthz_ok" ] || { echo "/healthz never reported ok" >&2; cat "$tmp/farm.log" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
client_pids=""
for i in $(seq 1 8); do
  "$zcli" run examples/payroll.zl -i 38,45,40,52,31 --connect "$faddr" \
    > "$tmp/farm_client_$i.out" 2>&1 &
  client_pids="$client_pids $!"
done
client_rc=0
for pid in $client_pids; do
  wait "$pid" || client_rc=$?
done
for i in $(seq 1 8); do
  grep -q "verified" "$tmp/farm_client_$i.out" || {
    echo "farm client $i did not verify:" >&2
    cat "$tmp/farm_client_$i.out" >&2
    echo "server log:" >&2; cat "$tmp/farm.log" >&2
    kill "$farm_pid" 2>/dev/null || true
    exit 1
  }
done
[ "$client_rc" -eq 0 ] || { echo "a farm client exited non-zero" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
"$zcli" stats "$fmaddr" --raw | tee "$tmp/farm_stats.out"
hits="$(awk '/^zaatar_server_setup_cache_hits_total/ {print $2}' "$tmp/farm_stats.out")"
[ -n "$hits" ] || { echo "setup cache hit counter missing from Prometheus exposition" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
[ "$hits" -ge 1 ] || { echo "farm served 8 same-digest sessions with zero cache hits" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
completed="$(grep -c "session complete" "$tmp/farm.log" || true)"
[ "$completed" -eq 8 ] || { echo "farm completed $completed/8 sessions" >&2; cat "$tmp/farm.log" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
# `zaatar top --once` must render one frame of the live view from /json.
"$zcli" top --once "$fmaddr" | tee "$tmp/farm_top.out"
grep -q "zaatar top" "$tmp/farm_top.out" || { echo "zaatar top --once did not render" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
grep -q "sessions" "$tmp/farm_top.out" || { echo "zaatar top --once missing sessions line" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
# Flight-recorder sidecar: the farm dumps one Chrome trace per session and
# trace-merge must accept it (trace id is minted by the verifier client and
# carried through Hello into the farm's sidecar).
test -s "$tmp/farm_traces/prover_conn0.json" || { echo "farm flight-recorder sidecar missing" >&2; ls "$tmp/farm_traces" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
"$zcli" trace-merge "$tmp/farm_traces/prover_conn0.json" -o "$tmp/farm_merged.json" \
  || { echo "trace-merge rejected the farm sidecar" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
grep -q '"producer":"zobs-merge"' "$tmp/farm_merged.json" || { echo "merged farm trace malformed" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
# Forensic bundle: --slow-session-ms 1 forces a dump; every line must be
# valid JSON and the header must carry the slow outcome.
forensic="$(ls "$tmp"/farm_traces/forensic_conn*.jsonl 2>/dev/null | head -n 1)"
[ -n "$forensic" ] || { echo "no forensic bundle despite --slow-session-ms 1" >&2; ls "$tmp/farm_traces" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
python3 -c "
import json, sys
lines = [l for l in open(sys.argv[1]) if l.strip()]
assert lines, 'forensic bundle is empty'
recs = [json.loads(l) for l in lines]
head = recs[0]
assert head['kind'] == 'session', head
assert head['outcome'] in ('slow', 'error'), head
assert all(r['kind'] == 'event' for r in recs[1:]), 'non-event line in bundle'
" "$forensic" || { echo "forensic bundle failed to parse: $forensic" >&2; kill "$farm_pid" 2>/dev/null || true; exit 1; }
kill "$farm_pid"
farm_rc=0
wait "$farm_pid" 2>/dev/null || farm_rc=$?
# 143 = SIGTERM: the farm runs until told to stop.
[ "$farm_rc" -eq 143 ] || [ "$farm_rc" -eq 0 ] || { echo "farm exited $farm_rc on shutdown" >&2; cat "$tmp/farm.log" >&2; exit 1; }

echo "== farm smoke on two domains (Lagrange prover) =="
# The same payroll farm over the default Mersenne field, where the prover
# takes the Lagrange QAP, with --domains 2: each client sends a beta = 4
# batch, whose witnesses, H vectors, commitments and answers the prover
# fans out over the pool, so the Karatsuba leaves run on two domains at
# once, each on its own scratch. Four concurrent clients must verify all
# four instances each.
: > "$tmp/farm2.log"
"$zcli" serve examples/payroll.zl --listen 127.0.0.1:0 --domains 2 > "$tmp/farm2.log" 2>&1 &
farm2_pid=$!
f2addr=""
for _ in $(seq 1 100); do
  f2addr="$(sed -n 's/^listening on //p' "$tmp/farm2.log")"
  [ -n "$f2addr" ] && break
  kill -0 "$farm2_pid" 2>/dev/null || break
  sleep 0.1
done
[ -n "$f2addr" ] || { echo "two-domain farm never reported its address:" >&2; cat "$tmp/farm2.log" >&2; kill "$farm2_pid" 2>/dev/null || true; exit 1; }
client_pids=""
for i in $(seq 1 4); do
  "$zcli" run examples/payroll.zl -i 38,45,40,52,31 -i 40,40,40,40,40 \
    -i 12,60,33,47,50 -i 55,20,38,41,44 --connect "$f2addr" \
    > "$tmp/farm2_client_$i.out" 2>&1 &
  client_pids="$client_pids $!"
done
client_rc=0
for pid in $client_pids; do
  wait "$pid" || client_rc=$?
done
for i in $(seq 1 4); do
  [ "$(grep -c "verified$" "$tmp/farm2_client_$i.out")" -eq 4 ] || {
    echo "two-domain farm client $i did not verify four instances:" >&2
    cat "$tmp/farm2_client_$i.out" >&2
    echo "server log:" >&2; cat "$tmp/farm2.log" >&2
    kill "$farm2_pid" 2>/dev/null || true
    exit 1
  }
done
[ "$client_rc" -eq 0 ] || { echo "a two-domain farm client exited non-zero" >&2; kill "$farm2_pid" 2>/dev/null || true; exit 1; }
kill "$farm2_pid"
farm2_rc=0
wait "$farm2_pid" 2>/dev/null || farm2_rc=$?
[ "$farm2_rc" -eq 143 ] || [ "$farm2_rc" -eq 0 ] || { echo "two-domain farm exited $farm2_rc on shutdown" >&2; cat "$tmp/farm2.log" >&2; exit 1; }

echo "== ci OK =="
