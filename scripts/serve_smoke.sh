#!/usr/bin/env bash
# End-to-end smoke for cmd/mdserve: boots the service, refuses one
# unbuildable spec, drives two runs through submit/stream/pause/resume, and
# asserts the /metrics exposition reports them. CI runs this after the
# unit/soak suites; it exists to catch what only a real process + real HTTP
# round-trips can (flag parsing, mux wiring, admission, graceful drain).
set -euo pipefail

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"
DATA="$(mktemp -d)"
LOG="$DATA/mdserve.log"

cleanup() {
    [[ -n "${SRV_PID:-}" ]] && kill "$SRV_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$DATA"
}
trap cleanup EXIT

die() {
    echo "serve_smoke: FAIL: $*" >&2
    echo "--- mdserve log ---" >&2
    cat "$LOG" >&2 || true
    exit 1
}

go build -o "$DATA/mdserve" ./cmd/mdserve
"$DATA/mdserve" -addr "$ADDR" -data "$DATA/runs" -workers 2 >"$LOG" 2>&1 &
SRV_PID=$!

for i in $(seq 1 50); do
    curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
    [[ $i == 50 ]] && die "service never became healthy"
    sleep 0.2
done

# An unbuildable spec is refused at admission with 400, before it takes a
# queue slot or a worker: 5 cells do not slice into planes over 4 PEs.
CODE=$(curl -s -o "$DATA/bad.json" -w '%{http_code}' -X POST "$BASE/runs" -d '{
  "kind": "static", "shape": "plane", "nc": 5, "p": 4, "rho": 0.3, "steps": 1
}')
[[ "$CODE" == 400 ]] || die "static plane nc=5 p=4: HTTP $CODE, want 400 ($(cat "$DATA/bad.json"))"

# Run 1: a supervised parallel run, long enough to pause mid-flight.
R1=$(curl -sf -X POST "$BASE/runs" -d '{
  "kind": "parallel", "m": 2, "p": 4, "rho": 0.4, "steps": 400,
  "balancer": "permcell", "checkpoint_every": 50, "max_retries": 1
}' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[[ -n "$R1" ]] || die "run 1 not created"

# Run 2: a short serial run; must complete on its own.
R2=$(curl -sf -X POST "$BASE/runs" -d '{
  "kind": "serial", "nc": 4, "rho": 0.4, "steps": 30
}' | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[[ -n "$R2" ]] || die "run 2 not created"

# Pause run 1 once it is actually running (409 while still queued).
for i in $(seq 1 100); do
    curl -sf -X POST "$BASE/runs/$R1/pause" >/dev/null 2>&1 && break
    [[ $i == 100 ]] && die "run 1 never became pausable"
    sleep 0.1
done
for i in $(seq 1 100); do
    state=$(curl -sf "$BASE/runs/$R1" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [[ "$state" == "paused" ]] && break
    [[ $i == 100 ]] && die "run 1 stuck in $state, want paused"
    sleep 0.1
done

# A paused run must hold a checkpoint in its private directory.
[[ -f "$DATA/runs/$R1/latest.ckpt" ]] || die "paused run has no checkpoint"

curl -sf -X POST "$BASE/runs/$R1/resume" >/dev/null || die "resume failed"

# Both streams must replay full, valid JSONL histories and terminate.
curl -sfN "$BASE/runs/$R1/stream" >"$DATA/r1.jsonl"
curl -sfN "$BASE/runs/$R2/stream" >"$DATA/r2.jsonl"
N1=$(wc -l <"$DATA/r1.jsonl")
N2=$(wc -l <"$DATA/r2.jsonl")
[[ "$N1" -ge 400 ]] || die "run 1 streamed $N1 records, want >= 400"
[[ "$N2" -eq 30 ]] || die "run 2 streamed $N2 records, want 30"
grep -q '"work_max"' "$DATA/r2.jsonl" || die "stream records missing work metrics"

for id in "$R1" "$R2"; do
    state=$(curl -sf "$BASE/runs/$id" | sed -n 's/.*"state":"\([^"]*\)".*/\1/p')
    [[ "$state" == "completed" ]] || die "run $id ended $state, want completed"
done

METRICS=$(curl -sf "$BASE/metrics")
for want in \
    'permcell_serve_runs{state="completed"} 2' \
    "permcell_run_steps_done{run=\"$R1\"} 400" \
    "permcell_run_steps_done{run=\"$R2\"} 30" \
    "permcell_steps_total{run=\"$R2\"} 30" \
    'permcell_serve_admitted_total 2' \
    'permcell_serve_rejected_total{reason="invalid"} 1'; do
    grep -qF "$want" <<<"$METRICS" || die "/metrics missing: $want"
done
# One header block per family, even with two runs exporting it.
[[ "$(grep -c '# HELP permcell_steps_total' <<<"$METRICS")" == 1 ]] \
    || die "/metrics repeats family headers"

# Graceful drain.
kill -TERM "$SRV_PID"
wait "$SRV_PID" || die "mdserve exited non-zero on SIGTERM"
SRV_PID=""

echo "serve_smoke: OK (runs $R1, $R2)"
