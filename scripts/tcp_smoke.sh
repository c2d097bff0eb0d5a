#!/usr/bin/env bash
# End-to-end smoke for the TCP transport with real worker processes: builds
# mdrun + mdrank, runs the same tiny simulation once in-process and once
# spread over mdrank workers, and asserts the deterministic CSV columns
# (everything but wall times) are bit-identical, while the tcp run
# actually crossed the wire (sent_frames > 0 in the JSONL
# metrics, mdrank visible as child processes). Exists to catch what only
# real exec + real sockets can: worker spawning, -connect plumbing,
# stdio/teardown behavior.
set -euo pipefail

DATA="$(mktemp -d)"
trap 'rm -rf "$DATA"' EXIT

die() {
    echo "tcp_smoke: FAIL: $*" >&2
    exit 1
}

# det strips the run-header comment and the wall-time columns (5-8:
# wall_max, wall_ave, wall_min, step_wall_max) — the only
# non-deterministic content of the CSV.
det() {
    grep -v '^#' "$1" | cut -d, --complement -f5-8
}

go build -o "$DATA/bin/" ./cmd/mdrun ./cmd/mdrank
[[ -x "$DATA/bin/mdrank" ]] || die "mdrank did not build"

ARGS=(-m 2 -p 4 -rho 0.3 -steps 24 -balancer 'permcell(h=0.1)' -wells 2 -wellk 1.5 -seed 7)

"$DATA/bin/mdrun" "${ARGS[@]}" -o "$DATA/chan.csv" \
    2>"$DATA/chan.log" || die "in-process run failed: $(cat "$DATA/chan.log")"

# -mdrank auto resolves the sibling binary; -ranks 2 puts 2 PEs per process.
"$DATA/bin/mdrun" "${ARGS[@]}" -transport tcp -ranks 2 \
    -o "$DATA/tcp.csv" -metrics "$DATA/tcp.jsonl" \
    2>"$DATA/tcp.log" || die "tcp run failed: $(cat "$DATA/tcp.log")"

diff <(det "$DATA/chan.csv") <(det "$DATA/tcp.csv") \
    || die "chan and tcp CSV traces differ"

# The JSONL stream must report wire traffic: every record carries the
# cumulative sent_frames counter, and by the last step it must be nonzero.
tail -1 "$DATA/tcp.jsonl" | grep -q '"sent_frames":[1-9]' \
    || die "tcp run reported no transport frames: $(tail -1 "$DATA/tcp.jsonl")"

# A rescale across process counts: checkpoint at 12 under 2 workers, resume
# under 4, and the spliced trace must extend the uninterrupted one exactly.
"$DATA/bin/mdrun" "${ARGS[@]}" -steps 12 -transport tcp -ranks 2 \
    -checkpoint-every 12 -checkpoint-dir "$DATA/ckpt" -o "$DATA/half.csv" \
    2>"$DATA/half.log" || die "first half failed: $(cat "$DATA/half.log")"
"$DATA/bin/mdrun" -steps 12 -transport tcp -ranks 4 \
    -resume "$DATA/ckpt" -o "$DATA/rest.csv" \
    2>"$DATA/rest.log" || die "resume failed: $(cat "$DATA/rest.log")"
# Splice the two halves (dropping the resumed run's repeated column
# header) and compare against the uninterrupted run.
det "$DATA/half.csv" > "$DATA/spliced.csv"
det "$DATA/rest.csv" | tail -n +2 >> "$DATA/spliced.csv"
det "$DATA/chan.csv" > "$DATA/golden.csv"
diff "$DATA/spliced.csv" "$DATA/golden.csv" \
    || die "rescaled trace diverges from the uninterrupted run"

# Self-healing under real process failure: the chaos harness runs the same
# system supervised over mdrank workers, fails one mid-run, and asserts the
# healed trace matches the in-process golden bit for bit. Tight heartbeat
# so detection fits in a smoke-test budget. Rank 3 lives on worker 1 of 2.
go build -o "$DATA/bin/" ./cmd/chaos
CHAOS=(-p 4 -m 2 -rho 0.3 -steps 40 -tcp-procs 2 -mdrank "$DATA/bin/mdrank" \
    -heartbeat-every 50ms -heartbeat-misses 5 -sabotage-rank 3)

"$DATA/bin/chaos" "${CHAOS[@]}" -sabotage worker-exit@17 \
    >"$DATA/kill.log" 2>&1 || die "worker-exit recovery failed: $(cat "$DATA/kill.log")"
grep -q "recovery identical" "$DATA/kill.log" \
    || die "worker-exit run did not converge: $(cat "$DATA/kill.log")"

# A stall longer than the heartbeat window (250ms) must surface as a
# heartbeat-timeout and heal by rescaling to fewer worker processes.
"$DATA/bin/chaos" "${CHAOS[@]}" -tcp-procs 3 -sabotage-rank 1 -sabotage worker-stall@20 \
    -sabotage-stall 1s -recover rescale \
    >"$DATA/stall.log" 2>&1 || die "worker-stall recovery failed: $(cat "$DATA/stall.log")"
grep -q "heartbeat-timeout" "$DATA/stall.log" \
    || die "stall was not classified as heartbeat-timeout: $(cat "$DATA/stall.log")"

# A corrupted frame stream must surface as a typed frame-decode failure.
"$DATA/bin/chaos" "${CHAOS[@]}" -sabotage worker-garbage@23 \
    >"$DATA/garbage.log" 2>&1 || die "garbage-frame recovery failed: $(cat "$DATA/garbage.log")"
grep -q "frame-decode" "$DATA/garbage.log" \
    || die "garbage was not classified as frame-decode: $(cat "$DATA/garbage.log")"

# A rank panic inside one worker process leaves the other parked on its
# halo receives: the coordinator must surface the typed rank failure (not
# hang on the ack that never comes) and the supervisor must heal it.
"$DATA/bin/chaos" "${CHAOS[@]}" -sabotage panic@17 \
    >"$DATA/panic.log" 2>&1 || die "in-worker rank panic recovery failed: $(cat "$DATA/panic.log")"
grep -q "rank-failure" "$DATA/panic.log" \
    || die "panic was not classified as rank-failure: $(cat "$DATA/panic.log")"

# No recovery may strand worker processes: everything spawned from this
# smoke's private bindir must be gone once the runs complete.
sleep 1
! pgrep -f "$DATA/bin/mdrank" >/dev/null \
    || die "orphan mdrank processes survived recovery"

echo "tcp_smoke: OK"
