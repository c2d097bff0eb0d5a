#!/usr/bin/env bash
# End-to-end smoke for Ctrl-C plus -resume: starts a checkpointing mdrun
# run, sends it a real SIGINT once rows are streaming, and asserts that it
# exits 0 after writing a final checkpoint at the step where it stopped,
# that -resume runs the remaining steps, that the spliced deterministic CSV
# columns equal an uninterrupted run's, and that each session's header
# names the balancer by its canonical spec. Exists to catch what only a
# real signal can: the signal-to-context plumbing, the final checkpoint
# the facade's RunEngine writes on cancellation, and the flush of the
# partial CSV.
set -euo pipefail

DATA="$(mktemp -d)"
PID=""
cleanup() {
    [[ -n "$PID" ]] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$DATA"
}
trap cleanup EXIT

die() {
    echo "interrupt_smoke: FAIL: $*" >&2
    exit 1
}

# det strips the run-header comment and the wall-time columns (5-8:
# wall_max, wall_ave, wall_min, step_wall_max) — the only
# non-deterministic content of the CSV.
det() {
    grep -v '^#' "$1" | cut -d, --complement -f5-8
}

go build -o "$DATA/bin/" ./cmd/mdrun

# About 0.2 ms a step on a laptop core: long enough to still be running
# when the first rows reach the file, short enough for CI.
STEPS=12000
ARGS=(-m 2 -p 4 -rho 0.3 -balancer 'permcell(h=0.1)' -wells 2 -wellk 1.5 -seed 7)
SPEC='permcell(h=0.1,pick=0)'

"$DATA/bin/mdrun" "${ARGS[@]}" -steps "$STEPS" -o "$DATA/golden.csv" \
    2>"$DATA/golden.log" || die "uninterrupted run failed: $(cat "$DATA/golden.log")"

"$DATA/bin/mdrun" "${ARGS[@]}" -steps "$STEPS" -checkpoint-dir "$DATA/ckpt" \
    -o "$DATA/a.csv" 2>"$DATA/a.log" &
PID=$!
# The CSV is buffered: its first bytes on disk mean a few dozen rows ran.
for _ in $(seq 600); do
    [[ -s "$DATA/a.csv" ]] && break
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.05
done
[[ -s "$DATA/a.csv" ]] || die "no rows streamed before the interrupt: $(cat "$DATA/a.log")"
kill -INT "$PID" 2>/dev/null || die "the run ended before the interrupt"
code=0
wait "$PID" || code=$?
PID=""
[[ $code -eq 0 ]] || die "interrupted run exited $code: $(cat "$DATA/a.log")"
grep -q "final checkpoint written" "$DATA/a.log" \
    || die "no final checkpoint reported: $(cat "$DATA/a.log")"

DONE=$(tail -1 "$DATA/a.csv" | cut -d, -f1)
[[ "$DONE" =~ ^[0-9]+$ && $DONE -lt $STEPS ]] \
    || die "interrupted run's last row is step '$DONE' of $STEPS"

"$DATA/bin/mdrun" -resume "$DATA/ckpt" -steps $((STEPS - DONE)) \
    -o "$DATA/rest.csv" 2>"$DATA/rest.log" || die "resume failed: $(cat "$DATA/rest.log")"
FIRST=$(det "$DATA/rest.csv" | sed -n 2p | cut -d, -f1)
[[ "$FIRST" == $((DONE + 1)) ]] \
    || die "resume started at step '$FIRST', want $((DONE + 1)): the final checkpoint was not at the stop"

# Splice the two sessions (dropping the resumed run's repeated column
# header) and compare against the uninterrupted run.
det "$DATA/a.csv" > "$DATA/spliced.csv"
det "$DATA/rest.csv" | tail -n +2 >> "$DATA/spliced.csv"
diff -q "$DATA/spliced.csv" <(det "$DATA/golden.csv") >/dev/null \
    || die "interrupted and resumed trace diverges from the uninterrupted run"

for f in a rest; do
    head -1 "$DATA/$f.csv" | grep -q "^# mdrun .* balancer=$SPEC\$" \
        || die "$f.csv header does not name $SPEC: $(head -1 "$DATA/$f.csv")"
done

echo "interrupt_smoke: OK (interrupted at step $DONE of $STEPS)"
