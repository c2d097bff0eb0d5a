#!/usr/bin/env bash
# CPU profile of the benchmark's condensation run (the condense_chan and
# condense_tcp workloads: m = 3, P = 16, rho = 0.256, 12 wells at k = 1.5,
# permanent-cell DLB at hysteresis 0.1), once on the in-process transport
# and once over tcp with two worker groups, each printed as `pprof -top`.
# Start a performance change from these profiles.
#
#   scripts/profile_condense.sh [steps] [seed]      (defaults: 1500, 1)
#
# Only mdrun is built: with no mdrank beside it, `-mdrank auto` runs the
# tcp workers in-process, on real loopback sockets, so the one profile
# covers the coordinator and every rank. Set GOMAXPROCS to pin the core
# count; the profiles stay in the printed directory.
set -euo pipefail

STEPS="${1:-1500}"
SEED="${2:-1}"
DIR="$(mktemp -d)"

go build -o "$DIR/mdrun" ./cmd/mdrun

ARGS=(-m 3 -p 16 -rho 0.256 -wells 12 -wellk 1.5 -balancer 'permcell(h=0.1)'
    -steps "$STEPS" -seed "$SEED" -o /dev/null)

"$DIR/mdrun" "${ARGS[@]}" -cpuprofile "$DIR/chan.pprof"
"$DIR/mdrun" "${ARGS[@]}" -transport tcp -ranks 2 -mdrank auto -cpuprofile "$DIR/tcp.pprof"

for t in chan tcp; do
    echo "== $t (GOMAXPROCS=${GOMAXPROCS:-all}, $STEPS steps, seed $SEED)"
    go tool pprof -top -nodecount 30 "$DIR/mdrun" "$DIR/$t.pprof" 2>/dev/null
done
echo "profiles: $DIR"
