#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on the same tree and compares
# the two sets with -compare. Every row must come out "ok": the same code
# agrees with itself within the benchmark's own bounds. A row that comes
# out "unresolved" means the box was too noisy for that metric's bound.
#
#   REPEAT=3 SEED=1 SECONDS_PER_RUN=10 bench/aa.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

repeat="${REPEAT:-3}" seed="${SEED:-1}" seconds="${SECONDS_PER_RUN:-10}"
mkdir -p bench/out
for side in a b; do
  bash bench/run.sh -seed "$seed" -seconds "$seconds" -repeat "$repeat" -out "bench/out/aa_$side.json"
done
bash bench/run.sh -compare bench/out/aa_a.json bench/out/aa_b.json
