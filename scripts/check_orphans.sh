#!/usr/bin/env bash
# Fails when an internal/* package is dead weight: not in the non-test
# dependency closure (`go list -deps`) of any package outside internal/ —
# the facade, the commands, the examples, the benchmark. A package imported
# only by its own tests, or only by other unreachable packages, counts as
# an orphan; delete it or give it a caller.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mod="$(go list -m)"
mapfile -t roots < <(go list ./... | grep -v "^$mod/internal/")
orphans="$(comm -23 \
    <(go list ./internal/... | sort) \
    <(go list -deps "${roots[@]}" | grep "^$mod/internal/" | sort -u))"
if [[ -n "$orphans" ]]; then
    echo "check_orphans: internal packages with no non-test importer:" >&2
    echo "$orphans" | sed 's/^/  /' >&2
    exit 1
fi
