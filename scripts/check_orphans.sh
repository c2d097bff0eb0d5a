#!/usr/bin/env bash
# Fails when an internal/* package is dead weight: not in the non-test
# dependency closure (`go list -deps`) of any package outside internal/ —
# the facade, the commands, the examples, the benchmark. A package imported
# only by its own tests, or only by other unreachable packages, counts as
# an orphan; delete it or give it a caller. Also enforces the one layering
# rule below.
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

# Layering: the figures package builds *on* the runtime, never under it. The
# facade, the transport layer, the service and the step runtime get their
# systems from internal/runspec; if internal/experiments shows up in their
# non-test dependency closure, a second builder is creeping back in.
below="$(go list -deps . ./internal/distrib ./internal/serve ./internal/core | grep -x "$mod/internal/experiments" || true)"
if [[ -n "$below" ]]; then
    echo "check_orphans: $mod/internal/experiments is imported beneath the runtime (., internal/distrib, internal/serve or internal/core); only cmd/ and tests may import it" >&2
    exit 1
fi
