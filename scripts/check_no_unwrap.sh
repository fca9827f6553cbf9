#!/usr/bin/env bash
# Deny `.unwrap()` / `.expect(` in the engine's transactional hot paths,
# in the whole auditor, and in the always-on telemetry layer. Test modules
# (everything from `#[cfg(test)]` down) and comment lines are exempt. The
# undo/apply cascades must surface typed errors and roll back, never panic
# mid-mutation — an auditor that panics on the corrupt states it exists to
# diagnose is useless, and telemetry that can panic (e.g. on a poisoned
# lock) takes down the very process it is meant to observe. The serve
# daemon is held to the same bar: a multi-tenant server that panics on one
# bad request takes down every other tenant's session with it. So is the
# stochastic search loop: a 100k-move walk that panics on one unlucky
# candidate loses the whole run. So are the shared detection helpers and
# the CSE and CPP detectors, which the daemon runs on every apply.
set -euo pipefail

cd "$(dirname "$0")/.."

FILES=(
  crates/core/src/catalog/mod.rs
  crates/core/src/catalog/cse.rs
  crates/core/src/catalog/cpp.rs
  crates/core/src/engine.rs
  crates/core/src/revers.rs
  crates/core/src/parcheck.rs
  crates/core/src/txn.rs
  crates/core/src/history.rs
  crates/core/src/actions.rs
  crates/lang/src/pvec.rs
  crates/lang/src/symbols.rs
  crates/par/src/pool.rs
  crates/par/src/sched.rs
  crates/ir/src/dataflow.rs
  crates/obs/src/alloc.rs
  crates/obs/src/export.rs
  crates/obs/src/hdr.rs
  crates/obs/src/metrics.rs
  crates/obs/src/names.rs
  crates/obs/src/profile.rs
  crates/obs/src/ring.rs
)
while IFS= read -r f; do
  FILES+=("$f")
done < <(find crates/audit/src -name '*.rs' | sort)
while IFS= read -r f; do
  FILES+=("$f")
done < <(find crates/serve/src -name '*.rs' | sort)
while IFS= read -r f; do
  FILES+=("$f")
done < <(find crates/workload/src -name 'search*.rs' | sort)

status=0
for f in "${FILES[@]}"; do
  hits=$(sed '/#\[cfg(test)\]/,$d' "$f" \
    | grep -v '^\s*//' \
    | grep -nE '\.unwrap\(\)|\.expect\(' || true)
  if [ -n "$hits" ]; then
    echo "error: panic-prone call in non-test code of $f:" >&2
    echo "$hits" >&2
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "ok: no unwrap/expect in transactional hot paths"
fi
exit "$status"
