#!/usr/bin/env bash
# The full local gate: formatting, lints, docs, the whole test suite, and
# the example smoke tests. CI runs exactly this script; keep the two in
# sync by construction.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test (workspace)"
# Includes the golden-trace snapshot suite (tests/golden_trace.rs); after
# an intentional plan/cardinality change, regenerate the snapshots with
#   BLESS=1 cargo test --test golden_trace
cargo test -q --workspace

echo "==> cache and optimizer regression suites (named so a failure is obvious)"
cargo test -q --test cache_serving
cargo test -q --test trace_json
cargo test -q --test prop_relalg diff_heavy

echo "==> query-server suites (wire differential, concurrency, protocol robustness, faults)"
cargo test -q --test serve_differential
cargo test -q --test serve_concurrent
cargo test -q --test serve_protocol
cargo test -q --test fault_injection

echo "==> IVM differential suite (delta refresh must equal full re-evaluation)"
cargo test -q --test prop_ivm

echo "==> safe-pair differential suite (arbitrary formulas vs both active-domain oracles)"
cargo test -q --test prop_anyrc

echo "==> unicode lexing property suite"
cargo test -q --test prop_unicode

echo "==> benchmark harness builds and passes its tests against this tree"
# perfbench/ is a standalone package calling the workspace crates by
# path; building it here makes a renamed or removed function it uses fail
# now rather than when the benchmark next runs.
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "==> example smoke tests"
cargo run -q --example quickstart > /dev/null
cargo run -q --example suppliers_parts > /dev/null

echo "==> bench_eval gate table (trace, cache, par, opt, ivm, any, egraph; one run reports every failing gate)"
cargo run -q --release -p rc-bench --bin bench_eval -- gates

echo "==> rewrite catalog <-> registry drift check"
# Every rule registered in the e-graph must have a catalog section in
# docs/REWRITES.md, and every catalog section must name a registered
# rule. Both files change in the same commit or this gate fails.
registry_rules=$(sed -n 's/.*name: "\([a-z-]*\)".*/\1/p' crates/relalg/src/egraph.rs | sort -u)
catalog_rules=$(sed -n 's/^### `\([a-z-]*\)`$/\1/p' docs/REWRITES.md | sort -u)
if [ -z "$registry_rules" ]; then
  echo "error: no rules extracted from crates/relalg/src/egraph.rs (drift check pattern broke?)" >&2
  exit 1
fi
for r in $registry_rules; do
  if ! printf '%s\n' "$catalog_rules" | grep -qx "$r"; then
    echo "error: rule '$r' is registered in egraph.rs but has no '### \`$r\`' section in docs/REWRITES.md" >&2
    exit 1
  fi
done
for r in $catalog_rules; do
  if ! printf '%s\n' "$registry_rules" | grep -qx "$r"; then
    echo "error: docs/REWRITES.md documents rule '$r' but egraph.rs does not register it" >&2
    exit 1
  fi
done
echo "    $(printf '%s\n' "$registry_rules" | wc -l) rules in sync"

echo "==> serve gate (100 concurrent clients complete, zero errors, p99 bounded; 5x throughput at >= 8 cores)"
SERVE_GATE=1 cargo run -q --release -p rc-bench --bin bench_serve

echo "==> partitioned golden trace carries per-partition span fields"
# The blessed snapshot must pin per-partition cardinalities; if the field
# vanished, the partitioned projection regressed — regenerate intentionally
# with: BLESS=1 cargo test --test golden_trace
if ! grep -q 'parts=\[' tests/snapshots/partitioned-join.trace.txt; then
  echo "error: tests/snapshots/partitioned-join.trace.txt lacks parts=[..] fields" >&2
  echo "       (after an intentional change: BLESS=1 cargo test --test golden_trace)" >&2
  exit 1
fi

echo "==> trace export smoke test (the JSON artifact CI uploads)"
cargo run -q --release -p rc-bench --bin trace_export > /dev/null

echo "==> tier-1 on a fresh clone (no generated or untracked files)"
# A test must not depend on a file that only a generator or an earlier
# step leaves behind (TRACE_corpus.json once did). Clone the committed
# tree — uncommitted edits are not part of it — and run tier-1 there.
# The clone builds into its own directory under target/ (cached with
# it): cargo names workspace artifacts by workspace-relative path, so a
# clone building into target/ itself would overwrite this checkout's
# test binaries with ones whose CARGO_MANIFEST_DIR is the deleted clone.
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT
git clone -q . "$fresh/repo"
(
  cd "$fresh/repo"
  export CARGO_TARGET_DIR="$OLDPWD/target/fresh-clone"
  cargo build --release && cargo test -q
)

echo "All checks passed."
