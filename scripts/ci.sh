#!/usr/bin/env bash
# The full local gate: formatting, lints as errors, build, tests.
# Run before every push; CI runs exactly this.
#
#   scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== qoslint (workspace scan, findings beyond the committed baseline are errors)"
cargo run -q --release -p intelliqos-qoslint --bin qoslint -- \
    --workspace --format json --diff-baseline crates/qoslint/baseline.json

echo "== qoslint self-test (seeded-bad fixtures must fail the gate)"
# One bad fixture per rule — token rules and the item-graph analyses
# (trace ontology, lifecycle order, flow-aware unordered iteration).
if cargo run -q --release -p intelliqos-qoslint --bin qoslint crates/qoslint/fixtures/bad > /dev/null; then
    echo "qoslint self-test FAILED: bad fixtures scanned clean" >&2
    exit 1
fi
cargo run -q --release -p intelliqos-qoslint --bin qoslint crates/qoslint/fixtures/clean \
    crates/qoslint/fixtures/suppressed > /dev/null

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== batch_rescheduling output is unchanged (the policy comparison no benchmark runs)"
# The only run of LeastLoadedSelector and of a standalone LsfCluster;
# results/batch_rescheduling.txt is its committed output.
cargo run -q --release --example batch_rescheduling > target/batch_rescheduling.out
diff results/batch_rescheduling.txt target/batch_rescheduling.out

echo "== qosbench tests (the benchmark is its own workspace; this builds it against the crates)"
cargo test -q --offline --manifest-path qosbench/Cargo.toml

echo "== evidence smoke (fig2_downtime --profile --trace, ontology_check)"
rm -rf results/evidence
# The committed results/BENCH_fig2.json comes from a 30-day profile
# run (both failure classes populated); the 2-day smoke writes its own
# copy, which is checked below and then the committed one is restored.
cp results/BENCH_fig2.json target/BENCH_fig2.committed
./target/release/fig2_downtime --seed 11 --days 2 --profile --trace > /dev/null
test -s results/evidence/fig2_downtime_manual.json
test -s results/evidence/fig2_downtime_agents.json
test -s results/evidence/fig2_downtime_manual_slo.json
test -s results/evidence/fig2_downtime_agents_slo.json
test -s results/BENCH_fig2.json
# evidence_check enforces the taxonomy marker on every run export and
# per-scope SLO column closure (all == service + client + abort); the
# default burn scope is checked here.
grep '"burn_scope": "service"' results/evidence/fig2_downtime_manual_slo.json > /dev/null
./target/release/ontology_check
test -s results/evidence/ontology_check_site.json
./target/release/evidence_check

echo "== flight-recorder smoke (traced spill run, validated)"
./target/release/fig2_downtime --seed 11 --days 2 --profile --trace-file results/evidence/fig2_spill > /dev/null
test -s results/evidence/fig2_spill/manualops/manifest.json
test -s results/evidence/fig2_spill/intelliagents/manifest.json
./target/release/evidence_check results/evidence/fig2_spill
mv target/BENCH_fig2.committed results/BENCH_fig2.json

echo "== triage --incident smoke (correlated timeline renders)"
# Plain grep (not -q) so the reader drains triage's full output; -q would
# close the pipe early and kill the writer with SIGPIPE.
./target/release/triage --incident 0 --seed 11 --days 3 | grep "timeline" > /dev/null

echo "== evdb smoke (ingest, one query per index, report, diff)"
rm -rf results/evdb
./target/release/evdb ingest results/evidence --store results/evdb
test -s results/evdb/manifest.json
# One query per secondary index; each must answer without touching the
# raw evidence (source_files_read stays 0 in the query report).
./target/release/evdb query --store results/evdb --corr 0 --stats > /dev/null
./target/release/evdb query --store results/evdb --service db003 --stats > /dev/null
./target/release/evdb query --store results/evdb --category inject --stats > /dev/null
./target/release/evdb query --store results/evdb --subsystem fault --stats > /dev/null
./target/release/evdb query --store results/evdb --run fig2_downtime_manual --stats > /dev/null
./target/release/evdb query --store results/evdb --window 0..86400 --stats > /dev/null
grep '"source_files_read": 0' results/evdb/query_report.json > /dev/null
# Closed-world rejection: a typo'd category must error, not answer emptily.
if ./target/release/evdb query --store results/evdb --category db-carsh > /dev/null 2>&1; then
    echo "evdb closed-world FAILED: typo'd category was accepted" >&2
    exit 1
fi
./target/release/evdb diff fig2_downtime_manual fig2_downtime_agents --store results/evdb > /dev/null

echo "== evdb failure-class round-trip (index == scan, typo'd class rejected)"
# The 2-day fig2 smoke horizon sits before the first injected fault,
# so these class queries must answer byte-identically *empty*; the
# 3-day triage evidence below repeats the round-trip with real rows.
./target/release/evdb query --store results/evdb --class service-fault --stats > target/evdb_class_store.out
./target/release/evdb query --scan results/evidence --class service-fault > target/evdb_class_scan.out
diff target/evdb_class_store.out target/evdb_class_scan.out
./target/release/evdb query --store results/evdb --actionable false --stats > /dev/null
grep '"source_files_read": 0' results/evdb/query_report.json > /dev/null
if ./target/release/evdb query --store results/evdb --class servce-fault > /dev/null 2>&1; then
    echo "evdb closed-world FAILED: typo'd failure class was accepted" >&2
    exit 1
fi

echo "== evdb re-ingest is byte-identical"
rm -rf target/evdb_before
mkdir -p target/evdb_before
cp results/evdb/manifest.json results/evdb/seg-*.evseg results/evdb/idx-*.evx target/evdb_before/
./target/release/evdb ingest results/evidence --store results/evdb > /dev/null
for f in target/evdb_before/*; do
    diff "$f" "results/evdb/$(basename "$f")"
done

echo "== indexed triage byte-identity (evdb answer == linear scan answer)"
# The plain triage run exports two full run ledgers (small config, 3
# days — the horizon where incident 0 exists) under target/triage/;
# both evidence backends must answer --incident 0 byte-identically.
# Running it with --scope service also smokes the burn-scope toggle:
# the observatory must report the configured scope and its scoped vs
# all-class downtime split.
./target/release/triage --seed 11 --days 3 --scope service > target/triage_scope.out
grep "burn scope service" target/triage_scope.out > /dev/null
grep "scope service: downtime" target/triage_scope.out > /dev/null
rm -rf target/triage_evdb
./target/release/evdb ingest target/triage --store target/triage_evdb > /dev/null
./target/release/triage --incident 0 --evdb target/triage_evdb > target/triage_evdb.out 2> /dev/null
./target/release/triage --incident 0 --evidence target/triage > target/triage_scan.out 2> /dev/null
diff target/triage_evdb.out target/triage_scan.out
grep "timeline" target/triage_evdb.out > /dev/null
# Failure-class round-trip over evidence that actually has incidents:
# the indexed answer must match the linear scan byte for byte AND be
# non-empty (every 3-day incident is a classified row).
./target/release/evdb query --store target/triage_evdb --class client-workload --stats > target/evdb_class_store2.out
./target/release/evdb query --scan target/triage --class client-workload > target/evdb_class_scan2.out
diff target/evdb_class_store2.out target/evdb_class_scan2.out
grep "class=client-workload" target/evdb_class_store2.out > /dev/null
grep '"source_files_read": 0' target/triage_evdb/query_report.json > /dev/null

echo "== evidence_check --evdb (store validates against its sources)"
./target/release/evidence_check --evdb results/evdb > /dev/null

echo "CI gate passed."
