#!/usr/bin/env bash
# smoke.sh — the smoke gates CI runs, one job per invocation, runnable by hand.
#
#   scripts/smoke.sh <job>
#
# jobs: fairness whatif hotpath slo fuzz provenance fleet admission docs results
#
# Each job builds only the Release targets it needs into .smoke_build/, writes
# its artefacts to smoke/<job>/ and exits non-zero at the first gate that
# fails. Every run is fixed-seed, so apart from wall-clock lines on stderr the
# artefacts are byte-identical from one run to the next.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="fairness whatif hotpath slo fuzz provenance fleet admission docs results"
BUILD=.smoke_build
TOOLS=$BUILD/tools

build() {
  cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
  cmake --build "$BUILD" -j "$(nproc)" --target "$@"
}

# same_bytes <run> <jobs>...: call `<run> <dir> <jobs>` once per worker count,
# each into its own $OUT/jobs<N>/ (a repeated count gets a `_rerun` suffix),
# and byte-compare every later run's stdout and exports against the first.
# Battery runs and what-if grid points merge in roster order, so any worker
# count must give the same bytes; --jobs 2 is enough to exercise the parallel
# merge on any runner. stderr carries the [exec] wall-time line, so it goes to
# $OUT/stderr.log and is never compared.
same_bytes() {
  local run=$1 ref="" dir jobs f
  shift
  for jobs in "$@"; do
    dir=$OUT/jobs$jobs
    if [ -e "$dir" ]; then dir+=_rerun; fi
    mkdir -p "$dir"
    "$run" "$dir" "$jobs" > "$dir/stdout.txt" 2>> "$OUT/stderr.log"
    if [ -z "$ref" ]; then
      ref=$dir
      cat "$ref/stdout.txt"
      continue
    fi
    for f in "$ref"/*; do cmp "$f" "$dir/${f##*/}"; done
  done
}

# The dilemma battery (LC hot-set service + BE scanner, every policy) at the
# seed the committed baselines were recorded with.
dilemma_battery() {
  "$TOOLS/vulcan_sim" --policies all --scenario dilemma --seed 42 "$@"
}

# Fixed-seed two-app co-location: the dilemma that motivates the paper. Emits
# the machine-readable summary and the observability artefacts, then proves
# the offline report pipeline consumes them.
job_fairness() {
  build vulcan_sim_cli vulcan_report
  "$TOOLS/vulcan_sim" --scenario dilemma --seconds 20 --seed 11 \
    --bench-json "$OUT/BENCH_fairness_smoke.json" \
    --metrics "$OUT/metrics.json" --trace "$OUT/trace.jsonl" \
    --perfetto "$OUT/timeline.json" --folded "$OUT/flames.txt"
  "$TOOLS/vulcan_report" --metrics "$OUT/metrics.json" \
    --trace "$OUT/trace.jsonl" | tee "$OUT/report.txt"
  python3 - "$OUT/BENCH_fairness_smoke.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
assert bench["simulated_s"] == 20, bench
assert 0.0 < bench["jain"] <= 1.0, bench
assert 0.0 < bench["cfi"] <= 1.0, bench
assert len(bench["apps"]) == 2, bench
assert all(a["slowdown"] > 0.0 for a in bench["apps"]), bench
print("fairness smoke ok:", json.dumps(bench, indent=2))
EOF
}

# The dilemma across the default perturbation grid: twice serially (the
# determinism contract), then at --jobs 2 (the parallel half of it), then
# the whatif.* sensitivity keys against the committed baseline.
whatif_run() {
  "$TOOLS/vulcan_whatif" --grid default --seed 42 --jobs "$2" \
    --out "$1/BENCH_whatif.json"
}
job_whatif() {
  build vulcan_whatif
  same_bytes whatif_run 1 1 2
  python3 scripts/check_baseline.py \
    "$OUT/jobs1/BENCH_whatif.json" bench/baselines/BENCH_whatif.json
}

# The fixed-seed battery the hot-path rewrite (vm::Mmu facade + PWC +
# batched translate) was measured on, gated against its committed baseline.
# Then the continuous-telemetry overhead gate: the same battery with the
# telemetry storey off and on (time-series store + default SLO pack).
# Fairness artefacts must be identical, since telemetry only reads the
# registry, and the wall-clock overhead must stay inside the baseline's
# budget. Wall times stay in their own report so the byte-compared battery
# JSON remains machine-independent.
hotpath_run() {
  dilemma_battery --seconds 20 --jobs "$2" --bench-json "$1/BENCH_hotpath.json"
}
job_hotpath() {
  build vulcan_sim_cli
  same_bytes hotpath_run 1 2
  python3 scripts/check_baseline.py \
    "$OUT/jobs1/BENCH_hotpath.json" bench/baselines/BENCH_hotpath.json
  dilemma_battery --seconds 20 --jobs 2 \
    --telemetry-bench "$OUT/BENCH_telemetry.json" \
    > /dev/null 2>> "$OUT/stderr.log"
  python3 scripts/check_baseline.py \
    "$OUT/BENCH_telemetry.json" bench/baselines/BENCH_hotpath.json
}

# The telemetry determinism contract (the battery with the default SLO pack
# and per-policy time-series capture), then the acceptance scenario: a single
# dilemma run with the default pack must emit a deterministic slo_violation
# for the latency-critical victim (workload 0), and the flight dump it leaves
# behind must render through the offline report pipeline.
slo_run() {
  dilemma_battery --seconds 10 --jobs "$2" --slo default --timeseries "$1/ts"
}
job_slo() {
  build vulcan_sim_cli vulcan_report
  same_bytes slo_run 1 2
  "$TOOLS/vulcan_sim" --scenario dilemma --seconds 12 --seed 42 \
    --slo default --trace "$OUT/trace.jsonl" \
    --timeseries "$OUT/timeseries.csv" \
    --flight-dump "$OUT/flight.json" 2>> "$OUT/stderr.log" \
    | tee "$OUT/run.txt"
  python3 - "$OUT/trace.jsonl" <<'EOF'
import json, sys
victims = set()
with open(sys.argv[1]) as f:
    for line in f:
        event = json.loads(line)
        if event.get("kind") == "slo_violation":
            victims.add(event["w"])
assert 0 in victims, f"no slo_violation for workload 0 (saw {victims})"
print("slo smoke ok: violations for workloads", sorted(victims))
EOF
  "$TOOLS/vulcan_report" --flight "$OUT/flight.json" \
    | tee "$OUT/flight_report.txt"
  grep -q "slo instances" "$OUT/flight_report.txt"
  grep -q "vulcan fairness report" "$OUT/flight_report.txt"
}

# Three fixed seeds, every policy, --jobs 1/2/4: each run must pass the kFull
# invariant audit and serialise byte-identical artefacts across job counts.
# --vary-hotpath (default on) also replays every scenario with the page-walk
# cache disabled and at several translate-batch sizes, asserting the
# artefacts still match (the vm::Mmu behaviour-neutrality contract). Digests
# go to the log so a silent behaviour change shows up in CI history.
# --flight-on-fail re-runs a failing scenario with the flight recorder armed,
# leaving a black box per failing policy (render with vulcan_report --flight).
# A last campaign runs with the decision ledger on, so provenance ids travel
# through the migration queues of churned mini-fleets under the full audit
# and the no-pending-rows check.
job_fuzz() {
  build vulcan_check_fuzz
  local seed
  for seed in 3 17 4242; do
    "$TOOLS/vulcan_check_fuzz" --seed "$seed" --scenarios 2 \
      --seconds 2.5 --jobs 1,2,4 --level full \
      --flight-on-fail "$OUT/flight" | tee -a "$OUT/campaign.txt"
  done
  "$TOOLS/vulcan_check_fuzz" --seed 3 --scenarios 2 --seconds 2.5 \
    --jobs 1,2,4 --level full --provenance on \
    --flight-on-fail "$OUT/flight" | tee -a "$OUT/campaign.txt"
}

# The provenance determinism contract (the battery with the decision ledger
# on), then the offline query pipeline: pagescope tables over both runs'
# exports must match byte for byte, and the churn ranking must tell the
# paper's story: under the unfair memtis baseline the latency-critical
# victim (workload 0) tops the ping-pong ranking while the scanner never
# thrashes.
provenance_run() {
  dilemma_battery --seconds 20 --jobs "$2" --provenance "$1/ledger"
}
job_provenance() {
  build vulcan_sim_cli vulcan_pagescope
  same_bytes provenance_run 1 2
  local q flag jobs
  for q in churn thrash; do
    flag=--$q
    if [ "$q" = thrash ]; then flag="--thrash 10"; fi
    for jobs in 1 2; do
      # shellcheck disable=SC2086  # $flag may carry its value
      "$TOOLS/vulcan_pagescope" \
        --transitions "$OUT/jobs$jobs/ledger.memtis.transitions.jsonl" \
        $flag > "$OUT/${q}_jobs$jobs.txt"
    done
    cmp "$OUT/${q}_jobs1.txt" "$OUT/${q}_jobs2.txt"
  done
  "$TOOLS/vulcan_pagescope" \
    --transitions "$OUT/jobs1/ledger.memtis.transitions.jsonl" \
    --heatmap "$OUT/heatmap.csv"
  cat "$OUT/churn_jobs1.txt"
  sed -n 2p "$OUT/churn_jobs1.txt" | grep -q '^w:0' \
    || { echo "expected LC victim w:0 to top the churn ranking"; exit 1; }
}

# The fleet-scale co-location battery: 64 apps with arrival/departure churn,
# every policy, with the admission ablation on, so each policy runs with the
# controller off and on. Churn (departures, policy bookkeeping erase paths,
# departed-residency audits) must not break the determinism contract. Then
# the per-policy tail figures (cumulative Jain, overall/p99 worst-app
# slowdown, windowed Jain floor) and the admission-on columns are gated
# against the committed baseline.
fleet_run() {
  "$TOOLS/vulcan_sim" --scenario fleet --apps 64 --churn 6 --seconds 30 \
    --seed 42 --policies all --jobs "$2" --admission on \
    --bench-json "$1/BENCH_fleet.json"
}
job_fleet() {
  build vulcan_sim_cli
  same_bytes fleet_run 1 2
  python3 scripts/check_baseline.py \
    "$OUT/jobs1/BENCH_fleet.json" bench/baselines/BENCH_fleet.json
}

# The admission ablation over the policy zoo on the dilemma: each policy runs
# with the benefit/cost veto off and then on (the off leg runs first, so its
# artefacts match an admission-less battery byte for byte).
admission_run() {
  dilemma_battery --seconds 20 --jobs "$2" --admission on \
    --bench-json "$1/BENCH_admission.json"
}
job_admission() {
  build vulcan_sim_cli
  same_bytes admission_run 1 2
  # With admission on, no policy's migration cost (pages moved, shootdown
  # IPIs) may increase, Jain and the worst-app slowdown must stay within 1%
  # of the off leg, and the zoo as a whole must veto something: an ablation
  # that admits everything is wired wrong. Per-policy veto counts are not
  # gated: at some scales a policy legitimately issues only profitable
  # requests (zero vetoes) or only ping-pong churn (near-total vetoes).
  python3 - "$OUT/jobs1/BENCH_admission.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
total_vetoed = 0
for p in bench["policies"]:
    name, adm = p["name"], p["admission"]
    assert adm["pages_migrated"] <= adm["base_pages_migrated"], (
        f"{name}: admission increased pages migrated ({adm})")
    assert adm["shootdown_ipis"] <= adm["base_shootdown_ipis"], (
        f"{name}: admission increased shootdown IPIs ({adm})")
    assert adm["jain"] >= p["jain"] - 0.01, (
        f"{name}: Jain regressed {p['jain']} -> {adm['jain']}")
    worst_off = max(a["slowdown"] for a in p["apps"])
    worst_on = max(a["slowdown"] for a in adm["apps"])
    assert worst_on <= worst_off * 1.01, (
        f"{name}: worst slowdown regressed {worst_off} -> {worst_on}")
    total_vetoed += adm["vetoed"]
    print(f"{name}: pages {adm['base_pages_migrated']} -> "
          f"{adm['pages_migrated']}, ipis {adm['base_shootdown_ipis']} -> "
          f"{adm['shootdown_ipis']}, vetoed {adm['vetoed']}")
assert total_vetoed > 0, "no policy vetoed anything"
print(f"admission smoke ok: {total_vetoed} vetoes across the zoo")
EOF
}

# Every intra-repo markdown link must resolve (http/https links are skipped).
job_docs() {
  python3 scripts/check_markdown_links.py
}

# The committed results/ must match what the harnesses print today: run every
# bench harness from smoke/results/ (they drop their CSVs into the cwd) and
# byte-compare its stdout and stderr with results/<name>.{txt,err}.
# microbench_structures prints host timings, so it only has to exit cleanly.
job_results() {
  local names=() name
  for name in bench/*.cpp; do names+=("$(basename "$name" .cpp)"); done
  build "${names[@]}"
  for name in "${names[@]}"; do
    echo "== $name"
    (cd "$OUT" && "$OLDPWD/$BUILD/bench/$name" > "$name.txt" 2> "$name.err")
    if [ "$name" = microbench_structures ]; then continue; fi
    cmp "results/$name.txt" "$OUT/$name.txt"
    cmp "results/$name.err" "$OUT/$name.err"
  done
}

job=${1:-}
if [ $# -ne 1 ] || [[ " $JOBS " != *" $job "* ]]; then
  echo "usage: scripts/smoke.sh <job>   (jobs: $JOBS)" >&2
  exit 2
fi
OUT=smoke/$job
rm -rf "$OUT"
mkdir -p "$OUT"
"job_$job"
echo "smoke $job ok"
