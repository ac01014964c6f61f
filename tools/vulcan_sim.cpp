// vulcan_sim — command-line experiment driver.
//
// Run any policy against the paper's scenarios or a parameterised
// microbenchmark without writing code:
//
//   vulcan_sim --policy vulcan --scenario paper --seconds 160 --csv out.csv
//   vulcan_sim --policy memtis --scenario dilemma --seconds 40
//   vulcan_sim --policy tpp --rss 16384 --wss 8192 --write-ratio 0.3
//              --rate 3e6 --seconds 20 --profiler pt-scan
//   vulcan_sim --policy vulcan --scenario paper --seconds 20
//              --trace t.jsonl --metrics m.json --perfetto timeline.json
//   vulcan_sim --policies all --scenario dilemma --seconds 20 --jobs 4
//
// Prints a per-workload summary and (optionally) the full per-epoch CSV.
// `--policies` switches to battery mode: one run per named policy, fanned
// out across `--jobs` workers (results merge in roster order, so the
// comparison table is byte-identical for any job count).
// `--trace`, `--metrics`, `--perfetto` and `--folded` accept `-` to write
// to stdout (the human-readable notices then move to stderr).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

#include "cli.hpp"

using namespace vulcan;

namespace {

struct Options {
  std::string policy = "vulcan";
  std::string policies;  // battery mode: comma-separated roster or "all"
  std::string scenario = "paper";  // paper | dilemma | micro | fleet
  std::string profiler = "hybrid";
  unsigned jobs = 0;  // battery workers; 0 = hardware concurrency
  std::string csv;
  std::string trace_out;    // structured event trace (JSONL)
  std::string metrics_out;  // obs::Registry snapshot (JSON)
  std::string perfetto_out;  // Chrome/Perfetto trace_event JSON
  std::string folded_out;    // folded flamegraph stacks
  std::string bench_json;    // machine-readable benchmark summary
  bool no_spans = false;
  double seconds = 60.0;
  std::uint64_t seed = 42;
  double epoch_ms = 250.0;
  std::uint64_t samples = 10'000;
  // microbenchmark knobs
  std::uint64_t rss = 16'384;
  std::uint64_t wss = 8'192;
  double write_ratio = 0.2;
  double rate = 3e6;
  double drift = 0.0;
  // fleet scenario knobs
  unsigned apps = 64;
  double churn = 0.0;        // churn events per simulated minute; 0 = static
  double lc_frac = 0.50;
  double be_frac = 0.35;
  double lifetime = 0.0;     // mean churned-app lifetime; 0 = seconds / 2
  std::string record_trace;  // capture workload 0's accesses to this file
  std::string replay_trace;  // replace the scenario with this trace file
  std::string audit;  // invariant-audit level; empty = builder default
  std::string slo;    // SLO rule pack; empty = no monitor
  std::string timeseries_out;  // time-series export (battery: file prefix)
  std::string provenance_out;  // provenance-ledger export file prefix
  std::string flight_dump;     // flight-recorder dump path (single run)
  std::string telemetry_bench;  // battery: telemetry-overhead measurement
  bool admission = false;       // benefit/cost veto layer (mig/admission.hpp)
  double admission_margin = -1.0;  // < 0 = AdmissionSpec default
  bool help = false;
};

void usage() {
  std::puts(
      "vulcan_sim — tiered-memory co-location simulator\n"
      "\n"
      "  --policy P       vulcan | tpp | memtis | nomad |\n"
      "                   mtm | cascade                     [vulcan]\n"
      "  --policies LIST  battery mode: run the scenario once per policy\n"
      "                   (comma-separated roster, or `all`) and print a\n"
      "                   comparison table; runs fan out over --jobs\n"
      "  --jobs N         battery runs in flight; 0 = hardware\n"
      "                   concurrency, capped by the roster    [0]\n"
      "  --scenario S     paper | dilemma | micro | fleet  [paper]\n"
      "                   paper:   Memcached@0s, PageRank@50s, Liblinear@110s\n"
      "                   dilemma: LC hot-set service + BE scanner@10s\n"
      "                   micro:   one Zipfian microbenchmark (see knobs)\n"
      "                   fleet:   O(100)-app LC/BE/antagonist mix with\n"
      "                            optional arrival/departure churn; prints\n"
      "                            a per-window tail-fairness table\n"
      "  --profiler K     pebs | pt-scan | hint-fault | hybrid |\n"
      "                   telescope | chrono                [hybrid]\n"
      "  --seconds T      simulated seconds                 [60]\n"
      "  --epoch-ms M     epoch length                      [250]\n"
      "  --samples N      access samples per epoch          [10000]\n"
      "  --seed N         RNG seed                          [42]\n"
      "  --csv FILE       write per-epoch metrics CSV\n"
      "  --trace FILE     write the structured event trace (JSONL)\n"
      "  --metrics FILE   write the metrics-registry snapshot (JSON)\n"
      "  --perfetto FILE  write the span timeline as Chrome/Perfetto\n"
      "                   trace_event JSON (open at ui.perfetto.dev)\n"
      "  --folded FILE    write folded flamegraph stacks (self cycles)\n"
      "  --bench-json F   write a machine-readable benchmark summary\n"
      "                   (also valid in battery mode: per-policy table)\n"
      "  --no-spans       do not record timeline spans\n"
      "  --audit [L]      invariant-audit level: off | basic | full\n"
      "                   (bare --audit means full; a violation prints\n"
      "                   the report and exits 3)            [basic]\n"
      "  --slo [PACK]     install an SLO rule pack (only `default`: per-app\n"
      "                   slowdown, worst slowdown, Jain floor, migration\n"
      "                   failure share, shootdown p99); violations land in\n"
      "                   the trace and the slo.* counters\n"
      "  --timeseries F   write the windowed time-series store (CSV when F\n"
      "                   ends in .csv, JSONL otherwise; in battery mode F\n"
      "                   is a prefix: F.<policy>.jsonl per roster entry)\n"
      "  --provenance P   enable the decision provenance ledger and write\n"
      "                   its exports to P.decisions.jsonl and\n"
      "                   P.transitions.jsonl (battery mode: one pair per\n"
      "                   roster entry, P.<policy>.decisions.jsonl ...);\n"
      "                   query them with vulcan_pagescope\n"
      "  --flight-dump F  arm the flight recorder's auto dump at F (audit\n"
      "                   failure / critical SLO / engine exception); when\n"
      "                   the run ends cleanly, dump on demand instead\n"
      "  --telemetry-bench F  (battery) run the roster with telemetry off\n"
      "                   and again with the default SLO pack, assert the\n"
      "                   fairness artefacts are identical, and write the\n"
      "                   overhead summary JSON to F\n"
      "  --admission on|off  migration admission control (benefit/cost veto\n"
      "                   in front of the migrator). Single run: veto\n"
      "                   uneconomic requests and report the verdict\n"
      "                   totals. Battery/fleet: run every policy with AND\n"
      "                   without admission and print the with/without\n"
      "                   comparison columns                 [off]\n"
      "  --admission-margin M  benefit must exceed M x predicted cost\n"
      "                   (see mig::AdmissionSpec)           [1.0]\n"
      "  (--trace/--metrics/--perfetto/--folded accept '-' for stdout)\n"
      "  micro knobs: --rss P --wss P --write-ratio R --rate A/s/thread\n"
      "               --drift pages/s\n"
      "  fleet knobs: --apps N [64]  --churn EVENTS/MIN [0 = static fleet]\n"
      "               --lc-frac F [0.5]  --be-frac F [0.35]\n"
      "               --lifetime MEAN_S [seconds/2]\n"
      "  traces:      --record-trace FILE  (capture workload 0)\n"
      "               --replay-trace FILE  (run a captured trace)\n");
}

bool parse(int argc, char** argv, Options& o) {
  cli::Args args(argc, argv);
  while (args.more()) {
    const std::string flag = args.flag();
    if (flag == "--help" || flag == "-h") o.help = true;
    else if (flag == "--policy") o.policy = args.next();
    else if (flag == "--policies") o.policies = args.next();
    else if (flag == "--jobs") o.jobs = args.uint();
    else if (flag == "--scenario") o.scenario = args.next();
    else if (flag == "--profiler") o.profiler = args.next();
    else if (flag == "--csv") o.csv = args.next();
    else if (flag == "--trace") o.trace_out = args.next();
    else if (flag == "--metrics") o.metrics_out = args.next();
    else if (flag == "--perfetto") o.perfetto_out = args.next();
    else if (flag == "--folded") o.folded_out = args.next();
    else if (flag == "--bench-json") o.bench_json = args.next();
    else if (flag == "--no-spans") o.no_spans = true;
    else if (flag == "--seconds") o.seconds = args.non_negative();
    else if (flag == "--epoch-ms") o.epoch_ms = args.real();
    else if (flag == "--samples") o.samples = args.u64();
    else if (flag == "--seed") o.seed = args.u64();
    else if (flag == "--rss") o.rss = args.u64();
    else if (flag == "--wss") o.wss = args.u64();
    else if (flag == "--write-ratio") o.write_ratio = args.real();
    else if (flag == "--rate") o.rate = args.real();
    else if (flag == "--drift") o.drift = args.real();
    else if (flag == "--apps") o.apps = args.uint();
    else if (flag == "--churn") o.churn = args.real();
    else if (flag == "--lc-frac") o.lc_frac = args.real();
    else if (flag == "--be-frac") o.be_frac = args.real();
    else if (flag == "--lifetime") o.lifetime = args.real();
    else if (flag == "--record-trace") o.record_trace = args.next();
    else if (flag == "--replay-trace") o.replay_trace = args.next();
    // The level is optional: a bare --audit means "full".
    else if (flag == "--audit") o.audit = args.next_or("full");
    // The pack name is optional: a bare --slo means "default".
    else if (flag == "--slo") o.slo = args.next_or("default");
    else if (flag == "--timeseries") o.timeseries_out = args.next();
    else if (flag == "--provenance") o.provenance_out = args.next();
    else if (flag == "--flight-dump") o.flight_dump = args.next();
    else if (flag == "--telemetry-bench") o.telemetry_bench = args.next();
    else if (flag == "--admission") o.admission = args.on_off();
    else if (flag == "--admission-margin")
      o.admission_margin = args.non_negative();
    else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

std::vector<obs::SloSpec> slo_rules(const Options& o) {
  if (o.slo.empty()) return {};
  if (o.slo == "default") return obs::default_slo_pack();
  std::fprintf(stderr, "unknown SLO pack: %s (only `default`)\n",
               o.slo.c_str());
  std::exit(2);
}

check::AuditLevel audit_level(const Options& o) {
  if (o.audit.empty()) return check::AuditLevel::kBasic;
  const auto parsed = check::parse_audit_level(o.audit);
  if (!parsed) {
    std::fprintf(stderr, "unknown audit level: %s (off | basic | full)\n",
                 o.audit.c_str());
    std::exit(2);
  }
  return *parsed;
}

runtime::ProfilerKind profiler_kind(const std::string& name) {
  if (name == "pebs") return runtime::ProfilerKind::kPebs;
  if (name == "pt-scan") return runtime::ProfilerKind::kPtScan;
  if (name == "hint-fault") return runtime::ProfilerKind::kHintFault;
  if (name == "hybrid") return runtime::ProfilerKind::kHybrid;
  if (name == "telescope") return runtime::ProfilerKind::kTelescope;
  if (name == "chrono") return runtime::ProfilerKind::kChrono;
  std::fprintf(stderr, "unknown profiler: %s\n", name.c_str());
  std::exit(2);
}

mig::AdmissionSpec admission_spec(const Options& o) {
  mig::AdmissionSpec spec;
  spec.enabled = true;
  if (o.admission_margin >= 0.0) spec.margin = o.admission_margin;
  return spec;
}

runtime::FleetSpec fleet_spec(const Options& o) {
  runtime::FleetSpec spec;
  spec.apps = o.apps;
  spec.seconds = o.seconds;
  spec.seed = o.seed;
  spec.lc_fraction = o.lc_frac;
  spec.be_fraction = o.be_frac;
  spec.churn_per_min = o.churn;
  spec.mean_lifetime_s = o.lifetime;
  return spec;
}

std::vector<runtime::StagedWorkload> make_scenario(const Options& o) {
  std::vector<runtime::StagedWorkload> stages;
  if (o.scenario == "paper") {
    return runtime::paper_colocation(o.seed);
  }
  if (o.scenario == "dilemma") {
    return runtime::dilemma_colocation(o.seed);
  }
  if (o.scenario == "fleet") {
    return runtime::make_fleet(fleet_spec(o));
  }
  if (o.scenario == "micro") {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = o.rss;
    p.wss_pages = o.wss;
    p.write_ratio = o.write_ratio;
    p.access_rate_per_thread = o.rate;
    p.drift_pages_per_sec = o.drift;
    p.seed = o.seed * 7 + 3;
    stages.push_back({0.0, std::make_unique<wl::MicrobenchWorkload>(p)});
    return stages;
  }
  std::fprintf(stderr, "unknown scenario: %s\n", o.scenario.c_str());
  std::exit(2);
}

/// Open `path` ("-" = stdout) and run `fn` against it. Unwritable paths and
/// failed writes are reported and turn into a nonzero exit.
template <typename Fn>
bool write_output(const std::string& path, Fn&& fn) {
  if (path == "-") {
    fn(std::cout);
    std::cout.flush();
    return std::cout.good();
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  fn(out);
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "error while writing %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Builder settings shared by the single run and every battery run.
void configure(runtime::SystemBuilder& b, const Options& o) {
  b.epoch_ms(o.epoch_ms)
      .samples_per_epoch(o.samples)
      .profiler(profiler_kind(o.profiler))
      .spans(!o.no_spans)
      .audit(audit_level(o))
      .slo(slo_rules(o));
  if (o.scenario == "fleet") {
    // Fleet runs fold epochs into 2 s tail-fairness windows retained for
    // the whole run, so the window tables cover every window.
    b.timeseries(runtime::fleet_timeseries_config(o.seconds));
  }
}

double veto_percent(const runtime::AdmissionCompare& a) {
  const std::uint64_t verdicts = a.admitted + a.vetoed;
  return verdicts ? 100.0 * double(a.vetoed) / double(verdicts) : 0.0;
}

/// Dilemma/paper/micro report: per-app end-of-run slowdowns, plus the
/// admission ablation columns. The regular table is the admission-off
/// half and is byte-identical to an ablation-free battery.
void print_app_report(const std::vector<runtime::PolicyRunSummary>& summaries,
                      const Options& o) {
  std::printf("%-10s %8s %8s", "policy", "jain", "CFI");
  for (const auto& [app, _] : summaries.front().apps) {
    std::printf(" %14s", (app + " sd").c_str());
  }
  std::printf("\n");
  for (const auto& s : summaries) {
    std::printf("%-10s %8.3f %8.3f", s.policy.c_str(), s.jain, s.cfi);
    for (const auto& [_, slowdown] : s.apps) {
      std::printf(" %14.3f", slowdown);
    }
    std::printf("\n");
  }
  if (!o.admission) return;
  std::printf("\nadmission ablation (margin=%.2f; off -> on):\n",
              admission_spec(o).margin);
  std::printf("%-10s %12s", "policy", "jain");
  for (const auto& [app, _] : summaries.front().apps) {
    std::printf(" %16s", (app + " sd").c_str());
  }
  std::printf(" %15s %15s %8s\n", "pages", "ipis", "veto%");
  for (const auto& s : summaries) {
    if (!s.admission) continue;
    const auto& a = *s.admission;
    std::printf("%-10s %5.3f>%5.3f", s.policy.c_str(), s.jain, a.jain);
    for (std::size_t i = 0; i < s.apps.size(); ++i) {
      const double on_sd =
          i < a.apps.size() ? a.apps[i].second : s.apps[i].second;
      std::printf(" %7.3f>%7.3f", s.apps[i].second, on_sd);
    }
    std::printf(" %7llu>%7llu %7llu>%7llu %7.1f%%\n",
                (unsigned long long)a.base_pages_migrated,
                (unsigned long long)a.pages_migrated,
                (unsigned long long)a.base_shootdown_ipis,
                (unsigned long long)a.shootdown_ipis, veto_percent(a));
  }
}

/// Fleet report: *tail* fairness over time — run-level tail aggregates,
/// the admission ablation's tail columns, then per 2 s window the
/// worst-app slowdown and the windowed Jain floor of each policy.
void print_fleet_report(
    const std::vector<runtime::PolicyRunSummary>& summaries,
    const Options& o) {
  std::printf("%-10s %10s %10s %10s %11s\n", "policy", "jain_cum",
              "worst_sd", "p99_sd", "jain_floor");
  for (const auto& s : summaries) {
    const runtime::TailFairness t = runtime::tail_fairness(s.windows);
    std::printf("%-10s %10.3f %10.3f %10.3f %11.3f\n", s.policy.c_str(),
                s.jain, t.worst_slowdown, t.worst_slowdown_p99,
                t.jain_floor);
  }
  if (o.admission) {
    std::printf("\nadmission ablation (margin=%.2f; off -> on):\n",
                admission_spec(o).margin);
    std::printf("%-10s %10s %10s %11s %13s %13s %9s\n", "policy",
                "worst_sd", "p99_sd", "jain_floor", "pages", "ipis",
                "veto%");
    for (const auto& s : summaries) {
      if (!s.admission) continue;
      const auto& a = *s.admission;
      const runtime::TailFairness off = runtime::tail_fairness(s.windows);
      const runtime::TailFairness on = runtime::tail_fairness(a.windows);
      std::printf(
          "%-10s %4.2f>%4.2f %4.2f>%4.2f %5.3f>%5.3f %6llu>%6llu "
          "%6llu>%6llu %8.1f%%\n",
          s.policy.c_str(), off.worst_slowdown, on.worst_slowdown,
          off.worst_slowdown_p99, on.worst_slowdown_p99, off.jain_floor,
          on.jain_floor, (unsigned long long)a.base_pages_migrated,
          (unsigned long long)a.pages_migrated,
          (unsigned long long)a.base_shootdown_ipis,
          (unsigned long long)a.shootdown_ipis, veto_percent(a));
    }
  }
  for (const auto& s : summaries) {
    std::printf("\n%s (%.0f s windows):\n", s.policy.c_str(),
                runtime::kFleetWindowSeconds);
    std::printf("%8s %10s %10s %6s\n", "t(s)", "worst_sd", "jain_min",
                "live");
    for (const auto& w : s.windows) {
      std::printf("%8.0f %10.3f %10.3f %6.0f\n", w.time_s, w.worst_slowdown,
                  w.jain_min, w.live_apps);
    }
  }
}

void write_slowdowns(
    std::ostream& out,
    const std::vector<std::pair<std::string, double>>& apps) {
  for (std::size_t a = 0; a < apps.size(); ++a) {
    out << (a ? ", " : "") << "{\"name\": \"" << apps[a].first
        << "\", \"slowdown\": " << apps[a].second << "}";
  }
}

void write_cost(std::ostream& out, const runtime::AdmissionCompare& a) {
  out << ", \"pages_migrated\": " << a.pages_migrated
      << ", \"shootdown_ipis\": " << a.shootdown_ipis
      << ", \"base_pages_migrated\": " << a.base_pages_migrated
      << ", \"base_shootdown_ipis\": " << a.base_shootdown_ipis
      << ", \"admitted\": " << a.admitted << ", \"vetoed\": " << a.vetoed
      << "}";
}

/// Battery bench summary. Deterministic fields only (no wall time), so two
/// runs of the same binary are byte-identical at any --jobs count.
/// bench/baselines/BENCH_hotpath.json pins the per-app shape and
/// BENCH_fleet.json the fleet's tail shape. The with-admission rerun rides
/// along as a nested object, so the admission-off fields stay identical to
/// an ablation-free battery.
void write_bench(std::ostream& out,
                 const std::vector<runtime::PolicyRunSummary>& summaries,
                 const Options& o) {
  const bool fleet = o.scenario == "fleet";
  out << "{\"scenario\": \"" << o.scenario << "\", \"seed\": " << o.seed
      << ", \"simulated_s\": " << o.seconds;
  if (fleet) {
    out << ", \"apps\": " << o.apps << ", \"churn_per_min\": " << o.churn;
  }
  out << ", \"policies\": [";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const auto& s = summaries[i];
    out << (i ? ", " : "") << "{\"name\": \"" << s.policy << "\"";
    if (fleet) {
      const runtime::TailFairness t = runtime::tail_fairness(s.windows);
      out << ", \"jain_cumulative\": " << s.jain
          << ", \"worst_slowdown_overall\": " << t.worst_slowdown
          << ", \"worst_slowdown_p99\": " << t.worst_slowdown_p99
          << ", \"jain_floor\": " << t.jain_floor
          << ", \"windows\": " << s.windows.size();
      if (s.admission) {
        const auto& a = *s.admission;
        const runtime::TailFairness on = runtime::tail_fairness(a.windows);
        out << ", \"admission\": {\"jain_cumulative\": " << a.jain
            << ", \"worst_slowdown_overall\": " << on.worst_slowdown
            << ", \"worst_slowdown_p99\": " << on.worst_slowdown_p99
            << ", \"jain_floor\": " << on.jain_floor;
        write_cost(out, a);
      }
    } else {
      out << ", \"jain\": " << s.jain << ", \"cfi\": " << s.cfi
          << ", \"apps\": [";
      write_slowdowns(out, s.apps);
      out << "]";
      if (s.admission) {
        const auto& a = *s.admission;
        out << ", \"admission\": {\"jain\": " << a.jain
            << ", \"cfi\": " << a.cfi << ", \"apps\": [";
        write_slowdowns(out, a.apps);
        out << "]";
        write_cost(out, a);
      }
    }
    out << "}";
  }
  out << "]}\n";
}

/// Battery mode: one full simulation per policy in the roster, fanned out
/// across the exec worker pool. Every scenario, the fleet included, runs
/// through run_policy_battery with the single run's builder settings; only
/// the report differs. Results merge in roster order, so every output is
/// byte-identical for any --jobs value.
int run_battery(const Options& o) {
  if (!o.csv.empty() || !o.trace_out.empty() || !o.metrics_out.empty() ||
      !o.perfetto_out.empty() || !o.folded_out.empty() ||
      !o.record_trace.empty() || !o.replay_trace.empty() ||
      !o.flight_dump.empty()) {
    std::fprintf(stderr,
                 "--policies is a comparison mode; per-run artefact flags "
                 "(--csv/--trace/--metrics/--perfetto/--folded/"
                 "--record-trace/--replay-trace/--flight-dump) need a "
                 "single --policy run\n");
    return 2;
  }
  if (o.scenario != "paper" && o.scenario != "dilemma" &&
      o.scenario != "micro" && o.scenario != "fleet") {
    std::fprintf(stderr, "unknown scenario: %s\n", o.scenario.c_str());
    return 2;
  }

  std::vector<std::string> roster;
  if (o.policies == "all") {
    const auto names = runtime::all_policy_names();
    roster.assign(names.begin(), names.end());
  } else {
    std::string token;
    std::istringstream list(o.policies);
    while (std::getline(list, token, ',')) {
      if (!token.empty()) roster.push_back(token);
    }
  }
  if (roster.empty()) {
    std::fprintf(stderr, "--policies: empty roster\n");
    return 2;
  }

  const bool fleet = o.scenario == "fleet";
  runtime::ScenarioSpec spec;
  spec.name = o.scenario;
  spec.seconds = o.seconds;
  spec.seed = o.seed;
  spec.configure = [&o](runtime::SystemBuilder& b) { configure(b, o); };
  spec.stage = [&o] { return make_scenario(o); };
  spec.capture_timeseries = !o.timeseries_out.empty();
  spec.capture_provenance = !o.provenance_out.empty();
  if (o.admission) spec.admission_compare = admission_spec(o);

  const char* compare = o.admission ? " admission=compare" : "";
  if (fleet) {
    std::printf(
        "scenario=fleet apps=%u churn=%.1f/min lc=%.2f be=%.2f seed=%llu "
        "seconds=%.0f policies=%zu%s\n\n",
        o.apps, o.churn, o.lc_frac, o.be_frac, (unsigned long long)o.seed,
        o.seconds, roster.size(), compare);
  } else {
    std::printf("scenario=%s seed=%llu seconds=%.0f policies=%zu%s\n\n",
                o.scenario.c_str(), (unsigned long long)o.seed, o.seconds,
                roster.size(), compare);
  }

  std::vector<runtime::PolicyRunSummary> summaries;
  exec::BatchStats stats;
  try {
    summaries = runtime::run_policy_battery(spec, roster, o.jobs, &stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vulcan_sim: %s\n", e.what());
    // The battery flattens job failures to runtime_error; an audit report
    // is recognisable by its format_report header.
    return std::string(e.what()).find("audit(level=") != std::string::npos
               ? 3
               : 1;
  }
  std::fprintf(stderr,
               "[exec] %zu policy runs on %u workers: %.0f ms wall "
               "(%.0f ms serialized, %.2fx)\n",
               stats.jobs, stats.workers, stats.wall_ms,
               stats.job_wall_ms_sum, stats.speedup());

  if (fleet) print_fleet_report(summaries, o);
  else print_app_report(summaries, o);

  // Per-policy time-series exports, merged in roster order like the table
  // (each job captured its own store, so the files are byte-identical for
  // any --jobs value).
  if (!o.timeseries_out.empty()) {
    for (const auto& s : summaries) {
      const std::string path = o.timeseries_out + "." + s.policy + ".jsonl";
      if (!write_output(path, [&](std::ostream& out) { out << s.timeseries; })) {
        return 1;
      }
      std::fprintf(stderr, "wrote %s (time-series export)\n", path.c_str());
    }
  }

  // Per-policy provenance exports, merged in roster order (byte-identical
  // for any --jobs value, like everything else the battery emits).
  if (!o.provenance_out.empty()) {
    for (const auto& s : summaries) {
      const std::string d_path =
          o.provenance_out + "." + s.policy + ".decisions.jsonl";
      const std::string t_path =
          o.provenance_out + "." + s.policy + ".transitions.jsonl";
      if (!write_output(d_path,
                        [&](std::ostream& out) { out << s.decisions; }) ||
          !write_output(t_path,
                        [&](std::ostream& out) { out << s.transitions; })) {
        return 1;
      }
      std::fprintf(stderr, "wrote %s + %s (provenance export)\n",
                   d_path.c_str(), t_path.c_str());
    }
  }

  // Telemetry overhead guard: the same roster with the telemetry storey
  // disabled, then with the default SLO pack on top of the always-on
  // store. The fairness artefacts must be identical — telemetry reads the
  // registry, it never steers the system — and the serialized wall-time
  // ratio is the overhead the bench baseline budgets.
  if (!o.telemetry_bench.empty()) {
    runtime::ScenarioSpec off = spec;
    off.capture_timeseries = false;
    off.admission_compare.reset();  // overhead runs, not the ablation
    off.configure = [&o](runtime::SystemBuilder& b) {
      configure(b, o);
      b.telemetry(false);
    };
    runtime::ScenarioSpec on = spec;
    on.capture_timeseries = false;
    on.admission_compare.reset();
    on.configure = [&o](runtime::SystemBuilder& b) {
      configure(b, o);
      b.slo(obs::default_slo_pack());
    };
    exec::BatchStats off_stats, on_stats;
    std::vector<runtime::PolicyRunSummary> off_sum, on_sum;
    try {
      off_sum = runtime::run_policy_battery(off, roster, o.jobs, &off_stats);
      on_sum = runtime::run_policy_battery(on, roster, o.jobs, &on_stats);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vulcan_sim: telemetry bench: %s\n", e.what());
      return 1;
    }
    bool identical = off_sum.size() == on_sum.size();
    for (std::size_t i = 0; identical && i < off_sum.size(); ++i) {
      identical = off_sum[i].jain == on_sum[i].jain &&
                  off_sum[i].cfi == on_sum[i].cfi &&
                  off_sum[i].apps == on_sum[i].apps;
    }
    const double off_ms = off_stats.job_wall_ms_sum;
    const double on_ms = on_stats.job_wall_ms_sum;
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    const bool ok = write_output(o.telemetry_bench, [&](std::ostream& out) {
      out << "{\"scenario\": \"" << o.scenario << "\", \"policies\": "
          << roster.size() << ", \"telemetry_off_ms\": " << off_ms
          << ", \"telemetry_on_ms\": " << on_ms
          << ", \"overhead\": " << overhead << ", \"identical_fairness\": "
          << (identical ? "true" : "false") << "}\n";
    });
    std::fprintf(stderr,
                 "[telemetry] off %.0f ms, on %.0f ms (%+.1f%%), fairness "
                 "artefacts %s\n",
                 off_ms, on_ms, overhead * 100.0,
                 identical ? "identical" : "DIVERGED");
    if (!ok || !identical) return 1;
  }

  if (!o.bench_json.empty()) {
    const bool ok = write_output(o.bench_json, [&](std::ostream& out) {
      write_bench(out, summaries, o);
    });
    std::fprintf(stderr, "wrote %s (%s benchmark summary)\n",
                 o.bench_json.c_str(), fleet ? "fleet" : "battery");
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;
  if (o.help) {
    usage();
    return 0;
  }
  if (!o.policies.empty()) return run_battery(o);

  // Any artefact routed to stdout moves the human-readable notices to
  // stderr so the machine-readable stream stays clean.
  const bool stdout_taken = o.trace_out == "-" || o.metrics_out == "-" ||
                            o.perfetto_out == "-" || o.folded_out == "-" ||
                            o.csv == "-" || o.bench_json == "-" ||
                            o.timeseries_out == "-";
  FILE* info = stdout_taken ? stderr : stdout;

  runtime::SystemBuilder builder;
  configure(builder, o);
  builder.seed(o.seed)
      .provenance(!o.provenance_out.empty())
      .flight_dump(o.flight_dump)
      .policy(std::string_view(o.policy));
  if (o.admission) builder.admission(admission_spec(o));
  auto built = builder.build();
  if (!built) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 built.error().c_str());
    return 2;
  }
  runtime::TieredSystem& sys = *built.value();
  std::fprintf(info,
               "policy=%s scenario=%s seed=%llu epoch=%.0fms "
               "budget=%llu pages/epoch\n\n",
               o.policy.c_str(), o.scenario.c_str(),
               (unsigned long long)o.seed, o.epoch_ms,
               (unsigned long long)sys.migration_budget_pages());

  auto stages = make_scenario(o);
  wl::Trace trace;
  if (!o.replay_trace.empty()) {
    std::ifstream in(o.replay_trace, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", o.replay_trace.c_str());
      return 1;
    }
    wl::WorkloadSpec spec;
    spec.name = "trace:" + o.replay_trace;
    spec.accesses_per_sec_per_thread = o.rate;
    stages.clear();
    stages.push_back({0.0, std::make_unique<wl::ReplayWorkload>(
                               wl::Trace::load(in), spec)});
  } else if (!o.record_trace.empty() && !stages.empty()) {
    auto inner = std::move(stages[0].workload);
    trace = wl::Trace(inner->spec().rss_pages, inner->spec().threads);
    stages[0].workload =
        std::make_unique<wl::RecordingWorkload>(std::move(inner), trace);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  try {
    runtime::run_staged(sys, std::move(stages), o.seconds);
  } catch (const check::AuditFailure& e) {
    std::fprintf(stderr, "vulcan_sim: invariant audit failed\n%s\n",
                 e.what());
    if (sys.flight().auto_dumped()) {
      std::fprintf(stderr, "flight dump written to %s\n",
                   sys.flight().auto_dump_path().c_str());
    }
    return 3;
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  if (!o.record_trace.empty()) {
    std::ofstream out(o.record_trace, std::ios::binary);
    const auto bytes = trace.save(out);
    std::fprintf(info, "recorded %zu accesses (%llu bytes) to %s\n\n",
                 trace.size(), (unsigned long long)bytes,
                 o.record_trace.c_str());
  }

  const auto& m = sys.metrics();
  std::fprintf(info, "%-14s %8s %8s %12s %12s %10s\n", "workload", "FTHR",
               "perf", "fast pages", "slow pages", "migrated");
  const std::size_t from = m.epochs().size() / 2;
  std::vector<double> mean_progress;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    double migrated = 0;
    for (const auto& e : m.epochs()) {
      if (w < e.workloads.size()) migrated += double(e.workloads[w].migrated);
    }
    mean_progress.push_back(m.mean_performance(w, from));
    std::fprintf(info, "%-14s %8.3f %8.3f %12llu %12llu %10.0f\n",
                 sys.workload(w).spec().name.c_str(), m.mean_fthr(w, from),
                 m.mean_performance(w, from),
                 (unsigned long long)sys.address_space(w).pages_in_tier(
                     mem::kFastTier),
                 (unsigned long long)sys.address_space(w).pages_in_tier(
                     mem::kSlowTier),
                 migrated);
  }
  std::fprintf(info, "\nfairness (FTHR-weighted CFI): %.3f\n",
               sys.fairness_cfi());
  std::fprintf(info, "jain (per-app progress, cumulative): %.3f\n",
               sys.app_stats().jain_cumulative());
  std::fprintf(info, "TLB shootdowns: %llu ops, %llu IPIs\n",
               (unsigned long long)sys.shootdowns().stats().shootdowns,
               (unsigned long long)sys.shootdowns().stats().ipis);
  if (const mig::AdmissionController* adm = sys.admission_controller()) {
    const std::uint64_t verdicts = adm->admitted() + adm->vetoed();
    std::fprintf(info,
                 "admission: %llu admitted, %llu vetoed (%.1f%% veto rate)\n",
                 (unsigned long long)adm->admitted(),
                 (unsigned long long)adm->vetoed(),
                 verdicts ? 100.0 * double(adm->vetoed()) / double(verdicts)
                          : 0.0);
  }
  if (o.scenario == "fleet") {
    const auto rows = runtime::fleet_windows(sys.obs_timeseries());
    std::fprintf(info, "\nfleet tail fairness (%.0f s windows):\n",
                 runtime::kFleetWindowSeconds);
    std::fprintf(info, "%8s %10s %10s %6s\n", "t(s)", "worst_sd",
                 "jain_min", "live");
    for (const auto& w : rows) {
      std::fprintf(info, "%8.0f %10.3f %10.3f %6.0f\n", w.time_s,
                   w.worst_slowdown, w.jain_min, w.live_apps);
    }
  }

  bool ok = true;
  const std::uint64_t dropped = sys.obs_trace().dropped();
  if (!o.csv.empty()) {
    ok &= write_output(o.csv, [&](std::ostream& out) {
      obs::CsvExporter exporter(out);
      m.write(exporter);
    });
    std::fprintf(info, "wrote %s (%zu epochs)\n", o.csv.c_str(),
                 m.epochs().size());
  }
  if (!o.trace_out.empty()) {
    ok &= write_output(o.trace_out, [&](std::ostream& out) {
      sys.obs_trace().write_jsonl(out);
    });
    std::fprintf(info, "wrote %s (%zu events, %llu dropped)\n",
                 o.trace_out.c_str(), sys.obs_trace().size(),
                 (unsigned long long)dropped);
    if (dropped > 0) {
      std::fprintf(stderr,
                   "warning: trace ring dropped %llu events; the serialized "
                   "trace is truncated (oldest events lost)\n",
                   (unsigned long long)dropped);
    }
  }
  if (!o.metrics_out.empty()) {
    ok &= write_output(o.metrics_out, [&](std::ostream& out) {
      sys.obs_registry().write_json(out);
    });
    std::fprintf(info, "wrote %s (%zu instruments)\n", o.metrics_out.c_str(),
                 sys.obs_registry().size());
  }
  if (!o.perfetto_out.empty()) {
    const auto events = sys.obs_trace().events();
    ok &= write_output(o.perfetto_out, [&](std::ostream& out) {
      obs::write_perfetto(events, out, {.dropped = dropped,
                                        .diag = &std::cerr});
    });
    std::fprintf(info, "wrote %s (perfetto timeline)\n",
                 o.perfetto_out.c_str());
  }
  if (!o.folded_out.empty()) {
    const auto events = sys.obs_trace().events();
    ok &= write_output(o.folded_out, [&](std::ostream& out) {
      obs::write_folded(events, out, {.dropped = dropped,
                                      .diag = &std::cerr});
    });
    std::fprintf(info, "wrote %s (folded stacks)\n", o.folded_out.c_str());
  }
  if (!o.timeseries_out.empty()) {
    const bool csv = o.timeseries_out.size() > 4 &&
                     o.timeseries_out.rfind(".csv") ==
                         o.timeseries_out.size() - 4;
    ok &= write_output(o.timeseries_out, [&](std::ostream& out) {
      if (csv) sys.obs_timeseries().write_csv(out);
      else sys.obs_timeseries().write_jsonl(out);
    });
    std::fprintf(info, "wrote %s (%zu series, %llu boundary snapshots)\n",
                 o.timeseries_out.c_str(), sys.obs_timeseries().series_count(),
                 (unsigned long long)sys.obs_timeseries().observations());
  }
  if (!o.provenance_out.empty()) {
    sys.provenance().finalize();
    const std::string d_path = o.provenance_out + ".decisions.jsonl";
    const std::string t_path = o.provenance_out + ".transitions.jsonl";
    ok &= write_output(d_path, [&](std::ostream& out) {
      sys.provenance().write_decisions_jsonl(out);
    });
    ok &= write_output(t_path, [&](std::ostream& out) {
      sys.provenance().write_transitions_jsonl(out);
    });
    std::fprintf(info,
                 "wrote %s + %s (%llu decisions, %llu transitions)\n",
                 d_path.c_str(), t_path.c_str(),
                 (unsigned long long)sys.provenance().total_decisions(),
                 (unsigned long long)sys.provenance().total_transitions());
  }
  if (const obs::SloMonitor* slo = sys.slo_monitor()) {
    std::fprintf(info,
                 "SLO: %llu violations, %llu recoveries, %llu active\n",
                 (unsigned long long)slo->violations_total(),
                 (unsigned long long)slo->recoveries_total(),
                 (unsigned long long)slo->active());
  }
  if (!o.flight_dump.empty() && !sys.flight().auto_dumped()) {
    // Clean landing: nothing triggered the black box, so dump on demand.
    if (sys.dump_flight(o.flight_dump, "on_demand", "run completed")) {
      std::fprintf(info, "wrote %s (flight dump, on demand)\n",
                   o.flight_dump.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", o.flight_dump.c_str());
      ok = false;
    }
  }
  if (!o.bench_json.empty()) {
    ok &= write_output(o.bench_json, [&](std::ostream& out) {
      out << "{\"wall_time_s\": " << wall_s
          << ", \"simulated_s\": " << o.seconds
          << ", \"cfi\": " << sys.fairness_cfi()
          << ", \"jain\": " << sys.app_stats().jain_cumulative()
          << ", \"apps\": [";
      for (unsigned w = 0; w < sys.workload_count(); ++w) {
        const double perf = mean_progress[w];
        out << (w ? ", " : "") << "{\"name\": \""
            << sys.workload(w).spec().name << "\", \"slowdown\": "
            << (perf > 0 ? 1.0 / perf : 1.0) << "}";
      }
      out << "]}\n";
    });
    std::fprintf(info, "wrote %s (benchmark summary)\n",
                 o.bench_json.c_str());
  }
  return ok ? 0 : 1;
}
