// perfbench: host-time benchmark of the vulcan simulator.
//
//   perfbench --workload dilemma|fleet|paper [--seed N] [--seconds S]
//             [--trace 0|1] [--spans-out FILE]
//
// --trace 0 measures the end-to-end metrics: the workload's battery is run
// untraced, exactly as `vulcan_sim --policies ...` runs it, again and again
// for --seconds of host time, and each metric is the median over those
// runs. --trace 1 measures the per-layer metrics: untraced and traced runs
// alternate for --seconds, the traced runs' spans give each layer's time,
// and a standalone replay times the per-access pipeline.
//
// Every policy run is one operation. It fails when it throws (a failed
// per-epoch audit included), when a repeat of the battery gives another
// simulated summary, when a traced run's summary differs from the
// untraced one, or when it breaks the dilemma's paper-shape check. The
// last line of standard output is one JSON object: correct, attempted,
// failed and metrics (name -> value and unit).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "batteries.hpp"
#include "replay.hpp"
#include "runtime/experiment.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 20.0;
  int trace = 0;
  std::string spans_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Operation bookkeeping shared by both modes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    std::fprintf(stderr, "perfbench: FAIL: %s\n", why.c_str());
  }
};

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t access_samples(const std::vector<RunSummary>& runs) {
  std::uint64_t n = 0;
  for (const RunSummary& r : runs) n += r.tlb_hits + r.tlb_misses;
  return n;
}

const RunSummary& vulcan_run(const std::vector<RunSummary>& runs) {
  for (const RunSummary& r : runs) {
    if (r.policy == "vulcan") return r;
  }
  return runs.front();
}

// Vulcan's worst-app slowdown: its largest steady-state app slowdown, or on
// fleet the mean over 2 s windows of each window's worst slowdown, so the
// admission storm at t=0 does not pin it.
double worst_slowdown(const TracedBattery& traced,
                      const std::vector<RunSummary>& reference) {
  for (const TracedRun& run : traced.runs) {
    if (run.summary.policy != "vulcan" || run.windows.empty()) continue;
    double sum = 0.0;
    for (const auto& w : run.windows) sum += w.worst_slowdown;
    return sum / static_cast<double>(run.windows.size());
  }
  return vulcan_run(reference).worst_slowdown();
}

// One battery's correctness checks against the reference summaries (the
// invocation's first battery). Returns the policy runs that failed.
std::uint64_t check_battery(const WorkloadDef& def,
                            const std::vector<RunSummary>& runs,
                            const std::vector<RunSummary>& reference,
                            const char* what) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i >= reference.size() || runs[i] != reference[i]) {
      std::fprintf(stderr,
                   "perfbench: FAIL: %s %s: simulated summary differs\n", what,
                   runs[i].policy.c_str());
      ++failed;
    }
  }
  if (def.name == "dilemma") {
    const std::vector<std::string> broken = paper_shape_violations(runs);
    for (const std::string& line : broken) {
      std::fprintf(stderr, "perfbench: FAIL: paper shape: %s\n", line.c_str());
    }
    if (!broken.empty()) ++failed;  // the vulcan run fails the claim
  }
  return failed;
}

// Set-up time: stage the workloads and build every policy's system, as the
// battery does before its first epoch. Timed in bursts of at least three
// repetitions lasting 0.2 s, one before the first battery and one after
// each. On a shared host other tenants' load moves set-up time by up to
// half within a minute; spreading the repetitions over the run averages
// that load as the batteries' median does.
void time_setup(const WorkloadDef& def, std::vector<double>& times) {
  const auto start = Clock::now();
  for (int reps = 0; reps < 3 || seconds_since(start) < 0.2; ++reps) {
    const auto t0 = Clock::now();
    stage_and_build(def);
    times.push_back(seconds_since(t0));
  }
}

// Whether to start another measured repetition: always until `min` are
// done, then only while one more (at the median length so far) is
// expected to end within the run's budget.
bool another(Clock::time_point start, const std::vector<double>& lengths,
             std::size_t min, double budget_s) {
  return lengths.size() < min ||
         seconds_since(start) + median(lengths) <= budget_s;
}

struct Timed {
  std::vector<RunSummary> runs;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Timed timed_battery(const WorkloadDef& def) {
  Timed t;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  t.runs = run_battery(def);
  t.wall_s = seconds_since(t0);
  t.cpu_s = cpu_seconds() - cpu0;
  return t;
}

std::map<std::string, Metric> end_to_end(const Options& o,
                                         const WorkloadDef& def, Tally& tally) {
  stage_and_build(def);  // warm the allocator and the page cache
  std::vector<double> setup;
  time_setup(def, setup);

  std::vector<double> wall, cpu;
  std::vector<RunSummary> reference;
  std::uint64_t samples = 0;
  const auto start = Clock::now();
  while (another(start, wall, 3, o.seconds)) {
    tally.attempted += def.policies.size();
    Timed t;
    try {
      t = timed_battery(def);
    } catch (const std::exception& e) {
      tally.fail(def.policies.size(), e.what());
      break;
    }
    if (reference.empty()) {
      reference = t.runs;
      samples = access_samples(reference);
    }
    tally.failed += check_battery(def, t.runs, reference, "repeat");
    wall.push_back(t.wall_s);
    cpu.push_back(t.cpu_s);
    time_setup(def, setup);
  }
  if (reference.empty()) return {};

  const double wall_s = median(wall);
  std::printf("end-to-end: %zu batteries of %zu policy runs\n", wall.size(),
              def.policies.size());
  return {
      {"setup_s", {median(setup), "s"}},
      {"wall_s", {wall_s, "s"}},
      {"cpu_s", {median(cpu), "s"}},
      {"accesses_per_s", {static_cast<double>(samples) / wall_s, "1/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
  };
}

double ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// The Fig. 2 anchors the cost model was fitted to: total cycles of one
// base-page migration at 2 and 32 CPUs, and the preparation share there.
double fig2_error(
    const std::vector<vulcan::runtime::MigrationBreakdownRow>& rows) {
  double err = 0.0;
  const auto off = [&err](double model, double paper) {
    err = std::max(err, std::abs(model / paper - 1.0));
  };
  for (const auto& row : rows) {
    const auto total = static_cast<double>(row.total());
    if (row.cpus == 2) {
      off(total, 50e3);
      off(row.prep_share(), 0.383);
    } else if (row.cpus == 32) {
      off(total, 750e3);
      off(row.prep_share(), 0.769);
    }
  }
  return err;
}

std::map<std::string, Metric> per_layer(const Options& o,
                                        const WorkloadDef& def, Tally& tally) {
  std::vector<double> untraced_wall, traced_wall;
  std::vector<RunSummary> reference;
  std::vector<TracedBattery> traced;
  std::vector<double> pair_s;
  const auto start = Clock::now();
  // Untraced and traced batteries alternate, each going first in every
  // other pair, so neither side always runs on a colder process.
  const auto untraced_battery = [&] {
    const Timed t = timed_battery(def);
    if (reference.empty()) reference = t.runs;
    tally.failed += check_battery(def, t.runs, reference, "repeat");
    untraced_wall.push_back(t.wall_s);
  };
  const auto traced_battery = [&] {
    const auto t0 = Clock::now();
    TracedBattery tb = run_traced_battery(def);
    traced_wall.push_back(seconds_since(t0));
    std::vector<RunSummary> summaries;
    for (const TracedRun& run : tb.runs) {
      if (!run.error.empty()) tally.fail(1, "traced " + run.error);
      summaries.push_back(run.summary);
    }
    tally.failed += check_battery(def, summaries, reference, "traced");
    traced.push_back(std::move(tb));
  };
  while (another(start, pair_s, 1, o.seconds)) {
    const auto pair_start = Clock::now();
    tally.attempted += 2 * def.policies.size();
    try {
      if (pair_s.size() % 2 == 0) {
        untraced_battery();
        traced_battery();
      } else {
        traced_battery();
        untraced_battery();
      }
    } catch (const std::exception& e) {
      tally.fail(2 * def.policies.size(), e.what());
      return {};
    }
    pair_s.push_back(seconds_since(pair_start));
  }

  if (!o.spans_out.empty()) {
    std::ofstream out(o.spans_out);
    for (const TracedBattery& tb : traced) tb.log.write_jsonl(out);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.spans_out.c_str());
    }
  }

  // Layer totals over every traced battery, reported per battery.
  const auto batteries = static_cast<double>(traced.size());
  std::map<std::string, LayerTotal, std::less<>> layers;
  std::map<std::string, std::int64_t> plan_by_policy;
  std::uint64_t checks = 0, placements = 0, admits = 0, departs = 0;
  std::uint64_t hits = 0, misses = 0, pwc_hits = 0, pwc_misses = 0;
  std::uint64_t migrated = 0, failed_pages = 0, ipis = 0;
  std::size_t series = 0;
  double exec_speedup = 0.0, exec_idle = 0.0;
  for (const TracedBattery& tb : traced) {
    for (const auto& [name, t] : layer_totals(tb.log.spans())) {
      layers[name].count += t.count;
      layers[name].total_ns += t.total_ns;
    }
    for (const TracedRun& run : tb.runs) {
      for (const Span& span : run.log.spans()) {
        if (span.name == "policy.plan") {
          plan_by_policy[run.summary.policy] += span.duration_ns();
        }
      }
      checks += run.audit_checks;
      placements += run.placements;
      admits += run.admits;
      departs += run.departs;
      series = std::max(series, run.series);
      hits += run.summary.tlb_hits;
      misses += run.summary.tlb_misses;
      pwc_hits += run.pwc.hits;
      pwc_misses += run.pwc.misses;
      migrated += run.summary.pages_migrated;
      failed_pages += run.summary.pages_failed;
      ipis += run.summary.shootdown_ipis;
    }
    exec_speedup += tb.stats.speedup() / batteries;
    exec_idle += (1.0 - ratio(tb.stats.job_wall_ms_sum,
                              tb.stats.wall_ms * tb.stats.workers)) /
                 batteries;
  }
  const auto total = [&](std::string_view name) {
    const auto it = layers.find(name);
    return it == layers.end() ? std::int64_t{0} : it->second.total_ns;
  };
  const auto mean_per_call = [&](std::string_view name) {
    const auto it = layers.find(name);
    return it == layers.end() || it->second.count == 0
               ? 0.0
               : static_cast<double>(it->second.total_ns) /
                     static_cast<double>(it->second.count);
  };
  const double run_ns = static_cast<double>(total("run"));

  // Per-epoch time and self time (epoch minus its policy.plan child).
  std::vector<double> epoch_ms, epoch_self_ms;
  for (const TracedBattery& tb : traced) {
    const std::vector<std::int64_t> self = self_times(tb.log.spans());
    for (std::size_t i = 0; i < tb.log.spans().size(); ++i) {
      const Span& s = tb.log.spans()[i];
      if (s.name != "runtime.epoch") continue;
      epoch_ms.push_back(ms(s.duration_ns()));
      epoch_self_ms.push_back(ms(self[i]));
    }
  }
  // The rung is chosen per battery (>= 10 epochs beyond it in each), so it
  // does not depend on how many batteries fitted in the run.
  const TailPercentile tail = tail_percentile(epoch_ms, 10 * traced.size());

  const ReplayResult replay = replay_access_pipeline(def);
  const auto per_access = [&](std::int64_t ns) {
    return ratio(static_cast<double>(ns), static_cast<double>(replay.accesses));
  };

  // Migration mechanism batteries: host time per composed page migration,
  // and the model's distance from the Fig. 2 anchors it was fitted to.
  std::vector<unsigned> cpus(32);
  for (unsigned c = 0; c < cpus.size(); ++c) cpus[c] = c + 1;
  std::vector<double> mech_ns;
  std::vector<vulcan::runtime::MigrationBreakdownRow> rows;
  for (int rep = 0; rep < 21; ++rep) {
    const auto t0 = Clock::now();
    rows = vulcan::runtime::migration_breakdown_battery(cpus);
    mech_ns.push_back(seconds_since(t0) * 1e9 /
                      static_cast<double>(cpus.size()));
  }

  std::printf(
      "per-layer: %zu traced batteries; %zu epochs, tail is p%g with %zu "
      "beyond; replay %llu accesses\n",
      traced.size(), epoch_ms.size(), tail.percentile, tail.beyond,
      static_cast<unsigned long long>(replay.accesses));

  const auto per_battery = [&](double total_value) {
    return total_value / batteries;
  };
  const auto share = [&](std::string_view name) {
    return ratio(static_cast<double>(total(name)), run_ns);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  std::map<std::string, Metric> m = {
      {"policy.plan_ms", {per_battery(ms(total("policy.plan"))), "ms"}},
      {"policy.plan_share", {share("policy.plan"), "ratio"}},
      {"policy.placements", {per_battery(count(placements)), "count"}},
      {"check.audit_ms", {per_battery(ms(total("check.audit"))), "ms"}},
      {"check.audit_share", {share("check.audit"), "ratio"}},
      {"check.audit_checks", {per_battery(count(checks)), "count"}},
      {"obs.fold_us", {mean_per_call("obs.fold") * 1e-3, "us"}},
      {"obs.fold_share", {share("obs.fold"), "ratio"}},
      {"obs.series", {count(series), "count"}},
      {"obs.snapshot_ms", {per_battery(ms(total("obs.snapshot"))), "ms"}},
      {"runtime.epoch_ms", {median(epoch_ms), "ms"}},
      {"runtime.epoch_ms_tail", {tail.value, "ms"}},
      {"runtime.epoch_self_ms", {median(epoch_self_ms), "ms"}},
      {"runtime.admit_us", {mean_per_call("runtime.admit") * 1e-3, "us"}},
      {"runtime.depart_us", {mean_per_call("runtime.depart") * 1e-3, "us"}},
      {"runtime.admits", {per_battery(count(admits)), "count"}},
      {"runtime.departs", {per_battery(count(departs)), "count"}},
      {"wl.generate_ns", {per_access(replay.generate_ns), "ns"}},
      {"vm.translate_ns", {per_access(replay.translate_ns), "ns"}},
      {"prof.observe_ns", {per_access(replay.observe_ns), "ns"}},
      {"prof.on_epoch_us",
       {ratio(us(replay.on_epoch_ns), count(replay.on_epoch_calls)), "us"}},
      {"vm.tlb_hit_ratio", {ratio(count(hits), count(hits + misses)), "ratio"}},
      {"vm.pwc_hit_ratio",
       {ratio(count(pwc_hits), count(pwc_hits + pwc_misses)), "ratio"}},
      {"mig.pages_migrated", {per_battery(count(migrated)), "count"}},
      {"mig.pages_failed", {per_battery(count(failed_pages)), "count"}},
      {"mig.useful_ratio",
       {ratio(count(migrated), count(migrated + failed_pages)), "ratio"}},
      {"vm.shootdown.ipis", {per_battery(count(ipis)), "count"}},
      {"mig.host_ns_per_page", {median(mech_ns), "ns"}},
      {"exec.speedup", {exec_speedup, "x"}},
      {"exec.idle_frac", {exec_idle, "ratio"}},
      {"sim.fig2_err", {fig2_error(rows), "ratio"}},
      {"sim.jain", {vulcan_run(reference).jain, "ratio"}},
      {"sim.worst_slowdown",
       {worst_slowdown(traced.front(), reference), "x"}},
      {"trace.overhead_frac",
       {median(traced_wall) / median(untraced_wall) - 1.0, "ratio"}},
  };
  for (const std::string& policy : vulcan::runtime::all_policy_names()) {
    m["policy.plan_ms." + policy] = {per_battery(ms(plan_by_policy[policy])),
                                     "ms"};
  }
  return m;
}

void print_result(const Tally& tally,
                  const std::map<std::string, Metric>& metrics) {
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-24s %18.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::ostringstream json;
  json.precision(17);
  const bool correct = tally.failed == 0 && !metrics.empty();
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    json << sep << "\"" << name << "\": {\"value\": " << v
         << ", \"unit\": \"" << metric.unit << "\"}";
    sep = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload dilemma|fleet|paper [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process. With glibc's defaults a freed system
  // hands its tables back to the kernel, so every later build faults them
  // in again: repeated set-ups then spent more than half of their time in
  // the kernel's page-fault path, whose cost follows the host's other
  // tenants, not the program. Peak memory is reported on its own.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans-out") {
      o.spans_out = value;
    } else {
      return usage();
    }
    if (end && *end != '\0') return usage();
  }
  if (o.workload.empty() || !(o.seconds > 0) ||
      (o.trace != 0 && o.trace != 1)) {
    return usage();
  }

  WorkloadDef def;
  try {
    def = workload_def(o.workload, o.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return usage();
  }
  std::printf(
      "workload=%s seed=%llu seconds=%g trace=%d policies=%zu jobs=%u\n",
      def.name.c_str(), static_cast<unsigned long long>(def.seed), o.seconds,
      o.trace, def.policies.size(), def.jobs);
  std::fflush(stdout);

  Tally tally;
  const std::map<std::string, Metric> metrics =
      o.trace ? per_layer(o, def, tally) : end_to_end(o, def, tally);
  print_result(tally, metrics);
  return 0;
}
