// Profiler comparison under the full system: the same workload and policy
// (Vulcan) observed through each of the six profiling mechanisms.
//
// §2.1's conclusion — "none provide a universal solution" — in data: each
// mechanism trades identification quality (FTHR convergence) against where
// its overhead lands (application stalls vs daemon cycles).
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

int main(int argc, char** argv) {
  bench::header("Profiler comparison — same workload, six mechanisms",
                "paper §2.1 profiling-mechanism trade-offs");
  const unsigned epochs = argc > 1 ? std::atoi(argv[1]) : 120;
  bench::CsvSink csv("profiler_comparison",
                     "profiler,fthr_early,fthr_steady,perf,epochs_to_half,migrated");

  constexpr std::pair<runtime::ProfilerKind, const char*> kKinds[] = {
      {runtime::ProfilerKind::kPebs, "pebs"},
      {runtime::ProfilerKind::kPtScan, "pt-scan"},
      {runtime::ProfilerKind::kHintFault, "hint-fault"},
      {runtime::ProfilerKind::kHybrid, "hybrid"},
      {runtime::ProfilerKind::kTelescope, "telescope"},
      {runtime::ProfilerKind::kChrono, "chrono"},
  };

  std::printf("%-12s %12s %13s %8s %16s %10s\n", "profiler", "FTHR@25%",
              "FTHR steady", "perf", "epochs to 0.5", "migrated");
  for (const auto& [kind, name] : kKinds) {
    auto built = runtime::SystemBuilder{}
                     .seed(21)
                     .profiler(kind)
                     .policy(runtime::make_policy("vulcan"))
                     .build();
    runtime::TieredSystem& sys = *built.value();
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 24'576;
    p.wss_pages = 16'384;  // exceeds the fast tier: ranking quality matters
    p.write_ratio = 0.15;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
    sys.prefault(0, 0, 1);  // everything slow: profiling drives promotion
    sys.run_epochs(epochs);

    const auto& m = sys.metrics();
    int to_half = -1;
    double migrated = 0;
    for (std::size_t e = 0; e < m.epochs().size(); ++e) {
      if (to_half < 0 && m.epochs()[e].workloads[0].fthr >= 0.5) {
        to_half = static_cast<int>(e);
      }
      migrated += double(m.epochs()[e].workloads[0].migrated);
    }
    const double early =
        m.mean(0, [](const auto& w) { return w.fthr; }, epochs / 8,
               epochs / 4);
    const double steady = m.mean_fthr(0, epochs * 3 / 4);
    const double perf = m.mean_performance(0, epochs * 3 / 4);
    std::printf("%-12s %12.3f %13.3f %8.3f %16d %10.0f\n", name, early,
                steady, perf, to_half, migrated);
    csv.row("%s,%.4f,%.4f,%.4f,%d,%.0f", name, early, steady, perf, to_half,
            migrated);
  }

  std::printf(
      "\nreading: counters (pebs) converge fastest but can miss cold-ish\n"
      "pages; scans (pt-scan/telescope/chrono) see everything at daemon\n"
      "cost with coarser frequency; hint faults charge the application;\n"
      "the hybrid default balances the two — no mechanism wins every\n"
      "column, which is why Vulcan decouples profiling choice (§3.2).\n");
  return 0;
}
