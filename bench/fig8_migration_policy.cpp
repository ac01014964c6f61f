// Figure 8: migration performance of TPP / Memtis / Nomad / Vulcan across
// working-set sizes and migration phases.
//
// Methodology follows the paper (borrowed from Nomad's microbenchmarks):
// data is placed across the tiers, Zipfian accesses are generated over the
// WSS, and achieved read/write bandwidth is measured both while migration
// is in progress (early epochs) and after placement stabilises.
//
// Paper shape: Vulcan delivers the highest bandwidth, most visibly in the
// stable phase; synchronous promoters (TPP) lose bandwidth to stalls while
// migration is in flight.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

struct Scenario {
  const char* name;
  std::uint64_t wss_pages;
  std::uint64_t rss_pages;
};

// Fast tier is 8192 pages: small fits easily, medium is commensurate,
// large exceeds it (forcing steady-state slow-tier traffic).
constexpr Scenario kScenarios[] = {
    {"small", 2048, 8192},
    {"medium", 8192, 16'384},
    {"large", 16'384, 24'576},
};

constexpr double kWriteRatio = 0.2;
constexpr unsigned kEpochs = 60;

struct Phase {
  double read_gbps = 0;
  double write_gbps = 0;
};

Phase measure(const runtime::TieredSystem& sys, const wl::Workload& w,
              unsigned from, unsigned to) {
  // Achieved op rate: threads run back-to-back accesses at the measured
  // per-access cost (ideal cost scaled by the performance ratio).
  const auto& m = sys.metrics();
  const double perf =
      m.mean(0, [](const auto& x) { return x.performance; }, from, to);
  const double ideal = w.ideal_cycles_per_access(70.0);
  const double ops_per_sec = perf > 0
      ? w.spec().threads * 3e9 * perf / ideal
      : 0.0;
  const double bytes = ops_per_sec * 64.0;  // one cache line per access
  return {bytes * (1 - kWriteRatio) / 1e9, bytes * kWriteRatio / 1e9};
}

}  // namespace

int main() {
  bench::header(
      "Fig. 8 — migration performance across WSS and migration phases",
      "paper §5.2 'Migration Policy' (Fig. 8)");
  bench::CsvSink csv("fig8_migration_policy",
                     "wss,policy,phase,read_gbps,write_gbps");

  for (const auto& sc : kScenarios) {
    std::printf("working set: %s (WSS %llu pages, RSS %llu pages)\n",
                sc.name, (unsigned long long)sc.wss_pages,
                (unsigned long long)sc.rss_pages);
    std::printf("  %-8s | in-progress R/W GB/s | stable R/W GB/s\n", "policy");
    for (const char* policy : {"tpp", "memtis", "nomad", "vulcan"}) {
      auto built = runtime::SystemBuilder{}
                       .seed(9)
                       .policy(runtime::make_policy(policy))
                       .build();
      runtime::TieredSystem& sys = *built.value();
      wl::MicrobenchWorkload::Params p;
      p.rss_pages = sc.rss_pages;
      p.wss_pages = sc.wss_pages;
      p.write_ratio = kWriteRatio;
      p.access_rate_per_thread = 3e6;
      sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
      // Nomad-style setup: place the data across both tiers up front so
      // the policy must migrate the working set into place.
      sys.prefault(0, /*fast_stride=*/1, /*slow_stride=*/1);
      sys.run_epochs(kEpochs);

      const auto& w = sys.workload(0);
      const Phase in_progress = measure(sys, w, 2, 14);
      const Phase stable = measure(sys, w, kEpochs * 2 / 3, kEpochs);
      std::printf("  %-8s |    %6.2f / %-6.2f    |  %6.2f / %-6.2f\n",
                  policy, in_progress.read_gbps, in_progress.write_gbps,
                  stable.read_gbps, stable.write_gbps);
      csv.row("%s,%s,in_progress,%.3f,%.3f", sc.name, policy,
              in_progress.read_gbps, in_progress.write_gbps);
      csv.row("%s,%s,stable,%.3f,%.3f", sc.name, policy, stable.read_gbps,
              stable.write_gbps);
    }
    std::printf("\n");
  }

  std::printf(
      "paper shape: Vulcan highest in both phases (clearest when stable);\n"
      "sync promoters stall during migration-in-progress; gaps shrink for\n"
      "small working sets that fit the fast tier outright.\n");
  return 0;
}
