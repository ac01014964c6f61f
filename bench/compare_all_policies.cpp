// Extended comparison: all five implemented policies (TPP, Memtis, Nomad,
// MTM, Vulcan) on the cold-page-dilemma scenario. MTM is not part of the
// paper's Fig. 10 line-up but is the direct ancestor of Vulcan's biased
// migration (§3.5) — this table isolates what the ownership dimension and
// fairness partitioning add on top of MTM's write-intensity-aware copies.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

std::unique_ptr<wl::Workload> lc(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "lc-service";
  s.service_class = wl::ServiceClass::kLatencyCritical;
  s.rss_pages = 8192;
  s.wss_pages = 8192;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 2e5;
  s.latency_exposure = 1.0;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::HotsetPattern>(s.rss_pages, 0.10, 0.90, 0.10),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.10), seed);
}

std::unique_ptr<wl::Workload> be(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "be-scanner";
  s.rss_pages = 12'288;
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;
  s.latency_exposure = 0.3;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.08),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.08), seed);
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Extended comparison — all five policies on the dilemma",
                "beyond-paper extension (MTM added to the Fig. 10 line-up)");
  const double end_s = argc > 1 ? std::atof(argv[1]) : 60.0;
  bench::CsvSink csv("compare_all_policies",
                     "policy,lc_perf,lc_fthr,be_perf,be_fthr,cfi,ipis");

  std::printf("%-8s %20s %20s %8s %12s\n", "policy", "LC perf/FTHR",
              "BE perf/FTHR", "CFI", "IPIs");
  for (const char* policy : {"tpp", "memtis", "nomad", "mtm", "vulcan"}) {
    auto built = runtime::SystemBuilder{}
                     .seed(77)
                     .policy(runtime::make_policy(policy))
                     .build();
    runtime::TieredSystem& sys = *built.value();
    std::vector<runtime::StagedWorkload> stages;
    stages.push_back({0.0, lc(1)});
    stages.push_back({10.0, be(2)});
    runtime::run_staged(sys, std::move(stages), end_s);

    const auto& m = sys.metrics();
    const std::size_t from = m.epochs().size() / 2;
    const double lp = m.mean_performance(0, from);
    const double lf = m.mean_fthr(0, from);
    const double bp = m.mean_performance(1, from);
    const double bf = m.mean_fthr(1, from);
    const auto ipis = sys.shootdowns().stats().ipis;
    std::printf("%-8s %10.3f / %-7.3f %10.3f / %-7.3f %8.3f %12llu\n",
                policy, lp, lf, bp, bf, sys.fairness_cfi(),
                (unsigned long long)ipis);
    csv.row("%s,%.4f,%.4f,%.4f,%.4f,%.4f,%llu", policy, lp, lf, bp, bf,
            sys.fairness_cfi(), (unsigned long long)ipis);
  }

  std::printf(
      "\nreading: MTM improves on Memtis's copy efficiency but inherits its\n"
      "global-hotness unfairness; Vulcan adds ownership-aware shootdowns\n"
      "and CBFRP partitioning on top, keeping the LC service served.\n");
  return 0;
}
