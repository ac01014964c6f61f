// Co-location fairness walkthrough: reproduce the cold page dilemma live,
// then fix it by swapping the policy — same workloads, same seed.
//
//   $ ./colocation_fairness [policy ...]     (default: memtis vulcan)
//
// The latency-critical service starts alone, a best-effort scanner joins
// at t = 10 s, and the program prints the LC service's fast-tier hit ratio
// before/after the intruder under each policy.
#include <cstdio>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

std::unique_ptr<wl::Workload> lc_service(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "lc-service";
  s.service_class = wl::ServiceClass::kLatencyCritical;
  s.rss_pages = 8192;
  s.wss_pages = 8192;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 2e5;
  s.compute_cycles_per_access = 50;
  s.latency_exposure = 1.0;  // dependent lookups: latency fully exposed
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::HotsetPattern>(s.rss_pages, 0.10, 0.90, 0.10),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.10), seed);
}

std::unique_ptr<wl::Workload> be_scanner(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "be-scanner";
  s.service_class = wl::ServiceClass::kBestEffort;
  s.rss_pages = 12'288;
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;  // 30x the LC intensity
  s.compute_cycles_per_access = 60;
  s.latency_exposure = 0.3;  // prefetched streaming
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.05),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.05), seed);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> policies;
  for (int i = 1; i < argc; ++i) policies.emplace_back(argv[i]);
  if (policies.empty()) policies = {"memtis", "vulcan"};

  std::printf("%-8s | %-22s | %-22s | %8s\n", "policy",
              "LC alone (FTHR/perf)", "LC co-located (FTHR/perf)", "CFI");
  std::printf("---------+------------------------+------------------------+---------\n");

  for (const auto& name : policies) {
    auto built = runtime::SystemBuilder{}
                     .seed(42)
                     .policy(runtime::make_policy(name))
                     .build();
    runtime::TieredSystem& sys = *built.value();

    std::vector<runtime::StagedWorkload> stages;
    stages.push_back({0.0, lc_service(1)});
    stages.push_back({10.0, be_scanner(2)});
    runtime::run_staged(sys, std::move(stages), /*end_s=*/30.0);

    const auto& m = sys.metrics();
    // Epochs are 250 ms: [0,10s) = epochs 0..39 solo, steady co-located
    // tail = epochs 80+.
    const double solo_fthr = m.mean(0, [](const auto& w) { return w.fthr; },
                                    20, 40);
    const double solo_perf =
        m.mean(0, [](const auto& w) { return w.performance; }, 20, 40);
    const double co_fthr =
        m.mean(0, [](const auto& w) { return w.fthr; }, 80);
    const double co_perf =
        m.mean(0, [](const auto& w) { return w.performance; }, 80);

    std::printf("%-8s |      %5.2f / %5.2f      |      %5.2f / %5.2f      | %7.3f\n",
                name.c_str(), solo_fthr, solo_perf, co_fthr, co_perf,
                sys.fairness_cfi());
  }
  std::printf(
      "\nReading: under hotness-only policies the scanner's sustained heat\n"
      "evicts the service's hot set (the cold page dilemma, paper Fig. 1);\n"
      "Vulcan's CBFRP quota keeps the LC hit ratio near its solo level.\n");
  return 0;
}
