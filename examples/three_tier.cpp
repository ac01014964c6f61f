// Three-tier topology: HBM + DRAM + CXL managed by the cascade policy.
//
//   $ ./three_tier
//
// The paper's testbed is two-tier, but the substrate is N-tier: this
// example builds a 4 GB HBM / 16 GB DRAM / 128 GB CXL machine
// (capacity-scaled), runs a skewed workload bigger than HBM+DRAM, and
// shows the heat waterfall settling: scorching pages in HBM, warm in DRAM,
// cold in CXL.
#include <cstdio>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

int main() {
  auto built =
      runtime::SystemBuilder{}
          .seed(4)
          .tiers({
              {"hbm", sim::bytes_to_pages(sim::scaled_gib(4)), 40, 400.0},
              {"dram", sim::bytes_to_pages(sim::scaled_gib(16)), 80, 205.0},
              {"cxl", sim::bytes_to_pages(sim::scaled_gib(128)), 180, 25.0},
          })
          .policy(runtime::make_policy("cascade"))
          .build();
  runtime::TieredSystem& sys = *built.value();

  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 8192;   // 32 GB-equivalent: bigger than HBM + DRAM
  p.wss_pages = 8192;
  p.zipf_theta = 0.99;  // strong skew: a clear hot/warm/cold gradient
  p.write_ratio = 0.1;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  sys.prefault(0, 0, 1);  // everything starts in the slowest tier

  std::printf("tier capacities: hbm=%llu dram=%llu cxl=%llu pages\n\n",
              (unsigned long long)sys.topology().capacity_pages(0),
              (unsigned long long)sys.topology().capacity_pages(1),
              (unsigned long long)sys.topology().capacity_pages(2));

  std::printf("%6s | %8s %8s %8s | %8s %8s\n", "epoch", "hbm", "dram",
              "cxl", "FTHR", "perf");
  for (int round = 0; round < 8; ++round) {
    sys.run_epochs(10);
    const auto& as = sys.address_space(0);
    const auto& m = sys.metrics().epochs().back().workloads[0];
    std::printf("%6d | %8llu %8llu %8llu | %8.3f %8.3f\n", (round + 1) * 10,
                (unsigned long long)as.pages_in_tier(0),
                (unsigned long long)as.pages_in_tier(1),
                (unsigned long long)as.pages_in_tier(2), m.fthr,
                m.performance);
  }

  // Verify the waterfall: mean heat must be monotone down the tiers.
  const auto& as = sys.address_space(0);
  const auto& tracker = sys.tracker(0);
  double heat_sum[3] = {0, 0, 0};
  std::uint64_t count[3] = {0, 0, 0};
  for (std::uint64_t page = 0; page < as.rss_pages(); ++page) {
    const auto pte = as.tables().get(as.vpn_at(page));
    if (!pte.present()) continue;
    const auto tier = mem::tier_of(pte.pfn());
    heat_sum[tier] += tracker.heat(page);
    ++count[tier];
  }
  std::printf("\nmean page heat per tier: ");
  for (int t = 0; t < 3; ++t) {
    std::printf("%s=%.0f ", sys.topology().config(t).name.c_str(),
                count[t] ? heat_sum[t] / count[t] : 0.0);
  }
  std::printf("\n(the waterfall holds when hbm > dram > cxl)\n");
  return 0;
}
