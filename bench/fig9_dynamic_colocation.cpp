// Figure 9: dynamic memory allocation and tiering QoS for the co-located
// real-application timeline — Memcached from t=0, PageRank from t=50 s,
// Liblinear from t=110 s, all managed by Vulcan.
//
//   (a) hot/cold pages in fast/slow tiers per workload over time
//   (b) fast-tier hit ratio (FTHR) per workload over time
//   (c) guaranteed performance target (GPT) adapting as co-location and
//       active RSS change
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

int main(int argc, char** argv) {
  bench::header("Fig. 9 — dynamic co-location under Vulcan",
                "paper §5.3 (Fig. 9a-c), Table 2 workloads");
  const double end_s = argc > 1 ? std::atof(argv[1]) : 160.0;

  bench::CsvSink csv("fig9_dynamic_colocation",
                     "time_s,workload,name,fast_pages,slow_pages,hot_pages,"
                     "fthr,gpt,quota,demand,credits,lc");

  auto policy = runtime::make_policy("vulcan");
  auto* vulcan_mgr = static_cast<core::VulcanManager*>(policy.get());
  auto built =
      runtime::SystemBuilder{}.seed(3).policy(std::move(policy)).build();
  runtime::TieredSystem& sys = *built.value();

  double next_print = 0.0;
  const auto observe = [&](runtime::TieredSystem& s) {
    const auto& qos = vulcan_mgr->qos();
    const bool print = s.now_seconds() >= next_print;
    if (print) {
      std::printf("t=%5.1fs |", s.now_seconds());
      next_print += 10.0;
    }
    for (unsigned w = 0; w < s.workload_count(); ++w) {
      const auto& m = s.metrics().epochs().back().workloads[w];
      const auto& q = w < qos.size() ? qos[w] : core::VulcanManager::WorkloadQos{};
      const auto hot = s.tracker(w).count_at_least(0.5);
      csv.row("%.2f,%u,%s,%llu,%llu,%llu,%.4f,%.4f,%llu,%llu,%.2f,%d",
              s.now_seconds(), w, s.workload(w).spec().name.c_str(),
              (unsigned long long)m.fast_pages,
              (unsigned long long)m.slow_pages, (unsigned long long)hot,
              m.fthr, q.gpt, (unsigned long long)q.quota,
              (unsigned long long)q.demand, q.credits,
              q.latency_critical ? 1 : 0);
      if (print) {
        std::printf(" %s: fast=%llu fthr=%.2f gpt=%.2f quota=%llu %s |",
                    s.workload(w).spec().name.c_str(),
                    (unsigned long long)m.fast_pages, m.fthr, q.gpt,
                    (unsigned long long)q.quota,
                    q.latency_critical ? "LC" : "BE");
      }
    }
    if (print) std::printf("\n");
  };

  std::printf("timeline: memcached @0s, pagerank @50s, liblinear @110s\n\n");
  runtime::run_staged(sys, runtime::paper_colocation(1), end_s, observe);

  std::printf("\nfinal fairness (FTHR-weighted CFI): %.3f\n",
              sys.fairness_cfi());
  std::printf(
      "paper shape: each arrival shrinks GFMC (and thus GPT); Vulcan\n"
      "rebalances allocations within a few epochs while the LC service's\n"
      "FTHR stays protected; full series in fig9_dynamic_colocation.csv.\n");
  return 0;
}
