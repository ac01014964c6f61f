// Figure 1: hot and cold pages identified by Memtis over time for
// Memcached (LC) and Liblinear (BE), solo vs co-located, plus the impact
// of co-location on the hot-page ratio and normalised performance.
//
// Paper anchors: co-location drops Memcached's average hot-page ratio from
// ~75% to <28% and its normalised performance to ~0.8x, while Liblinear is
// barely affected — the cold page dilemma.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

struct HotStats {
  std::uint64_t hot_fast = 0;   // classified hot AND resident fast
  std::uint64_t hot_slow = 0;   // classified hot but resident slow
  std::uint64_t cold_fast = 0;
  std::uint64_t cold_slow = 0;

  double hot_total() const { return double(hot_fast + hot_slow); }
  /// Share of the pages Memtis itself considers hot that actually sit in
  /// fast memory — the "hot page ratio" of Fig. 1(d).
  double hot_ratio() const {
    const double h = hot_total();
    return h > 0 ? double(hot_fast) / h : 0.0;
  }
};

HotStats classify(runtime::TieredSystem& sys, unsigned w, double threshold) {
  HotStats st;
  auto& as = sys.address_space(w);
  auto& tracker = sys.tracker(w);
  for (std::uint64_t p = 0; p < as.rss_pages(); ++p) {
    const auto pte = as.tables().get(as.vpn_at(p));
    if (!pte.present()) continue;
    const bool hot = tracker.heat(p) >= threshold && tracker.heat(p) > 0;
    const bool fast = mem::tier_of(pte.pfn()) == mem::kFastTier;
    if (hot && fast) ++st.hot_fast;
    else if (hot) ++st.hot_slow;
    else if (fast) ++st.cold_fast;
    else ++st.cold_slow;
  }
  return st;
}

struct RunResult {
  double hot_ratio = 0;     // time-averaged over the steady window
  double performance = 0;
  double fthr = 0;
};

// Runs `apps` under Memtis for `epochs`, sampling hot/cold classification.
std::vector<RunResult> run_scenario(
    const char* tag, std::vector<std::unique_ptr<wl::Workload>> apps,
    unsigned epochs, bench::CsvSink& csv) {
  auto policy = runtime::make_policy("memtis");
  auto* memtis = static_cast<policy::MemtisPolicy*>(policy.get());
  auto built =
      runtime::SystemBuilder{}.seed(42).policy(std::move(policy)).build();
  runtime::TieredSystem& sys = *built.value();
  std::vector<unsigned> ids;
  for (auto& app : apps) ids.push_back(sys.add_workload(std::move(app)));

  const unsigned steady_from = epochs / 2;
  std::vector<sim::RunningStat> ratio(ids.size());
  for (unsigned e = 0; e < epochs; ++e) {
    sys.run_epochs(1);
    const double thr = memtis->last_threshold();
    for (unsigned w : ids) {
      const HotStats st = classify(sys, w, thr);
      csv.row("%s,%u,%.2f,%llu,%llu,%llu,%llu,%.4f", tag, w,
              sys.now_seconds(), (unsigned long long)st.hot_fast,
              (unsigned long long)st.hot_slow,
              (unsigned long long)st.cold_fast,
              (unsigned long long)st.cold_slow, st.hot_ratio());
      if (e >= steady_from && st.hot_total() > 0) {
        ratio[w].add(st.hot_ratio());
      }
    }
  }

  std::vector<RunResult> out;
  for (unsigned w : ids) {
    RunResult r;
    r.hot_ratio = ratio[w].mean();
    r.performance = sys.metrics().mean_performance(w, steady_from);
    r.fthr = sys.metrics().mean_fthr(w, steady_from);
    out.push_back(r);
    std::printf("  %-24s hot-ratio %5.2f  FTHR %5.2f  perf %5.2f\n",
                sys.workload(w).spec().name.c_str(), r.hot_ratio, r.fthr,
                r.performance);
  }
  return out;
}

}  // namespace

int main() {
  bench::header("Fig. 1 — the cold page dilemma under Memtis",
                "paper §2.2 Observation #1 (Fig. 1a-d)");
  bench::CsvSink csv("fig1_cold_page_dilemma",
                     "scenario,workload,time_s,hot_fast,hot_slow,cold_fast,"
                     "cold_slow,hot_ratio");
  constexpr unsigned kEpochs = 280;  // 70 simulated seconds

  std::printf("(a) Memcached solo:\n");
  std::vector<std::unique_ptr<wl::Workload>> a;
  a.push_back(wl::make_memcached(1));
  const auto solo_mc = run_scenario("memcached-solo", std::move(a), kEpochs,
                                    csv);

  std::printf("(b) Liblinear solo:\n");
  std::vector<std::unique_ptr<wl::Workload>> b;
  b.push_back(wl::make_liblinear(2));
  const auto solo_ll = run_scenario("liblinear-solo", std::move(b), kEpochs,
                                    csv);

  std::printf("(c) co-located:\n");
  std::vector<std::unique_ptr<wl::Workload>> c;
  c.push_back(wl::make_memcached(1));
  c.push_back(wl::make_liblinear(2));
  const auto colo = run_scenario("co-located", std::move(c), kEpochs, csv);

  std::printf("\n(d) impact of co-location:\n");
  std::printf("%-12s %18s %18s %18s\n", "workload", "hot-ratio solo",
              "hot-ratio co-loc", "norm. perf");
  std::printf("%-12s %17.2f%% %17.2f%% %18.2f\n", "memcached",
              100 * solo_mc[0].hot_ratio, 100 * colo[0].hot_ratio,
              colo[0].performance / solo_mc[0].performance);
  std::printf("%-12s %17.2f%% %17.2f%% %18.2f\n", "liblinear",
              100 * solo_ll[0].hot_ratio, 100 * colo[1].hot_ratio,
              colo[1].performance / solo_ll[0].performance);

  std::printf(
      "\npaper anchors: memcached hot ratio ~75%% solo -> <28%% co-located,\n"
      "normalised performance -> ~0.8x; liblinear barely affected.\n");
  return 0;
}
