// Ablation: QoS controller parameters — the FTHR EMA weight alpha (Eq. 2)
// and the Eq. 3 demand gain (the log^2(RSS) scaling strength).
//
// Reported: epochs until the LC workload's FTHR recovers to >= 90% of its
// steady value after a BE intruder arrives, plus steady FTHR / fairness.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

std::unique_ptr<wl::Workload> lc(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "lc";
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
  s.name = "be";
  s.rss_pages = 12'288;
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;
  s.latency_exposure = 0.3;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.05),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.05), seed);
}

struct Outcome {
  int recovery_epochs = -1;
  double steady_fthr = 0;
  double cfi = 0;
};

Outcome run(double alpha, double gain) {
  core::VulcanManager::Params params;
  params.fthr_alpha = alpha;
  params.demand_gain = gain;
  auto built = runtime::SystemBuilder{}
                   .seed(31)
                   .policy(std::make_unique<core::VulcanManager>(params))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  std::vector<runtime::StagedWorkload> stages;
  stages.push_back({0.0, lc(1)});
  stages.push_back({10.0, be(2)});

  Outcome o;
  int epoch = 0, intruder_epoch = -1;
  runtime::run_staged(sys, std::move(stages), 60.0, [&](auto& s) {
    const auto& last = s.metrics().epochs().back();
    if (last.workloads.size() == 2 && intruder_epoch < 0) {
      intruder_epoch = epoch;
    }
    if (intruder_epoch >= 0 && o.recovery_epochs < 0 &&
        epoch > intruder_epoch + 4 && last.workloads[0].fthr >= 0.85) {
      o.recovery_epochs = epoch - intruder_epoch;
    }
    ++epoch;
  });
  o.steady_fthr = sys.metrics().mean_fthr(0, epoch * 3 / 4);
  o.cfi = sys.fairness_cfi();
  return o;
}

}  // namespace

int main() {
  bench::header("Ablation — QoS parameters (Eq. 2 alpha, Eq. 3 gain)",
                "DESIGN.md §4 (supports paper §3.3)");
  bench::CsvSink csv("ablate_qos_params",
                     "alpha,gain,recovery_epochs,steady_fthr,cfi");

  std::printf("alpha sweep (gain = 1):\n");
  std::printf("%8s %18s %14s %8s\n", "alpha", "recovery epochs",
              "steady FTHR", "CFI");
  for (double alpha : {0.2, 0.5, 0.8, 1.0}) {
    const Outcome o = run(alpha, 1.0);
    std::printf("%8.1f %18d %14.3f %8.3f\n", alpha, o.recovery_epochs,
                o.steady_fthr, o.cfi);
    csv.row("%.2f,1.0,%d,%.4f,%.4f", alpha, o.recovery_epochs, o.steady_fthr,
            o.cfi);
  }

  std::printf("\ndemand-gain sweep (alpha = 0.8; 0.1 ~ removing the log^2\n"
              "scaling, 1.0 = Eq. 3 as published):\n");
  std::printf("%8s %18s %14s %8s\n", "gain", "recovery epochs",
              "steady FTHR", "CFI");
  for (double gain : {0.1, 0.5, 1.0, 3.0}) {
    const Outcome o = run(0.8, gain);
    std::printf("%8.1f %18d %14.3f %8.3f\n", gain, o.recovery_epochs,
                o.steady_fthr, o.cfi);
    csv.row("0.8,%.2f,%d,%.4f,%.4f", gain, o.recovery_epochs, o.steady_fthr,
            o.cfi);
  }

  std::printf(
      "\nreading: recovery speed improves mildly with alpha (stale FTHR\n"
      "delays the demand response); steady-state FTHR and fairness are\n"
      "robust across the sweep because the working-set-knee demand floor\n"
      "dominates once the system converges — the controller parameters\n"
      "matter for transients, not equilibria.\n");
  return 0;
}
