// Ablation: Vulcan's mechanism-level optimisations — per-thread page-table
// replication (targeted shootdowns), optimised migration preparation,
// biased priority queues, and shadow demotions — toggled independently.
//
// Reported per variant: application performance, migration cycles spent
// (stall + daemon), IPIs issued, and shadow-remap savings.
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

struct Variant {
  const char* name;
  core::VulcanManager::Params params;
};

std::vector<Variant> variants() {
  std::vector<Variant> v;
  v.push_back({"full", {}});
  {
    core::VulcanManager::Params p;
    p.enable_replication = false;
    v.push_back({"-replication", p});
  }
  {
    core::VulcanManager::Params p;
    p.enable_opt_prep = false;
    v.push_back({"-opt-prep", p});
  }
  {
    core::VulcanManager::Params p;
    p.enable_biased_queues = false;
    v.push_back({"-biased-queues", p});
  }
  {
    core::VulcanManager::Params p;
    p.enable_shadowing = false;
    v.push_back({"-shadowing", p});
  }
  {
    core::VulcanManager::Params p;
    p.enable_replication = false;
    p.enable_opt_prep = false;
    p.enable_biased_queues = false;
    p.enable_shadowing = false;
    v.push_back({"none", p});
  }
  v.push_back({"+dma", [] {        // full Vulcan + HeMem-style DMA copies
    core::VulcanManager::Params p;
    p.enable_dma_copy = true;
    return p;
  }()});
  v.push_back({"+adaptive", [] {   // full + §3.6 adaptive replication
    core::VulcanManager::Params p;
    p.enable_adaptive_replication = true;
    return p;
  }()});
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Ablation — mechanism optimisations toggled independently",
                "DESIGN.md §4 (supports paper §3.2/§3.4/§3.5)");
  const unsigned epochs = argc > 1 ? std::atoi(argv[1]) : 240;
  bench::CsvSink csv("ablate_mechanisms",
                     "variant,perf,mig_gcycles,ipis,shadow_remaps,failed");

  std::printf("%-16s %8s %14s %12s %14s %8s\n", "variant", "perf",
              "mig Gcycles", "IPIs", "shadow-remaps", "failed");
  for (const auto& variant : variants()) {
    auto built =
        runtime::SystemBuilder{}
            .seed(23)
            .policy(std::make_unique<core::VulcanManager>(variant.params))
            .build();
    runtime::TieredSystem& sys = *built.value();
    // Write-heavy microbench over a WSS exceeding the fast tier: migration
    // machinery stays busy, so mechanism costs are visible.
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 20'480;
    p.wss_pages = 12'288;
    p.write_ratio = 0.30;
    p.access_rate_per_thread = 3e6;
    p.drift_pages_per_sec = 400;  // hot spot migrates: promote/demote churn
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
    sys.prefault(0);
    sys.run_epochs(epochs);

    double mig_cycles = 0, failed = 0, shadow = 0;
    for (const auto& e : sys.metrics().epochs()) {
      mig_cycles += double(e.workloads[0].stall_cycles) +
                    double(e.workloads[0].daemon_cycles);
      failed += double(e.workloads[0].failed_migrations);
      shadow += double(e.workloads[0].shadow_remaps);
    }
    const double perf =
        sys.metrics().mean_performance(0, epochs / 2);
    const auto ipis = sys.shootdowns().stats().ipis;
    std::printf("%-16s %8.3f %14.2f %12llu %14.0f %8.0f\n", variant.name,
                perf, mig_cycles / 1e9, (unsigned long long)ipis, shadow,
                failed);
    csv.row("%s,%.4f,%.4f,%llu,%.0f,%.0f", variant.name, perf,
            mig_cycles / 1e9, (unsigned long long)ipis, shadow, failed);
  }

  std::printf(
      "\nexpected: disabling replication multiplies IPIs; disabling the\n"
      "optimised prep multiplies migration cycles; disabling shadowing\n"
      "turns remap-demotions back into full copies; disabling the biased\n"
      "queues raises async failures on write-hot pages.\n");
  return 0;
}
