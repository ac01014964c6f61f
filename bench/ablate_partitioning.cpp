// Ablation: Vulcan's credit-based fair partitioning (CBFRP) vs a uniform
// static split vs no partitioning at all (global hotness via Memtis).
//
// DESIGN.md question: how much of Vulcan's fairness/performance comes from
// *adaptive* partitioning rather than from partitioning per se?
#include <vulcan/vulcan.hpp>

#include "bench_util.hpp"

using namespace vulcan;

namespace {

std::unique_ptr<policy::SystemPolicy> make_variant(const char* name) {
  if (std::string_view(name) == "no-partition") {
    return runtime::make_policy("memtis");
  }
  core::VulcanManager::Params p;
  if (std::string_view(name) == "uniform") p.enable_cbfrp = false;
  return std::make_unique<core::VulcanManager>(p);
}

}  // namespace

int main(int argc, char** argv) {
  bench::header("Ablation — CBFRP vs uniform vs no partitioning",
                "DESIGN.md §4 (supports paper §3.3)");
  const double end_s = argc > 1 ? std::atof(argv[1]) : 120.0;
  bench::CsvSink csv("ablate_partitioning",
                     "variant,app,perf,fthr,cfi");

  std::printf("%-14s %22s %22s %8s\n", "variant",
              "memcached perf/FTHR", "liblinear perf/FTHR", "CFI");
  for (const char* variant : {"cbfrp", "uniform", "no-partition"}) {
    auto built =
        runtime::SystemBuilder{}.seed(17).policy(make_variant(variant)).build();
    runtime::TieredSystem& sys = *built.value();
    std::vector<runtime::StagedWorkload> stages;
    stages.push_back({0.0, wl::make_memcached(1)});
    stages.push_back({10.0, wl::make_liblinear(2)});
    runtime::run_staged(sys, std::move(stages), end_s);

    const auto& m = sys.metrics();
    const std::size_t from = m.epochs().size() / 2;
    const double p0 = m.mean_performance(0, from);
    const double f0 = m.mean_fthr(0, from);
    const double p1 = m.mean_performance(1, from);
    const double f1 = m.mean_fthr(1, from);
    std::printf("%-14s %10.3f / %-9.3f %10.3f / %-9.3f %8.3f\n", variant,
                p0, f0, p1, f1, sys.fairness_cfi());
    csv.row("%s,memcached,%.4f,%.4f,%.4f", variant, p0, f0,
            sys.fairness_cfi());
    csv.row("%s,liblinear,%.4f,%.4f,%.4f", variant, p1, f1,
            sys.fairness_cfi());
  }

  std::printf(
      "\nexpected: uniform protects the LC service but strands capacity the\n"
      "scanner could use; no-partition serves the scanner and starves the\n"
      "service; CBFRP protects the hot set AND lends the surplus out.\n");
  return 0;
}
