// google-benchmark microbenchmarks of the library's hot data structures:
// radix page-table walks, TLB lookups, replicated-table access recording,
// Zipfian generation, heat-tracker operations and CBFRP partitioning.
//
// These are wall-clock benchmarks of the *implementation* (not simulated
// cycles) — they bound the simulator's own throughput.
#include <benchmark/benchmark.h>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

namespace {

void BM_PageTableWalk(benchmark::State& state) {
  vm::PageTable pt;
  const std::uint64_t pages = state.range(0);
  for (std::uint64_t p = 0; p < pages; ++p) {
    pt.set(0x5599'0000'0000ULL / 4096 + p, vm::Pte::make(p, true, 0));
  }
  sim::Rng rng(1);
  for (auto _ : state) {
    const vm::Vpn vpn = 0x5599'0000'0000ULL / 4096 + rng.below(pages);
    benchmark::DoNotOptimize(pt.get(vpn));
  }
}
BENCHMARK(BM_PageTableWalk)->Arg(1024)->Arg(65'536);

void BM_PageTableSet(benchmark::State& state) {
  vm::PageTable pt;
  sim::Rng rng(2);
  std::uint64_t p = 0;
  for (auto _ : state) {
    pt.set(p & 0xFFFFF, vm::Pte::make(p, true, 0));
    ++p;
  }
}
BENCHMARK(BM_PageTableSet);

void BM_TlbLookup(benchmark::State& state) {
  vm::Tlb tlb;
  for (vm::Vpn v = 0; v < 1024; ++v) tlb.insert(1, v);
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tlb.lookup(1, rng.below(2048)));
  }
}
BENCHMARK(BM_TlbLookup);

void BM_ReplicatedRecordAccess(benchmark::State& state) {
  vm::ReplicatedPageTable rpt;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  for (unsigned t = 0; t < threads; ++t) rpt.add_thread();
  for (vm::Vpn v = 0; v < 4096; ++v) rpt.map(v, vm::Pte::make(v, true, 0));
  sim::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpt.record_access(
        rng.below(4096), static_cast<vm::ThreadId>(rng.below(threads)),
        rng.chance(0.2)));
  }
}
BENCHMARK(BM_ReplicatedRecordAccess)->Arg(1)->Arg(8);

void BM_ZipfianNext(benchmark::State& state) {
  wl::ZipfianGenerator zipf(static_cast<std::uint64_t>(state.range(0)), 0.99);
  sim::Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.next(rng));
  }
}
BENCHMARK(BM_ZipfianNext)->Arg(1024)->Arg(1'048'576);

void BM_HeatRecordDecay(benchmark::State& state) {
  prof::HeatTracker tracker(65'536, 0.85);
  sim::Rng rng(6);
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracker.record(rng.below(65'536), rng.chance(0.2), 100.0);
    if (++i % 65'536 == 0) tracker.decay_epoch();
  }
}
BENCHMARK(BM_HeatRecordDecay);

void BM_HeatHotThreshold(benchmark::State& state) {
  prof::HeatTracker tracker(static_cast<std::uint64_t>(state.range(0)));
  sim::Rng rng(7);
  for (std::uint64_t p = 0; p < tracker.pages(); ++p) {
    tracker.record(p, false, rng.uniform() * 1000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tracker.hot_threshold_for(tracker.pages() / 4));
  }
}
BENCHMARK(BM_HeatHotThreshold)->Arg(8192)->Arg(65'536);

void BM_CbfrpPartition(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<core::CbfrpWorkload> w(n);
  sim::Rng rng(8);
  for (auto& x : w) {
    x.latency_critical = rng.chance(0.3);
    x.demand = rng.below(8192);
  }
  core::Cbfrp cbfrp;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbfrp.partition(w, 8192, rng));
  }
}
BENCHMARK(BM_CbfrpPartition)->Arg(3)->Arg(16);

void BM_SimulationEpoch(benchmark::State& state) {
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(10'000)
                   .policy(runtime::make_policy("vulcan"))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 16'384;
  p.wss_pages = 8192;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  for (auto _ : state) {
    sys.run_epochs(1);
  }
}
BENCHMARK(BM_SimulationEpoch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
