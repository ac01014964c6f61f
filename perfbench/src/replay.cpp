#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "mem/topology.hpp"
#include "prof/hybrid.hpp"
#include "runtime/experiment.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/rng.hpp"
#include "vm/mmu.hpp"

namespace perfbench {

namespace vs = vulcan;

namespace {

// TieredSystem's defaults for the pieces the replay rebuilds.
constexpr double kEpochSeconds = 0.25;
constexpr std::uint64_t kSamplesPerEpoch = 10'000;
constexpr std::uint64_t kBatch = 256;
constexpr unsigned kCoresPerApp = 8;
constexpr double kHeatDecay = 0.85;

struct App {
  std::unique_ptr<vs::wl::Workload> workload;
  std::unique_ptr<vs::vm::AddressSpace> as;
  std::unique_ptr<vs::prof::HeatTracker> tracker;
  std::unique_ptr<vs::prof::Profiler> profiler;
  std::vector<vs::vm::CoreId> cores;
  double end_s = 0.0;
  bool departed = false;
};

std::int64_t since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

}  // namespace

ReplayResult replay_access_pipeline(const WorkloadDef& def) {
  const vs::sim::MachineConfig machine;
  vs::mem::Topology topo = vs::mem::Topology::paper_testbed(machine);
  const vs::sim::CostModel cost;
  vs::vm::Mmu::Config mmu_cfg;
  mmu_cfg.cores = machine.cores;
  vs::vm::Mmu mmu(mmu_cfg);
  vs::sim::Rng rng(def.seed);
  // Page-table replication follows the first policy of the roster
  // (Vulcan on every workload), as TieredSystem::add_workload does.
  const bool replicate = vs::runtime::make_policy(def.policies.front())
                             ->migrator_config()
                             .mechanism.targeted_shootdown;
  const auto place = [&topo](vs::vm::Vpn) {
    return topo.allocator(vs::mem::kFastTier).below_watermark(0.02)
               ? vs::mem::kSlowTier
               : vs::mem::kFastTier;
  };

  std::vector<vs::runtime::StagedWorkload> stages = stage(def);
  std::vector<App> apps;
  std::vector<vs::vm::Mmu::Access> batch;
  std::vector<vs::vm::Mmu::Translation> translations;
  unsigned next_core = 0;
  ReplayResult r;

  for (std::uint64_t epoch = 0;; ++epoch) {
    const double now = static_cast<double>(epoch) * kEpochSeconds;
    if (now >= def.seconds) break;
    // run_staged's order: departures, then arrivals.
    for (App& app : apps) {
      if (!app.departed && app.end_s < def.seconds &&
          app.end_s <= now + 1e-9) {
        app.as->release_all();
        mmu.invalidate_process(app.as->pid());
        app.departed = true;
      }
    }
    for (vs::runtime::StagedWorkload& s : stages) {
      if (!s.workload || s.start_s > now + 1e-9) continue;
      App app;
      const auto& spec = s.workload->spec();
      vs::vm::AddressSpace::Config as_cfg;
      as_cfg.pid = static_cast<vs::vm::ProcessId>(apps.size() + 1);
      as_cfg.rss_pages = spec.rss_pages;
      as_cfg.replicate_tables = replicate;
      app.as = std::make_unique<vs::vm::AddressSpace>(as_cfg, topo);
      for (unsigned t = 0; t < spec.threads; ++t) app.as->add_thread();
      app.tracker =
          std::make_unique<vs::prof::HeatTracker>(spec.rss_pages, kHeatDecay);
      app.profiler = std::make_unique<vs::prof::HybridProfiler>(
          *app.tracker, cost, /*pebs_period=*/4, /*poison_fraction=*/0.05);
      for (unsigned c = 0; c < kCoresPerApp; ++c) {
        app.cores.push_back(
            static_cast<vs::vm::CoreId>((next_core + c) % machine.cores));
      }
      next_core = (next_core + kCoresPerApp) % machine.cores;
      app.end_s = s.end_s;
      app.workload = std::move(s.workload);
      apps.push_back(std::move(app));
    }

    // The sample-quota rule of TieredSystem::run_one_epoch: the fastest
    // app gets the full budget, the others a share proportional to rate.
    double max_rate = 0.0;
    for (const App& app : apps) {
      if (app.departed) continue;
      max_rate = std::max(max_rate, app.workload->total_access_rate() *
                                        app.workload->rate_multiplier(now));
    }
    for (App& app : apps) {
      if (app.departed) continue;
      vs::wl::Workload& w = *app.workload;
      w.on_epoch(now);
      const double rate = w.total_access_rate() * w.rate_multiplier(now);
      const auto quota = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(kSamplesPerEpoch) *
                 (max_rate > 0 ? rate / max_rate : 1.0)));
      const double real = rate * kEpochSeconds;
      const std::uint64_t samples = std::max<std::uint64_t>(
          1, std::min<std::uint64_t>(quota, static_cast<std::uint64_t>(real)));
      const double weight = real / static_cast<double>(samples);
      const vs::vm::Vpn base = app.as->base_vpn();
      const unsigned threads = w.spec().threads;

      unsigned cursor = 0;
      for (std::uint64_t done = 0; done < samples;) {
        const std::uint64_t n = std::min(kBatch, samples - done);
        auto start = Clock::now();
        batch.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
          const unsigned thread = cursor;
          if (++cursor == threads) cursor = 0;
          const vs::wl::WorkloadAccess acc = w.next_access(thread);
          batch.push_back({.vpn = base + acc.page,
                           .core = app.cores[thread % app.cores.size()],
                           .thread = static_cast<vs::vm::ThreadId>(thread),
                           .is_write = acc.is_write});
        }
        r.generate_ns += since(start);

        start = Clock::now();
        mmu.translate_batch(*app.as, batch, place, translations);
        r.translate_ns += since(start);

        start = Clock::now();
        for (std::uint64_t i = 0; i < n; ++i) {
          const vs::vm::Mmu::Access& a = batch[i];
          app.profiler->observe({.page = a.vpn - base,
                                 .thread = static_cast<unsigned>(a.thread),
                                 .is_write = a.is_write},
                                weight, rng);
        }
        r.observe_ns += since(start);

        r.accesses += n;
        done += n;
      }
    }

    for (App& app : apps) {
      if (app.departed) continue;
      const auto start = Clock::now();
      app.profiler->on_epoch(*app.as);
      r.on_epoch_ns += since(start);
      ++r.on_epoch_calls;
      app.tracker->decay_epoch();
    }
  }
  return r;
}

}  // namespace perfbench
