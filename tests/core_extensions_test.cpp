// Tests for the §3.6 extension features: the Colloid-style migration gate,
// adaptive per-thread replication, daemon whitelisting, and DMA copy
// offload.
#include <gtest/gtest.h>

#include "core/advisor.hpp"
#include "core/manager.hpp"
#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "vm/mmu.hpp"
#include "wl/apps.hpp"

namespace vulcan::core {
namespace {

// ------------------------------------------------------ ReplicationAdvisor

TEST(ReplicationAdvisor, DefaultsOn) {
  ReplicationAdvisor a;
  EXPECT_TRUE(a.replication_worthwhile());
}

TEST(ReplicationAdvisor, ManyPrivateMigrationsKeepItOn) {
  ReplicationAdvisor a;
  for (int e = 0; e < 20; ++e) {
    a.record_epoch(/*private_migrations=*/500, /*threads=*/8,
                   /*mapping_changes=*/100);
  }
  EXPECT_TRUE(a.replication_worthwhile());
  EXPECT_GT(a.smoothed_savings(), a.smoothed_overhead());
}

TEST(ReplicationAdvisor, FaultStormWithNoMigrationsTurnsItOff) {
  // FaaS-like churn (§3.6): huge mapping turnover, nothing ever migrates —
  // replication is pure overhead.
  ReplicationAdvisor a;
  for (int e = 0; e < 20; ++e) {
    a.record_epoch(/*private_migrations=*/0, /*threads=*/8,
                   /*mapping_changes=*/50'000);
  }
  EXPECT_FALSE(a.replication_worthwhile());
}

TEST(ReplicationAdvisor, SingleThreadNeverBenefits) {
  ReplicationAdvisor a;
  for (int e = 0; e < 20; ++e) {
    a.record_epoch(/*private_migrations=*/1000, /*threads=*/1,
                   /*mapping_changes=*/100);
  }
  EXPECT_FALSE(a.replication_worthwhile())
      << "no remote cores to spare: zero savings";
}

TEST(ReplicationAdvisor, HysteresisPreventsFlapping) {
  ReplicationAdvisor a({.ema_alpha = 1.0,  // no smoothing: isolate margin
                        .maintenance_cycles_per_fault_thread = 60.0,
                        .enable_margin = 1.5});
  // Savings ~= cost: within the margin band, state must not change.
  // 8 threads: saved = p*7*4800; cost = m*8*60. Pick p, m so ratio ~ 1.
  const bool initial = a.replication_worthwhile();
  for (int e = 0; e < 10; ++e) {
    a.record_epoch(/*private=*/100, 8, /*mapping=*/7000);  // ratio ~1.0
    EXPECT_EQ(a.replication_worthwhile(), initial) << "epoch " << e;
  }
}

// ------------------------------------------------------------ Colloid gate

TEST(ColloidGate, GatesWhenFastTierIsContended) {
  VulcanManager::Params p;
  p.enable_colloid_gate = true;
  VulcanManager mgr(p);

  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(2000)
                   .policy(std::make_unique<VulcanManager>(p))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  auto& topo = sys.topology();

  // Unloaded: fast (70ns) clearly beats slow (162ns) — not gated.
  topo.set_utilization(mem::kFastTier, 0.0);
  topo.set_utilization(mem::kSlowTier, 0.0);
  {
    wl::MicrobenchWorkload::Params mp;
    mp.rss_pages = 8192;
    mp.wss_pages = 4096;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(mp));
  }
  sys.prefault(0, 0, 1);  // everything slow: promotions are wanted
  sys.run_epochs(3);
  const auto promoted_unloaded =
      sys.address_space(0).pages_in_tier(mem::kFastTier);
  EXPECT_GT(promoted_unloaded, 0u) << "ungated: promotions proceed";
}

TEST(ColloidGate, SuspendsPromotionsUnderContention) {
  VulcanManager::Params p;
  p.enable_colloid_gate = true;
  p.colloid_latency_ratio = 0.90;
  auto policy = std::make_unique<VulcanManager>(p);
  auto* mgr = policy.get();

  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(2000)
                   .policy(std::move(policy))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  (void)mgr;
  {
    wl::MicrobenchWorkload::Params mp;
    mp.rss_pages = 8192;
    mp.wss_pages = 4096;
    // Saturating rate: fast-tier utilisation spikes, loaded fast latency
    // approaches (or exceeds) the slow tier's unloaded latency.
    mp.access_rate_per_thread = 6e8;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(mp));
  }
  sys.prefault(0, 1, 0);  // everything fast: contention on the fast tier
  sys.run_epochs(4);      // builds utilisation, then gates
  // Direct check of the gate predicate at the observed utilisation.
  const auto fast_lat = sys.topology().loaded_latency_ns(mem::kFastTier);
  const auto slow_lat = sys.topology().loaded_latency_ns(mem::kSlowTier);
  EXPECT_GT(fast_lat, 0.90 * static_cast<double>(slow_lat))
      << "scenario must actually produce contention";
}

// ------------------------------------------------------------- Whitelist

TEST(Whitelist, UnmanagedWorkloadIsLeftAlone) {
  VulcanManager::Params p;
  p.whitelist = std::set<std::string>{"managed-app"};
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(3000)
                   .policy(std::make_unique<VulcanManager>(p))
                   .build();
  runtime::TieredSystem& sys = *built.value();

  wl::MicrobenchWorkload::Params mp;
  mp.rss_pages = 4096;
  mp.wss_pages = 2048;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(mp));
  // The microbench's spec name is "microbench" — not whitelisted.
  sys.prefault(0, 0, 1);  // all slow
  sys.run_epochs(10);
  double migrated = 0;
  for (const auto& e : sys.metrics().epochs()) {
    migrated += double(e.workloads[0].migrated);
  }
  EXPECT_EQ(migrated, 0.0) << "daemon must not touch unmanaged processes";
  EXPECT_EQ(sys.metrics().epochs().back().workloads[0].quota, UINT64_MAX);
}

TEST(Whitelist, AbsentWhitelistManagesEverything) {
  VulcanManager::Params p;  // no whitelist
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(3000)
                   .policy(std::make_unique<VulcanManager>(p))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  wl::MicrobenchWorkload::Params mp;
  mp.rss_pages = 4096;
  mp.wss_pages = 2048;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(mp));
  sys.prefault(0, 0, 1);
  sys.run_epochs(10);
  double migrated = 0;
  for (const auto& e : sys.metrics().epochs()) {
    migrated += double(e.workloads[0].migrated);
  }
  EXPECT_GT(migrated, 0.0);
}

// ------------------------------------------------------------------- DMA

TEST(DmaCopy, ReducesCpuCyclesPerMigration) {
  // Identical migration plan with and without DMA offload.
  auto run = [&](bool dma) {
    std::vector<mem::TierConfig> tiers{{"fast", 1024, 70, 205.0},
                                       {"slow", 4096, 162, 25.0}};
    mem::Topology topo(std::move(tiers));
    vm::AddressSpace::Config cfg;
    cfg.pid = 1;
    cfg.rss_pages = 256;
    cfg.thp = false;
    vm::AddressSpace as(cfg, topo);
    const auto th = as.add_thread();
    for (std::uint64_t i = 0; i < 256; ++i) {
      as.fault(as.vpn_at(i), th, false, mem::kSlowTier);
    }
    sim::CostModel cost;
    vm::Mmu mmu({.cores = 4});
    vm::ShootdownController ctrl(cost, &mmu);
    mig::Migrator::Config mc;
    mc.process_cores = {1, 2};
    mc.dma_copy = dma;
    mig::Migrator m(as, topo, ctrl, cost, mc);
    std::vector<mig::MigrationRequest> reqs;
    for (std::uint64_t pg = 0; pg < 128; ++pg) {
      reqs.push_back({.vpn = as.vpn_at(pg), .to = mem::kFastTier,
                      .mode = mig::CopyMode::kAsync, .shared = false,
                      .owner = th});
    }
    sim::Rng rng(3);
    return m.execute(reqs, rng);
  };
  const auto cpu = run(false);
  const auto dma = run(true);
  EXPECT_EQ(cpu.migrated, dma.migrated);
  EXPECT_LT(dma.daemon_cycles, cpu.daemon_cycles)
      << "DMA offload must cut CPU copy cycles";
  EXPECT_EQ(dma.bytes_copied, cpu.bytes_copied)
      << "the same bytes still cross the link";
}

}  // namespace
}  // namespace vulcan::core
