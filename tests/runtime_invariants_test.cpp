// Cross-policy integration invariants: whatever the policy decides, the
// physical substrate must stay consistent — no frame leaks, no census
// drift, metrics within bounds, deterministic replay.
#include <gtest/gtest.h>

#include <sstream>

#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "wl/apps.hpp"
#include "wl/trace.hpp"

namespace vulcan::runtime {
namespace {

class PolicyInvariantsP : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyInvariantsP, SubstrateStaysConsistentUnderChurn) {
  auto built = SystemBuilder{}
                   .samples_per_epoch(4000)
                   .seed(99)
                   .policy(make_policy(GetParam()))
                   .build();
  TieredSystem& sys = *built.value();

  // Two workloads with a drifting hot spot: constant promote/demote churn.
  for (int w = 0; w < 2; ++w) {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 10'240;
    p.wss_pages = 6'144;
    p.write_ratio = 0.25;
    p.drift_pages_per_sec = 600;
    p.seed = 50 + w;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  }
  sys.prefault(0);
  sys.prefault(1);

  for (int round = 0; round < 6; ++round) {
    sys.run_epochs(5);
    // Frame conservation per tier: allocator usage equals the mapped
    // census plus live shadow copies.
    std::uint64_t fast = 0, slow = 0, shadows = 0;
    for (unsigned w = 0; w < 2; ++w) {
      fast += sys.address_space(w).pages_in_tier(mem::kFastTier);
      slow += sys.address_space(w).pages_in_tier(mem::kSlowTier);
      shadows += sys.migrator(w).shadows().size();
      // Internal census equals a ground-truth page-table walk.
      std::uint64_t walk_fast = 0, walk_slow = 0;
      sys.address_space(w).tables().process_table().visit(
          [&](vm::Vpn, vm::Pte pte) {
            (mem::tier_of(pte.pfn()) == mem::kFastTier ? walk_fast
                                                       : walk_slow)++;
          });
      ASSERT_EQ(walk_fast, sys.address_space(w).pages_in_tier(mem::kFastTier))
          << GetParam();
      ASSERT_EQ(walk_slow, sys.address_space(w).pages_in_tier(mem::kSlowTier));
    }
    ASSERT_EQ(sys.topology().allocator(mem::kFastTier).used(), fast)
        << GetParam() << " round " << round;
    ASSERT_EQ(sys.topology().allocator(mem::kSlowTier).used(), slow + shadows)
        << GetParam() << " round " << round;
    ASSERT_LE(fast, sys.topology().capacity_pages(mem::kFastTier));

    // Metric sanity.
    const auto& e = sys.metrics().epochs().back();
    for (const auto& m : e.workloads) {
      ASSERT_GE(m.fthr, 0.0);
      ASSERT_LE(m.fthr, 1.0);
      ASSERT_GT(m.performance, 0.0);
      ASSERT_LE(m.performance, 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyInvariantsP,
                         ::testing::Values("tpp", "memtis", "nomad", "mtm",
                                           "vulcan"));

class PolicyDeterminismP : public ::testing::TestWithParam<const char*> {};

TEST_P(PolicyDeterminismP, IdenticalSeedsIdenticalMetrics) {
  auto run = [&] {
    auto built = SystemBuilder{}
                     .samples_per_epoch(2000)
                     .seed(5)
                     .policy(make_policy(GetParam()))
                     .build();
    TieredSystem& sys = *built.value();
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 4096;
    p.wss_pages = 2048;
    sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
    sys.run_epochs(12);
    std::ostringstream csv;
    sys.metrics().write_csv(csv);
    return csv.str();
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Policies, PolicyDeterminismP,
                         ::testing::Values("tpp", "memtis", "nomad", "mtm",
                                           "vulcan"));

TEST(TraceThroughSystem, ReplayDrivesTheFullHarness) {
  // Record a microbenchmark's access stream, then drive a TieredSystem
  // from the replay and check it behaves like a regular workload.
  wl::Trace trace(4096, 8);
  {
    auto inner = std::make_unique<wl::MicrobenchWorkload>(
        wl::MicrobenchWorkload::Params{.rss_pages = 4096,
                                       .wss_pages = 1024});
    wl::RecordingWorkload rec(std::move(inner), trace);
    for (int i = 0; i < 60'000; ++i) rec.next_access(i % 8);
  }
  std::stringstream buf;
  trace.save(buf);

  auto built = SystemBuilder{}
                   .samples_per_epoch(3000)
                   .policy(make_policy("vulcan"))
                   .build();
  TieredSystem& sys = *built.value();
  wl::WorkloadSpec spec;
  spec.name = "replayed";
  spec.accesses_per_sec_per_thread = 1e6;
  sys.add_workload(
      std::make_unique<wl::ReplayWorkload>(wl::Trace::load(buf), spec));
  sys.run_epochs(25);
  EXPECT_GT(sys.metrics().mean_fthr(0, 15), 0.8)
      << "the replayed hot set must converge into the fast tier";
}

TEST(MtmIntegration, RunsTheColocationScenario) {
  auto built = SystemBuilder{}
                   .samples_per_epoch(3000)
                   .policy(make_policy("mtm"))
                   .build();
  TieredSystem& sys = *built.value();
  run_staged(sys, paper_colocation(3), /*end_s=*/8.0);
  EXPECT_EQ(sys.workload_count(), 1u);  // only memcached by t=8s
  EXPECT_GT(sys.metrics().mean_fthr(0, 10), 0.5);
}

}  // namespace
}  // namespace vulcan::runtime
