// The determinism contract of vulcan::exec, end to end: every battery's
// merged output is byte-identical (or structurally equal) for any worker
// count, including 1. These are the in-process versions of the
// byte-compares in scripts/smoke.sh.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

namespace vulcan {
namespace {

TEST(ParallelEquivalenceTest, WhatIfGridSerialVsParallelBytes) {
  // Two engines over the same scenario; a short run keeps the test fast.
  const auto grid = obs::WhatIfEngine::default_grid();
  ASSERT_GE(grid.size(), 2u);
  const std::vector<obs::Perturbation> two(grid.begin(), grid.begin() + 2);

  obs::WhatIfEngine serial(obs::dilemma_scenario(42, 5.0));
  obs::WhatIfEngine parallel(obs::dilemma_scenario(42, 5.0));
  const auto r1 = serial.run_grid(two, /*jobs=*/1);
  const auto r4 = parallel.run_grid(two, /*jobs=*/4);
  ASSERT_EQ(r1.size(), two.size());
  ASSERT_EQ(r4.size(), two.size());

  std::ostringstream table1, table4, json1, json4;
  serial.write_sensitivity_table(r1, table1);
  parallel.write_sensitivity_table(r4, table4);
  serial.write_bench_json(r1, json1);
  parallel.write_bench_json(r4, json4);
  EXPECT_EQ(table1.str(), table4.str());
  EXPECT_EQ(json1.str(), json4.str());

  // The real-time accounting reflects the requested fan-out without ever
  // touching the artefacts compared above.
  EXPECT_EQ(serial.grid_stats().workers, 1u);
  EXPECT_EQ(parallel.grid_stats().workers, 2u);  // capped by 2 grid points
  EXPECT_EQ(parallel.grid_stats().jobs, 2u);
}

TEST(ParallelEquivalenceTest, MigrationBreakdownBatteryRowsEqual) {
  const std::vector<unsigned> cpus = {2, 8, 32};
  exec::BatchStats stats;
  const auto serial = runtime::migration_breakdown_battery(cpus, 1);
  const auto parallel = runtime::migration_breakdown_battery(cpus, 3, &stats);
  ASSERT_EQ(serial.size(), cpus.size());
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(stats.workers, 3u);
  // Sanity: rows carry real data in submission order.
  EXPECT_EQ(serial[0].cpus, 2u);
  EXPECT_GT(serial[2].total(), serial[0].total());
}

TEST(ParallelEquivalenceTest, MechanismSpeedupBatteryRowsEqual) {
  const std::vector<std::uint64_t> pages = {2, 16, 128};
  const auto serial = runtime::mechanism_speedup_battery(pages, 1);
  const auto parallel = runtime::mechanism_speedup_battery(pages, 3);
  ASSERT_EQ(serial.size(), pages.size());
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial[0].speedup_both(), 1.0);
}

TEST(ParallelEquivalenceTest, PolicyBatterySerialVsParallelSnapshots) {
  runtime::ScenarioSpec spec;
  spec.name = "dilemma";
  spec.seconds = 4.0;
  spec.seed = 42;
  spec.stage = [] { return runtime::dilemma_colocation(42); };

  const std::vector<std::string> roster = {"vulcan", "tpp"};
  const auto serial = runtime::run_policy_battery(spec, roster, 1);
  const auto parallel = runtime::run_policy_battery(spec, roster, 2);
  ASSERT_EQ(serial.size(), 2u);
  ASSERT_EQ(parallel.size(), 2u);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    EXPECT_EQ(serial[i].policy, roster[i]);
    EXPECT_EQ(serial[i].policy, parallel[i].policy);
    EXPECT_EQ(serial[i].jain, parallel[i].jain);
    EXPECT_EQ(serial[i].cfi, parallel[i].cfi);
    EXPECT_EQ(serial[i].apps, parallel[i].apps);
    // The full registry — every counter and gauge the run published.
    EXPECT_EQ(serial[i].snapshot.counters, parallel[i].snapshot.counters);
    EXPECT_EQ(serial[i].snapshot.gauges, parallel[i].snapshot.gauges);
  }
}

TEST(ParallelEquivalenceTest, PolicyBatteryNamesFailedPolicy) {
  runtime::ScenarioSpec spec;
  spec.seconds = 1.0;
  spec.stage = [] { return runtime::dilemma_colocation(42); };
  const std::vector<std::string> roster = {"vulcan", "no-such-policy"};
  try {
    (void)runtime::run_policy_battery(spec, roster, 2);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-policy"), std::string::npos);
    EXPECT_NE(what.find("job 1"), std::string::npos);
  }
}

}  // namespace
}  // namespace vulcan
