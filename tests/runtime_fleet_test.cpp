// runtime::fleet — generator determinism, churn schedules, and the
// departed-residency contract: when an app leaves the fleet, every frame,
// shadow and cached translation it held must leave with it.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "obs/diff.hpp"
#include "runtime/builder.hpp"
#include "runtime/fleet.hpp"
#include "runtime/system.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

FleetSpec small_churned_fleet() {
  FleetSpec spec;
  spec.apps = 12;
  spec.seconds = 8.0;
  spec.seed = 1234;
  spec.churn_per_min = 60.0;   // aggressive: several arrivals + departures
  spec.mean_lifetime_s = 3.0;
  return spec;
}

TEST(MakeFleet, DeterministicInSpec) {
  const FleetSpec spec = small_churned_fleet();
  const auto a = make_fleet(spec);
  const auto b = make_fleet(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_s, b[i].start_s) << i;
    EXPECT_EQ(a[i].end_s, b[i].end_s) << i;
    EXPECT_EQ(a[i].workload->spec().name, b[i].workload->spec().name) << i;
    EXPECT_EQ(a[i].workload->spec().rss_pages,
              b[i].workload->spec().rss_pages)
        << i;
  }
}

TEST(MakeFleet, PerAppScheduleSurvivesFleetResize) {
  // The determinism contract: app k's archetype, schedule and footprint
  // are a pure function of (seed, k), so growing the fleet must leave the
  // common prefix untouched.
  FleetSpec small = small_churned_fleet();
  FleetSpec big = small;
  big.apps = 24;
  const auto a = make_fleet(small);
  const auto b = make_fleet(big);
  ASSERT_EQ(a.size(), 12u);
  ASSERT_EQ(b.size(), 24u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_s, b[i].start_s) << i;
    EXPECT_EQ(a[i].end_s, b[i].end_s) << i;
    EXPECT_EQ(a[i].workload->spec().name, b[i].workload->spec().name) << i;
  }
}

TEST(MakeFleet, ChurnScheduleShape) {
  const FleetSpec spec = small_churned_fleet();
  const auto stages = make_fleet(spec);
  // App 0 anchors the fleet; later arrivals accumulate along a single
  // Poisson clock, so their start times are monotone in app id.
  EXPECT_EQ(stages[0].start_s, 0.0);
  unsigned initial = 0;
  double last_arrival = 0.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (stages[i].start_s == 0.0) {
      ++initial;
    } else {
      EXPECT_GT(stages[i].start_s, last_arrival) << i;
      last_arrival = stages[i].start_s;
    }
    // Churned fleets give every app a finite lifetime, floored at 1 s.
    EXPECT_TRUE(std::isfinite(stages[i].end_s)) << i;
    EXPECT_GE(stages[i].end_s - stages[i].start_s, 1.0) << i;
  }
  EXPECT_GT(initial, 0u);
  EXPECT_LT(initial, stages.size());  // some apps do arrive mid-run
}

TEST(MakeFleet, StaticFleetAdmitsEveryoneForever) {
  FleetSpec spec;
  spec.apps = 6;
  spec.seed = 7;
  const auto stages = make_fleet(spec);
  ASSERT_EQ(stages.size(), 6u);
  for (const auto& s : stages) {
    EXPECT_EQ(s.start_s, 0.0);
    EXPECT_EQ(s.end_s, std::numeric_limits<double>::infinity());
  }
}

TEST(FleetChurn, RunStagedAdmitsOutOfOrderArrivals) {
  // make_fleet emits stages in app-id order, not start order: an initial
  // (t=0) app can sit behind a mid-run arrival in the vector. run_staged
  // must admit every due stage regardless of position — the regression
  // here is a sorted-input cursor that stalled the whole tail of the
  // vector behind the first future arrival.
  auto built = SystemBuilder{}
                   .samples_per_epoch(1000)
                   .seed(3)
                   .policy(make_policy("vulcan"))
                   .build();
  TieredSystem& sys = *built.value();
  auto micro = [](std::uint64_t seed) {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 256;
    p.wss_pages = 128;
    p.seed = seed;
    return std::make_unique<wl::MicrobenchWorkload>(p);
  };
  std::vector<StagedWorkload> stages;
  stages.emplace_back();                      // arrives mid-run...
  stages.back().start_s = 1.0;
  stages.back().workload = micro(1);
  stages.emplace_back();                      // ...ahead of two t=0 apps
  stages.back().start_s = 0.0;
  stages.back().workload = micro(2);
  stages.emplace_back();                      // never arrives (past end)
  stages.back().start_s = 99.0;
  stages.back().workload = micro(3);
  stages.emplace_back();
  stages.back().start_s = 0.0;
  stages.back().workload = micro(4);
  run_staged(sys, std::move(stages), 2.0);
  EXPECT_EQ(sys.workload_count(), 3u);
  EXPECT_EQ(sys.live_workload_count(), 3u);
}

TEST(FleetChurn, DepartedAppsReturnEveryFrameUnderFullAudit) {
  // A churned fleet with the full auditor on every epoch and the
  // provenance ledger cross-checking residency: departures must tear
  // down cleanly or run_staged throws check::AuditFailure.
  SystemBuilder b;
  b.seed(1234)
      .audit(check::AuditLevel::kFull)
      .provenance(true)
      .timeseries(fleet_timeseries_config(8.0))
      .policy("vulcan");
  auto built = b.build();
  ASSERT_TRUE(built) << built.error();
  TieredSystem& sys = *built.value();
  const FleetSpec spec = small_churned_fleet();
  ASSERT_NO_THROW(run_staged(sys, make_fleet(spec), spec.seconds));

  unsigned departed = 0;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    if (!sys.workload_departed(w)) continue;
    ++departed;
    EXPECT_EQ(sys.address_space(w).faulted_pages(), 0u) << w;
    EXPECT_EQ(sys.address_space(w).pages_in_tier(mem::kFastTier), 0u) << w;
    EXPECT_EQ(sys.address_space(w).pages_in_tier(mem::kSlowTier), 0u) << w;
    EXPECT_EQ(sys.migrator(w).shadows().size(), 0u) << w;
  }
  EXPECT_GT(departed, 0u) << "churn schedule produced no departures";
  EXPECT_EQ(sys.live_workload_count() + departed, sys.workload_count());

  const auto snapshot = obs::snapshot_registry(sys.obs_registry());
  EXPECT_EQ(snapshot.counter("check.violations"), 0u);
  EXPECT_EQ(snapshot.counter("runtime.workloads_departed"), departed);
}

// The translate-batch size is a host detail, so the ledger's transition
// log must not depend on it. Fleet apps fault base pages one at a time, and
// several faults of one chunk can land in the same batch: the alloc rows
// must still come out in fault order.
TEST(FleetChurn, LedgerTransitionsIgnoreTranslateBatch) {
  const auto transitions = [](std::uint64_t batch) {
    auto built = SystemBuilder{}
                     .seed(1234)
                     .provenance(true)
                     .translate_batch(batch)
                     .timeseries(fleet_timeseries_config(4.0))
                     .policy("tpp")
                     .build();
    EXPECT_TRUE(built) << built.error();
    TieredSystem& sys = *built.value();
    FleetSpec spec = small_churned_fleet();
    spec.seconds = 4.0;
    run_staged(sys, make_fleet(spec), spec.seconds);
    std::ostringstream out;
    sys.provenance().write_transitions_jsonl(out);
    return out.str();
  };
  const std::string reference = transitions(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(transitions(256), reference);
}

TEST(FleetChurn, SeededResidencyLeakTripsTheDepartedAudit) {
  // Negative control for kDepartedResidency: re-fault pages into an app
  // after it departs and the auditor must object.
  auto built = SystemBuilder{}
                   .samples_per_epoch(2000)
                   .seed(9)
                   .audit(check::AuditLevel::kFull)
                   .policy(make_policy("vulcan"))
                   .build();
  TieredSystem& sys = *built.value();
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 512;
  p.wss_pages = 256;
  p.seed = 5;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
  sys.run_epochs(4);

  sys.remove_workload(0);
  EXPECT_TRUE(sys.workload_departed(0));
  EXPECT_EQ(sys.live_workload_count(), 0u);
  // Clean teardown: the audit stays green.
  EXPECT_TRUE(check::InvariantAuditor(check::AuditLevel::kFull)
                  .audit(sys.audit_view())
                  .ok());

  // Seed the leak: pages faulted back into the departed address space.
  sys.prefault(0);
  const auto report =
      check::InvariantAuditor(check::AuditLevel::kFull).audit(sys.audit_view());
  ASSERT_FALSE(report.ok());
  bool departed_rule = false;
  for (const auto& v : report.violations) {
    if (v.rule == check::AuditRule::kDepartedResidency) departed_rule = true;
  }
  EXPECT_TRUE(departed_rule)
      << "leak surfaced, but not via kDepartedResidency:\n"
      << check::format_report(report);
}

TEST(FleetBattery, ByteIdenticalAcrossJobCounts) {
  // cascade rides along deliberately: its global heat ranking indexes the
  // live-view span, the exact structure churn compacts.
  const ScenarioSpec spec = fleet_scenario(small_churned_fleet());
  const std::vector<std::string> roster = {"vulcan", "cascade"};
  const auto serial = run_policy_battery(spec, roster, 1);
  const auto parallel = run_policy_battery(spec, roster, 2);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.jain, b.jain);
    const TailFairness ta = tail_fairness(a.windows);
    const TailFairness tb = tail_fairness(b.windows);
    EXPECT_EQ(ta.worst_slowdown, tb.worst_slowdown);
    EXPECT_EQ(ta.worst_slowdown_p99, tb.worst_slowdown_p99);
    EXPECT_EQ(ta.jain_floor, tb.jain_floor);
    ASSERT_EQ(a.windows.size(), b.windows.size());
    for (std::size_t w = 0; w < a.windows.size(); ++w) {
      EXPECT_EQ(a.windows[w].window, b.windows[w].window);
      EXPECT_EQ(a.windows[w].worst_slowdown, b.windows[w].worst_slowdown);
      EXPECT_EQ(a.windows[w].jain_min, b.windows[w].jain_min);
      EXPECT_EQ(a.windows[w].live_apps, b.windows[w].live_apps);
    }
    EXPECT_EQ(a.snapshot.counters, b.snapshot.counters);
    EXPECT_EQ(a.snapshot.gauges, b.snapshot.gauges);
    // The tail table is non-degenerate: windows exist and live-app counts
    // move as churn admits and retires apps.
    EXPECT_GT(a.windows.size(), 1u);
  }
}

TEST(FleetBattery, TailFairnessFoldsWindows) {
  const std::vector<FleetWindowRow> rows = {
      {0, 0.0, 1.5, 0.9, 4}, {1, 2.0, 2.5, 0.7, 5}, {2, 4.0, 2.0, 0.8, 3}};
  const TailFairness t = tail_fairness(rows);
  EXPECT_EQ(t.worst_slowdown, 2.5);
  EXPECT_EQ(t.worst_slowdown_p99, 2.5);
  EXPECT_EQ(t.jain_floor, 0.7);
  const TailFairness empty = tail_fairness({});
  EXPECT_EQ(empty.worst_slowdown, 1.0);
  EXPECT_EQ(empty.worst_slowdown_p99, 1.0);
  EXPECT_EQ(empty.jain_floor, 1.0);
}

}  // namespace
}  // namespace vulcan::runtime
