// Unit tests of the benchmark's own machinery: span self time, the tail
// percentile rule, the forwarding policy decorator, and the traced run's
// equivalence with the untraced battery.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "batteries.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "timed_policy.hpp"

namespace {

using namespace perfbench;
namespace vs = vulcan;

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(uncovered_ns({10, 110}, {}), 100);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
  EXPECT_EQ(uncovered_ns({0, 100}, {{10, 20}, {50, 80}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnionOnce) {
  // [10,30) and [20,50) cover [10,50): 40, not 50.
  EXPECT_EQ(uncovered_ns({0, 100}, {{20, 50}, {10, 30}}), 60);
  // A child nested inside another adds nothing.
  EXPECT_EQ(uncovered_ns({0, 100}, {{10, 90}, {20, 30}}), 20);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(uncovered_ns({0, 100}, {{-50, 10}, {80, 300}}), 70);
  EXPECT_EQ(uncovered_ns({0, 100}, {{-50, 300}}), 0);
}

TEST(SelfTime, SelfTimesFollowParentLinks) {
  // A batch whose two jobs overlap (parallel workers); the first job has
  // one nested child.
  const std::vector<Span> spans = {
      {"batch", 0, 100, -1},
      {"job", 10, 60, 0},
      {"job", 40, 90, 0},
      {"plan", 20, 30, 1},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_EQ(self[0], 20);  // 100 minus the union [10,90)
  EXPECT_EQ(self[1], 40);  // 50 minus its child's 10
  EXPECT_EQ(self[2], 50);
  EXPECT_EQ(self[3], 10);

  const auto totals = layer_totals(spans);
  EXPECT_EQ(totals.at("job").count, 2u);
  EXPECT_EQ(totals.at("job").total_ns, 100);
}

TEST(SelfTime, SpanLogRecordsNestingAndAdoption) {
  SpanLog log;
  {
    ScopedSpan outer(log, "outer");
    ScopedSpan inner(log, "inner");
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);

  SpanLog merged(log.origin());
  const std::int32_t root = merged.open("batch");
  merged.close(root);
  merged.adopt(log, root);
  ASSERT_EQ(merged.spans().size(), 3u);
  EXPECT_EQ(merged.spans()[1].parent, root);
  EXPECT_EQ(merged.spans()[2].parent, 1);
  EXPECT_EQ(merged.spans()[1].start_ns, log.spans()[0].start_ns);
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksTheHighestRungWithTenBeyond) {
  TailPercentile t = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);

  t = tail_percentile(one_to(999));  // p99 would leave only 9 beyond
  EXPECT_DOUBLE_EQ(t.percentile, 90.0);
  EXPECT_DOUBLE_EQ(t.value, 900.0);
  EXPECT_EQ(t.beyond, 99u);

  t = tail_percentile(one_to(100'000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.99);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, ExactRanksDoNotRoundUp) {
  // 0.9 * 1440 is not exactly 1296 in binary floating point.
  const TailPercentile t = tail_percentile(one_to(1440));
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 1426.0);
  EXPECT_EQ(t.beyond, 14u);
}

TEST(TailPercentile, FallsBackToTheMedianWhenTooFewSamples) {
  const TailPercentile t = tail_percentile({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 2u);
  EXPECT_DOUBLE_EQ(tail_percentile({}).value, 0.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// A policy that records every call it receives and uses its obs scope.
class RecordingPolicy final : public vs::policy::SystemPolicy {
 public:
  void plan_epoch(std::span<vs::policy::WorkloadView> workloads,
                  vs::mem::Topology&, vs::sim::Rng&) override {
    ++plans;
    planned = workloads.size();
    obs().counter("plans").inc();
  }
  vs::mem::TierId placement_tier(const vs::policy::WorkloadView&,
                                 const vs::mem::Topology&) const override {
    ++placements;
    return vs::mem::kSlowTier;
  }
  vs::mig::Migrator::Config migrator_config() const override {
    ++configs;
    vs::mig::Migrator::Config c;
    c.mechanism.targeted_shootdown = true;
    c.shadowing = true;
    return c;
  }
  void on_workload_departed(unsigned index) override { departed = index; }
  std::string_view name() const override { return "recording"; }

  const vs::obs::Scope& scope() const { return obs(); }

  int plans = 0;
  std::size_t planned = 0;
  mutable int placements = 0;
  mutable int configs = 0;
  unsigned departed = 0;
};

TEST(TimedPolicy, ForwardsEveryVirtualAndTheObsScope) {
  auto owned = std::make_unique<RecordingPolicy>();
  RecordingPolicy& inner = *owned;
  SpanLog log;
  std::uint64_t placements = 0;
  TimedPolicy timed(std::move(owned), log, placements);

  vs::obs::Registry registry;
  timed.set_obs(vs::obs::Scope(&registry, nullptr, nullptr, "policy"));

  EXPECT_EQ(timed.name(), "recording");
  EXPECT_EQ(inner.scope().prefix(), "policy");

  const vs::mig::Migrator::Config c = timed.migrator_config();
  EXPECT_EQ(inner.configs, 1);
  EXPECT_TRUE(c.mechanism.targeted_shootdown);
  EXPECT_TRUE(c.shadowing);

  vs::mem::Topology topo = vs::mem::Topology::paper_testbed();
  vs::policy::WorkloadView view;
  EXPECT_EQ(timed.placement_tier(view, topo), vs::mem::kSlowTier);
  EXPECT_EQ(timed.placement_tier(view, topo), vs::mem::kSlowTier);
  EXPECT_EQ(inner.placements, 2);
  EXPECT_EQ(placements, 2u);

  std::vector<vs::policy::WorkloadView> views(3);
  vs::sim::Rng rng(1);
  timed.plan_epoch(views, topo, rng);
  EXPECT_EQ(inner.plans, 1);
  EXPECT_EQ(inner.planned, 3u);
  // The inner policy reported through the scope the system installed.
  EXPECT_EQ(registry.counter_value("policy.plans"), 1u);
  ASSERT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(log.spans()[0].name, "policy.plan");

  timed.on_workload_departed(7);
  EXPECT_EQ(inner.departed, 7u);
}

// The traced run must reproduce the untraced battery's simulated
// summary. Shortened runs keep the test fast; the benchmark itself checks
// the full-length runs on every invocation.
void expect_equivalent(WorkloadDef def) {
  const std::vector<RunSummary> battery = run_battery(def);
  const TracedBattery traced = run_traced_battery(def);
  ASSERT_EQ(traced.runs.size(), battery.size());
  for (std::size_t i = 0; i < traced.runs.size(); ++i) {
    EXPECT_EQ(traced.runs[i].error, "");
    EXPECT_TRUE(traced.runs[i].summary == battery[i])
        << def.name << " " << battery[i].policy;
    EXPECT_GT(traced.runs[i].audit_checks, 0u);
  }
}

TEST(TracedRun, MatchesTheBatteryOnDilemma) {
  WorkloadDef def = workload_def("dilemma", 42);
  def.seconds = 12.0;  // past the scanner's arrival at 10 s
  expect_equivalent(def);
}

TEST(TracedRun, MatchesTheBatteryOnFleet) {
  WorkloadDef def = workload_def("fleet", 7);
  def.seconds = 4.0;
  def.policies = {"vulcan", "tpp"};
  expect_equivalent(def);
}

}  // namespace
