// Causal what-if engine: perturbation vocabulary, plan parsing, and the
// determinism contract (identical seed + grid => byte-identical artefacts).
#include "obs/whatif.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/metrics.hpp"

namespace vulcan::obs {
namespace {

TEST(WhatIfKnobs, NamesRoundTrip) {
  for (std::size_t k = 0; k < kWhatIfKnobCount; ++k) {
    const auto knob = static_cast<WhatIfKnob>(k);
    const auto back = knob_from_name(knob_name(knob));
    ASSERT_TRUE(back.has_value()) << knob_name(knob);
    EXPECT_EQ(*back, knob);
  }
  EXPECT_FALSE(knob_from_name("no-such-knob").has_value());
}

TEST(WhatIfPerturbation, ScalesShootdownConstants) {
  runtime::SystemBuilder b;
  const sim::CostModelParams before = b.config().cost_params;
  apply_perturbation({WhatIfKnob::kShootdownCost, 0.5}, b);
  const sim::CostModelParams& after = b.config().cost_params;
  EXPECT_EQ(after.shootdown_cold_fixed, before.shootdown_cold_fixed / 2);
  EXPECT_EQ(after.shootdown_cold_per_core, before.shootdown_cold_per_core / 2);
  EXPECT_EQ(after.shootdown_local_only, before.shootdown_local_only / 2);
  // Unrelated constants untouched.
  EXPECT_EQ(after.copy_single_page, before.copy_single_page);
  EXPECT_EQ(after.unmap_per_page, before.unmap_per_page);
}

TEST(WhatIfPerturbation, CopyKnobWidensBandwidth) {
  runtime::SystemBuilder b;
  const double bw_before = b.config().machine.slow_bw_gbps;
  const sim::Cycles copy_before = b.config().cost_params.copy_single_page;
  apply_perturbation({WhatIfKnob::kCopyBandwidth, 0.5}, b);
  EXPECT_EQ(b.config().cost_params.copy_single_page, copy_before / 2);
  EXPECT_DOUBLE_EQ(b.config().machine.slow_bw_gbps, bw_before * 2.0);
}

TEST(WhatIfPerturbation, EpochKnobScalesCadence) {
  runtime::SystemBuilder b;
  b.epoch_ms(100);
  const sim::Cycles before = b.config().epoch;
  apply_perturbation({WhatIfKnob::kEpochLength, 0.5}, b);
  EXPECT_EQ(b.config().epoch, before / 2);
}

TEST(WhatIfPerturbation, RejectsNonPositiveScale) {
  runtime::SystemBuilder b;
  EXPECT_THROW(apply_perturbation({WhatIfKnob::kPrepCost, 0.0}, b),
               std::invalid_argument);
}

TEST(WhatIfPlan, ParsesKnobsScalesAndComments) {
  std::istringstream in(
      "# sweep the TLB side\n"
      "shootdown 0.9 0.5\n"
      "\n"
      "copy 0.8  # cheaper DMA\n");
  std::string error;
  const std::vector<Perturbation> grid = parse_plan(in, error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_EQ(grid[0].knob, WhatIfKnob::kShootdownCost);
  EXPECT_DOUBLE_EQ(grid[0].scale, 0.9);
  EXPECT_DOUBLE_EQ(grid[1].scale, 0.5);
  EXPECT_EQ(grid[2].knob, WhatIfKnob::kCopyBandwidth);
}

TEST(WhatIfPlan, ReportsUnknownKnobAndBadScale) {
  std::string error;
  std::istringstream bad_knob("warp 0.9\n");
  EXPECT_TRUE(parse_plan(bad_knob, error).empty());
  EXPECT_NE(error.find("unknown knob"), std::string::npos);

  error.clear();
  std::istringstream bad_scale("copy -1\n");
  EXPECT_TRUE(parse_plan(bad_scale, error).empty());
  EXPECT_NE(error.find("scale must be > 0"), std::string::npos);

  error.clear();
  std::istringstream no_scale("copy\n");
  EXPECT_TRUE(parse_plan(no_scale, error).empty());
  EXPECT_NE(error.find("no scales"), std::string::npos);
}

TEST(WhatIfEngine, DefaultGridCoversEveryKnobOnce) {
  const std::vector<Perturbation> grid = WhatIfEngine::default_grid();
  ASSERT_EQ(grid.size(), kWhatIfKnobCount);
  for (std::size_t k = 0; k < kWhatIfKnobCount; ++k) {
    EXPECT_EQ(grid[k].knob, static_cast<WhatIfKnob>(k));
    EXPECT_DOUBLE_EQ(grid[k].scale, 0.9);
  }
}

TEST(WhatIfEngine, RankingExcludesCadenceAndDeviceKnobs) {
  // Hand-built results: epoch and slow_latency have the steepest slopes but
  // must not win — they are not mechanism costs.
  auto result = [](WhatIfKnob knob, double slope) {
    WhatIfResult r;
    r.perturbation = {knob, 0.9};
    WhatIfAppDelta d;
    d.app = 0;
    d.dslowdown_per_pct = slope;
    r.apps.push_back(d);
    return r;
  };
  const std::vector<WhatIfResult> results{
      result(WhatIfKnob::kEpochLength, -9.0),
      result(WhatIfKnob::kSlowTierLatency, -8.0),
      result(WhatIfKnob::kShootdownCost, -0.5),
      result(WhatIfKnob::kCopyBandwidth, -0.1),
  };
  const auto top = WhatIfEngine::rank_top_knobs(results);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].first, 0);
  EXPECT_EQ(top[0].second, WhatIfKnob::kShootdownCost);
}

// The headline determinism contract: two engines over the identical seed
// and grid produce byte-identical sensitivity tables and BENCH_whatif.json.
// A short two-knob grid keeps this test fast; the full default grid runs in
// `scripts/smoke.sh whatif`.
TEST(WhatIfEngine, IdenticalSeedAndGridAreByteIdentical) {
  const std::vector<Perturbation> grid{
      {WhatIfKnob::kShootdownCost, 0.9},
      {WhatIfKnob::kCopyBandwidth, 0.9},
  };
  std::string table[2], json[2];
  for (int i = 0; i < 2; ++i) {
    WhatIfEngine engine(dilemma_scenario(42, /*seconds=*/12.0));
    const std::vector<WhatIfResult> results = engine.run_grid(grid);
    std::ostringstream t, j;
    engine.write_sensitivity_table(results, t);
    engine.write_bench_json(results, j);
    table[i] = t.str();
    json[i] = j.str();
  }
  EXPECT_FALSE(table[0].empty());
  EXPECT_FALSE(json[0].empty());
  EXPECT_EQ(table[0], table[1]);
  EXPECT_EQ(json[0], json[1]);
}

TEST(WhatIfEngine, PublishesSlopesUnderWhatifKeys) {
  WhatIfEngine engine(dilemma_scenario(42, /*seconds=*/6.0));
  const std::vector<Perturbation> grid{{WhatIfKnob::kShootdownCost, 0.9}};
  const std::vector<WhatIfResult> results = engine.run_grid(grid);
  ASSERT_EQ(results.size(), 1u);

  Registry reg;
  engine.publish(results, reg);
  EXPECT_EQ(reg.counter("whatif.runs").value, 1u);
  const MetricsSnapshot snap = snapshot_registry(reg);
  EXPECT_TRUE(snap.gauges.count("whatif.djain{knob=shootdown}"));
  EXPECT_TRUE(snap.gauges.count("whatif.dslowdown{knob=shootdown,app=0}"));
  EXPECT_TRUE(snap.gauges.count("whatif.dstall{knob=shootdown,app=0}"));
}

}  // namespace
}  // namespace vulcan::obs
