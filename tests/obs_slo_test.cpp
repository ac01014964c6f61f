// SloMonitor self-tests: two-sided sustain hysteresis (no flapping),
// below-threshold rules, trace events + slo.* counters on fire/recover,
// and the default pack catching the dilemma's LC victim deterministically.
#include "obs/slo.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "sim/clock.hpp"

namespace vulcan::obs {
namespace {

constexpr sim::Cycles kEpoch = 1000;

SloSpec gauge_rule(double threshold, SloOp op, std::uint64_t sustain_epochs) {
  SloSpec r;
  r.name = "test-rule";
  r.signal = SloSignal::kGauge;
  r.key = "g";
  r.op = op;
  r.threshold = threshold;
  r.sustain_s = sim::CpuClock::to_seconds(kEpoch) *
                static_cast<double>(sustain_epochs);
  return r;
}

/// Drive one gauge through `levels`, one epoch boundary per level.
struct Harness {
  Registry reg;
  TimeSeriesStore store;
  TraceRing trace{256};
  SloMonitor monitor;

  explicit Harness(std::vector<SloSpec> specs)
      : store([] {
          TimeSeriesConfig cfg;
          cfg.window = kEpoch;
          return cfg;
        }()),
        monitor(std::move(specs), kEpoch) {}

  SloEvalResult step(double level, std::uint64_t boundary) {
    reg.gauge("g").set(level);
    const sim::Cycles now = boundary * kEpoch;
    store.observe(reg, now);
    return monitor.evaluate(store, reg, &trace, now);
  }
};

TEST(SloMonitor, SustainHysteresisPreventsFlapping) {
  Harness h({gauge_rule(1.0, SloOp::kAbove, 2)});

  // One breached boundary is not enough to fire...
  EXPECT_EQ(h.step(2.0, 0).fired, 0u);
  // ...two consecutive are; the violation fires exactly once.
  EXPECT_EQ(h.step(2.0, 1).fired, 1u);
  EXPECT_EQ(h.step(2.0, 2).fired, 0u);
  ASSERT_EQ(h.monitor.states().size(), 1u);
  EXPECT_TRUE(h.monitor.states()[0].violated);
  EXPECT_EQ(h.monitor.active(), 1u);

  // A single ok boundary does not recover (two-sided hysteresis)...
  EXPECT_EQ(h.step(0.5, 3).recovered, 0u);
  EXPECT_TRUE(h.monitor.states()[0].violated);
  // ...and a re-breach resets the ok streak without re-firing.
  EXPECT_EQ(h.step(2.0, 4).fired, 0u);
  // Two consecutive ok boundaries recover exactly once.
  EXPECT_EQ(h.step(0.5, 5).recovered, 0u);
  EXPECT_EQ(h.step(0.5, 6).recovered, 1u);
  EXPECT_FALSE(h.monitor.states()[0].violated);
  EXPECT_EQ(h.monitor.violations_total(), 1u);
  EXPECT_EQ(h.monitor.recoveries_total(), 1u);
  EXPECT_EQ(h.monitor.active(), 0u);
}

TEST(SloMonitor, BelowRuleFiresUnderTheFloor) {
  Harness h({gauge_rule(0.8, SloOp::kBelow, 1)});
  EXPECT_EQ(h.step(0.9, 0).fired, 0u);
  EXPECT_EQ(h.step(0.7, 1).fired, 1u);
  EXPECT_EQ(h.step(0.9, 2).recovered, 1u);
}

TEST(SloMonitor, FiringEmitsTraceEventsAndCounters) {
  std::vector<SloSpec> specs = {gauge_rule(1.0, SloOp::kAbove, 1)};
  specs[0].severity = SloSeverity::kCritical;
  Harness h(std::move(specs));

  const SloEvalResult fired = h.step(3.5, 0);
  EXPECT_EQ(fired.fired, 1u);
  EXPECT_EQ(fired.max_fired, SloSeverity::kCritical);
  const SloEvalResult recovered = h.step(0.5, 1);
  EXPECT_EQ(recovered.recovered, 1u);

  // slo.* counters entered the registry (and the active gauge cleared).
  EXPECT_EQ(h.reg.counter_value("slo.violations{rule=test-rule}"), 1u);
  EXPECT_EQ(h.reg.counter_value("slo.recoveries{rule=test-rule}"), 1u);
  EXPECT_DOUBLE_EQ(h.reg.gauge_value("slo.active"), 0.0);

  const std::vector<TraceEvent> events = h.trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSloViolation);
  EXPECT_EQ(events[0].a, 0u);  // rule index
  EXPECT_DOUBLE_EQ(events[0].v, 3.5);
  EXPECT_EQ(events[1].kind, EventKind::kSloRecovered);
}

TEST(SloMonitor, ShareSignalMeasuresFailureShare) {
  SloSpec r;
  r.name = "share";
  r.signal = SloSignal::kShare;
  r.key = "failed";
  r.key2 = "ok";
  r.threshold = 0.5;
  r.sustain_s = sim::CpuClock::to_seconds(kEpoch);
  Harness h({r});

  h.reg.counter("failed").inc(3);
  h.reg.counter("ok").inc(1);
  h.store.observe(h.reg, 0);
  const SloEvalResult res = h.monitor.evaluate(h.store, h.reg, nullptr, 0);
  EXPECT_EQ(res.fired, 1u);  // 3 / (3 + 1) = 0.75 > 0.5
  EXPECT_DOUBLE_EQ(h.monitor.states()[0].value, 0.75);
}

TEST(SloMonitor, AppSlowdownExpandsPerApp) {
  SloSpec r;
  r.name = "per-app";
  r.signal = SloSignal::kAppSlowdown;
  r.threshold = 1.3;
  r.sustain_s = sim::CpuClock::to_seconds(kEpoch);
  Harness h({r});

  h.reg.gauge("app.slowdown{app=0}").set(1.6);
  h.reg.gauge("app.slowdown{app=1}").set(1.1);
  h.store.observe(h.reg, 0);
  const SloEvalResult res = h.monitor.evaluate(h.store, h.reg, nullptr, 0);
  EXPECT_EQ(res.fired, 1u);
  const auto states = h.monitor.states();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0].app, 0);
  EXPECT_TRUE(states[0].violated);
  EXPECT_EQ(states[1].app, 1);
  EXPECT_FALSE(states[1].violated);
  EXPECT_EQ(
      h.reg.counter_value("slo.violations{rule=per-app,app=0}"), 1u);
}

// ------------------------------------------------------------ integration

// The acceptance scenario: the default pack over the cold-page dilemma
// must deterministically flag the latency-critical victim (app 0), and the
// verdict must be identical run-to-run.
TEST(SloLive, DefaultPackFlagsTheDilemmaVictim) {
  auto run = [] {
    auto built = runtime::SystemBuilder{}
                     .seed(42)
                     .slo(default_slo_pack())
                     .policy(runtime::make_policy("vulcan"))
                     .build();
    runtime::TieredSystem& sys = *built.value();
    runtime::run_staged(sys, runtime::dilemma_colocation(42), 12.5);

    const SloMonitor* slo = sys.slo_monitor();
    EXPECT_NE(slo, nullptr);
    bool victim_flagged = false;
    for (const SloRuleState& st : slo->states()) {
      if (st.rule == 0 && st.app == 0 && st.violations > 0) {
        victim_flagged = true;
      }
    }
    EXPECT_TRUE(victim_flagged)
        << "app-slowdown never fired for the LC victim";
    EXPECT_GE(sys.obs_registry().counter_value(
                  "slo.violations{rule=app-slowdown,app=0}"),
              1u);
    return slo->violations_total();
  };
  const std::uint64_t first = run();
  EXPECT_GE(first, 1u);
  EXPECT_EQ(first, run()) << "SLO verdict is not deterministic";
}

TEST(SloLive, NoRulesMeansNoMonitorAndNoSloCounters) {
  auto built = runtime::SystemBuilder{}
                   .samples_per_epoch(2000)
                   .policy(runtime::make_policy("tpp"))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  runtime::run_staged(sys, runtime::dilemma_colocation(42), 1.0);
  EXPECT_EQ(sys.slo_monitor(), nullptr);
  EXPECT_FALSE(sys.obs_registry().has_gauge("slo.active"));
}

}  // namespace
}  // namespace vulcan::obs
