#include "runtime/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "sim/rng.hpp"

namespace vulcan::runtime {

namespace {

// Decouples an app's *scheduling* stream (archetype mix, arrival gap,
// lifetime) from its *workload* stream (make_fleet_app uses the raw
// fleet_app_seed), so the two never alias draws.
constexpr std::uint64_t kScheduleSalt = 0x9E3779B97F4A7C15ULL;

}  // namespace

std::vector<StagedWorkload> make_fleet(const FleetSpec& spec) {
  if (spec.apps == 0) return {};
  std::vector<StagedWorkload> stages;
  stages.reserve(spec.apps);

  const double mean_life =
      spec.mean_lifetime_s > 0 ? spec.mean_lifetime_s : spec.seconds * 0.5;
  // churn_per_min counts arrivals + departures; every churned app
  // eventually contributes one of each, so arrivals alone run at half the
  // churn rate.
  const double arrival_gap_s =
      spec.churn_per_min > 0 ? 120.0 / spec.churn_per_min : 0.0;

  // Poisson arrival clock, advanced app by app in id order. Initial-set
  // membership and each arrival gap are drawn from the *arriving* app's
  // own stream, so the schedule for apps 0..k is a pure function of
  // (seed, ids 0..k) — growing the fleet appends apps without moving
  // anyone already scheduled.
  double clock = 0.0;
  for (unsigned id = 0; id < spec.apps; ++id) {
    sim::Rng rng(wl::fleet_app_seed(spec.seed, id) ^ kScheduleSalt);

    const double mix = rng.uniform();
    const wl::FleetArchetype archetype =
        mix < spec.lc_fraction ? wl::FleetArchetype::kLcService
        : mix < spec.lc_fraction + spec.be_fraction
            ? wl::FleetArchetype::kBeBatch
            : wl::FleetArchetype::kAntagonist;

    // App 0 anchors the fleet so a churned run never opens empty.
    const bool initial = arrival_gap_s <= 0.0 || id == 0 ||
                         rng.chance(spec.initial_fraction);
    StagedWorkload stage;
    if (initial) {
      stage.start_s = 0.0;
    } else {
      clock += -arrival_gap_s * std::log(1.0 - rng.uniform());
      stage.start_s = clock;
    }
    if (arrival_gap_s > 0.0) {
      // Exponential lifetime, floored at one second so an app always runs
      // at least a few epochs before retiring.
      const double life =
          std::max(1.0, -mean_life * std::log(1.0 - rng.uniform()));
      stage.end_s = stage.start_s + life;
    }
    stage.workload =
        wl::make_fleet_app(id, archetype, spec.seed, spec.footprint_scale);
    stages.push_back(std::move(stage));
  }
  return stages;
}

obs::TimeSeriesConfig fleet_timeseries_config(double seconds) {
  // Tail-fairness windows: wider than the epoch (several epochs fold into
  // each window) and retained for the whole run.
  obs::TimeSeriesConfig ts;
  ts.window = sim::CpuClock::from_nanos(
      static_cast<std::uint64_t>(kFleetWindowSeconds * 1e9));
  ts.retention =
      static_cast<std::size_t>(seconds / kFleetWindowSeconds) + 8;
  return ts;
}

std::vector<FleetWindowRow> fleet_windows(const obs::TimeSeriesStore& store) {
  // Assemble per-window rows from the three gauges' aligned windows (all
  // are observed at the same epoch boundaries).
  std::map<std::uint64_t, FleetWindowRow> rows;
  if (const obs::Series* s = store.find("app.fairness.worst_slowdown")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.worst_slowdown = w.max;
    }
  }
  if (const obs::Series* s = store.find("app.fairness.jain")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.jain_min = w.min;
    }
  }
  if (const obs::Series* s = store.find("runtime.live_workloads")) {
    for (const obs::SeriesWindow& w : s->windows()) {
      FleetWindowRow& row = rows[w.index];
      row.window = w.index;
      row.live_apps = w.last;
    }
  }
  std::vector<FleetWindowRow> out;
  out.reserve(rows.size());
  for (auto& [index, row] : rows) {
    row.time_s = static_cast<double>(index) * kFleetWindowSeconds;
    out.push_back(row);
  }
  return out;
}

TailFairness tail_fairness(std::span<const FleetWindowRow> windows) {
  TailFairness tail;
  std::vector<double> window_worst;
  window_worst.reserve(windows.size());
  for (const FleetWindowRow& row : windows) {
    tail.worst_slowdown = std::max(tail.worst_slowdown, row.worst_slowdown);
    tail.jain_floor = std::min(tail.jain_floor, row.jain_min);
    window_worst.push_back(row.worst_slowdown);
  }
  if (!window_worst.empty()) {
    std::sort(window_worst.begin(), window_worst.end());
    const std::size_t at = std::min(
        window_worst.size() - 1,
        static_cast<std::size_t>(
            std::ceil(0.99 * static_cast<double>(window_worst.size())) - 1));
    tail.worst_slowdown_p99 = window_worst[at];
  }
  return tail;
}

ScenarioSpec fleet_scenario(const FleetSpec& spec) {
  ScenarioSpec scenario;
  scenario.name = "fleet";
  scenario.seconds = spec.seconds;
  scenario.seed = spec.seed;
  scenario.configure = [seconds = spec.seconds](SystemBuilder& b) {
    b.timeseries(fleet_timeseries_config(seconds));
  };
  scenario.stage = [spec] { return make_fleet(spec); };
  return scenario;
}

}  // namespace vulcan::runtime
