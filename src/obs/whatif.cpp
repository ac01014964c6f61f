#include "obs/whatif.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace vulcan::obs {

namespace {

/// Scale an integer cycle constant deterministically (round-to-nearest).
sim::Cycles scaled(sim::Cycles c, double s) {
  return static_cast<sim::Cycles>(
      std::llround(static_cast<double>(c) * s));
}

std::string app_key(const char* name, std::int32_t app) {
  return "app." + std::string(name) + "{app=" + std::to_string(app) + "}";
}

std::string whatif_key(const char* name, WhatIfKnob knob,
                       std::optional<std::int32_t> app = std::nullopt) {
  std::string k = "whatif." + std::string(name) + "{knob=" +
                  knob_name(knob);
  if (app) k += ",app=" + std::to_string(*app);
  return k + "}";
}

}  // namespace

const char* knob_name(WhatIfKnob knob) {
  switch (knob) {
    case WhatIfKnob::kShootdownCost: return "shootdown";
    case WhatIfKnob::kCopyBandwidth: return "copy";
    case WhatIfKnob::kPrepCost: return "prep";
    case WhatIfKnob::kUnmapCost: return "unmap";
    case WhatIfKnob::kRemapCost: return "remap";
    case WhatIfKnob::kSlowTierLatency: return "slow_latency";
    case WhatIfKnob::kEpochLength: return "epoch";
    case WhatIfKnob::kProfilerOverhead: return "profiler";
  }
  return "?";
}

std::optional<WhatIfKnob> knob_from_name(std::string_view name) {
  for (std::size_t k = 0; k < kWhatIfKnobCount; ++k) {
    const auto knob = static_cast<WhatIfKnob>(k);
    if (name == knob_name(knob)) return knob;
  }
  return std::nullopt;
}

std::string knob_vocabulary() {
  std::string vocabulary;
  for (std::size_t k = 0; k < kWhatIfKnobCount; ++k) {
    if (k) vocabulary += ' ';
    vocabulary += knob_name(static_cast<WhatIfKnob>(k));
  }
  return vocabulary;
}

void apply_perturbation(const Perturbation& p, runtime::SystemBuilder& b) {
  auto& c = b.config();
  sim::CostModelParams& m = c.cost_params;
  const double s = p.scale;
  if (s <= 0.0) {
    throw std::invalid_argument("perturbation scale must be > 0");
  }
  switch (p.knob) {
    case WhatIfKnob::kShootdownCost:
      m.shootdown_cold_fixed = scaled(m.shootdown_cold_fixed, s);
      m.shootdown_cold_per_core = scaled(m.shootdown_cold_per_core, s);
      m.shootdown_batched_per_page = scaled(m.shootdown_batched_per_page, s);
      m.shootdown_batched_per_page_per_core =
          scaled(m.shootdown_batched_per_page_per_core, s);
      m.shootdown_local_only = scaled(m.shootdown_local_only, s);
      m.shootdown_local_per_page = scaled(m.shootdown_local_per_page, s);
      break;
    case WhatIfKnob::kCopyBandwidth:
      // A copy engine s× cheaper per page is also 1/s× the bandwidth:
      // the migration budget derived from the link widens accordingly.
      m.copy_single_page = scaled(m.copy_single_page, s);
      m.copy_batched_floor *= s;
      m.copy_batched_decay *= s;
      m.dma_setup_cycles = scaled(m.dma_setup_cycles, s);
      c.machine.slow_bw_gbps /= s;
      break;
    case WhatIfKnob::kPrepCost:
      m.prep_coeff *= s;
      m.prep_opt_fixed = scaled(m.prep_opt_fixed, s);
      break;
    case WhatIfKnob::kUnmapCost:
      m.unmap_per_page = scaled(m.unmap_per_page, s);
      m.unmap_batched_per_page = scaled(m.unmap_batched_per_page, s);
      break;
    case WhatIfKnob::kRemapCost:
      m.remap_per_page = scaled(m.remap_per_page, s);
      m.remap_batched_per_page = scaled(m.remap_batched_per_page, s);
      break;
    case WhatIfKnob::kSlowTierLatency:
      c.machine.slow_latency_ns = static_cast<sim::Nanos>(
          std::llround(static_cast<double>(c.machine.slow_latency_ns) * s));
      if (c.custom_tiers) {
        // Tier 0 is the fast tier by contract; scale every slower tier.
        for (std::size_t t = 1; t < c.custom_tiers->size(); ++t) {
          auto& tier = (*c.custom_tiers)[t];
          tier.unloaded_latency_ns = static_cast<sim::Nanos>(std::llround(
              static_cast<double>(tier.unloaded_latency_ns) * s));
        }
      }
      break;
    case WhatIfKnob::kEpochLength:
      c.epoch = scaled(c.epoch, s);
      break;
    case WhatIfKnob::kProfilerOverhead:
      m.minor_fault = scaled(m.minor_fault, s);
      break;
  }
}

WhatIfScenario dilemma_scenario(std::uint64_t seed, double seconds,
                                std::string policy) {
  WhatIfScenario s;
  s.name = "dilemma";
  s.policy = policy;
  s.seconds = seconds;
  s.seed = seed;
  s.configure = [seed, policy](runtime::SystemBuilder& b) {
    b.seed(seed)
        .epoch_ms(250)
        .samples_per_epoch(10'000)
        .trace_capacity(1 << 18)
        .policy(std::string_view(policy));
  };
  s.stage = [seed]() { return runtime::dilemma_colocation(seed); };
  return s;
}

WhatIfEngine::WhatIfEngine(WhatIfScenario scenario)
    : scenario_(std::move(scenario)) {
  if (!scenario_.configure || !scenario_.stage) {
    throw std::invalid_argument(
        "whatif scenario needs configure and stage hooks");
  }
}

WhatIfRun WhatIfEngine::execute(const Perturbation* p) const {
  runtime::SystemBuilder base;
  scenario_.configure(base);
  runtime::SystemBuilder b = base.clone_config();
  if (p) apply_perturbation(*p, b);
  runtime::BuildResult built = b.build();
  if (!built) {
    throw std::runtime_error("whatif scenario does not build: " +
                             built.error());
  }
  runtime::TieredSystem& sys = *built.value();
  runtime::run_staged(sys, scenario_.stage(), scenario_.seconds);

  WhatIfRun r;
  r.snapshot = snapshot_registry(sys.obs_registry());
  r.events = sys.obs_trace().events();
  r.jain = r.snapshot.gauge("app.fairness.jain_cumulative");
  for (const std::int32_t app : r.snapshot.app_ids()) {
    r.slowdown[app] = r.snapshot.gauge(app_key("slowdown_mean", app));
    r.stall[app] = r.snapshot.counter(app_key("migration_stall_cycles", app));
  }
  return r;
}

const WhatIfRun& WhatIfEngine::baseline() {
  if (!baseline_) baseline_ = execute(nullptr);
  return *baseline_;
}

WhatIfResult WhatIfEngine::run(const Perturbation& p) {
  return reduce_against_baseline(p, execute(&p));
}

WhatIfResult WhatIfEngine::reduce_against_baseline(const Perturbation& p,
                                                   const WhatIfRun& pert) {
  const WhatIfRun& base = baseline();

  WhatIfResult result;
  result.perturbation = p;
  result.jain_base = base.jain;
  result.jain_pert = pert.jain;
  const double pct = p.cost_reduction_pct();
  const double inv_pct = pct != 0.0 ? 1.0 / pct : 0.0;
  result.djain_per_pct = (pert.jain - base.jain) * inv_pct;

  for (const auto& [app, slowdown_base] : base.slowdown) {
    WhatIfAppDelta d;
    d.app = app;
    d.slowdown_base = slowdown_base;
    const auto it = pert.slowdown.find(app);
    d.slowdown_pert = it != pert.slowdown.end() ? it->second : slowdown_base;
    d.dslowdown_per_pct = (d.slowdown_pert - d.slowdown_base) * inv_pct;
    const auto stall_base = base.stall.find(app);
    const auto stall_pert = pert.stall.find(app);
    const double sb = stall_base != base.stall.end()
                          ? static_cast<double>(stall_base->second)
                          : 0.0;
    const double sp = stall_pert != pert.stall.end()
                          ? static_cast<double>(stall_pert->second)
                          : 0.0;
    d.dstall_per_pct = (sp - sb) * inv_pct;
    result.apps.push_back(d);
  }

  if (!base.events.empty() && !pert.events.empty()) {
    const SpanForest before = build_span_forest(base.events, /*strict=*/false);
    const SpanForest after = build_span_forest(pert.events, /*strict=*/false);
    result.attribution =
        attribution_path(diff_span_forests(before, after));
  }
  return result;
}

std::vector<WhatIfResult> WhatIfEngine::run_grid(
    std::span<const Perturbation> grid, unsigned jobs) {
  // The baseline runs first, serially: every grid point reduces against
  // it, and executing it once inside the fan-out would race the cache.
  baseline();

  // Fan the perturbed runs out across the workers. Each job clones the
  // scenario's builder configuration and owns its whole system (registry,
  // trace ring, RNG), so runs are independent; the reduction below walks
  // the outcomes in grid order, which makes the output byte-identical for
  // any job count.
  exec::BatchRunner runner(jobs);
  std::vector<std::function<WhatIfRun()>> batch;
  batch.reserve(grid.size());
  for (const Perturbation& p : grid) {
    batch.push_back([this, p] { return execute(&p); });
  }
  const std::vector<WhatIfRun> runs =
      exec::values_or_throw(runner.run(std::move(batch)), "what-if grid");
  grid_stats_ = runner.stats();

  std::vector<WhatIfResult> results;
  results.reserve(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    results.push_back(reduce_against_baseline(grid[i], runs[i]));
  }
  return results;
}

std::vector<Perturbation> WhatIfEngine::default_grid() {
  std::vector<Perturbation> grid;
  for (std::size_t k = 0; k < kWhatIfKnobCount; ++k) {
    grid.push_back({static_cast<WhatIfKnob>(k), 0.9});
  }
  return grid;
}

namespace {

/// Mean sensitivity slopes per (knob, app) / per knob across grid points.
struct Slopes {
  // Keys are full registry key strings, so iteration is already the
  // publication order.
  std::map<std::string, double> by_key;

  void add(const std::string& key, double value) {
    // Mean across grid points: accumulate sum and count side tables.
    sums[key] += value;
    counts[key] += 1;
    by_key[key] = sums[key] / static_cast<double>(counts[key]);
  }

 private:
  std::map<std::string, double> sums;
  std::map<std::string, int> counts;
};

Slopes reduce(std::span<const WhatIfResult> results) {
  Slopes s;
  for (const WhatIfResult& r : results) {
    const WhatIfKnob knob = r.perturbation.knob;
    s.add(whatif_key("djain", knob), r.djain_per_pct);
    for (const WhatIfAppDelta& a : r.apps) {
      s.add(whatif_key("dslowdown", knob, a.app), a.dslowdown_per_pct);
      s.add(whatif_key("dstall", knob, a.app), a.dstall_per_pct);
    }
  }
  return s;
}

}  // namespace

void WhatIfEngine::publish(std::span<const WhatIfResult> results,
                           Registry& registry) {
  const Slopes slopes = reduce(results);
  for (const auto& [key, value] : slopes.by_key) {
    registry.gauge(key).set(value);
  }
  registry.counter("whatif.runs").inc(results.size());
}

std::vector<std::pair<std::int32_t, WhatIfKnob>> WhatIfEngine::rank_top_knobs(
    std::span<const WhatIfResult> results) {
  // Most negative mean dslowdown-per-% wins. Only management mechanism
  // costs compete: kEpochLength is a cadence and kSlowTierLatency is a
  // device property — neither names a mechanism software could cheapen.
  std::map<std::int32_t, std::map<WhatIfKnob, std::pair<double, int>>> acc;
  for (const WhatIfResult& r : results) {
    if (r.perturbation.knob == WhatIfKnob::kEpochLength ||
        r.perturbation.knob == WhatIfKnob::kSlowTierLatency) {
      continue;
    }
    for (const WhatIfAppDelta& a : r.apps) {
      auto& slot = acc[a.app][r.perturbation.knob];
      slot.first += a.dslowdown_per_pct;
      slot.second += 1;
    }
  }
  std::vector<std::pair<std::int32_t, WhatIfKnob>> top;
  for (const auto& [app, knobs] : acc) {
    WhatIfKnob best = WhatIfKnob::kShootdownCost;
    double best_slope = 0.0;
    bool first = true;
    for (const auto& [knob, sum_count] : knobs) {
      const double slope = sum_count.first / sum_count.second;
      if (first || slope < best_slope) {
        best = knob;
        best_slope = slope;
        first = false;
      }
    }
    top.emplace_back(app, best);
  }
  return top;
}

void WhatIfEngine::write_sensitivity_table(
    std::span<const WhatIfResult> results, std::ostream& out) {
  const WhatIfRun& base = baseline();
  out << "causal what-if sensitivity — scenario=" << scenario_.name
      << " policy=" << scenario_.policy << " seed=" << scenario_.seed
      << " seconds=" << scenario_.seconds << "\n";
  out << std::fixed << std::setprecision(4);
  out << "baseline: jain=" << base.jain << "  slowdowns:";
  for (const auto& [app, slowdown] : base.slowdown) {
    out << "  app" << app << "=" << slowdown;
  }
  out << "\n\n";

  out << std::left << std::setw(14) << "knob" << std::right << std::setw(7)
      << "scale" << std::setw(8) << "%cost" << std::setw(6) << "app"
      << std::setw(14) << "dslowdown/%" << std::setw(16) << "dstall/%"
      << std::setw(12) << "djain/%" << "\n";
  out << std::string(77, '-') << "\n";
  for (const WhatIfResult& r : results) {
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      const WhatIfAppDelta& a = r.apps[i];
      out << std::left << std::setw(14)
          << (i == 0 ? knob_name(r.perturbation.knob) : "") << std::right
          << std::setw(7) << std::setprecision(2) << r.perturbation.scale
          << std::setw(8) << std::setprecision(1)
          << r.perturbation.cost_reduction_pct() << std::setw(6) << a.app
          << std::setw(14) << std::setprecision(6) << a.dslowdown_per_pct
          << std::setw(16) << std::setprecision(0) << a.dstall_per_pct
          << std::setw(12) << std::setprecision(6)
          << (i == 0 ? r.djain_per_pct : 0.0) << "\n";
    }
    if (!r.attribution.empty()) {
      out << "              attribution:";
      for (std::size_t i = 0; i < r.attribution.size(); ++i) {
        out << (i ? " > " : " ") << r.attribution[i];
      }
      out << "\n";
    }
  }

  out << "\nmost fairness-critical mechanism per app "
         "(largest slowdown relief per % cost reduction):\n";
  const auto top = rank_top_knobs(results);
  for (const auto& [app, knob] : top) {
    // Recover the mean slope for the winning knob for display.
    double sum = 0.0;
    int n = 0;
    for (const WhatIfResult& r : results) {
      if (r.perturbation.knob != knob) continue;
      for (const WhatIfAppDelta& a : r.apps) {
        if (a.app == app) {
          sum += a.dslowdown_per_pct;
          ++n;
        }
      }
    }
    out << "  app " << app << ": " << std::left << std::setw(13)
        << knob_name(knob) << std::right << " (dslowdown "
        << std::setprecision(6) << (n ? sum / n : 0.0)
        << " per % cost reduction)\n";
  }
  out.unsetf(std::ios::floatfield);
  out << std::setprecision(6);
}

void WhatIfEngine::write_bench_json(std::span<const WhatIfResult> results,
                                    std::ostream& out) {
  const WhatIfRun& base = baseline();
  const Slopes slopes = reduce(results);
  std::ostringstream buf;
  buf << std::setprecision(12);
  buf << "{\n  \"scenario\": \"" << scenario_.name << "\",\n"
      << "  \"policy\": \"" << scenario_.policy << "\",\n"
      << "  \"seed\": " << scenario_.seed << ",\n"
      << "  \"seconds\": " << scenario_.seconds << ",\n"
      << "  \"grid_points\": " << results.size() << ",\n"
      << "  \"baseline\": {\"jain\": " << base.jain << ", \"apps\": [";
  bool first = true;
  for (const auto& [app, slowdown] : base.slowdown) {
    const auto stall = base.stall.find(app);
    buf << (first ? "" : ", ") << "{\"app\": " << app
        << ", \"slowdown\": " << slowdown << ", \"stall_cycles\": "
        << (stall != base.stall.end() ? stall->second : 0) << "}";
    first = false;
  }
  buf << "]},\n  \"whatif\": {";
  first = true;
  for (const auto& [key, value] : slopes.by_key) {
    buf << (first ? "" : ",") << "\n    \"" << key << "\": " << value;
    first = false;
  }
  buf << (first ? "" : "\n  ") << "},\n  \"top_knob\": [";
  first = true;
  for (const auto& [app, knob] : rank_top_knobs(results)) {
    buf << (first ? "" : ", ") << "{\"app\": " << app << ", \"knob\": \""
        << knob_name(knob) << "\"}";
    first = false;
  }
  buf << "],\n  \"attribution\": {";
  // First grid point per knob, in knob-name order.
  std::map<std::string, std::string> attributions;
  for (const WhatIfResult& r : results) {
    const std::string name = knob_name(r.perturbation.knob);
    if (attributions.count(name)) continue;
    std::string path;
    for (std::size_t i = 0; i < r.attribution.size(); ++i) {
      path += (i ? " > " : "") + r.attribution[i];
    }
    attributions[name] = std::move(path);
  }
  first = true;
  for (const auto& [knob, path] : attributions) {
    buf << (first ? "" : ",") << "\n    \"" << knob << "\": \"" << path
        << "\"";
    first = false;
  }
  buf << (first ? "" : "\n  ") << "}\n}\n";
  out << buf.str();
}

std::vector<Perturbation> parse_plan(std::istream& in, std::string& error) {
  std::vector<Perturbation> grid;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream tokens(line);
    std::string knob;
    if (!(tokens >> knob)) continue;  // blank / comment-only line
    const std::optional<WhatIfKnob> k = knob_from_name(knob);
    if (!k) {
      error = "line " + std::to_string(lineno) + ": unknown knob \"" + knob +
              "\" (valid knobs: " + knob_vocabulary() + ")";
      return {};
    }
    double scale = 0.0;
    bool any = false;
    while (tokens >> scale) {
      if (scale <= 0.0) {
        error = "line " + std::to_string(lineno) +
                ": scale must be > 0, got " + std::to_string(scale);
        return {};
      }
      grid.push_back({*k, scale});
      any = true;
    }
    if (!any) {
      error = "line " + std::to_string(lineno) + ": knob \"" + knob +
              "\" has no scales";
      return {};
    }
    if (!tokens.eof()) {
      error = "line " + std::to_string(lineno) + ": unparseable scale";
      return {};
    }
  }
  return grid;
}

}  // namespace vulcan::obs
