#include "runtime/builder.hpp"

#include <stdexcept>
#include <string>

#include "runtime/experiment.hpp"

namespace vulcan::runtime {

BuildResult SystemBuilder::build() {
  const auto& c = config_;
  if (c.machine.cores == 0) {
    return BuildResult::failure("machine.cores must be > 0");
  }
  if (c.epoch == 0) {
    return BuildResult::failure("epoch length must be > 0 cycles");
  }
  if (c.samples_per_epoch == 0) {
    return BuildResult::failure("samples_per_epoch must be > 0");
  }
  if (c.cores_per_workload == 0) {
    return BuildResult::failure("cores_per_workload must be > 0");
  }
  if (!(c.heat_decay > 0.0) || c.heat_decay > 1.0) {
    return BuildResult::failure("heat_decay must be in (0, 1]");
  }
  if (c.timeseries.window == 0) {
    return BuildResult::failure("timeseries.window must be > 0 cycles");
  }
  if (c.timeseries.retention == 0) {
    return BuildResult::failure("timeseries.retention must be > 0 windows");
  }
  if (!(c.timeseries.ewma_alpha > 0.0) || c.timeseries.ewma_alpha > 1.0) {
    return BuildResult::failure("timeseries.ewma_alpha must be in (0, 1]");
  }
  if (c.flight_epochs == 0) {
    return BuildResult::failure("flight_epochs must be > 0");
  }
  for (const obs::SloSpec& rule : c.slo_rules) {
    if (rule.name.empty()) {
      return BuildResult::failure("SLO rules must be named");
    }
    if (!(rule.sustain_s > 0.0)) {
      return BuildResult::failure("SLO rule \"" + rule.name +
                                  "\" must sustain for > 0 s");
    }
  }
  // One rule for custom topologies and the default paper testbed alike.
  const std::vector<mem::TierConfig> tiers = c.resolved_tiers();
  if (tiers.empty()) {
    return BuildResult::failure("custom tier list must not be empty");
  }
  for (std::size_t t = 0; t < tiers.size(); ++t) {
    if (tiers[t].capacity_pages == 0) {
      return BuildResult::failure("tier \"" + tiers[t].name +
                                  "\" has zero capacity");
    }
    if (t > 0 && tiers[t].unloaded_latency_ns < tiers[0].unloaded_latency_ns) {
      return BuildResult::failure(
          "tier 0 must be the fastest tier: \"" + tiers[t].name +
          "\" has lower unloaded latency than \"" + tiers[0].name + "\"");
    }
  }

  std::unique_ptr<policy::SystemPolicy> policy = std::move(policy_);
  if (!policy) {
    if (policy_name_.empty()) {
      return BuildResult::failure("no policy configured");
    }
    try {
      policy = make_policy(policy_name_, c.machine.cores);
    } catch (const std::invalid_argument&) {
      return BuildResult::failure("unknown policy \"" + policy_name_ + "\"");
    }
  }

  // The constructor is private to this builder, so no make_unique.
  std::unique_ptr<TieredSystem> system(new TieredSystem(c, std::move(policy)));
  for (auto& staged : staged_) {
    system->add_workload(std::move(staged.workload), staged.profiler);
  }
  staged_.clear();
  return BuildResult(std::move(system));
}

}  // namespace vulcan::runtime
