// A forwarding SystemPolicy decorator that records one "policy.plan" span
// around every plan_epoch call of the policy it wraps and counts its
// placement_tier calls (one per demand fault).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "policy/policy.hpp"
#include "spans.hpp"

namespace perfbench {

class TimedPolicy final : public vulcan::policy::SystemPolicy {
 public:
  /// `log` and `placements` must outlive the decorator.
  TimedPolicy(std::unique_ptr<vulcan::policy::SystemPolicy> inner,
              SpanLog& log, std::uint64_t& placements)
      : inner_(std::move(inner)), log_(&log), placements_(&placements) {}

  void plan_epoch(std::span<vulcan::policy::WorkloadView> workloads,
                  vulcan::mem::Topology& topo,
                  vulcan::sim::Rng& rng) override {
    vulcan::policy::SystemPolicy& policy = inner();
    ScopedSpan span(*log_, "policy.plan");
    policy.plan_epoch(workloads, topo, rng);
  }
  vulcan::mem::TierId placement_tier(
      const vulcan::policy::WorkloadView& view,
      const vulcan::mem::Topology& topo) const override {
    ++*placements_;
    return inner().placement_tier(view, topo);
  }
  vulcan::mig::Migrator::Config migrator_config() const override {
    return inner().migrator_config();
  }
  void on_workload_departed(unsigned index) override {
    inner().on_workload_departed(index);
  }
  std::string_view name() const override { return inner().name(); }

 private:
  // SystemPolicy::set_obs is not virtual, so the scope the system installs
  // on this decorator is handed to the wrapped policy on the first call.
  // TieredSystem installs it once, at construction, before calling any
  // virtual, so every call the wrapped policy sees already has it.
  vulcan::policy::SystemPolicy& inner() const {
    if (!obs_forwarded_) {
      inner_->set_obs(obs());
      obs_forwarded_ = true;
    }
    return *inner_;
  }

  std::unique_ptr<vulcan::policy::SystemPolicy> inner_;
  SpanLog* log_;
  std::uint64_t* placements_;
  mutable bool obs_forwarded_ = false;
};

}  // namespace perfbench
