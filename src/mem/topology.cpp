#include "mem/topology.hpp"

#include <cassert>
#include <utility>

namespace vulcan::mem {

Topology::Topology(std::vector<TierConfig> tiers, double link_gbps)
    : tiers_(std::move(tiers)),
      link_(/*unloaded_ns=*/0, link_gbps) {
  assert(!tiers_.empty());
  utilization_.assign(tiers_.size(), 0.0);
  allocators_.reserve(tiers_.size());
  models_.reserve(tiers_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    allocators_.emplace_back(static_cast<TierId>(t), tiers_[t].capacity_pages);
    models_.emplace_back(tiers_[t].unloaded_latency_ns,
                         tiers_[t].peak_bandwidth_gbps);
  }
}

Topology Topology::paper_testbed(const sim::MachineConfig& mc) {
  return Topology(paper_testbed_tiers(mc), mc.slow_bw_gbps);
}

std::vector<TierConfig> Topology::paper_testbed_tiers(
    const sim::MachineConfig& mc) {
  return {TierConfig{"fast-dram", mc.fast_pages(), mc.fast_latency_ns,
                     mc.fast_bw_gbps},
          TierConfig{"slow-cxl", mc.slow_pages(), mc.slow_latency_ns,
                     mc.slow_bw_gbps}};
}

}  // namespace vulcan::mem
