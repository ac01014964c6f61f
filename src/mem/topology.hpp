// Tiered memory topology: the tiers, their allocators and latency models,
// and the inter-tier migration link.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/bandwidth_model.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/tier.hpp"
#include "sim/config.hpp"

namespace vulcan::mem {

/// The machine's memory system: an ordered list of tiers (index 0 fastest)
/// plus the link migrations travel over (UPI / CXL, 25 GB/s per direction on
/// the paper's testbed).
class Topology {
 public:
  /// Build the paper's testbed topology from a MachineConfig
  /// (32 GB @ 70 ns fast, 256 GB @ 162 ns slow, capacities pre-scaled).
  static Topology paper_testbed(const sim::MachineConfig& mc = {});
  /// The tier list paper_testbed() builds, without the allocators.
  static std::vector<TierConfig> paper_testbed_tiers(
      const sim::MachineConfig& mc);

  /// Build an arbitrary topology.
  explicit Topology(std::vector<TierConfig> tiers, double link_gbps = 25.0);

  std::size_t tier_count() const { return tiers_.size(); }
  const TierConfig& config(TierId t) const { return tiers_[t]; }
  FrameAllocator& allocator(TierId t) { return allocators_[t]; }
  const FrameAllocator& allocator(TierId t) const { return allocators_[t]; }
  const BandwidthModel& latency_model(TierId t) const { return models_[t]; }
  const BandwidthModel& link() const { return link_; }

  /// Unloaded access latency of the tier holding `pfn`.
  sim::Nanos unloaded_latency_ns(Pfn pfn) const {
    return tiers_[tier_of(pfn)].unloaded_latency_ns;
  }

  /// Current bandwidth utilisation per tier (published by the runtime each
  /// epoch; policies read it to make contention-aware decisions, e.g. the
  /// Colloid-style migration gate of §3.6).
  void set_utilization(TierId t, double u) { utilization_[t] = u; }
  double utilization(TierId t) const { return utilization_[t]; }

  /// Loaded access latency of tier `t` at its current utilisation.
  sim::Nanos loaded_latency_ns(TierId t) const {
    return models_[t].loaded_latency_ns(utilization_[t]);
  }

  /// Total and free capacity helpers.
  std::uint64_t capacity_pages(TierId t) const { return tiers_[t].capacity_pages; }
  std::uint64_t free_pages(TierId t) const { return allocators_[t].free_pages(); }

 private:
  std::vector<TierConfig> tiers_;
  std::vector<FrameAllocator> allocators_;
  std::vector<BandwidthModel> models_;
  std::vector<double> utilization_;
  BandwidthModel link_;
};

}  // namespace vulcan::mem
