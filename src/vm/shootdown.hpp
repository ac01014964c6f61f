// TLB shootdown controller: models the IPI-based coherence protocol page
// migration must run when it changes live translations (Observation #3).
//
// Two request shapes are supported, matching the cost-model's two calibrated
// kernel regimes (see sim/cost_model.hpp): a cold single-page broadcast and
// a batched steady-state flush. Target selection is the policy-visible knob:
// the vanilla kernel broadcasts to every core in the process's cpumask,
// while Vulcan's per-thread page tables shrink the set to actual sharers.
#pragma once

#include <cstdint>
#include <span>

#include "obs/scope.hpp"
#include "sim/cost_model.hpp"
#include "vm/types.hpp"

namespace vulcan::vm {

class Mmu;

class ShootdownController {
 public:
  struct Stats {
    std::uint64_t shootdowns = 0;     ///< shootdown operations issued
    std::uint64_t ipis = 0;           ///< total remote cores interrupted
    std::uint64_t local_only = 0;     ///< operations needing no IPIs
    sim::Cycles cycles = 0;           ///< total cycles spent in shootdowns
  };

  /// Invalidations route through vm::Mmu so the page-walk cache is
  /// dropped coherently alongside TLB entries. `mmu` may be null for pure
  /// cost studies.
  ShootdownController(const sim::CostModel& cost, Mmu* mmu)
      : cost_(&cost), mmu_(mmu) {}

  /// The attached facade (null for pure cost studies).
  Mmu* mmu() const { return mmu_; }

  /// Cold-path shootdown of one page. `targets` are the *remote* cores that
  /// may cache the translation (the initiator flushes locally for free-ish).
  /// Invalidates the entry in every target TLB and returns the cycle cost.
  sim::Cycles shoot_single(CoreId initiator, std::span<const CoreId> targets,
                           ProcessId pid, Vpn vpn);

  /// Batched-path shootdown of many pages against the same target set.
  sim::Cycles shoot_batch(CoreId initiator, std::span<const CoreId> targets,
                          ProcessId pid, std::span<const Vpn> vpns);

  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Attach observability: counters under the scope plus issue/ack trace
  /// events per shootdown operation.
  void set_obs(obs::Scope scope);

 private:
  void record(unsigned targets, std::uint64_t pages, sim::Cycles cost);

  const sim::CostModel* cost_;
  Mmu* mmu_ = nullptr;
  Stats stats_;
  obs::Scope obs_;
  obs::Counter* obs_ops_ = &obs::detail::dummy_counter;
  obs::Counter* obs_ipis_ = &obs::detail::dummy_counter;
  obs::Counter* obs_pages_ = &obs::detail::dummy_counter;
  obs::Counter* obs_cycles_ = &obs::detail::dummy_counter;
};

}  // namespace vulcan::vm
