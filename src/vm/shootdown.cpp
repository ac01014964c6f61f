#include "vm/shootdown.hpp"

#include "vm/mmu.hpp"

namespace vulcan::vm {

void ShootdownController::set_obs(obs::Scope scope) {
  obs_ = std::move(scope);
  obs_ops_ = &obs_.counter("operations");
  obs_ipis_ = &obs_.counter("ipis");
  obs_pages_ = &obs_.counter("pages");
  obs_cycles_ = &obs_.counter("cycles");
}

void ShootdownController::record(unsigned targets, std::uint64_t pages,
                                 sim::Cycles cost) {
  obs_ops_->inc();
  obs_ipis_->inc(targets);
  obs_pages_->inc(pages);
  obs_cycles_->inc(cost);
  obs_.event(obs::EventKind::kShootdownIssue, targets, pages);
  obs_.event(obs::EventKind::kShootdownAck, targets, cost);
}

sim::Cycles ShootdownController::shoot_single(CoreId initiator,
                                              std::span<const CoreId> targets,
                                              ProcessId pid, Vpn vpn) {
  // One IPI round = one timeline span (nested inside the caller's
  // phase_shootdown span); `thread` carries the remote-target count.
  obs::ScopedSpan span =
      obs_.span(obs::SpanKind::kShootdown, /*arg=*/1.0, /*tier=*/0,
                static_cast<std::uint16_t>(targets.size()));
  if (mmu_) mmu_->invalidate(initiator, targets, pid, vpn);
  const sim::Cycles cost =
      cost_->shootdown_cold(static_cast<unsigned>(targets.size()));
  ++stats_.shootdowns;
  stats_.ipis += targets.size();
  if (targets.empty()) ++stats_.local_only;
  stats_.cycles += cost;
  record(static_cast<unsigned>(targets.size()), 1, cost);
  span.close(cost, static_cast<double>(cost));
  return cost;
}

sim::Cycles ShootdownController::shoot_batch(CoreId initiator,
                                             std::span<const CoreId> targets,
                                             ProcessId pid,
                                             std::span<const Vpn> vpns) {
  obs::ScopedSpan span =
      obs_.span(obs::SpanKind::kShootdown,
                /*arg=*/static_cast<double>(vpns.size()), /*tier=*/0,
                static_cast<std::uint16_t>(targets.size()));
  if (mmu_) {
    for (const Vpn vpn : vpns) mmu_->invalidate(initiator, targets, pid, vpn);
  }
  const sim::Cycles cost = cost_->shootdown_batched(
      vpns.size(), static_cast<unsigned>(targets.size()));
  ++stats_.shootdowns;
  stats_.ipis += targets.size() * (vpns.empty() ? 0 : 1);
  if (targets.empty()) ++stats_.local_only;
  stats_.cycles += cost;
  record(vpns.empty() ? 0 : static_cast<unsigned>(targets.size()),
         vpns.size(), cost);
  span.close(cost, static_cast<double>(cost));
  return cost;
}

}  // namespace vulcan::vm
