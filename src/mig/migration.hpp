// Shared migration types.
#pragma once

#include <cstdint>

#include "mem/tier.hpp"
#include "sim/clock.hpp"
#include "vm/types.hpp"

namespace vulcan::mig {

/// Sync copy blocks the application for the duration (TPP promotion);
/// async copy runs on migration threads off the critical path (Memtis,
/// Nomad), at the price of dirty-page retries for write-hot pages.
enum class CopyMode : std::uint8_t { kSync, kAsync };

/// One migration order produced by a policy, executed by a Migrator.
struct MigrationRequest {
  vm::Vpn vpn = 0;
  mem::TierId to = mem::kFastTier;
  CopyMode mode = CopyMode::kSync;
  /// Page-table sharing state (drives targeted shootdown scope).
  bool shared = true;
  vm::ThreadId owner = 0;  ///< valid when !shared
  /// Write intensity per the heat tracker (drives retry risk for async).
  bool write_intensive = false;
  /// Migrate the whole 2 MB chunk containing `vpn` as a unit and keep (or
  /// re-establish) its huge mapping — the Memtis-style page-size
  /// alternative to Vulcan's split-on-promotion. Costs are batched; the
  /// trade is TLB coverage vs fast-tier capacity spent on cold tail pages.
  bool whole_chunk = false;
  double heat = 0.0;
  /// Heat margin over the threshold the issuing policy measured the page
  /// against, signed towards the move's direction: positive iff the policy
  /// predicts the move is profitable (promotions want heat above the cut,
  /// demotions below it). Stamped by policy::record_decision; admission
  /// control scores it against the predicted migration cost.
  double predicted_benefit = 0.0;
  /// Provenance ledger decision id (policy::record_decision); 0 = none.
  /// The migrator links the executed outcome back to this record.
  std::uint64_t provenance = 0;

  bool operator==(const MigrationRequest&) const = default;
};

/// Aggregated outcome of executing a batch of requests.
struct MigrationStats {
  std::uint64_t attempted = 0;
  std::uint64_t vetoed = 0;          ///< rejected by admission control
  std::uint64_t migrated = 0;
  std::uint64_t failed = 0;          ///< async aborts (dirty retries exhausted)
  std::uint64_t shadow_remaps = 0;   ///< demotions satisfied by a shadow copy
  std::uint64_t retries = 0;         ///< async dirty re-copies
  std::uint64_t private_migrated = 0;  ///< migrations of exclusively-owned pages
  std::uint64_t shootdown_ipis = 0;  ///< remote cores interrupted on our behalf
  sim::Cycles stall_cycles = 0;      ///< charged to the application threads
  sim::Cycles daemon_cycles = 0;     ///< charged to migration threads
  std::uint64_t bytes_copied = 0;

  MigrationStats& operator+=(const MigrationStats& o) {
    attempted += o.attempted;
    vetoed += o.vetoed;
    migrated += o.migrated;
    failed += o.failed;
    shadow_remaps += o.shadow_remaps;
    retries += o.retries;
    private_migrated += o.private_migrated;
    shootdown_ipis += o.shootdown_ipis;
    stall_cycles += o.stall_cycles;
    daemon_cycles += o.daemon_cycles;
    bytes_copied += o.bytes_copied;
    return *this;
  }
};

}  // namespace vulcan::mig
