// Per-application migration thread (§3.2): Vulcan decouples migration from
// the kernel by giving every managed application dedicated migration
// threads fed through shared-memory queues. Policies enqueue requests; each
// epoch the thread drains as many as the inter-tier link budget allows.
#pragma once

#include <algorithm>
#include <cassert>
#include <deque>
#include <vector>

#include "mig/migrator.hpp"

namespace vulcan::mig {

class MigrationThread {
 public:
  explicit MigrationThread(Migrator& migrator) : migrator_(&migrator) {}

  void enqueue(const MigrationRequest& req) {
    queue_.push_back(pack(req));
    if (req.provenance) provenance_.push_back(req.provenance);
  }

  /// Push to the front (urgent work, e.g. watermark-driven demotions).
  void enqueue_urgent(const MigrationRequest& req) {
    queue_.push_front(pack(req));
    if (req.provenance) provenance_.push_front(req.provenance);
  }

  std::size_t backlog() const { return queue_.size(); }
  void clear_backlog() {
    queue_.clear();
    provenance_.clear();
  }

  /// Dequeue up to `max` requests, front first, unpacked.
  std::vector<MigrationRequest> pop_batch(std::uint64_t max) {
    std::vector<MigrationRequest> batch;
    batch.reserve(std::min<std::uint64_t>(max, queue_.size()));
    while (!queue_.empty() && batch.size() < max) {
      batch.push_back(unpack_front());
    }
    return batch;
  }

  /// Execute up to `page_budget` queued requests (the epoch's share of
  /// inter-tier link bandwidth). Returns the aggregated stats.
  MigrationStats run_epoch(std::uint64_t page_budget, sim::Rng& rng) {
    return migrator_->execute(pop_batch(page_budget), rng);
  }

  Migrator& migrator() { return *migrator_; }

 private:
  /// One queued request in 24 bytes (a MigrationRequest is 40). The
  /// baselines re-enqueue their hot pages every epoch while the link
  /// budget drains only a few hundred, so backlogs reach ~10^6 entries
  /// and dominate a fleet run's memory. Every field is exact: the heat is
  /// a widened HeatTracker float, `to` and `owner` are bytes, and the
  /// provenance id (zero unless a ledger is attached) lives in a sparse
  /// side column flagged by kHasProvenance.
  struct Packed {
    vm::Vpn vpn;
    double predicted_benefit;
    float heat;
    /// to (bits 0-7) | owner (bits 8-15) | flag bits below.
    std::uint32_t bits;

    static constexpr std::uint32_t kAsync = 1u << 16;
    static constexpr std::uint32_t kShared = 1u << 17;
    static constexpr std::uint32_t kWriteIntensive = 1u << 18;
    static constexpr std::uint32_t kWholeChunk = 1u << 19;
    static constexpr std::uint32_t kHasProvenance = 1u << 20;
  };
  static_assert(sizeof(Packed) <= 24);

  static Packed pack(const MigrationRequest& req) {
    const auto heat = static_cast<float>(req.heat);
    assert(static_cast<double>(heat) == req.heat &&
           "queued heat must be a widened HeatTracker float");
    std::uint32_t bits = req.to | (std::uint32_t{req.owner} << 8);
    if (req.mode == CopyMode::kAsync) bits |= Packed::kAsync;
    if (req.shared) bits |= Packed::kShared;
    if (req.write_intensive) bits |= Packed::kWriteIntensive;
    if (req.whole_chunk) bits |= Packed::kWholeChunk;
    if (req.provenance) bits |= Packed::kHasProvenance;
    return {req.vpn, req.predicted_benefit, heat, bits};
  }

  MigrationRequest unpack_front() {
    const Packed p = queue_.front();
    queue_.pop_front();
    MigrationRequest req;
    req.vpn = p.vpn;
    req.to = static_cast<mem::TierId>(p.bits & 0xFF);
    req.owner = static_cast<vm::ThreadId>((p.bits >> 8) & 0xFF);
    req.mode = p.bits & Packed::kAsync ? CopyMode::kAsync : CopyMode::kSync;
    req.shared = p.bits & Packed::kShared;
    req.write_intensive = p.bits & Packed::kWriteIntensive;
    req.whole_chunk = p.bits & Packed::kWholeChunk;
    req.heat = p.heat;
    req.predicted_benefit = p.predicted_benefit;
    if (p.bits & Packed::kHasProvenance) {
      req.provenance = provenance_.front();
      provenance_.pop_front();
    }
    return req;
  }

  Migrator* migrator_;
  std::deque<Packed> queue_;
  /// The non-zero provenance ids, in queue order: enqueue/enqueue_urgent
  /// push them on the same end as their record, so the flagged records
  /// and this column pop in lockstep. Empty whenever no ledger is attached.
  std::deque<std::uint64_t> provenance_;
};

}  // namespace vulcan::mig
