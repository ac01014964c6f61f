// Structured event trace: a bounded ring of typed records covering the
// behaviours the paper's figures explain — epoch boundaries, per-phase
// migration mechanics, TLB shootdowns, policy quota decisions and CBFRP
// partitioning outcomes.
//
// The ring keeps the newest `capacity` events (old ones are dropped and
// counted); every event carries a monotone sequence number and the virtual
// time it was emitted at, so traces from identical-seed runs are
// byte-identical when exported.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "sim/clock.hpp"

namespace vulcan::obs {

enum class EventKind : std::uint8_t {
  kEpochStart,
  kEpochEnd,
  kMigPhaseBegin,
  kMigPhaseEnd,
  kShootdownIssue,
  kShootdownAck,
  kPolicyQuota,
  kCbfrpPromotion,
  kCbfrpRejection,
  // Hierarchical timeline spans (obs/span.hpp). `a` packs the span
  // attributes (kind | tier << 8 | thread << 16), `b` is the span id that
  // pairs a begin with its end, `v` is a kind-specific argument.
  kSpanBegin,
  kSpanEnd,
  // Invariant-audit outcomes (check/invariants.hpp). A violation carries
  // the AuditRule id in `a`, a rule-specific detail in `b` and a measured
  // value in `v`; a pass carries the number of checks evaluated in `a`.
  kAuditViolation,
  kAuditPass,
  // SLO monitor outcomes (obs/slo.hpp). Both carry the rule index in `a`,
  // the sustained boundary streak in `b` and the measured value in `v`;
  // `workload` is the app the rule instance is scoped to (-1 system-wide).
  kSloViolation,
  kSloRecovered,
  // A migration request that did not complete. Both the five-phase and
  // the shadow paths emit this one event with a shared MigAbortReason in
  // `a`, the request's vpn in `b` and its heat score in `v`.
  kMigAbort,
  // Fleet churn: a workload left the system (runtime::remove_workload).
  // `a` is the number of frames released, `b` the shadow frames freed.
  kWorkloadDeparted,
};

/// The kind's name as the JSONL trace spells it ("epoch_start", ...).
const char* event_kind_name(EventKind kind);

/// The five phases of one migration operation (§2.1): kernel trap /
/// preparation, PTE unmap, TLB shootdown, content copy, PTE remap.
enum class MigPhase : std::uint8_t {
  kPrep = 0,
  kUnmap,
  kShootdown,
  kCopy,
  kRemap,
};

inline constexpr const char* mig_phase_name(MigPhase p) {
  switch (p) {
    case MigPhase::kPrep: return "prep";
    case MigPhase::kUnmap: return "unmap";
    case MigPhase::kShootdown: return "shootdown";
    case MigPhase::kCopy: return "copy";
    case MigPhase::kRemap: return "remap";
  }
  return "?";
}

/// Why a migration request fell out of the pipeline before completing.
/// Shared by the five-phase and shadow paths (satellite of ISSUE 8: one
/// `mig_abort` event instead of ad-hoc per-path reporting) and by the
/// provenance ledger's outcome records.
enum class MigAbortReason : std::uint8_t {
  kNone = 0,            ///< not aborted
  kStale,               ///< page unmapped or already in the target tier
  kDestinationFull,     ///< no free frame in the destination tier
  kAsyncCopyAborted,    ///< async copy raced a write and was abandoned
  // Admission-control vetoes (mig/admission.hpp). The request never
  // reached the migration pipeline; the controller predicted it would not
  // pay for itself.
  kVetoBenefit,         ///< predicted benefit non-positive (wrong-direction move)
  kVetoCost,            ///< benefit does not clear margin x predicted cost
  kVetoPressure,        ///< promotion into a destination tier with no headroom
};

inline constexpr const char* mig_abort_reason_name(MigAbortReason r) {
  switch (r) {
    case MigAbortReason::kNone: return "none";
    case MigAbortReason::kStale: return "stale";
    case MigAbortReason::kDestinationFull: return "dest_full";
    case MigAbortReason::kAsyncCopyAborted: return "async_copy_aborted";
    case MigAbortReason::kVetoBenefit: return "veto_benefit";
    case MigAbortReason::kVetoCost: return "veto_cost";
    case MigAbortReason::kVetoPressure: return "veto_pressure";
  }
  return "?";
}

/// One trace record. The payload fields `a`, `b`, `v` are kind-specific;
/// the JSONL serialiser names them per kind (see kind_info in trace.cpp):
///
///   epoch_start      a=epoch index   b=workload count
///   epoch_end        a=epoch index   b=workload count   v=CFI so far
///   mig_phase_begin  a=phase         b=pages
///   mig_phase_end    a=phase         b=cycles
///   shootdown_issue  a=targets       b=pages
///   shootdown_ack    a=targets       b=cycles
///   policy_quota     a=quota pages   b=resident fast pages
///   cbfrp_promotion  a=granted       b=demand           v=credits
///   cbfrp_rejection  a=granted       b=demand           v=credits
///   audit_violation  a=rule id       b=detail           v=value
///   audit_pass       a=checks        b=violations
///   slo_violation    a=rule index    b=sustained        v=value
///   slo_recovered    a=rule index    b=sustained        v=value
///   mig_abort        a=reason        b=vpn              v=heat
struct TraceEvent {
  std::uint64_t seq = 0;     ///< assigned by the ring, never reused
  sim::Cycles time = 0;      ///< virtual time of emission
  EventKind kind = EventKind::kEpochStart;
  std::int32_t workload = -1;  ///< -1 = system-wide
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double v = 0.0;

  bool operator==(const TraceEvent&) const = default;
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1 << 16)
      : capacity_(capacity ? capacity : 1) {}

  /// Append an event; assigns its sequence number. Overflow evicts the
  /// oldest retained event (newest always survive).
  void emit(TraceEvent e) {
    e.seq = total_++;
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % capacity_;
    }
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_emitted() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }

  /// One JSON object per line, oldest first. Deterministic.
  void write_jsonl(std::ostream& out) const;

  /// Serialise arbitrary events in the same line format (the flight
  /// recorder writes a filtered tail through this).
  static void write_events_jsonl(std::span<const TraceEvent> events,
                                 std::ostream& out);

  /// Parse events previously written by write_jsonl (round-trip).
  /// Unparseable lines are skipped.
  static std::vector<TraceEvent> read_jsonl(std::istream& in);

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;       // oldest element once the ring is full
  std::uint64_t total_ = 0;
};

}  // namespace vulcan::obs
