// The benchmark's workloads and the two ways it drives them.
//
//  * run_battery: the untraced run. It calls the public policy battery as
//    `vulcan_sim --policies ...` does (run_policy_battery), on the
//    workload's staged applications.
//  * run_traced_battery: the traced run. The same policy runs, fanned out
//    over the same number of exec workers, but driven through the
//    benchmark's own copy of the staging loop so that every layer can be
//    timed from outside: a TimedPolicy decorator around planning, the
//    invariant audit called after each epoch, and a time-series store the
//    benchmark owns. Its simulated summaries must equal the battery's.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exec/batch.hpp"
#include "runtime/fleet.hpp"
#include "spans.hpp"
#include "vm/mmu.hpp"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  std::uint64_t seed = 42;
  double seconds = 60.0;  ///< simulated seconds per policy run
  unsigned jobs = 1;      ///< exec workers the battery fans out over
  std::vector<std::string> policies;
  bool fleet = false;  ///< the churned fleet, with 2 s time-series windows
};

/// The named workload at `seed`; throws std::invalid_argument when unknown.
WorkloadDef workload_def(std::string_view name, std::uint64_t seed);

/// The workload's staged applications, freshly built from its seed.
std::vector<vulcan::runtime::StagedWorkload> stage(const WorkloadDef& def);

/// One policy run's simulated outcome: what the equivalence and
/// repeatability gates compare. Every field is simulated, never host time.
struct RunSummary {
  std::string policy;
  double jain = 1.0;
  double cfi = 1.0;
  /// (workload name, steady-state slowdown averaged over the second half
  /// of the run), in registration order, as the policy battery reports it.
  std::vector<std::pair<std::string, double>> apps;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t pages_migrated = 0;
  std::uint64_t pages_failed = 0;
  std::uint64_t shootdown_ipis = 0;

  /// The largest steady-state slowdown of any app.
  double worst_slowdown() const;

  bool operator==(const RunSummary&) const = default;
};

/// Dilemma's paper-shape claim: Vulcan's latency-critical app slows down
/// less than under every baseline. Empty when it holds; otherwise one line
/// per baseline that matches or beats Vulcan.
std::vector<std::string> paper_shape_violations(
    std::span<const RunSummary> runs);

/// Set-up as the batteries do it, once per policy: stage the workloads and
/// build the system. Returns the number of systems built.
std::size_t stage_and_build(const WorkloadDef& def);

/// The untraced run, in roster order. Throws when any policy run fails.
std::vector<RunSummary> run_battery(const WorkloadDef& def);

/// One traced policy run.
struct TracedRun {
  RunSummary summary;
  std::string error;  ///< non-empty when the run threw (audit included)
  SpanLog log;
  std::uint64_t audit_checks = 0;
  std::uint64_t placements = 0;  ///< SystemPolicy::placement_tier calls
  std::uint64_t admits = 0;
  std::uint64_t departs = 0;
  std::size_t series = 0;  ///< series in the benchmark's time-series store
  vulcan::vm::Mmu::PwcStats pwc;
  /// Fleet only: the tail-fairness windows of the benchmark's store, as
  /// run_fleet_battery would assemble them from the system's.
  std::vector<vulcan::runtime::FleetWindowRow> windows;
};

struct TracedBattery {
  std::vector<TracedRun> runs;  ///< in roster order
  vulcan::exec::BatchStats stats;
  /// Every run's spans, merged under one "exec.batch" root.
  SpanLog log;
};

/// The traced run. Every policy run records into its own log on the batch
/// log's clock origin; the logs are merged once the batch has finished.
TracedBattery run_traced_battery(const WorkloadDef& def);

}  // namespace perfbench
