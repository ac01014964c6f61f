// Standalone replay of the per-access pipeline, timed phase by phase.
//
// The pipeline runs inside TieredSystem's epoch and cannot be reached
// from outside it, so the benchmark rebuilds it from the same public
// pieces: the workload's staged applications (same seeds, same arrival
// and departure times), Workload::next_access for generation,
// vm::Mmu::translate_batch for translation and demand faults, and
// Profiler::observe / Profiler::on_epoch for profiling. Sample quotas,
// batch size, cores per app, THP and the hybrid profiler follow the
// system's defaults. There is no policy and no migration: pages stay
// where their first fault put them (fast tier while it has room), so the
// replay measures the pipeline's host cost, not the simulated outcome.
#pragma once

#include <cstdint>

#include "batteries.hpp"

namespace perfbench {

struct ReplayResult {
  std::uint64_t accesses = 0;        ///< access samples replayed
  std::int64_t generate_ns = 0;      ///< Workload::next_access
  std::int64_t translate_ns = 0;     ///< vm::Mmu::translate_batch
  std::int64_t observe_ns = 0;       ///< Profiler::observe
  std::int64_t on_epoch_ns = 0;      ///< Profiler::on_epoch
  std::uint64_t on_epoch_calls = 0;  ///< one per live app per epoch
};

ReplayResult replay_access_pipeline(const WorkloadDef& def);

}  // namespace perfbench
