// Vulcan — fair and efficient tiered memory management for
// multi-applications (reproduction of Tang et al., ICPP 2025).
//
// Umbrella header: pulls in the public API surface.
//
//   vulcan::sim      simulation kernel (clock, RNG, events, cost model)
//   vulcan::mem      tiered memory hardware model
//   vulcan::vm       page tables, TLBs, shootdowns, address spaces
//   vulcan::prof     access profiling (PEBS / PT-scan / hint-fault / hybrid)
//   vulcan::mig      migration mechanism, copy engines, shadowing
//   vulcan::wl       workload models (Memcached, PageRank, Liblinear, ...)
//   vulcan::policy   tiering policies (TPP, Memtis, Nomad, MTM, Cascade,
//                    biased queues)
//   vulcan::core     Vulcan's contribution: QoS, CBFRP, classifier, manager
//   vulcan::check    invariant auditor + differential fuzz oracle
//   vulcan::exec     parallel experiment execution (worker pool + batch
//                    runner with deterministic submission-order merge)
//   vulcan::obs      metrics registry, structured trace, timeline spans,
//                    per-app attribution, export backends + fairness report,
//                    time-series store, SLO monitor and flight recorder
//   vulcan::runtime  the co-location system harness and experiment helpers
//
// Quick start:
//
//   #include <vulcan/vulcan.hpp>
//   using namespace vulcan;
//   auto built = runtime::SystemBuilder{}
//                    .policy("vulcan")
//                    .add_workload(wl::make_memcached())
//                    .build();
//   built.value()->run_epochs(100);
//   std::cout << built.value()->metrics().mean_fthr(0) << "\n";
#pragma once

#include "check/fuzz.hpp"
#include "check/invariants.hpp"
#include "core/advisor.hpp"
#include "core/cbfrp.hpp"
#include "exec/batch.hpp"
#include "exec/thread_pool.hpp"
#include "core/classifier.hpp"
#include "core/fairness.hpp"
#include "core/fnv.hpp"
#include "core/manager.hpp"
#include "core/qos.hpp"
#include "mem/topology.hpp"
#include "mig/admission.hpp"
#include "mig/copy_engine.hpp"
#include "mig/mechanism.hpp"
#include "mig/migration_thread.hpp"
#include "mig/migrator.hpp"
#include "obs/app_stats.hpp"
#include "obs/diff.hpp"
#include "obs/exporter.hpp"
#include "obs/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/pagescope.hpp"
#include "obs/perfetto.hpp"
#include "obs/provenance.hpp"
#include "obs/report.hpp"
#include "obs/scope.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "obs/whatif.hpp"
#include "policy/biased.hpp"
#include "policy/cascade.hpp"
#include "policy/memtis.hpp"
#include "policy/mtm.hpp"
#include "policy/nomad.hpp"
#include "policy/policy.hpp"
#include "policy/tpp.hpp"
#include "prof/chrono.hpp"
#include "prof/hint_fault.hpp"
#include "prof/hybrid.hpp"
#include "prof/pebs.hpp"
#include "prof/pt_scan.hpp"
#include "prof/telescope.hpp"
#include "runtime/builder.hpp"
#include "runtime/experiment.hpp"
#include "runtime/fleet.hpp"
#include "runtime/metrics.hpp"
#include "runtime/system.hpp"
#include "runtime/trials.hpp"
#include "sim/config.hpp"
#include "sim/cost_model.hpp"
#include "sim/stats.hpp"
#include "vm/address_space.hpp"
#include "vm/mmu.hpp"
#include "vm/replicated_page_table.hpp"
#include "wl/apps.hpp"
#include "wl/fleet.hpp"
#include "wl/pattern.hpp"
#include "wl/trace.hpp"
#include "wl/workload.hpp"
