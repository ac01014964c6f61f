#include "runtime/experiment.hpp"

#include <array>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/manager.hpp"
#include "mig/mechanism.hpp"
#include "obs/scope.hpp"
#include "policy/cascade.hpp"
#include "policy/memtis.hpp"
#include "policy/mtm.hpp"
#include "policy/nomad.hpp"
#include "policy/tpp.hpp"
#include "runtime/fleet.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {

std::unique_ptr<policy::SystemPolicy> make_policy(std::string_view name,
                                                  unsigned online_cpus) {
  if (name == "tpp") {
    policy::TppPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::TppPolicy>(p);
  }
  if (name == "memtis") {
    policy::MemtisPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::MemtisPolicy>(p);
  }
  if (name == "nomad") {
    policy::NomadPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::NomadPolicy>(p);
  }
  if (name == "mtm") {
    policy::MtmPolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::MtmPolicy>(p);
  }
  if (name == "cascade") {
    policy::CascadePolicy::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<policy::CascadePolicy>(p);
  }
  if (name == "vulcan") {
    core::VulcanManager::Params p;
    p.online_cpus = online_cpus;
    return std::make_unique<core::VulcanManager>(p);
  }
  throw std::invalid_argument("unknown policy: " + std::string(name));
}

std::span<const std::string> all_policy_names() {
  static const std::array<std::string, 6> kNames = {
      "vulcan", "tpp", "memtis", "nomad", "mtm", "cascade"};
  return kNames;
}

std::vector<StagedWorkload> paper_colocation(std::uint64_t seed) {
  std::vector<StagedWorkload> stages;
  stages.push_back({0.0, wl::make_memcached(seed * 1000 + 101)});
  stages.push_back({50.0, wl::make_pagerank(seed * 1000 + 202)});
  stages.push_back({110.0, wl::make_liblinear(seed * 1000 + 303)});
  return stages;
}

namespace {

std::unique_ptr<wl::Workload> dilemma_lc(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "lc-service";
  s.service_class = wl::ServiceClass::kLatencyCritical;
  s.rss_pages = 8192;
  s.wss_pages = 8192;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 2e5;
  s.latency_exposure = 1.0;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::HotsetPattern>(s.rss_pages, 0.10, 0.90, 0.10),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.10), seed);
}

std::unique_ptr<wl::Workload> dilemma_be(std::uint64_t seed) {
  wl::WorkloadSpec s;
  s.name = "be-scanner";
  s.rss_pages = 12'288;
  s.wss_pages = 12'288;
  s.threads = 8;
  s.accesses_per_sec_per_thread = 6e6;
  s.latency_exposure = 0.3;
  s.shared_access_fraction = 1.0;
  return std::make_unique<wl::Workload>(
      s, s.rss_pages,
      std::make_unique<wl::SequentialPattern>(s.rss_pages, 0.05),
      std::make_unique<wl::UniformPattern>(s.rss_pages, 0.05), seed);
}

}  // namespace

std::vector<StagedWorkload> dilemma_colocation(std::uint64_t seed) {
  std::vector<StagedWorkload> stages;
  stages.push_back({0.0, dilemma_lc(seed * 7 + 1)});
  stages.push_back({10.0, dilemma_be(seed * 7 + 2)});
  return stages;
}

void run_staged(TieredSystem& sys, std::vector<StagedWorkload> stages,
                double end_s,
                const std::function<void(TieredSystem&)>& on_epoch) {
  // (workload index, departure time) of every admitted finite-lifetime
  // stage, in admission order.
  std::vector<std::pair<unsigned, double>> lifetimes;
  std::size_t pending = stages.size();
  while (sys.now_seconds() < end_s) {
    // Departures before arrivals: a slot leaving at t frees its frames for
    // anything arriving at the same boundary.
    for (const auto& [index, depart_s] : lifetimes) {
      if (depart_s <= sys.now_seconds() + 1e-9 &&
          !sys.workload_departed(index)) {
        sys.remove_workload(index);
      }
    }
    // Stages need not be sorted by start time (the fleet generator emits
    // them in app-id order so per-app draws stay resize-stable), so scan
    // for every due, not-yet-admitted stage; a moved-out workload pointer
    // marks admission. Ties admit in vector order — deterministic.
    for (std::size_t i = 0; pending > 0 && i < stages.size(); ++i) {
      if (!stages[i].workload) continue;
      if (stages[i].start_s > sys.now_seconds() + 1e-9) continue;
      const unsigned index = sys.add_workload(std::move(stages[i].workload));
      if (stages[i].end_s < end_s) {
        lifetimes.emplace_back(index, stages[i].end_s);
      }
      --pending;
    }
    sys.run_epochs(1);
    if (on_epoch) on_epoch(sys);
  }
}

// --------------------------------------------------------------- batteries

namespace {

std::uint64_t phase_cycles(const obs::Registry& reg, const char* name) {
  return reg.counter_value(std::string("mig.mechanism.") + name + "_cycles");
}

std::uint64_t mechanism_total(const obs::Registry& reg) {
  std::uint64_t total = 0;
  for (const char* name : {"prep", "unmap", "shootdown", "copy", "remap"}) {
    total += phase_cycles(reg, name);
  }
  return total;
}

}  // namespace

MigrationBreakdownRow migration_breakdown_row(
    unsigned cpus, const sim::CostModelParams& params) {
  obs::Registry reg;
  sim::Cycles clock = 0;
  const sim::CostModel cost(params);
  mig::MigrationMechanism mech(cost, {.online_cpus = cpus});
  mech.set_obs(obs::Scope(&reg, nullptr, &clock, "mig.mechanism"));
  // The migrating page may be cached by every other core (vanilla
  // process-wide tables give no tighter bound).
  (void)mech.single_page(cpus - 1, cpus - 1);
  MigrationBreakdownRow row;
  row.cpus = cpus;
  row.prep = phase_cycles(reg, "prep");
  row.unmap = phase_cycles(reg, "unmap");
  row.shootdown = phase_cycles(reg, "shootdown");
  row.copy = phase_cycles(reg, "copy");
  row.remap = phase_cycles(reg, "remap");
  return row;
}

std::vector<MigrationBreakdownRow> migration_breakdown_battery(
    std::span<const unsigned> cpus_list, unsigned jobs,
    exec::BatchStats* stats) {
  exec::BatchRunner runner(jobs);
  std::vector<std::function<MigrationBreakdownRow()>> batch;
  batch.reserve(cpus_list.size());
  for (const unsigned cpus : cpus_list) {
    batch.push_back([cpus] { return migration_breakdown_row(cpus); });
  }
  auto rows = exec::values_or_throw(runner.run(std::move(batch)),
                                    "fig2 migration-breakdown battery");
  if (stats) *stats = runner.stats();
  return rows;
}

MechanismSpeedupRow mechanism_speedup_row(std::uint64_t pages,
                                          const sim::CostModelParams& params) {
  // The microbench setting: 32 CPUs online, the migrating process runs 8
  // threads, and per-thread page tables prove ~1 sharer for most pages.
  constexpr unsigned kProcessRemote = 7;
  constexpr unsigned kSharerRemote = 1;
  obs::Registry reg_base, reg_prep, reg_both;
  sim::Cycles clock = 0;
  const sim::CostModel cost(params);
  mig::MigrationMechanism baseline(cost, {.online_cpus = 32});
  mig::MigrationMechanism prep_opt(cost,
                                   {.optimized_prep = true, .online_cpus = 32});
  mig::MigrationMechanism both(
      cost,
      {.optimized_prep = true, .targeted_shootdown = true, .online_cpus = 32});
  baseline.set_obs(obs::Scope(&reg_base, nullptr, &clock, "mig.mechanism"));
  prep_opt.set_obs(obs::Scope(&reg_prep, nullptr, &clock, "mig.mechanism"));
  both.set_obs(obs::Scope(&reg_both, nullptr, &clock, "mig.mechanism"));

  (void)baseline.batch(pages, kProcessRemote, kSharerRemote);
  (void)prep_opt.batch(pages, kProcessRemote, kSharerRemote);
  (void)both.batch(pages, kProcessRemote, kSharerRemote);

  MechanismSpeedupRow row;
  row.pages = pages;
  row.baseline_cycles = mechanism_total(reg_base);
  row.prep_opt_cycles = mechanism_total(reg_prep);
  row.both_cycles = mechanism_total(reg_both);
  return row;
}

std::vector<MechanismSpeedupRow> mechanism_speedup_battery(
    std::span<const std::uint64_t> pages_list, unsigned jobs,
    exec::BatchStats* stats) {
  exec::BatchRunner runner(jobs);
  std::vector<std::function<MechanismSpeedupRow()>> batch;
  batch.reserve(pages_list.size());
  for (const std::uint64_t pages : pages_list) {
    batch.push_back([pages] { return mechanism_speedup_row(pages); });
  }
  auto rows = exec::values_or_throw(runner.run(std::move(batch)),
                                    "fig7 mechanism-speedup battery");
  if (stats) *stats = runner.stats();
  return rows;
}

namespace {

/// (workload name, steady-state slowdown) per workload slot, averaged over
/// the second half of the run like `vulcan_sim`.
std::vector<std::pair<std::string, double>> app_slowdowns(TieredSystem& sys) {
  const MetricsRecorder& m = sys.metrics();
  const std::size_t from = m.epochs().size() / 2;
  std::vector<std::pair<std::string, double>> apps;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    const double perf = m.mean_performance(w, from);
    apps.emplace_back(sys.workload(w).spec().name,
                      perf > 0 ? 1.0 / perf : 1.0);
  }
  return apps;
}

/// Migration cost of a finished run: pages migrated and remote cores
/// IPI'd, summed over every workload slot.
void migration_cost(TieredSystem& sys, std::uint64_t& pages,
                    std::uint64_t& ipis) {
  pages = ipis = 0;
  for (unsigned w = 0; w < sys.workload_count(); ++w) {
    const mig::MigrationStats& t = sys.migrator(w).totals();
    pages += t.migrated;
    ipis += t.shootdown_ipis;
  }
}

}  // namespace

std::vector<PolicyRunSummary> run_policy_battery(
    const ScenarioSpec& spec, std::span<const std::string> policies,
    unsigned jobs, exec::BatchStats* stats) {
  if (!spec.stage) {
    throw std::invalid_argument("policy battery needs a stage hook");
  }
  exec::BatchRunner runner(jobs);
  std::vector<std::function<PolicyRunSummary()>> batch;
  batch.reserve(policies.size());
  for (const std::string& policy : policies) {
    // `spec` outlives the (synchronous) batch; each job builds and owns a
    // whole system, so concurrent policy runs never share state.
    batch.push_back([&spec, policy] {
      const auto run_once =
          [&spec, &policy](bool with_admission) {
            SystemBuilder b;
            if (spec.configure) spec.configure(b);
            if (spec.capture_provenance) b.provenance(true);
            if (with_admission) {
              mig::AdmissionSpec adm = *spec.admission_compare;
              adm.enabled = true;  // compare mode means "on", always
              b.admission(adm);
            }
            b.seed(spec.seed).policy(std::string_view(policy));
            BuildResult built = b.build();
            if (!built) {
              throw std::runtime_error(policy + ": " + built.error());
            }
            std::unique_ptr<TieredSystem> sys = std::move(built.value());
            run_staged(*sys, spec.stage(), spec.seconds);
            return sys;
          };

      // The admission-off run first: its artefacts are the summary's
      // regular fields and stay byte-identical whether or not the compare
      // rerun happens afterwards.
      std::unique_ptr<TieredSystem> sys_ptr = run_once(false);
      TieredSystem& sys = *sys_ptr;

      PolicyRunSummary summary;
      summary.policy = policy;
      summary.jain = sys.app_stats().jain_cumulative();
      summary.cfi = sys.fairness_cfi();
      summary.apps = app_slowdowns(sys);
      summary.windows = fleet_windows(sys.obs_timeseries());
      summary.snapshot = obs::snapshot_registry(sys.obs_registry());
      if (spec.capture_timeseries) {
        std::ostringstream rows;
        sys.obs_timeseries().write_jsonl(rows);
        summary.timeseries = rows.str();
      }
      if (spec.capture_provenance) {
        sys.provenance().finalize();
        std::ostringstream d, t;
        sys.provenance().write_decisions_jsonl(d);
        sys.provenance().write_transitions_jsonl(t);
        summary.decisions = d.str();
        summary.transitions = t.str();
      }
      if (spec.admission_compare) {
        AdmissionCompare cmp;
        migration_cost(sys, cmp.base_pages_migrated,
                       cmp.base_shootdown_ipis);
        const std::unique_ptr<TieredSystem> on = run_once(true);
        cmp.jain = on->app_stats().jain_cumulative();
        cmp.cfi = on->fairness_cfi();
        cmp.apps = app_slowdowns(*on);
        cmp.windows = fleet_windows(on->obs_timeseries());
        migration_cost(*on, cmp.pages_migrated, cmp.shootdown_ipis);
        const mig::AdmissionController* ctl = on->admission_controller();
        cmp.admitted = ctl ? ctl->admitted() : 0;
        cmp.vetoed = ctl ? ctl->vetoed() : 0;
        summary.admission = std::move(cmp);
      }
      return summary;
    });
  }
  auto summaries = exec::values_or_throw(
      runner.run(std::move(batch)), "policy battery \"" + spec.name + "\"");
  if (stats) *stats = runner.stats();
  return summaries;
}

}  // namespace vulcan::runtime
