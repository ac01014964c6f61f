// FlightRecorder self-tests: the black box auto-dumps exactly once on a
// seeded audit failure, dumps parse back (FlightDump round-trip) and
// render, the trace tail respects the configured horizon, and disabled
// recorders refuse politely.
#include "obs/flightrec.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "check/invariants.hpp"
#include "obs/slo.hpp"
#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "vm/address_space.hpp"
#include "wl/apps.hpp"

namespace vulcan::obs {
namespace {

runtime::SystemBuilder base_builder() {
  runtime::SystemBuilder b;
  b.samples_per_epoch(2000).seed(7);
  return b;
}

FlightRecorder::DumpInfo info_for(const char* reason) {
  FlightRecorder::DumpInfo info;
  info.reason = reason;
  return info;
}

void add_workload(runtime::TieredSystem& sys, std::uint64_t seed = 11) {
  wl::MicrobenchWorkload::Params p;
  p.rss_pages = 4096;
  p.wss_pages = 2048;
  p.seed = seed;
  sys.add_workload(std::make_unique<wl::MicrobenchWorkload>(p));
}

/// Cross-wire chunk 0's cached walk to chunk 1's leaf table (the same
/// seeded fault vm_mmu_test plants), so the next audit fails for real.
void poison_pwc(runtime::TieredSystem& sys) {
  const vm::AddressSpace& as = sys.address_space(0);
  const vm::LeafTable* wrong =
      as.tables().process_table().leaf_of(as.vpn_at(sim::kPagesPerHuge));
  ASSERT_NE(wrong, nullptr);
  sys.mmu().debug_poison_pwc(as.pid(), as.vpn_at(0),
                             const_cast<vm::LeafTable*>(wrong));
}

TEST(FlightRecorder, AuditFailureAutoDumpsOnceAndParsesBack) {
  const std::string path =
      ::testing::TempDir() + "/flight_audit_failure.json";
  auto built = base_builder()
                   .flight_dump(path)
                   .slo(default_slo_pack())
                   .policy(runtime::make_policy("tpp"))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  add_workload(sys);
  sys.prefault(0);
  sys.run_epochs(2);
  ASSERT_FALSE(sys.flight().auto_dumped());

  // Audit straight after poisoning: another epoch would translate through
  // the poisoned walk cache before its boundary audit, and Debug builds
  // assert on that walk first.
  poison_pwc(sys);
  EXPECT_THROW(sys.run_audit(), check::AuditFailure);
  ASSERT_TRUE(sys.flight().auto_dumped());
  EXPECT_EQ(sys.flight().auto_dump_path(), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->version, 1u);
  EXPECT_EQ(dump->reason, "audit_failure");
  EXPECT_EQ(dump->epoch, 2u);
  ASSERT_TRUE(dump->audit_present);
  EXPECT_EQ(dump->audit_epoch, 2u);
  ASSERT_FALSE(dump->audit_violations.empty());
  EXPECT_EQ(dump->audit_violations.front().rule, "pwc_coherence");
  // The whole telemetry storey made it into the box.
  EXPECT_FALSE(dump->slo.empty());
  EXPECT_FALSE(dump->trace.empty());
  EXPECT_FALSE(dump->metrics.counters.empty());
  EXPECT_GT(dump->timeseries_rows, 0u);

  // The report renders and names the trigger.
  std::ostringstream report;
  write_flight_report(*dump, report);
  EXPECT_NE(report.str().find("reason:  audit_failure"), std::string::npos);
  EXPECT_NE(report.str().find("pwc_coherence"), std::string::npos);
  EXPECT_NE(report.str().find("vulcan fairness report"), std::string::npos);
}

TEST(FlightRecorder, AutoDumpIsOnceGuarded) {
  const std::string path = ::testing::TempDir() + "/flight_once.json";
  Registry reg;
  reg.counter("c").inc(1);
  TraceRing trace(16);
  TimeSeriesStore store;
  check::AuditReport audit;
  FlightConfig cfg;
  cfg.dump_path = path;
  FlightRecorder rec(cfg, &reg, &trace, &store, nullptr, &audit);

  EXPECT_TRUE(rec.auto_dump(info_for("slo_critical")));
  EXPECT_TRUE(rec.auto_dumped());
  EXPECT_FALSE(rec.auto_dump(info_for("engine_exception")))
      << "second auto dump must be a no-op";

  // On-demand dumps are not consumed by the guard.
  std::ostringstream out;
  EXPECT_TRUE(rec.dump(out, info_for("on_demand")));
  std::istringstream in(out.str());
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->reason, "on_demand");
}

TEST(FlightRecorder, DisabledAndPathlessRecordersRefuse) {
  FlightRecorder disabled;
  EXPECT_FALSE(disabled.enabled());
  std::ostringstream out;
  EXPECT_FALSE(disabled.dump(out, info_for("on_demand")));
  EXPECT_TRUE(out.str().empty());

  // Wired but pathless: on-demand works, auto dumps have nowhere to go.
  Registry reg;
  TraceRing trace(16);
  TimeSeriesStore store;
  check::AuditReport audit;
  FlightRecorder pathless({}, &reg, &trace, &store, nullptr, &audit);
  EXPECT_FALSE(pathless.auto_dump(info_for("slo_critical")));
  EXPECT_FALSE(pathless.auto_dumped());
  EXPECT_TRUE(pathless.dump(out, info_for("on_demand")));
}

TEST(FlightRecorder, TraceTailRespectsTheEpochHorizon) {
  runtime::SystemBuilder b = base_builder();
  b.flight_epochs(2).policy(runtime::make_policy("vulcan"));
  const sim::Cycles epoch = b.config().epoch;
  auto built = b.build();
  runtime::TieredSystem& sys = *built.value();
  add_workload(sys);
  sys.run_epochs(6);

  std::ostringstream out;
  ASSERT_TRUE(sys.dump_flight(::testing::TempDir() + "/flight_tail.json"));
  std::ifstream in(::testing::TempDir() + "/flight_tail.json");
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  ASSERT_FALSE(dump->trace.empty());
  // 6 epochs ran; only events from the last 2 epochs may survive.
  const sim::Cycles cutoff = 4 * epoch;
  for (const TraceEvent& e : dump->trace) {
    EXPECT_GE(e.time, cutoff);
  }
  // The full ring still holds older events — the dump really filtered.
  EXPECT_LT(dump->trace.size(), sys.obs_trace().size());
}

TEST(FlightRecorder, TelemetryOffDisablesTheRecorder) {
  auto built = base_builder()
                   .telemetry(false)
                   .flight_dump(::testing::TempDir() + "/flight_never.json")
                   .policy(runtime::make_policy("tpp"))
                   .build();
  runtime::TieredSystem& sys = *built.value();
  add_workload(sys);
  sys.run_epochs(2);
  EXPECT_FALSE(sys.flight().enabled());
  EXPECT_FALSE(sys.dump_flight(::testing::TempDir() + "/flight_no.json"));
}

/// A minimal but complete dump produced by a hand-wired recorder (no
/// TieredSystem), optionally with a provenance ledger attached.
std::string make_dump(const ProvenanceLedger* ledger = nullptr) {
  Registry reg;
  reg.counter("c").inc(3);
  TraceRing trace(16);
  TimeSeriesStore store;
  check::AuditReport audit;
  FlightRecorder rec({}, &reg, &trace, &store, nullptr, &audit, ledger);
  std::ostringstream out;
  EXPECT_TRUE(rec.dump(out, info_for("on_demand")));
  return out.str();
}

TEST(FlightDumpParse, RejectsNonDumpInputs) {
  {
    std::istringstream empty("");
    EXPECT_FALSE(FlightDump::parse(empty).has_value());
  }
  {
    std::istringstream not_json("this is not a flight dump\nat all\n");
    EXPECT_FALSE(FlightDump::parse(not_json).has_value());
  }
  {
    std::istringstream other_json("{\"version\": 2, \"counters\": {}}\n");
    EXPECT_FALSE(FlightDump::parse(other_json).has_value());
  }
}

TEST(FlightDumpParse, SurvivesTruncation) {
  const std::string full = make_dump();
  // Chop the file at every prefix length that ends a line: the lenient
  // scanners must degrade (missing sections read as absent/empty), never
  // crash or loop.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    if (full[cut] != '\n') continue;
    std::istringstream in(full.substr(0, cut + 1));
    const auto dump = FlightDump::parse(in);
    if (!dump.has_value()) continue;  // header itself cut away
    EXPECT_EQ(dump->version, 1u);
  }
  // A cut right after the header keeps reason/epoch readable.
  const std::size_t slo_pos = full.find("\n\"slo\": [");
  ASSERT_NE(slo_pos, std::string::npos);
  std::istringstream header_only(full.substr(0, slo_pos));
  const auto dump = FlightDump::parse(header_only);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->reason, "on_demand");
  EXPECT_FALSE(dump->audit_present);
  EXPECT_TRUE(dump->trace.empty());
}

TEST(FlightDumpParse, CorruptFieldsDegradeToDefaults) {
  std::string full = make_dump();
  // Corrupt the epoch value in place; the parser must still return a dump
  // with the remaining fields intact.
  const std::size_t pos = full.find("\"epoch\": ");
  ASSERT_NE(pos, std::string::npos);
  full.replace(pos, std::string("\"epoch\": ").size() + 1, "\"epoch\": x");
  std::istringstream in(full);
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->epoch, 0u);
  EXPECT_EQ(dump->reason, "on_demand");
}

TEST(FlightDumpParse, IgnoresUnknownSections) {
  std::string full = make_dump();
  // Future writers may add sections; today's reader must skip them.
  const std::size_t end = full.rfind("\n}");
  ASSERT_NE(end, std::string::npos);
  full.insert(end, ",\n\"mystery\": [\n{\"blob\":1}\n]");
  std::istringstream in(full);
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  EXPECT_EQ(dump->version, 1u);
  EXPECT_EQ(dump->reason, "on_demand");
  EXPECT_FALSE(dump->provenance_present);
}

TEST(FlightDumpParse, ProvenanceTailRoundTrips) {
  // No ledger wired in: the section is absent and parses as such.
  {
    const std::string without = make_dump();
    EXPECT_EQ(without.find("\"provenance\""), std::string::npos);
    std::istringstream in(without);
    const auto dump = FlightDump::parse(in);
    ASSERT_TRUE(dump.has_value());
    EXPECT_FALSE(dump->provenance_present);
  }

  ProvenanceConfig cfg;
  cfg.enabled = true;
  ProvenanceLedger ledger(cfg);
  ledger.begin_epoch(4);
  DecisionFeatures f;
  f.heat = 0.9;
  const std::uint64_t id = ledger.record_decision(0, 17, 1, 0, false, false, f);
  ledger.record_decision(1, 18, 1, 0, true, false, f);
  ledger.record_transition(0, 17, -1, 1, 0);
  DecisionOutcome outcome;
  outcome.status = DecisionStatus::kCompleted;
  outcome.final_tier = 0;
  ledger.link_outcome(id, outcome);

  const std::string with = make_dump(&ledger);
  std::istringstream in(with);
  const auto dump = FlightDump::parse(in);
  ASSERT_TRUE(dump.has_value());
  ASSERT_TRUE(dump->provenance_present);
  EXPECT_EQ(dump->provenance_decisions, 2u);
  EXPECT_EQ(dump->provenance_transitions, 1u);
  EXPECT_EQ(dump->provenance_pending, 1u);
  ASSERT_EQ(dump->provenance_tail.size(), 2u);
  EXPECT_EQ(dump->provenance_tail[0].id, id);
  EXPECT_EQ(dump->provenance_tail[0].status, DecisionStatus::kCompleted);
  EXPECT_EQ(dump->provenance_tail[1].status, DecisionStatus::kPending);

  std::ostringstream report;
  write_flight_report(*dump, report);
  EXPECT_NE(report.str().find("ledger:  2 decisions (1 pending)"),
            std::string::npos);
}

TEST(FlightRecorder, DumpBytesAreDeterministic) {
  auto dump_once = [] {
    runtime::SystemBuilder b = base_builder();
    b.slo(default_slo_pack()).policy(runtime::make_policy("vulcan"));
    const sim::Cycles epoch = b.config().epoch;
    auto built = b.build();
    runtime::TieredSystem& sys = *built.value();
    add_workload(sys);
    sys.run_epochs(4);
    std::ostringstream out;
    FlightRecorder::DumpInfo info;
    info.reason = "on_demand";
    info.epoch = 4;
    info.now = 4 * epoch;
    EXPECT_TRUE(sys.flight().dump(out, info));
    return out.str();
  };
  const std::string a = dump_once();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, dump_once());
}

}  // namespace
}  // namespace vulcan::obs
