#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "runtime/builder.hpp"
#include "wl/apps.hpp"

namespace vulcan::obs {
namespace {

TEST(SpanAttrs, EncodeDecodeRoundTrips) {
  SpanAttrs attrs;
  attrs.kind = SpanKind::kPhaseShootdown;
  attrs.tier = 3;
  attrs.thread = 4711;
  const SpanAttrs back = SpanAttrs::decode(attrs.encode());
  EXPECT_EQ(back.kind, attrs.kind);
  EXPECT_EQ(back.tier, attrs.tier);
  EXPECT_EQ(back.thread, attrs.thread);
}

TEST(SpanKindNames, StableAndDistinct) {
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    for (std::size_t j = i + 1; j < kSpanKindCount; ++j) {
      EXPECT_STRNE(span_kind_name(static_cast<SpanKind>(i)),
                   span_kind_name(static_cast<SpanKind>(j)));
    }
  }
  EXPECT_EQ(span_kind_for(MigPhase::kPrep), SpanKind::kPhasePrep);
  EXPECT_EQ(span_kind_for(MigPhase::kRemap), SpanKind::kPhaseRemap);
}

struct RecordingSink final : SpanSink {
  std::vector<std::pair<SpanKind, sim::Cycles>> closed;
  void on_span_closed(std::int32_t, SpanKind kind,
                      sim::Cycles duration) override {
    closed.emplace_back(kind, duration);
  }
};

TEST(SpanRecorder, EmitsPairedEventsAndNotifiesSink) {
  TraceRing ring(64);
  sim::Cycles clock = 1000;
  SpanRecorder rec(&ring, &clock);
  RecordingSink sink;
  rec.set_sink(&sink);

  ScopedSpan outer{&rec, rec.begin(SpanKind::kEpoch, -1)};
  {
    ScopedSpan inner{&rec, rec.begin(SpanKind::kMigrationOp, 2)};
    inner.close(500);
  }
  outer.end();

  const auto events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[1].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[2].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[3].kind, EventKind::kSpanEnd);
  // Begin/end pair on the span id.
  EXPECT_EQ(events[1].b, events[2].b);
  EXPECT_EQ(events[0].b, events[3].b);
  // The cursor started at the clock and advanced by the inner cost.
  EXPECT_EQ(events[0].time, 1000u);
  EXPECT_EQ(events[2].time, 1500u);
  EXPECT_EQ(events[3].time, 1500u);

  ASSERT_EQ(sink.closed.size(), 2u);
  EXPECT_EQ(sink.closed[0].first, SpanKind::kMigrationOp);
  EXPECT_EQ(sink.closed[0].second, 500u);
  EXPECT_EQ(sink.closed[1].first, SpanKind::kEpoch);
  EXPECT_EQ(sink.closed[1].second, 500u);
}

TEST(SpanRecorder, InertWhenDefaultConstructed) {
  SpanRecorder rec;
  EXPECT_FALSE(rec.active());
  EXPECT_EQ(rec.begin(SpanKind::kEpoch, 0), 0u);
  rec.end(42);  // no crash, no effect
  ScopedSpan span;  // inert handle
  span.close(100);
}

TEST(SpanForest, RebuildsNesting) {
  TraceRing ring(64);
  sim::Cycles clock = 0;
  SpanRecorder rec(&ring, &clock);
  ScopedSpan epoch{&rec, rec.begin(SpanKind::kEpoch, -1)};
  {
    ScopedSpan op{&rec, rec.begin(SpanKind::kMigrationOp, 0)};
    ScopedSpan phase{&rec, rec.begin(SpanKind::kPhaseCopy, 0)};
    phase.close(300);
  }
  {
    ScopedSpan op{&rec, rec.begin(SpanKind::kMigrationOp, 1)};
    op.close(200);
  }
  epoch.end();

  const auto events = ring.events();
  const SpanForest forest = build_span_forest(events);
  ASSERT_TRUE(forest.ok()) << forest.error;
  ASSERT_EQ(forest.roots.size(), 1u);
  const SpanNode& root = forest.roots[0];
  EXPECT_EQ(root.attrs.kind, SpanKind::kEpoch);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].attrs.kind, SpanKind::kMigrationOp);
  EXPECT_EQ(root.children[0].workload, 0);
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].duration(), 300u);
  EXPECT_EQ(root.children[1].workload, 1);
  EXPECT_EQ(root.duration(), 500u);
  EXPECT_EQ(root.self_cycles(), 0u);
}

TEST(SpanForest, StrictRejectsEndWithoutBegin) {
  TraceEvent end;
  end.seq = 7;
  end.time = 100;
  end.kind = EventKind::kSpanEnd;
  end.a = SpanAttrs{SpanKind::kMigrationOp, 0, 0}.encode();
  end.b = 99;
  const std::vector<TraceEvent> events{end};
  const SpanForest forest = build_span_forest(events, /*strict=*/true);
  EXPECT_FALSE(forest.ok());
  EXPECT_NE(forest.error.find("no matching span_begin"), std::string::npos);
  EXPECT_NE(forest.error.find("99"), std::string::npos);
}

TEST(SpanForest, StrictRejectsDanglingBegin) {
  TraceEvent begin;
  begin.kind = EventKind::kSpanBegin;
  begin.a = SpanAttrs{SpanKind::kEpoch, 0, 0}.encode();
  begin.b = 1;
  const std::vector<TraceEvent> events{begin};
  const SpanForest forest = build_span_forest(events, /*strict=*/true);
  EXPECT_FALSE(forest.ok());
  EXPECT_NE(forest.error.find("never ended"), std::string::npos);
}

TEST(SpanForest, LenientRepairsTruncatedStream) {
  // A ring that dropped its oldest events: an orphan end (begin lost) and a
  // dangling begin (end beyond the capture).
  TraceEvent orphan_end;
  orphan_end.time = 10;
  orphan_end.kind = EventKind::kSpanEnd;
  orphan_end.a = SpanAttrs{SpanKind::kEpoch, 0, 0}.encode();
  orphan_end.b = 1;

  TraceEvent begin;
  begin.time = 20;
  begin.kind = EventKind::kSpanBegin;
  begin.a = SpanAttrs{SpanKind::kMigrationOp, 0, 0}.encode();
  begin.b = 2;
  begin.workload = 0;

  TraceEvent marker = begin;
  marker.time = 50;
  marker.kind = EventKind::kSpanBegin;
  marker.a = SpanAttrs{SpanKind::kPhaseCopy, 0, 0}.encode();
  marker.b = 3;

  const std::vector<TraceEvent> events{orphan_end, begin, marker};
  const SpanForest forest = build_span_forest(events, /*strict=*/false);
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest.skipped, 3u);  // 1 orphan end + 2 dangling begins
  ASSERT_EQ(forest.roots.size(), 1u);
  EXPECT_EQ(forest.roots[0].id, 2u);
  EXPECT_EQ(forest.roots[0].end_time, 50u);  // closed at the last timestamp
}

TEST(SpanForest, LenientReattachesChildrenOfDroppedInteriorSpan) {
  // The ring dropped the *begin* of an interior (non-root) span: the epoch
  // root and the leaf phase survive, the migration op between them lost its
  // opening record. Lenient rebuild must keep the forest usable — the leaf
  // reattaches to its grandparent and only the orphan end is skipped.
  auto ev = [](EventKind kind, SpanKind sk, SpanId id, sim::Cycles t,
               std::int32_t workload) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.workload = workload;
    e.a = SpanAttrs{sk, 0, 0}.encode();
    e.b = id;
    return e;
  };
  const std::vector<TraceEvent> events{
      ev(EventKind::kSpanBegin, SpanKind::kEpoch, 1, 0, -1),
      // span #2 (kMigrationOp) began here, but the ring dropped it.
      ev(EventKind::kSpanBegin, SpanKind::kPhaseCopy, 3, 20, 0),
      ev(EventKind::kSpanEnd, SpanKind::kPhaseCopy, 3, 50, 0),
      ev(EventKind::kSpanEnd, SpanKind::kMigrationOp, 2, 60, 0),
      ev(EventKind::kSpanEnd, SpanKind::kEpoch, 1, 100, -1),
  };
  const SpanForest forest = build_span_forest(events, /*strict=*/false);
  ASSERT_TRUE(forest.ok()) << forest.error;
  EXPECT_EQ(forest.skipped, 1u);  // the orphan kMigrationOp end
  ASSERT_EQ(forest.roots.size(), 1u);
  const SpanNode& root = forest.roots[0];
  EXPECT_EQ(root.attrs.kind, SpanKind::kEpoch);
  EXPECT_EQ(root.duration(), 100u);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].attrs.kind, SpanKind::kPhaseCopy);
  EXPECT_EQ(root.children[0].duration(), 30u);
}

TEST(SpanForest, LenientSynthesisesEndForDroppedInteriorEnd) {
  // Mirror image: the interior span's *end* was dropped. The enclosing
  // epoch's end must close the still-open interior span at its own
  // timestamp instead of wedging the stack.
  auto ev = [](EventKind kind, SpanKind sk, SpanId id, sim::Cycles t,
               std::int32_t workload) {
    TraceEvent e;
    e.time = t;
    e.kind = kind;
    e.workload = workload;
    e.a = SpanAttrs{sk, 0, 0}.encode();
    e.b = id;
    return e;
  };
  const std::vector<TraceEvent> events{
      ev(EventKind::kSpanBegin, SpanKind::kEpoch, 1, 0, -1),
      ev(EventKind::kSpanBegin, SpanKind::kMigrationOp, 2, 10, 0),
      ev(EventKind::kSpanBegin, SpanKind::kPhaseCopy, 3, 20, 0),
      ev(EventKind::kSpanEnd, SpanKind::kPhaseCopy, 3, 50, 0),
      // span #2's end was dropped from the ring.
      ev(EventKind::kSpanEnd, SpanKind::kEpoch, 1, 100, -1),
  };
  const SpanForest forest = build_span_forest(events, /*strict=*/false);
  ASSERT_TRUE(forest.ok()) << forest.error;
  EXPECT_EQ(forest.skipped, 1u);  // the force-closed kMigrationOp
  ASSERT_EQ(forest.roots.size(), 1u);
  const SpanNode& root = forest.roots[0];
  ASSERT_EQ(root.children.size(), 1u);
  const SpanNode& op = root.children[0];
  EXPECT_EQ(op.attrs.kind, SpanKind::kMigrationOp);
  EXPECT_EQ(op.end_time, 100u);  // closed at the enclosing end's timestamp
  ASSERT_EQ(op.children.size(), 1u);
  EXPECT_EQ(op.children[0].attrs.kind, SpanKind::kPhaseCopy);
}

TEST(SpanJsonl, BeginEndPairingSurvivesRoundTrip) {
  TraceRing ring(64);
  sim::Cycles clock = 0;
  SpanRecorder rec(&ring, &clock);
  ScopedSpan outer{&rec, rec.begin(SpanKind::kEpoch, -1, 1.0)};
  ScopedSpan inner{&rec, rec.begin(SpanKind::kShootdown, 1, 4.0, 1, 7)};
  inner.close(250, 123.0);
  outer.end();

  std::stringstream buf;
  ring.write_jsonl(buf);
  const std::vector<TraceEvent> parsed = TraceRing::read_jsonl(buf);
  EXPECT_EQ(parsed, ring.events());

  const SpanForest forest = build_span_forest(parsed);
  ASSERT_TRUE(forest.ok()) << forest.error;
  ASSERT_EQ(forest.roots.size(), 1u);
  const SpanNode& inner_node = forest.roots[0].children.at(0);
  EXPECT_EQ(inner_node.attrs.kind, SpanKind::kShootdown);
  EXPECT_EQ(inner_node.attrs.tier, 1);
  EXPECT_EQ(inner_node.attrs.thread, 7);
  EXPECT_DOUBLE_EQ(inner_node.begin_arg, 4.0);
  EXPECT_DOUBLE_EQ(inner_node.end_arg, 123.0);
  EXPECT_EQ(inner_node.duration(), 250u);
}

// ---------------------------------------------------------------- system

std::unique_ptr<runtime::TieredSystem> run_fixed_seed(unsigned epochs) {
  auto built = runtime::SystemBuilder{}
                   .seed(7)
                   .samples_per_epoch(2000)
                   // Large enough that a short run never wraps the ring:
                   // span pairing below asserts on the complete stream.
                   .trace_capacity(1 << 19)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(1))
                   .add_workload(wl::make_liblinear(2))
                   .build();
  EXPECT_TRUE(built.ok()) << built.error();
  built.value()->run_epochs(epochs);
  return std::move(built.value());
}

TEST(SystemSpans, FixedSeedRunProducesWellFormedForest) {
  const auto sys = run_fixed_seed(6);
  ASSERT_EQ(sys->obs_trace().dropped(), 0u);
  const auto events = sys->obs_trace().events();
  const SpanForest forest = build_span_forest(events, /*strict=*/true);
  ASSERT_TRUE(forest.ok()) << forest.error;
  // One root per epoch, each an epoch span.
  ASSERT_EQ(forest.roots.size(), 6u);
  std::uint64_t migration_ops = 0;
  for (const SpanNode& root : forest.roots) {
    EXPECT_EQ(root.attrs.kind, SpanKind::kEpoch);
    ASSERT_FALSE(root.children.empty());
    EXPECT_EQ(root.children[0].attrs.kind, SpanKind::kPolicy);
    for (const SpanNode& child : root.children) {
      if (child.attrs.kind == SpanKind::kMigrationOp) ++migration_ops;
    }
  }
  EXPECT_GT(migration_ops, 0u) << "migrations should record op spans";
}

/// Minimal scanner over the perfetto JSON: one record per line; extracts
/// ph/pid/tid/name/ts. Also sanity-checks JSON shape (balanced braces).
struct PerfettoRecord {
  char ph = '?';
  std::uint64_t pid = 0, tid = 0;
  std::string name;
  double ts = 0.0;
};

std::vector<PerfettoRecord> scan_perfetto(const std::string& json) {
  std::vector<PerfettoRecord> records;
  std::istringstream in(json);
  std::string line;
  const auto field = [](const std::string& l, const char* key) {
    const auto at = l.find(key);
    return at == std::string::npos ? std::string()
                                   : l.substr(at + std::string(key).size());
  };
  while (std::getline(in, line)) {
    const std::string ph = field(line, "\"ph\":\"");
    if (ph.empty()) continue;
    PerfettoRecord r;
    r.ph = ph[0];
    r.pid = std::strtoull(field(line, "\"pid\":").c_str(), nullptr, 10);
    r.tid = std::strtoull(field(line, "\"tid\":").c_str(), nullptr, 10);
    const std::string name = field(line, "\"name\":\"");
    r.name = name.substr(0, name.find('"'));
    const std::string ts = field(line, "\"ts\":");
    r.ts = ts.empty() ? -1.0 : std::strtod(ts.c_str(), nullptr);
    records.push_back(std::move(r));
  }
  return records;
}

TEST(SystemSpans, PerfettoExportIsValidAndNested) {
  const auto sys = run_fixed_seed(5);
  const auto events = sys->obs_trace().events();
  std::ostringstream out, diag;
  ASSERT_TRUE(write_perfetto(events, out, {.dropped = 0, .diag = &diag}));
  EXPECT_TRUE(diag.str().empty()) << diag.str();
  const std::string json = out.str();

  // Structurally valid trace_event JSON: balanced braces/brackets, expected
  // envelope keys.
  long depth = 0, max_depth = 0;
  for (const char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    max_depth = std::max(max_depth, depth);
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ns\""), std::string::npos);

  const auto records = scan_perfetto(json);
  ASSERT_FALSE(records.empty());

  // Per-track begin/end pairing with correct LIFO nesting, and globally
  // monotone timestamps.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::string>> stacks;
  double last_ts = 0.0;
  bool any_b = false;
  for (const PerfettoRecord& r : records) {
    if (r.ph == 'M') continue;
    ASSERT_GE(r.ts, last_ts) << "timestamps must be monotone";
    last_ts = r.ts;
    auto& stack = stacks[{r.pid, r.tid}];
    if (r.ph == 'B') {
      any_b = true;
      stack.push_back(r.name);
    } else if (r.ph == 'E') {
      ASSERT_FALSE(stack.empty()) << "E without B on pid " << r.pid;
      EXPECT_EQ(stack.back(), r.name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(any_b);
  for (const auto& [track, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on pid " << track.first;
  }
}

TEST(SystemSpans, PerfettoNamesEveryInstantKind) {
  // Abort and departure events are instants like any other: they carry
  // the trace's kind names, never a placeholder.
  std::vector<TraceEvent> events(2);
  events[0].seq = 0;
  events[0].time = 10;
  events[0].kind = EventKind::kMigAbort;
  events[0].workload = 0;
  events[1].seq = 1;
  events[1].time = 20;
  events[1].kind = EventKind::kWorkloadDeparted;
  events[1].workload = 1;
  std::ostringstream out;
  ASSERT_TRUE(write_perfetto(events, out));
  std::vector<std::string> names;
  for (const PerfettoRecord& r : scan_perfetto(out.str())) {
    if (r.ph == 'i') names.push_back(r.name);
  }
  EXPECT_EQ(names,
            (std::vector<std::string>{"mig_abort", "workload_departed"}));
}

TEST(SystemSpans, ExportsAreByteIdenticalAcrossIdenticalSeeds) {
  const auto render = [] {
    const auto sys = run_fixed_seed(4);
    const auto events = sys->obs_trace().events();
    std::ostringstream perfetto, folded, jsonl;
    write_perfetto(events, perfetto);
    write_folded(events, folded);
    sys->obs_trace().write_jsonl(jsonl);
    return perfetto.str() + "\x1f" + folded.str() + "\x1f" + jsonl.str();
  };
  EXPECT_EQ(render(), render());
}

TEST(SystemSpans, FoldedStacksCarryAppFrames) {
  const auto sys = run_fixed_seed(6);
  const auto events = sys->obs_trace().events();
  std::ostringstream out;
  write_folded(events, out);
  const std::string folded = out.str();
  ASSERT_FALSE(folded.empty());
  EXPECT_NE(folded.find("epoch"), std::string::npos);
  // Every line is "stack count".
  std::istringstream in(folded);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos);
    EXPECT_GT(std::strtoull(line.c_str() + space + 1, nullptr, 10), 0u);
  }
}

TEST(SystemSpans, DisabledSpansLeaveTraceFlat) {
  auto built = runtime::SystemBuilder{}
                   .seed(7)
                   .samples_per_epoch(500)
                   .spans(false)
                   .policy("vulcan")
                   .add_workload(wl::make_memcached(1))
                   .build();
  ASSERT_TRUE(built.ok()) << built.error();
  built.value()->run_epochs(2);
  for (const TraceEvent& e : built.value()->obs_trace().events()) {
    EXPECT_NE(e.kind, EventKind::kSpanBegin);
    EXPECT_NE(e.kind, EventKind::kSpanEnd);
  }
}

}  // namespace
}  // namespace vulcan::obs
