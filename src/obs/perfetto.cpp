#include "obs/perfetto.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "sim/clock.hpp"

namespace vulcan::obs {

namespace {

/// trace_event `pid` for a workload index: 0 = system-wide, app i = i + 1.
std::uint64_t pid_of(std::int32_t workload) {
  return workload < 0 ? 0 : static_cast<std::uint64_t>(workload) + 1;
}

/// ts is microseconds; print cycles as exact fixed-point micros (integer
/// arithmetic, so identical runs serialise identical bytes).
void write_ts(std::ostream& out, sim::Cycles cycles) {
  const sim::Nanos ns = sim::CpuClock::to_nanos(cycles);
  out << ns / 1000 << '.';
  const auto frac = static_cast<unsigned>(ns % 1000);
  out << static_cast<char>('0' + frac / 100)
      << static_cast<char>('0' + (frac / 10) % 10)
      << static_cast<char>('0' + frac % 10);
}

struct Record {
  sim::Cycles time = 0;
  char ph = 'i';  // 'B', 'E' or 'i'
  const char* name = "";
  std::uint64_t pid = 0;
  std::uint16_t tid = 0;
  std::uint8_t tier = 0;
  SpanId span = 0;
  double arg = 0.0;
  bool has_arg = false;
};

void collect_span(const SpanNode& node, std::vector<Record>& records) {
  Record b;
  b.time = node.begin_time;
  b.ph = 'B';
  b.name = span_kind_name(node.attrs.kind);
  b.pid = pid_of(node.workload);
  b.tid = node.attrs.thread;
  b.tier = node.attrs.tier;
  b.span = node.id;
  b.arg = node.begin_arg;
  b.has_arg = true;
  records.push_back(b);
  for (const SpanNode& child : node.children) collect_span(child, records);
  Record e = b;
  e.time = node.end_time;
  e.ph = 'E';
  e.arg = node.end_arg;
  records.push_back(e);
}

}  // namespace

bool write_perfetto(std::span<const TraceEvent> events, std::ostream& out,
                    const PerfettoOptions& opts) {
  const bool lenient = opts.dropped > 0;
  if (lenient && opts.diag) {
    *opts.diag << "warning: trace ring dropped " << opts.dropped
               << " events; timeline is truncated (oldest spans lost)\n";
  }
  SpanForest forest = build_span_forest(events, /*strict=*/!lenient);
  if (!forest.ok()) {
    if (opts.diag) {
      *opts.diag << "error: malformed span stream: " << forest.error << "\n";
    }
    return false;
  }
  if (forest.skipped > 0 && opts.diag) {
    *opts.diag << "warning: repaired " << forest.skipped
               << " unpaired span records from the truncated trace\n";
  }

  std::vector<Record> records;
  for (const SpanNode& root : forest.roots) collect_span(root, records);
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kSpanBegin || e.kind == EventKind::kSpanEnd) {
      continue;
    }
    Record r;
    r.time = e.time;
    r.ph = 'i';
    r.name = event_kind_name(e.kind);
    r.pid = pid_of(e.workload);
    records.push_back(r);
  }
  // Chronological order; stable so a parent's B precedes its children and
  // follows them at E even when virtual time stood still.
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return a.time < b.time;
                   });

  // Track names: pid 0 is the system; app i is pid i + 1.
  std::uint64_t max_pid = 0;
  for (const Record& r : records) max_pid = std::max(max_pid, r.pid);

  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"dropped_events\":"
      << opts.dropped << ",\"repaired_spans\":" << forest.skipped
      << "},\"traceEvents\":[";
  bool first = true;
  for (std::uint64_t pid = 0; pid <= max_pid; ++pid) {
    out << (first ? "" : ",")
        << "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\""
        << (pid == 0 ? std::string("system")
                     : "app " + std::to_string(pid - 1))
        << "\"}}";
    first = false;
  }
  for (const Record& r : records) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << r.name << "\",\"ph\":\""
        << r.ph << "\",\"ts\":";
    write_ts(out, r.time);
    out << ",\"pid\":" << r.pid << ",\"tid\":" << r.tid;
    if (r.ph == 'i') {
      out << ",\"s\":\"g\"";
    } else {
      out << ",\"cat\":\"span\",\"args\":{\"span\":" << r.span
          << ",\"tier\":" << static_cast<unsigned>(r.tier) << ",\"arg\":";
      if (r.arg != r.arg) {
        out << "null";
      } else {
        out << r.arg;
      }
      out << "}";
    }
    out << "}";
    first = false;
  }
  out << "\n]}\n";
  return true;
}

namespace {

void fold_node(const SpanNode& node, const std::string& prefix,
               std::map<std::string, std::uint64_t>& stacks) {
  std::string frame;
  if (node.workload >= 0) {
    frame = "app" + std::to_string(node.workload) + ":";
  }
  frame += span_kind_name(node.attrs.kind);
  const std::string stack = prefix.empty() ? frame : prefix + ";" + frame;
  const sim::Cycles self = node.self_cycles();
  if (self > 0) stacks[stack] += self;
  for (const SpanNode& child : node.children) fold_node(child, stack, stacks);
}

}  // namespace

void write_folded(std::span<const TraceEvent> events, std::ostream& out,
                  const PerfettoOptions& opts) {
  if (opts.dropped > 0 && opts.diag) {
    *opts.diag << "warning: trace ring dropped " << opts.dropped
               << " events; folded stacks are truncated\n";
  }
  const SpanForest forest =
      build_span_forest(events, /*strict=*/opts.dropped == 0);
  if (!forest.ok()) {
    if (opts.diag) {
      *opts.diag << "error: malformed span stream: " << forest.error << "\n";
    }
    return;
  }
  std::map<std::string, std::uint64_t> stacks;
  for (const SpanNode& root : forest.roots) fold_node(root, "", stacks);
  for (const auto& [stack, cycles] : stacks) {
    out << stack << ' ' << cycles << '\n';
  }
}

}  // namespace vulcan::obs
