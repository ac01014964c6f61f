// vulcan_diff — differential run analysis for vulcan_sim artefacts.
//
// Compares two runs (metrics snapshots and, optionally, span traces) and
// prints the structural diff plus the causal attribution path — the span
// subtree that absorbed the cycle delta. Two identical-seed runs differing
// in exactly one knob make every printed delta attributable to that knob.
//
//   vulcan_sim --scenario dilemma --seed 42 --metrics a.json --trace a.jsonl
//   vulcan_sim --scenario dilemma --seed 43 --metrics b.json --trace b.jsonl
//   vulcan_diff --before a.json --after b.json
//               --before-trace a.jsonl --after-trace b.jsonl
//
// Output is deterministic: identical inputs produce byte-identical reports.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

#include "cli.hpp"

using namespace vulcan;

namespace {

void usage() {
  std::puts(
      "vulcan_diff — structural + causal diff of two vulcan_sim runs\n"
      "\n"
      "  --before FILE        metrics snapshot of the first run (required)\n"
      "  --after FILE         metrics snapshot of the second run (required)\n"
      "  --before-trace FILE  event trace of the first run (optional)\n"
      "  --after-trace FILE   event trace of the second run (optional)\n"
      "  --top N              how many movers to print (default: 24)\n"
      "  --min-cycles C       prune span subtrees below |delta| C "
      "(default: 0)\n"
      "\n"
      "Both traces are needed for the span-diff / attribution sections.");
}

bool load_snapshot(const std::string& path, obs::MetricsSnapshot& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  if (!out.parse_json(in)) {
    std::fprintf(stderr, "%s is not a metrics snapshot\n", path.c_str());
    return false;
  }
  return true;
}

bool load_trace(const std::string& path, std::vector<obs::TraceEvent>& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out = obs::TraceRing::read_jsonl(in);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string before_path, after_path, before_trace, after_trace;
  std::size_t top = 24;
  double min_cycles = 0.0;

  cli::Args args(argc, argv);
  while (args.more()) {
    const std::string flag = args.flag();
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--before") {
      before_path = args.next();
    } else if (flag == "--after") {
      after_path = args.next();
    } else if (flag == "--before-trace") {
      before_trace = args.next();
    } else if (flag == "--after-trace") {
      after_trace = args.next();
    } else if (flag == "--top") {
      top = static_cast<std::size_t>(args.u64());
    } else if (flag == "--min-cycles") {
      min_cycles = args.real();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (before_path.empty() || after_path.empty()) {
    usage();
    return 2;
  }
  if (before_trace.empty() != after_trace.empty()) {
    std::fprintf(stderr,
                 "span diffing needs both --before-trace and --after-trace\n");
    return 2;
  }

  obs::MetricsSnapshot before, after;
  if (!load_snapshot(before_path, before) || !load_snapshot(after_path, after))
    return 1;

  const obs::SnapshotDiff diff = obs::diff_snapshots(before, after);
  obs::write_snapshot_diff(diff, std::cout, top);

  if (!before_trace.empty()) {
    std::vector<obs::TraceEvent> ev_before, ev_after;
    if (!load_trace(before_trace, ev_before) ||
        !load_trace(after_trace, ev_after))
      return 1;
    const obs::SpanForest forest_before =
        obs::build_span_forest(ev_before, /*strict=*/false);
    const obs::SpanForest forest_after =
        obs::build_span_forest(ev_after, /*strict=*/false);
    const obs::SpanTreeDelta root =
        obs::diff_span_forests(forest_before, forest_after);
    std::cout << "\n";
    obs::write_span_diff(root, std::cout, min_cycles);
    const std::vector<std::string> path = obs::attribution_path(root);
    std::cout << "\nattribution:";
    if (path.empty()) {
      std::cout << " (no dominant subtree)";
    } else {
      for (std::size_t i = 0; i < path.size(); ++i) {
        std::cout << (i ? " > " : " ") << path[i];
      }
    }
    std::cout << "\n";
  }
  return 0;
}
