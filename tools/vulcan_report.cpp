// vulcan_report — offline per-app fairness report.
//
// Consumes the artefacts a vulcan_sim run exports and prints the per-app
// accounting table, the fairness indices and the worst offender's critical
// path through the span timeline:
//
//   vulcan_sim --scenario dilemma --seconds 20 --metrics m.json --trace t.jsonl
//   vulcan_report --metrics m.json --trace t.jsonl
//
// Output is deterministic: identical-seed runs produce byte-identical
// reports. Either input may be `-` for stdin (not both).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include <vulcan/vulcan.hpp>

#include "cli.hpp"

using namespace vulcan;

namespace {

void usage() {
  std::puts(
      "vulcan_report — per-app fairness report from a vulcan_sim run\n"
      "\n"
      "  --metrics FILE   metrics-registry snapshot (vulcan_sim --metrics)\n"
      "  --trace FILE     structured event trace    (vulcan_sim --trace)\n"
      "  --flight FILE    flight-recorder dump (vulcan_sim --flight-dump);\n"
      "                   renders the black box instead of --metrics/--trace\n"
      "\n"
      "--metrics is required unless --flight is given; --trace adds the\n"
      "critical-path section. Either of --metrics/--trace may be '-' to\n"
      "read from stdin (not both); --flight may be '-' when used alone.");
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path, trace_path, flight_path;
  cli::Args args(argc, argv);
  while (args.more()) {
    const std::string flag = args.flag();
    if (flag == "--help" || flag == "-h") {
      usage();
      return 0;
    } else if (flag == "--metrics") {
      metrics_path = args.next();
    } else if (flag == "--trace") {
      trace_path = args.next();
    } else if (flag == "--flight") {
      flight_path = args.next();
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }
  if (!flight_path.empty()) {
    if (!metrics_path.empty() || !trace_path.empty()) {
      std::fprintf(stderr, "--flight replaces --metrics/--trace\n");
      return 2;
    }
    std::optional<obs::FlightDump> dump;
    if (flight_path == "-") {
      dump = obs::FlightDump::parse(std::cin);
    } else {
      std::ifstream in(flight_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", flight_path.c_str());
        return 1;
      }
      dump = obs::FlightDump::parse(in);
    }
    if (!dump) {
      std::fprintf(stderr, "%s is not a flight-recorder dump\n",
                   flight_path.c_str());
      return 1;
    }
    obs::write_flight_report(*dump, std::cout);
    return 0;
  }
  if (metrics_path.empty()) {
    usage();
    return 2;
  }
  if (metrics_path == "-" && trace_path == "-") {
    std::fprintf(stderr, "only one of --metrics/--trace may be '-'\n");
    return 2;
  }

  obs::MetricsSnapshot snapshot;
  if (metrics_path == "-") {
    if (!snapshot.parse_json(std::cin)) {
      std::fprintf(stderr, "stdin is not a metrics snapshot\n");
      return 1;
    }
  } else {
    std::ifstream in(metrics_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", metrics_path.c_str());
      return 1;
    }
    if (!snapshot.parse_json(in)) {
      std::fprintf(stderr, "%s is not a metrics snapshot\n",
                   metrics_path.c_str());
      return 1;
    }
  }

  std::vector<obs::TraceEvent> events;
  if (!trace_path.empty()) {
    if (trace_path == "-") {
      events = obs::TraceRing::read_jsonl(std::cin);
    } else {
      std::ifstream in(trace_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
        return 1;
      }
      events = obs::TraceRing::read_jsonl(in);
    }
  }

  obs::write_fairness_report(snapshot, events, std::cout);
  return 0;
}
