// Trace workflow: capture a workload's access stream once, then replay the
// identical stream under several policies — apples-to-apples comparisons
// with zero workload-side variance.
//
//   $ ./trace_workflow
//
// Demonstrates wl::Trace / RecordingWorkload / ReplayWorkload end to end,
// including on-disk round-tripping.
#include <cstdio>
#include <fstream>
#include <sstream>

#include <vulcan/vulcan.hpp>

using namespace vulcan;

int main() {
  // 1) Capture: run the microbenchmark briefly, recording every access.
  wl::Trace trace(16'384, 8);
  {
    wl::MicrobenchWorkload::Params p;
    p.rss_pages = 16'384;
    p.wss_pages = 6'144;
    p.write_ratio = 0.2;
    wl::RecordingWorkload recorder(
        std::make_unique<wl::MicrobenchWorkload>(p), trace);
    for (int i = 0; i < 150'000; ++i) recorder.next_access(i % 8);
  }
  std::printf("captured %zu accesses\n", trace.size());

  // 2) Round-trip through the serialised format (here via a stringstream;
  //    vulcan_sim --record-trace/--replay-trace does the same with files).
  std::stringstream buffer;
  const auto bytes = trace.save(buffer);
  std::printf("serialised to %llu bytes (%.1f bits/access)\n\n",
              (unsigned long long)bytes,
              8.0 * double(bytes) / double(trace.size()));

  // 3) Replay the identical stream under each policy.
  std::printf("%-8s %8s %8s %12s\n", "policy", "FTHR", "perf", "migrated");
  for (const char* policy : {"tpp", "memtis", "nomad", "mtm", "vulcan"}) {
    buffer.clear();
    buffer.seekg(0);
    wl::WorkloadSpec spec;
    spec.name = "captured";
    spec.accesses_per_sec_per_thread = 3e6;

    auto built = runtime::SystemBuilder{}
                     .seed(7)
                     .policy(runtime::make_policy(policy))
                     .build();
    runtime::TieredSystem& sys = *built.value();
    sys.add_workload(std::make_unique<wl::ReplayWorkload>(
        wl::Trace::load(buffer), spec));
    sys.prefault(0, 0, 1);  // data starts in the slow tier: policies must act
    sys.run_epochs(60);

    double migrated = 0;
    for (const auto& e : sys.metrics().epochs()) {
      migrated += double(e.workloads[0].migrated);
    }
    std::printf("%-8s %8.3f %8.3f %12.0f\n", policy,
                sys.metrics().mean_fthr(0, 30),
                sys.metrics().mean_performance(0, 30), migrated);
  }

  std::printf(
      "\nEvery policy consumed byte-identical accesses: differences are\n"
      "purely policy behaviour, not workload randomness.\n");
  return 0;
}
