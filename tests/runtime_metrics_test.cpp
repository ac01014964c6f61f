#include "runtime/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "runtime/experiment.hpp"
#include "runtime/system.hpp"
#include "wl/apps.hpp"

namespace vulcan::runtime {
namespace {

EpochMetrics make_epoch(double t, std::initializer_list<double> fthrs) {
  EpochMetrics e;
  e.time_s = t;
  for (const double f : fthrs) {
    WorkloadEpochMetrics m;
    m.fthr = f;
    m.performance = f * 0.9;
    m.fast_pages = static_cast<std::uint64_t>(f * 1000);
    m.accesses = 100.0;
    e.workloads.push_back(m);
  }
  return e;
}

TEST(MetricsRecorder, MeansOverWindow) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.2, 0.8}));
  rec.record(make_epoch(0.25, {0.4, 0.8}));
  rec.record(make_epoch(0.5, {0.6, 0.8}));
  EXPECT_DOUBLE_EQ(rec.mean_fthr(0), 0.4);
  EXPECT_DOUBLE_EQ(rec.mean_fthr(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(rec.mean_fthr(1), 0.8);
  EXPECT_NEAR(rec.mean_performance(0), 0.36, 1e-12);
}

TEST(MetricsRecorder, MeanWithExplicitRange) {
  MetricsRecorder rec;
  for (int i = 0; i < 10; ++i) {
    rec.record(make_epoch(i * 0.25, {static_cast<double>(i)}));
  }
  const double mid =
      rec.mean(0, [](const auto& w) { return w.fthr; }, 2, 5);
  EXPECT_DOUBLE_EQ(mid, 3.0);  // epochs 2,3,4
}

TEST(MetricsRecorder, LateArrivalsSkipMissingEpochs) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.5}));          // only workload 0
  rec.record(make_epoch(0.25, {0.5, 1.0}));    // workload 1 joins
  EXPECT_DOUBLE_EQ(rec.mean_fthr(1), 1.0)
      << "epochs before arrival must not dilute the mean";
}

TEST(MetricsRecorder, UnknownWorkloadMeansZero) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.5}));
  EXPECT_DOUBLE_EQ(rec.mean_fthr(7), 0.0);
}

TEST(MetricsRecorder, CsvShapeAndContent) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.25, 0.75}));
  std::ostringstream out;
  rec.write_csv(out);
  const std::string csv = out.str();
  // Header + one row per workload per epoch.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
  EXPECT_NE(csv.find("time_s,workload,fthr"), std::string::npos);
  EXPECT_NE(csv.find("0,0,0.25"), std::string::npos);
  EXPECT_NE(csv.find("0,1,0.75"), std::string::npos);
}

TEST(MetricsRecorder, EmptyCsvIsJustHeader) {
  MetricsRecorder rec;
  std::ostringstream out;
  rec.write_csv(out);
  const std::string csv = out.str();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
}

TEST(MetricsRecorder, ExporterMatchesLegacyCsvOnSyntheticData) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.25, 0.75}));
  rec.record(make_epoch(0.25, {0.5}));
  std::ostringstream legacy, modern;
  rec.write_csv(legacy);
  obs::CsvExporter csv(modern);
  rec.write(csv);
  EXPECT_EQ(legacy.str(), modern.str());
}

TEST(MetricsRecorder, ExporterMatchesLegacyCsvOnARealRun) {
  // Three epochs of the real system: every cell the legacy hand-rolled
  // writer produced must come out of the unified exporter byte-identical.
  auto built = SystemBuilder{}
                   .seed(3)
                   .samples_per_epoch(2000)
                   .policy(make_policy("vulcan"))
                   .build();
  TieredSystem& sys = *built.value();
  sys.add_workload(wl::make_memcached(1));
  sys.add_workload(wl::make_liblinear(2));
  sys.run_epochs(3);

  std::ostringstream legacy, modern;
  sys.metrics().write_csv(legacy);
  obs::CsvExporter csv(modern);
  sys.metrics().write(csv);
  const std::string expected = legacy.str();
  EXPECT_EQ(expected, modern.str());
  // Header + 3 epochs x 2 workloads.
  EXPECT_EQ(std::count(expected.begin(), expected.end(), '\n'), 7);
}

TEST(MetricsRecorder, JsonlExporterEmitsOneObjectPerRow) {
  MetricsRecorder rec;
  rec.record(make_epoch(0.0, {0.25, 0.75}));
  std::ostringstream out;
  obs::JsonlExporter jsonl(out);
  rec.write(jsonl);
  const std::string s = out.str();
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 2);  // no header line
  EXPECT_NE(s.find("\"time_s\":0"), std::string::npos);
  EXPECT_NE(s.find("\"fthr\":0.25"), std::string::npos);
  EXPECT_NE(s.find("\"workload\":1"), std::string::npos);
}

}  // namespace
}  // namespace vulcan::runtime
