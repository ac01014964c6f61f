// In-memory host-time spans for the benchmark's traced run.
//
// A span is a named interval on the host's steady clock plus the index of
// the span that was open when it began. Spans are recorded from outside
// the simulator, around calls into each layer's public functions, kept in
// memory and written out once the run ends. A layer's self time is its
// span's duration minus the part of that interval its child spans cover;
// children may overlap (jobs of one parallel batch), so coverage is the
// union of their intervals, not their sum.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string_view name;  ///< always a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same log; -1 for a root

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans of one thread of work. Times count from a shared origin, so logs
/// recorded on different threads can be merged into one timeline.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin = Clock::now())
      : origin_(origin) {}

  /// Open a span under the innermost open one; returns its index.
  std::int32_t open(std::string_view name);
  /// Close span `id`, which must be the innermost open span.
  void close(std::int32_t id);

  /// Append `other`'s spans, re-rooting its roots under `parent`.
  void adopt(const SpanLog& other, std::int32_t parent);

  Clock::time_point origin() const { return origin_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per span: name, start_ns, end_ns, parent.
  void write_jsonl(std::ostream& out) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span on construction and closes it when the scope ends.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string_view name)
      : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// A half-open interval of host time, [start_ns, end_ns).
struct Interval {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// `parent`'s length minus the length of the union of `children`, each
/// clipped to `parent` first.
std::int64_t uncovered_ns(Interval parent, std::vector<Interval> children);

/// Self time of every span in `spans`, index-aligned.
std::vector<std::int64_t> self_times(std::span<const Span> spans);

/// Span count and summed duration of each span name in a log.
struct LayerTotal {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
};
std::map<std::string, LayerTotal, std::less<>> layer_totals(
    std::span<const Span> spans);

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that has at
/// least `min_beyond` samples above its rank (nearest-rank definition).
/// When no rung qualifies it is the median and `beyond` says how thin it is.
struct TailPercentile {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples ranked above the percentile
};
TailPercentile tail_percentile(std::vector<double> samples,
                               std::size_t min_beyond = 10);

/// Median (mean of the middle two for an even count); 0 when empty.
double median(std::vector<double> samples);

}  // namespace perfbench
