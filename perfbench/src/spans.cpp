#include "spans.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::int32_t SpanLog::open(std::string_view name) {
  const auto id = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({.name = name, .start_ns = now_ns(), .parent = parent});
  open_.push_back(id);
  return id;
}

void SpanLog::close(std::int32_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void SpanLog::adopt(const SpanLog& other, std::int32_t parent) {
  const auto base = static_cast<std::int32_t>(spans_.size());
  // Re-express the other log's times against this log's origin.
  const std::int64_t shift =
      std::chrono::duration_cast<std::chrono::nanoseconds>(other.origin_ -
                                                           origin_)
          .count();
  for (Span s : other.spans_) {
    s.start_ns += shift;
    s.end_ns += shift;
    s.parent = s.parent < 0 ? parent : s.parent + base;
    spans_.push_back(s);
  }
}

void SpanLog::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << "}\n";
  }
}

std::int64_t uncovered_ns(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start_ns = std::max(c.start_ns, parent.start_ns);
    c.end_ns = std::min(c.end_ns, parent.end_ns);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_ns < b.start_ns;
            });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end_ns <= reach) continue;
    covered += c.end_ns - std::max(c.start_ns, reach);
    reach = c.end_ns;
  }
  return (parent.end_ns - parent.start_ns) - covered;
}

std::vector<std::int64_t> self_times(std::span<const Span> spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = uncovered_ns({spans[i].start_ns, spans[i].end_ns},
                           std::move(children[i]));
  }
  return self;
}

std::map<std::string, LayerTotal, std::less<>> layer_totals(
    std::span<const Span> spans) {
  std::map<std::string, LayerTotal, std::less<>> totals;
  for (const Span& s : spans) {
    auto it = totals.find(s.name);
    if (it == totals.end()) {
      it = totals.emplace(std::string(s.name), LayerTotal{}).first;
    }
    ++it->second.count;
    it->second.total_ns += s.duration_ns();
  }
  return totals;
}

TailPercentile tail_percentile(std::vector<double> samples,
                               std::size_t min_beyond) {
  TailPercentile tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: percentile 100(1 - 1/d) sits at 1-based rank
  // ceil(n (1 - 1/d)) = n - floor(n / d), leaving floor(n / d) above it.
  // Integer arithmetic keeps 0.9 n from rounding up a rank.
  std::size_t beyond = n / 2;
  tail = {50.0, samples[n - beyond - 1], beyond};
  min_beyond = std::max<std::size_t>(min_beyond, 1);
  for (std::size_t d = 10; (beyond = n / d) >= min_beyond; d *= 10) {
    tail = {100.0 - 100.0 / static_cast<double>(d),
            samples[n - beyond - 1], beyond};
  }
  return tail;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace perfbench
