#include "obs/exporter.hpp"

#include <cmath>

#include "obs/json_io.hpp"
#include "obs/metrics.hpp"

namespace vulcan::obs {

namespace {

/// RFC 4180 quoting, applied only when the cell needs it (comma, quote or
/// line break) so clean cells stay byte-identical with the legacy writers.
void write_csv_string(std::ostream& out, const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) {
    out << s;
    return;
  }
  out << '"';
  for (const char c : s) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

void write_csv_value(std::ostream& out, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    write_csv_string(out, *s);
    return;
  }
  std::visit([&](const auto& x) { out << x; }, v);
}

void write_json_value(std::ostream& out, const Value& v) {
  if (const auto* s = std::get_if<std::string>(&v)) {
    json::write_string(out, *s);
    return;
  }
  if (const auto* d = std::get_if<double>(&v)) {
    if (!std::isfinite(*d)) {
      out << "null";  // JSON has no NaN or infinities
      return;
    }
  }
  std::visit([&](const auto& x) { out << x; }, v);
}

}  // namespace

void CsvExporter::begin(std::span<const std::string> columns) {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) *out_ << ',';
    write_csv_string(*out_, columns[i]);
  }
  *out_ << '\n';
}

void CsvExporter::row(std::span<const Value> values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    write_csv_value(*out_, values[i]);
  }
  *out_ << '\n';
}

void JsonlExporter::begin(std::span<const std::string> columns) {
  columns_.assign(columns.begin(), columns.end());
}

void write_histogram_summaries(const Registry& registry, Exporter& exporter) {
  static const std::vector<std::string> kColumns = {
      "key", "count", "sum", "p50", "p95", "p99"};
  exporter.begin(kColumns);
  registry.for_each(
      [](const std::string&, const Counter&) {},
      [](const std::string&, const Gauge&) {},
      [&](const std::string& key, const Histogram& h) {
        const Value row[] = {key,           h.count(),       h.sum(),
                             h.quantile(0.50), h.quantile(0.95),
                             h.quantile(0.99)};
        exporter.row(row);
      });
  exporter.end();
}

void JsonlExporter::row(std::span<const Value> values) {
  *out_ << '{';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) *out_ << ',';
    json::write_string(*out_, i < columns_.size() ? columns_[i]
                                                 : std::string("col"));
    *out_ << ':';
    write_json_value(*out_, values[i]);
  }
  *out_ << "}\n";
}

}  // namespace vulcan::obs
