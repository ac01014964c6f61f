#include "obs/flightrec.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "obs/json_io.hpp"

namespace vulcan::obs {

namespace {

/// Shortest round-trip double literal (matches the registry's JSON writer
/// philosophy: deterministic bytes for a deterministic value).
void write_double(std::ostream& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

/// Re-emit a JSONL blob as comma-joined array elements (one per line).
void write_joined_lines(std::ostream& out, const std::string& jsonl) {
  bool first = true;
  std::size_t pos = 0;
  while (pos < jsonl.size()) {
    std::size_t end = jsonl.find('\n', pos);
    if (end == std::string::npos) end = jsonl.size();
    if (end > pos) {
      out << (first ? "" : ",\n");
      out.write(jsonl.data() + pos, static_cast<std::streamsize>(end - pos));
      first = false;
    }
    pos = end + 1;
  }
  if (!first) out << "\n";
}

constexpr std::size_t npos = std::string::npos;

/// Visit every line in text[from, to).
template <typename Fn>
void each_line(std::string_view text, std::size_t from, std::size_t to,
               Fn&& fn) {
  while (from < to) {
    std::size_t end = text.find('\n', from);
    if (end == npos || end > to) end = to;
    if (end > from) fn(text.substr(from, end - from));
    from = end + 1;
  }
}

}  // namespace

bool FlightRecorder::dump(std::ostream& out, const DumpInfo& info) const {
  if (!enabled()) return false;
  char buf[64];

  // Header. Section order is load-bearing: the offline readers are lenient
  // scanners, and the registry snapshot must own the first quoted
  // "counters" token in the file (string payloads above it are escaped, so
  // they can never contain the bare token).
  out << "{\n\"flight_version\": 1,\n\"reason\": ";
  json::write_string(out, info.reason);
  out << ",\n\"cause\": ";
  json::write_string(out, info.cause);
  out << ",\n\"epoch\": " << info.epoch << ",\n";
  std::snprintf(buf, sizeof buf, "%.6f", sim::CpuClock::to_seconds(info.now));
  out << "\"t_s\": " << buf << ",\n"
      << "\"trace_horizon_epochs\": " << cfg_.epochs << ",\n";

  // SLO instance states (empty when no monitor is installed).
  out << "\"slo\": [\n";
  if (slo_) {
    bool first = true;
    const std::vector<SloSpec>& specs = slo_->specs();
    for (const SloRuleState& st : slo_->states()) {
      const SloSpec& spec = specs[st.rule];
      out << (first ? "" : ",\n") << "{\"rule\":";
      json::write_string(out, spec.name);
      out << ",\"severity\":\"" << slo_severity_name(spec.severity)
          << "\",\"app\":" << st.app
          << ",\"violated\":" << (st.violated ? "true" : "false")
          << ",\"value\":";
      write_double(out, st.value);
      out << ",\"breach_streak\":" << st.breach_streak
          << ",\"ok_streak\":" << st.ok_streak << ",\"fired\":"
          << st.violations << "}";
      first = false;
    }
    if (!first) out << "\n";
  }
  out << "],\n";

  // Last audit report (present: false until the first audit ran).
  const bool audit_present =
      last_audit_ &&
      (last_audit_->checks > 0 || !last_audit_->violations.empty());
  out << "\"audit\": {\"present\": " << (audit_present ? "true" : "false");
  if (audit_present) {
    out << ", \"epoch\": " << last_audit_->epoch << ", \"checks\": "
        << last_audit_->checks << ", \"level\": \""
        << check::audit_level_name(last_audit_->level) << "\"";
  }
  out << ", \"entries\": [\n";
  if (audit_present) {
    bool first = true;
    for (const check::Violation& v : last_audit_->violations) {
      out << (first ? "" : ",\n") << "{\"rule\":\""
          << check::audit_rule_name(v.rule) << "\",\"w\":" << v.workload
          << ",\"detail\":" << v.detail << ",\"value\":";
      write_double(out, v.value);
      out << ",\"message\":";
      json::write_string(out, v.message);
      out << "}";
      first = false;
    }
    if (!first) out << "\n";
  }
  out << "]},\n";

  // Trace tail: events from the last `epochs` epochs (the ring may retain
  // less; the tail is the intersection).
  out << "\"trace\": [\n";
  if (trace_) {
    const sim::Cycles horizon =
        cfg_.epoch * static_cast<sim::Cycles>(cfg_.epochs);
    const sim::Cycles cutoff =
        (horizon > 0 && info.now > horizon) ? info.now - horizon : 0;
    std::vector<TraceEvent> tail;
    for (const TraceEvent& e : trace_->events()) {
      if (e.time >= cutoff) tail.push_back(e);
    }
    std::ostringstream lines;
    TraceRing::write_events_jsonl(tail, lines);
    write_joined_lines(out, lines.str());
  }
  out << "],\n";

  // Full registry snapshot, verbatim Registry::write_json output.
  out << "\"metrics\": ";
  {
    std::ostringstream mjson;
    registry_->write_json(mjson);
    std::string m = mjson.str();
    while (!m.empty() && m.back() == '\n') m.pop_back();
    out << m;
  }
  out << ",\n";

  // Every retained time-series window, one JSONL row per element.
  out << "\"timeseries\": [\n";
  if (timeseries_) {
    std::ostringstream rows;
    timeseries_->write_jsonl(rows);
    write_joined_lines(out, rows.str());
  }
  out << "]";

  // Provenance-ledger tail. Written only when a ledger was wired in, so
  // dumps of ledger-free runs keep their exact pre-provenance bytes.
  if (provenance_) {
    constexpr std::size_t kTailRows = 64;
    out << ",\n\"provenance\": {\"total_decisions\": "
        << provenance_->total_decisions()
        << ", \"total_transitions\": " << provenance_->total_transitions()
        << ", \"pending\": " << provenance_->pending() << ", \"tail\": [\n";
    std::ostringstream rows;
    provenance_->write_decisions_tail_jsonl(rows, kTailRows);
    write_joined_lines(out, rows.str());
    out << "]}";
  }
  out << "\n}\n";
  return out.good();
}

bool FlightRecorder::dump_file(const std::string& path,
                               const DumpInfo& info) const {
  if (!enabled() || path.empty()) return false;
  std::ofstream out(path);
  if (!out) return false;
  const bool ok = dump(out, info);
  out.flush();
  return ok && out.good();
}

bool FlightRecorder::auto_dump(const DumpInfo& info) {
  if (!enabled() || cfg_.dump_path.empty() || auto_dumped_) return false;
  auto_dumped_ = true;  // one shot, even if the write fails
  if (!dump_file(cfg_.dump_path, info)) return false;
  auto_dump_path_ = cfg_.dump_path;
  return true;
}

std::optional<FlightDump> FlightDump::parse(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const std::string_view tv(text);
  if (tv.find("\"flight_version\":") == npos) return std::nullopt;

  // Section anchors. Newline-anchored needles cannot match inside string
  // payloads (real newlines there are escaped to "\n").
  const std::size_t pos_slo = tv.find("\n\"slo\": [");
  const std::size_t pos_audit = tv.find("\n\"audit\": {");
  const std::size_t pos_trace = tv.find("\n\"trace\": [");
  const std::size_t pos_ts = tv.find("\n\"timeseries\": [");

  FlightDump d;
  const std::size_t header_end = pos_slo == npos ? tv.size() : pos_slo;
  d.version = json::to_u64(json::field(tv, "flight_version", 0, header_end));
  d.reason = json::unquote(json::field(tv, "reason", 0, header_end));
  d.cause = json::unquote(json::field(tv, "cause", 0, header_end));
  d.epoch = json::to_u64(json::field(tv, "epoch", 0, header_end));
  d.t_s = json::to_double(json::field(tv, "t_s", 0, header_end));

  if (pos_slo != npos && pos_audit != npos) {
    each_line(tv, pos_slo + 1, pos_audit, [&](std::string_view line) {
      if (line.find("\"rule\":") == npos) return;
      SloInstance s;
      s.rule = json::unquote(json::field(line, "rule"));
      s.severity = json::unquote(json::field(line, "severity"));
      s.app = json::to_i32(json::field(line, "app"));
      s.violated = json::field(line, "violated") == "true";
      s.value = json::to_double(json::field(line, "value"));
      s.violations = json::to_u64(json::field(line, "fired"));
      d.slo.push_back(std::move(s));
    });
  }

  if (pos_audit != npos) {
    const std::size_t audit_end = pos_trace == npos ? tv.size() : pos_trace;
    d.audit_present =
        json::field(tv, "present", pos_audit, audit_end) == "true";
    if (d.audit_present) {
      const auto audit = [&](std::string_view key) {
        return json::field(tv, key, pos_audit, audit_end);
      };
      d.audit_epoch = json::to_u64(audit("epoch"));
      d.audit_checks = json::to_u64(audit("checks"));
      d.audit_level = json::unquote(audit("level"));
      each_line(tv, pos_audit + 1, audit_end, [&](std::string_view line) {
        if (line.find("\"message\":") == npos) return;
        AuditViolation v;
        v.rule = json::unquote(json::field(line, "rule"));
        v.workload = json::to_i32(json::field(line, "w"));
        v.detail = json::to_u64(json::field(line, "detail"));
        v.value = json::to_double(json::field(line, "value"));
        v.message = json::unquote(json::field(line, "message"));
        d.audit_violations.push_back(std::move(v));
      });
    }
  }

  // The lenient line readers handle the rest: read_jsonl keeps only lines
  // whose "kind" is a trace kind, parse_json scans for the first quoted
  // "counters"/"gauges"/"histograms" sections (the embedded snapshot).
  {
    std::istringstream stream(text);
    d.trace = TraceRing::read_jsonl(stream);
  }
  {
    std::istringstream stream(text);
    d.metrics.parse_json(stream);
  }
  const std::size_t pos_prov = tv.find("\n\"provenance\": {");
  if (pos_ts != npos) {
    const std::size_t ts_end = pos_prov == npos ? tv.size() : pos_prov;
    each_line(tv, pos_ts + 1, ts_end, [&](std::string_view line) {
      if (line.find("\"key\":") != npos) ++d.timeseries_rows;
    });
  }
  if (pos_prov != npos) {
    d.provenance_present = true;
    d.provenance_decisions =
        json::to_u64(json::field(tv, "total_decisions", pos_prov));
    d.provenance_transitions =
        json::to_u64(json::field(tv, "total_transitions", pos_prov));
    d.provenance_pending =
        json::to_u64(json::field(tv, "pending", pos_prov));
    std::istringstream stream(text.substr(pos_prov));
    d.provenance_tail = ProvenanceLedger::read_decisions_jsonl(stream);
  }
  return d;
}

void write_flight_report(const FlightDump& dump, std::ostream& out) {
  char buf[64];
  out << "vulcan flight recorder dump\n"
      << "===========================\n"
      << "reason:  " << dump.reason << "\n";
  if (!dump.cause.empty()) out << "cause:   " << dump.cause << "\n";
  std::snprintf(buf, sizeof buf, "%.3f", dump.t_s);
  out << "epoch:   " << dump.epoch << "   t: " << buf << " s\n"
      << "trace:   " << dump.trace.size()
      << " events   timeseries rows: " << dump.timeseries_rows << "\n";
  if (dump.provenance_present) {
    out << "ledger:  " << dump.provenance_decisions << " decisions ("
        << dump.provenance_pending << " pending), "
        << dump.provenance_transitions << " transitions, tail of "
        << dump.provenance_tail.size() << "\n";
  }
  out << "\n";

  if (dump.slo.empty()) {
    out << "slo: no monitor installed\n\n";
  } else {
    std::size_t active = 0;
    for (const auto& s : dump.slo) active += s.violated ? 1 : 0;
    out << "slo instances (" << active << " in violation):\n";
    out << "  state     severity  rule                      app"
        << "       value  fired\n";
    for (const auto& s : dump.slo) {
      std::snprintf(buf, sizeof buf, "%12.4f", s.value);
      out << "  " << std::left << std::setw(10)
          << (s.violated ? "VIOLATED" : "ok") << std::setw(10) << s.severity
          << std::setw(24) << s.rule << std::right << std::setw(5)
          << (s.app < 0 ? std::string("-") : std::to_string(s.app)) << buf
          << std::setw(7) << s.violations << "\n";
    }
    out << "\n";
  }

  if (!dump.audit_present) {
    out << "last audit: none recorded\n\n";
  } else {
    out << "last audit: epoch=" << dump.audit_epoch
        << " level=" << dump.audit_level << " checks=" << dump.audit_checks
        << " violations=" << dump.audit_violations.size() << "\n";
    for (const auto& v : dump.audit_violations) {
      out << "  - [" << v.rule << "] w=" << v.workload
          << " detail=" << v.detail << ": " << v.message << "\n";
    }
    out << "\n";
  }

  write_fairness_report(dump.metrics, dump.trace, out);
}

}  // namespace vulcan::obs
