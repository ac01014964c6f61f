#pragma once
// Internal to src/obs: the JSON string writer and the lenient field scanner
// shared by the exporters and the offline JSONL / flight-dump readers.
//
// The scanner is not a JSON parser. It finds `"key":` and returns the raw
// token after it, which is all the fixed-shape artefacts this layer writes
// need; it is escape-aware (an escaped quote never ends a string) and can be
// bounded to one region of a larger document.

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>

namespace vulcan::obs::json {

/// `s` as a quoted JSON string literal.
inline void write_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          // Remaining control characters need the \u00XX form.
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Raw token after the first `"key":` in text[from, to) — up to the next
/// ',', '}' or newline outside a string, leading spaces skipped. Empty view
/// when absent.
inline std::string_view field(std::string_view text, std::string_view key,
                              std::size_t from = 0,
                              std::size_t to = std::string_view::npos) {
  to = std::min(to, text.size());
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t pos = text.find(needle, from);
  if (pos == std::string_view::npos || pos >= to) return {};
  std::size_t start = pos + needle.size();
  while (start < to && text[start] == ' ') ++start;
  std::size_t end = start;
  bool in_string = false;
  bool escaped = false;
  while (end < to) {
    const char c = text[end];
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == ',' || c == '}' || c == '\n')) {
      break;
    }
    ++end;
  }
  return text.substr(start, end - start);
}

/// A string token with its quotes stripped and escapes undone (\uXXXX
/// becomes '?': lossy, but the readers only feed reports and name lookups).
inline std::string unquote(std::string_view tok) {
  if (tok.size() >= 2 && tok.front() == '"' && tok.back() == '"') {
    tok = tok.substr(1, tok.size() - 2);
  }
  std::string out;
  out.reserve(tok.size());
  for (std::size_t i = 0; i < tok.size(); ++i) {
    const char c = tok[i];
    if (c == '\\' && i + 1 < tok.size()) {
      const char n = tok[++i];
      switch (n) {
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': i += 4; out += '?'; break;
        default: out += n; break;
      }
    } else {
      out += c;
    }
  }
  return out;
}

/// Numeric tokens; 0 when absent or malformed.
inline std::uint64_t to_u64(std::string_view tok) {
  std::uint64_t v = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return v;
}

inline std::int64_t to_i64(std::string_view tok) {
  std::int64_t v = 0;
  std::from_chars(tok.data(), tok.data() + tok.size(), v);
  return v;
}

inline std::int32_t to_i32(std::string_view tok) {
  return static_cast<std::int32_t>(to_i64(tok));
}

inline double to_double(std::string_view tok) {
  return std::strtod(std::string(tok).c_str(), nullptr);
}

}  // namespace vulcan::obs::json
