// cli.hpp — the argument cursor and strict value parsers shared by the
// vulcan_* command-line tools.
//
// Every parser rejects an empty value, trailing junk ("4x2"), a sign on an
// unsigned value ("-5") and anything out of range, so a typo exits 2 with
// `invalid value for --flag: X` instead of quietly running some other
// experiment.
//
//   cli::Args args(argc, argv);
//   while (args.more()) {
//     const std::string flag = args.flag();
//     if (flag == "--seed") seed = args.u64();
//     else if (flag == "--out") out = args.next();
//     ...
//   }
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace vulcan::cli {

inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

inline std::optional<unsigned> parse_unsigned(std::string_view text) {
  const auto v = parse_u64(text);
  if (!v || *v > std::numeric_limits<unsigned>::max()) return std::nullopt;
  return static_cast<unsigned>(*v);
}

/// Finite decimal or scientific notation ("2.5", "3e6"); no inf/nan.
inline std::optional<double> parse_double(std::string_view text) {
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || ptr != end || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

inline std::optional<bool> parse_on_off(std::string_view text) {
  if (text == "on" || text == "1" || text == "true") return true;
  if (text == "off" || text == "0" || text == "false") return false;
  return std::nullopt;
}

[[noreturn]] inline void invalid(std::string_view flag,
                                 std::string_view value) {
  std::fprintf(stderr, "invalid value for %.*s: %.*s\n",
               static_cast<int>(flag.size()), flag.data(),
               static_cast<int>(value.size()), value.data());
  std::exit(2);
}

/// Walks argv one flag at a time; the typed getters consume the flag's
/// value and exit 2 when it is missing or malformed.
class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  bool more() const { return i_ + 1 < argc_; }

  /// Advance to the next flag and return it.
  const std::string& flag() {
    flag_ = argv_[++i_];
    return flag_;
  }

  /// The current flag's value.
  const char* next() {
    if (!more()) {
      std::fprintf(stderr, "missing value for %s\n", flag_.c_str());
      std::exit(2);
    }
    return argv_[++i_];
  }

  /// The current flag's value when one follows (anything not starting
  /// with '-'), else `fallback` for a bare flag.
  const char* next_or(const char* fallback) {
    return more() && argv_[i_ + 1][0] != '-' ? argv_[++i_] : fallback;
  }

  std::uint64_t u64() { return get(parse_u64); }
  unsigned uint() { return get(parse_unsigned); }
  double real() { return get(parse_double); }
  bool on_off() { return get(parse_on_off); }

  double non_negative() {
    const char* value = next();
    const auto v = parse_double(value);
    if (!v || *v < 0.0) invalid(flag_, value);
    return *v;
  }

 private:
  template <typename T>
  T get(std::optional<T> (*parse)(std::string_view)) {
    const char* value = next();
    const auto v = parse(value);
    if (!v) invalid(flag_, value);
    return *v;
  }

  int argc_;
  char** argv_;
  int i_ = 0;
  std::string flag_;
};

}  // namespace vulcan::cli
