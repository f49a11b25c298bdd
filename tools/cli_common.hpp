// Conventions shared by every bgr_* command-line tool, so the tools agree
// on exit codes and diagnostics:
//
//   - exit 0: success; exit 1: runtime failure (I/O, routing, verify
//     findings); exit 2: command-line usage error.
//   - `--help` prints the usage text to *stdout* and exits 0; a usage
//     error prints a one-line diagnostic plus the usage text to *stderr*
//     and exits 2.
//   - option values are parsed checked (bgr::parse_i32 & friends), never
//     with atoi: missing, non-numeric, trailing-garbage and out-of-range
//     values get a diagnostic naming the flag and the accepted range.
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>

#include "bgr/common/parse.hpp"

namespace bgr::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitFailure = 1;
inline constexpr int kExitUsage = 2;

/// Checked integer option value: rejects missing, non-numeric, trailing
/// garbage and out-of-range text with a clear diagnostic instead of the
/// old atoi behaviour (which silently read garbage as 0).
[[nodiscard]] inline bool parse_int_option(const char* flag, const char* text,
                                           std::int32_t lo, std::int32_t hi,
                                           std::int32_t* out) {
  const std::optional<std::int32_t> value =
      text != nullptr ? bgr::parse_i32(text) : std::nullopt;
  if (!value || *value < lo || *value > hi) {
    std::fprintf(stderr,
                 "error: %s expects an integer in [%d, %d], got '%s'\n", flag,
                 lo, hi, text != nullptr ? text : "<missing>");
    return false;
  }
  *out = *value;
  return true;
}

/// Checked enumeration option value: matches `text` against the accepted
/// spellings and writes the matching index to `out`. An unknown or missing
/// value gets a diagnostic that *lists every valid value*, so adding a new
/// engine/mode automatically fixes the error text of every tool using it.
[[nodiscard]] inline bool parse_choice_option(
    const char* flag, const char* text,
    std::initializer_list<const char*> choices, std::size_t* out) {
  const std::string value = text != nullptr ? text : "";
  std::size_t index = 0;
  for (const char* choice : choices) {
    if (value == choice) {
      *out = index;
      return true;
    }
    ++index;
  }
  std::string expected;
  index = 0;
  for (const char* choice : choices) {
    if (index > 0) {
      expected += index + 1 == choices.size() ? " or " : ", ";
    }
    expected += choice;
    ++index;
  }
  std::fprintf(stderr, "error: %s must be %s, got '%s'\n", flag,
               expected.c_str(), text != nullptr ? text : "<missing>");
  return false;
}

/// Uniform unknown-option diagnostic; `usage` writes the tool's usage
/// text to the given stream. Returns kExitUsage for `return` chaining.
inline int unknown_option(const char* arg, void (*usage)(std::FILE*)) {
  std::fprintf(stderr, "error: unknown option '%s'\n", arg);
  usage(stderr);
  return kExitUsage;
}

/// Uniform missing-value diagnostic for `--flag VALUE` options, worded
/// like the checked parses above. Returns kExitUsage for `return` chaining.
inline int missing_value(const char* flag) {
  std::fprintf(stderr, "error: %s expects a value, got '<missing>'\n", flag);
  return kExitUsage;
}

}  // namespace bgr::cli
