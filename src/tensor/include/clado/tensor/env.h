// Strict number parsing shared by every CLADO_* integer knob
// (CLADO_NUM_THREADS, CLADO_BENCH_SCALE, ...) and every numeric
// command-line flag of the tools.
//
// Policy: a value must parse completely as a base-10 number inside the
// caller's range, or the parser throws. For env vars, an unset or empty
// variable means "use the default" and returns nullopt. Silent fallback on
// garbage (the old std::atoi pattern) hid typos like CLADO_BENCH_SCALE=3x
// or --workers=two, which quietly ran a different experiment than the one
// asked for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace clado::tensor {

/// Parses `text` as a strict base-10 integer in [min_value, max_value].
/// Text that does not parse completely, overflows, or falls outside the
/// range → std::invalid_argument naming `name` (the env var or flag), the
/// offending text, and the accepted range.
std::int64_t parse_int_strict(const std::string& name, const std::string& text,
                              std::int64_t min_value, std::int64_t max_value);

/// parse_int_strict's floating-point twin: `text` must parse completely as
/// a number in [min_value, max_value]; NaN is always rejected.
double parse_double_strict(const std::string& name, const std::string& text,
                           double min_value, double max_value);

/// Reads env var `name` through parse_int_strict. Unset or empty → nullopt;
/// any other value that parse_int_strict rejects throws.
std::optional<std::int64_t> env_int_strict(const char* name, std::int64_t min_value,
                                           std::int64_t max_value);

/// Reads env var `name` as a string. Unset or empty → nullopt (an empty
/// value is indistinguishable from unset on every shell that matters, so
/// treating it as "use the default" keeps behavior predictable). This is
/// the sanctioned accessor for path-valued CLADO_* knobs; calling
/// std::getenv directly in src//tools/ is a lint violation
/// (env-discipline).
std::optional<std::string> env_str(const char* name);

}  // namespace clado::tensor
