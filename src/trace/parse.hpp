// parse.hpp — strict, locale-independent numeric parsing.
//
// One shared implementation of the "std::from_chars over the WHOLE string"
// rule used everywhere the repository turns external text into numbers:
// command-line flags (scenario/runner.cpp), --param overrides
// (scenario/overrides.cpp), experiment-plan JSON (scenario/plan.cpp), and
// persisted measurement artifacts (core/experiment_io.cpp).  Empty input,
// leading/trailing garbage ("0.5abc", " 0.5"), locale decimal commas, and
// range errors all return nullopt instead of a silently truncated value.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace sss::trace {

[[nodiscard]] std::optional<double> parse_double(std::string_view text);
[[nodiscard]] std::optional<std::uint64_t> parse_uint64(std::string_view text);
[[nodiscard]] std::optional<int> parse_int(std::string_view text);

// Shortest decimal representation of `v` that from_chars parses back to
// exactly the same double — what plan JSON and CSV artifacts use so a
// serialize/parse round trip is bit-identical.
[[nodiscard]] const char* format_double_exact(double v, char (&buffer)[32]);

}  // namespace sss::trace
