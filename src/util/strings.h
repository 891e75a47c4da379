// Minimal string helpers shared by the text parsers and the JSON writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace encodesat {

/// Splits on any run of the given delimiter characters; empty tokens are
/// dropped, so "  a  b " -> {"a", "b"}.
std::vector<std::string> split_ws(std::string_view s,
                                  std::string_view delims = " \t\r\n");

/// Removes leading and trailing whitespace.
std::string_view trim(std::string_view s);

/// True if s starts with the given prefix.
bool starts_with(std::string_view s, std::string_view prefix);

/// Parses the count of a header directive such as the `.i 4` of a KISS2 or
/// PLA file: a non-negative decimal integer that fits in an int, with
/// nothing after it. Throws std::runtime_error naming the directive and
/// the bad token otherwise.
int parse_count(std::string_view directive, std::string_view token);

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included): `"` and `\` are backslash-escaped, \n \r \t \b \f use their
/// short forms and any other control character becomes \u00XX. The one
/// escaper behind every JSON writer: wire responses, telemetry, the
/// request log and Chrome traces.
std::string json_escape(std::string_view s);

}  // namespace encodesat
