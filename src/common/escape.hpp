// String encoding shared by every text writer: one JSON string escaper
// (sweep reports, spec files, Perfetto traces) and one RFC-4180 CSV field
// quoter (sweep reports, bench tables).
#pragma once

#include <string>
#include <string_view>

namespace smache {

/// The body of a JSON string literal, without the surrounding quotes.
/// Quote, backslash, newline and tab escape by name; every other control
/// character (carriage return included) escapes as \u00XX.
std::string json_escape(std::string_view s);

/// One CSV field per RFC 4180: quoted only when it contains a comma, a
/// quote or a newline, with embedded quotes doubled.
std::string csv_quote(std::string_view s);

}  // namespace smache
