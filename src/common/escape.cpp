#include "common/escape.hpp"

namespace smache {

void json_escape_into(std::string& out, std::string_view s) {
  // Runs of plain characters are appended whole; only the characters
  // that escape are written one at a time.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(code, sizeof code);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  json_escape_into(out, s);
  return out;
}

void csv_quote_into(std::string& out, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
}

std::string csv_quote(std::string_view s) {
  std::string out;
  csv_quote_into(out, s);
  return out;
}

}  // namespace smache
