#include "sweep/specio.hpp"

#include <fstream>
#include <set>
#include <sstream>

#include "common/assert.hpp"
#include "common/escape.hpp"

namespace smache::sweep {

namespace {

const char* impl_token(model::StreamImpl impl) noexcept {
  return impl == model::StreamImpl::RegisterOnly ? "reg" : "hybrid";
}

/// Registry names and mode/arch/impl tokens are plain identifiers, but the
/// emitter still guards its output: quote and backslash are escaped, and a
/// control character (which json_escape would hide inside an "exact
/// round-trip" file) is rejected outright.
std::string quote(std::string_view s) {
  for (const char c : s)
    SMACHE_REQUIRE_MSG(static_cast<unsigned char>(c) >= 0x20,
                       "control character in spec token");
  return '"' + json_escape(s) + '"';
}

template <typename T, typename ToToken>
std::string string_array(const std::vector<T>& items, ToToken to_token) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += quote(to_token(items[i]));
  }
  out += ']';
  return out;
}

std::string count_array(const std::vector<std::size_t>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(items[i]);
  }
  out += ']';
  return out;
}

/// Recursive-descent parser over the fixed spec schema. Tracks position
/// for error messages and refuses everything the schema does not name.
class SpecParser {
 public:
  explicit SpecParser(std::string_view src) : src_(src) {}

  SweepSpec parse() {
    SweepSpec spec;
    skip_ws();
    expect('{', "spec object");
    skip_ws();
    if (!consume('}')) {
      for (;;) {
        const std::string key = parse_string();
        SMACHE_REQUIRE_MSG(seen_.insert(key).second,
                           err("duplicate key '" + key + "'"));
        skip_ws();
        expect(':', "':' after key '" + key + "'");
        parse_value_for(key, spec);
        skip_ws();
        if (consume(',')) {
          skip_ws();
          continue;
        }
        expect('}', "',' or '}' after value of '" + key + "'");
        break;
      }
    }
    skip_ws();
    SMACHE_REQUIRE_MSG(pos_ == src_.size(),
                       err("trailing garbage after the spec object"));
    return spec;
  }

 private:
  std::string err(const std::string& why) const {
    return "malformed sweep spec at byte " + std::to_string(pos_) + ": " +
           why;
  }

  void skip_ws() {
    while (pos_ < src_.size() &&
           (src_[pos_] == ' ' || src_[pos_] == '\t' || src_[pos_] == '\n' ||
            src_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < src_.size() && src_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c, const std::string& what) {
    SMACHE_REQUIRE_MSG(consume(c), err("expected " + what));
  }

  std::string parse_string() {
    skip_ws();
    expect('"', "'\"' opening a string");
    std::string out;
    for (;;) {
      SMACHE_REQUIRE_MSG(pos_ < src_.size(), err("unterminated string"));
      const char c = src_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        SMACHE_REQUIRE_MSG(pos_ < src_.size(), err("unterminated escape"));
        const char e = src_[pos_++];
        SMACHE_REQUIRE_MSG(e == '"' || e == '\\',
                           err(std::string("unsupported escape '\\") + e +
                               "' (only \\\" and \\\\)"));
        out += e;
      } else {
        SMACHE_REQUIRE_MSG(static_cast<unsigned char>(c) >= 0x20,
                           err("control character in string"));
        out += c;
      }
    }
  }

  /// A bare decimal digit run — the only number form the schema uses (no
  /// signs, floats or exponents; the parse_* family rejects the rest).
  std::string parse_number_token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < src_.size() && src_[pos_] >= '0' && src_[pos_] <= '9')
      ++pos_;
    SMACHE_REQUIRE_MSG(pos_ > start, err("expected an unsigned integer"));
    return std::string(src_.substr(start, pos_ - start));
  }

  template <typename Item>
  std::vector<Item> parse_array(Item (SpecParser::*element)()) {
    skip_ws();
    expect('[', "'[' opening an array");
    std::vector<Item> out;
    skip_ws();
    if (consume(']')) return out;
    for (;;) {
      out.push_back((this->*element)());
      skip_ws();
      if (consume(',')) continue;
      expect(']', "',' or ']' in array");
      return out;
    }
  }

  void parse_value_for(const std::string& key, SweepSpec& spec) {
    const auto strings = [this] {
      return parse_array<std::string>(&SpecParser::parse_string);
    };
    const auto counts = [this](const char* what) {
      std::vector<std::size_t> out;
      for (const std::string& tok :
           parse_array<std::string>(&SpecParser::parse_number_token))
        out.push_back(parse_count(tok, what));
      return out;
    };
    if (key == "smache_sweep_spec") {
      SMACHE_REQUIRE_MSG(parse_number_token() == "1",
                         err("unsupported spec version (want 1)"));
    } else if (key == "mode") {
      spec.mode = parse_mode(parse_string());
    } else if (key == "archs") {
      spec.archs.clear();
      for (const std::string& tok : strings())
        spec.archs.push_back(parse_arch(tok));
    } else if (key == "impls") {
      spec.impls.clear();
      for (const std::string& tok : strings())
        spec.impls.push_back(parse_impl(tok));
    } else if (key == "thresholds") {
      spec.thresholds = counts("threshold");
    } else if (key == "grids") {
      spec.grids.clear();
      for (const std::string& tok : strings())
        spec.grids.push_back(parse_grid(tok));
    } else if (key == "drams") {
      spec.drams = strings();
    } else if (key == "steps") {
      spec.steps = counts("step count");
    } else if (key == "depths") {
      spec.depths = counts("cascade depth");
    } else if (key == "tiles") {
      spec.tiles.clear();
      for (const std::string& tok : strings())
        spec.tiles.push_back(parse_grid(tok));
    } else if (key == "stencils") {
      spec.stencils = strings();
    } else if (key == "boundaries") {
      spec.boundaries = strings();
    } else if (key == "kernels") {
      spec.kernels = strings();
    } else if (key == "inputs") {
      spec.inputs = strings();
    } else if (key == "base_seed") {
      spec.base_seed = parse_u64(parse_number_token(), "base_seed");
    } else if (key == "max_cycles") {
      spec.max_cycles = parse_u64(parse_number_token(), "max_cycles");
      SMACHE_REQUIRE_MSG(spec.max_cycles >= 1,
                         err("max_cycles must be >= 1"));
    } else if (key == "store") {
      spec.store_dir = parse_string();
      SMACHE_REQUIRE_MSG(!spec.store_dir.empty(),
                         err("'store' must name a directory (omit the key "
                             "for no store)"));
    } else {
      throw contract_error(
          err("unknown key '" + key +
              "' (known: smache_sweep_spec, mode, archs, impls, "
              "thresholds, grids, drams, steps, depths, tiles, stencils, "
              "boundaries, kernels, inputs, base_seed, max_cycles, "
              "store)"));
    }
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  std::set<std::string> seen_;
};

}  // namespace

std::string emit_spec_json(const SweepSpec& spec) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"smache_sweep_spec\": 1,\n";
  out << "  \"mode\": " << quote(to_string(spec.mode)) << ",\n";
  out << "  \"archs\": "
      << string_array(spec.archs,
                      [](Architecture a) { return to_string(a); })
      << ",\n";
  out << "  \"impls\": "
      << string_array(spec.impls,
                      [](model::StreamImpl i) { return impl_token(i); })
      << ",\n";
  out << "  \"thresholds\": " << count_array(spec.thresholds) << ",\n";
  // Depth-1 grids/meshes emit the 2D HxW token, so every spec saved before
  // the slice axis existed round-trips byte-exactly; parse_grid accepts
  // both forms.
  const auto grid_token = [](const GridDim& g) {
    std::string s = std::to_string(g.height) + 'x' + std::to_string(g.width);
    if (g.depth > 1) s += 'x' + std::to_string(g.depth);
    return s;
  };
  out << "  \"grids\": " << string_array(spec.grids, grid_token) << ",\n";
  out << "  \"drams\": "
      << string_array(spec.drams, [](const std::string& s) { return s; })
      << ",\n";
  out << "  \"steps\": " << count_array(spec.steps) << ",\n";
  out << "  \"depths\": " << count_array(spec.depths) << ",\n";
  out << "  \"tiles\": " << string_array(spec.tiles, grid_token) << ",\n";
  out << "  \"stencils\": "
      << string_array(spec.stencils, [](const std::string& s) { return s; })
      << ",\n";
  out << "  \"boundaries\": "
      << string_array(spec.boundaries,
                      [](const std::string& s) { return s; })
      << ",\n";
  out << "  \"kernels\": "
      << string_array(spec.kernels, [](const std::string& s) { return s; })
      << ",\n";
  out << "  \"inputs\": "
      << string_array(spec.inputs, [](const std::string& s) { return s; })
      << ",\n";
  out << "  \"base_seed\": " << spec.base_seed << ",\n";
  out << "  \"max_cycles\": " << spec.max_cycles;
  // Emitted only when set, so store-less specs round-trip byte-exactly
  // with files saved before the key existed.
  if (!spec.store_dir.empty())
    out << ",\n  \"store\": " << quote(spec.store_dir);
  out << "\n}\n";
  return out.str();
}

SweepSpec parse_spec_json(std::string_view json) {
  return SpecParser(json).parse();
}

SweepSpec load_spec_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SMACHE_REQUIRE_MSG(static_cast<bool>(in),
                     "cannot read sweep spec file '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  SMACHE_REQUIRE_MSG(!in.bad(),
                     "error while reading sweep spec file '" + path + "'");
  try {
    return parse_spec_json(buf.str());
  } catch (const contract_error& e) {
    throw contract_error(path + ": " + e.what());
  }
}

void save_spec_file(const SweepSpec& spec, const std::string& path) {
  const std::string json = emit_spec_json(spec);
  std::ofstream out(path, std::ios::binary);
  SMACHE_REQUIRE_MSG(static_cast<bool>(out),
                     "cannot write sweep spec file '" + path + "'");
  out << json;
  out.flush();
  SMACHE_REQUIRE_MSG(static_cast<bool>(out),
                     "error while writing sweep spec file '" + path + "'");
}

}  // namespace smache::sweep
