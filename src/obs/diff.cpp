#include "obs/diff.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/assert.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace ballfit::obs {
namespace {

// Recursive-descent walk over one JSON document, collecting numeric leaves
// into `out`. Grammar support matches what JsonWriter emits; anything else
// (unterminated containers, bad literals) throws InvalidArgument with the
// byte offset.
class FlattenParser {
 public:
  FlattenParser(std::string_view text, std::map<std::string, double>& out)
      : text_(text), out_(out) {}

  void run() {
    skip_ws();
    parse_value("");
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after document");
  }

 private:
  void require(bool ok, const char* what) const {
    BALLFIT_REQUIRE(ok, "malformed JSON at byte " +
                            std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    require(peek() == c, "unexpected character");
    ++pos_;
  }

  static std::string joined(const std::string& prefix,
                            const std::string& segment) {
    return prefix.empty() ? segment : prefix + "." + segment;
  }

  void parse_value(const std::string& path) {
    switch (peek()) {
      case '{': parse_object(path); break;
      case '[': parse_array(path); break;
      case '"': (void)parse_string(); break;  // string leaf: skipped
      case 't': parse_literal("true"); out_[path] = 1.0; break;
      case 'f': parse_literal("false"); out_[path] = 0.0; break;
      case 'n': parse_literal("null"); break;  // null leaf: skipped
      default: parse_number(path); break;
    }
  }

  void parse_object(const std::string& path) {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      parse_value(joined(path, key));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return;
    }
  }

  void parse_array(const std::string& path) {
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    std::size_t index = 0;
    while (true) {
      skip_ws();
      parse_value(joined(path, std::to_string(index++)));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return;
    }
  }

  std::string parse_string() {
    require(peek() == '"', "expected string");
    ++pos_;
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          require(pos_ + 4 <= text_.size(), "truncated \\u escape");
          const std::string hex(text_.substr(pos_, 4));
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          require(end == hex.c_str() + 4, "bad \\u escape");
          // JsonWriter only emits \u00xx for control bytes; anything
          // larger is preserved as '?' rather than attempting UTF-8.
          out += code < 0x80 ? static_cast<char>(code) : '?';
          pos_ += 4;
          break;
        }
        default: require(false, "unknown escape");
      }
    }
  }

  void parse_literal(std::string_view lit) {
    require(text_.substr(pos_, lit.size()) == lit, "bad literal");
    pos_ += lit.size();
  }

  void parse_number(const std::string& path) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a value");
    const std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(num.c_str(), &end);
    require(end == num.c_str() + num.size(), "bad number");
    out_[path] = v;
  }

  std::string_view text_;
  std::map<std::string, double>& out_;
  std::size_t pos_ = 0;
};

}  // namespace

std::map<std::string, double> flatten_json_numbers(std::string_view text) {
  std::map<std::string, double> out;
  FlattenParser(text, out).run();
  return out;
}

std::map<std::string, double> load_snapshot(const std::string& path) {
  std::ifstream in(path);
  BALLFIT_REQUIRE(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  // JSONL trajectory: every non-empty line is a complete document — take
  // the newest. A pretty-printed single document ('{' then a line that is
  // not itself valid JSON) falls through to whole-file parsing.
  const std::size_t last_nl = text.find_last_not_of(" \t\r\n");
  BALLFIT_REQUIRE(last_nl != std::string::npos, "empty file " + path);
  const std::string trimmed = text.substr(0, last_nl + 1);
  const std::size_t line_start = trimmed.find_last_of('\n');
  if (line_start != std::string::npos) {
    const std::string last_line = trimmed.substr(line_start + 1);
    if (!last_line.empty() && (last_line[0] == '{' || last_line[0] == '[')) {
      try {
        return flatten_json_numbers(last_line);
      } catch (const InvalidArgument&) {
        // not line-delimited — parse the whole file below
      }
    }
  }
  return flatten_json_numbers(trimmed);
}

double DiffRow::rel() const {
  const double scale = std::max(std::fabs(before), std::fabs(after));
  return scale == 0.0 ? 0.0 : std::fabs(after - before) / scale;
}

std::vector<DiffRow> diff_snapshots(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after,
                                    const DiffOptions& opts) {
  std::vector<DiffRow> rows;
  const auto keep = [&](const DiffRow& r) {
    if (!opts.key_filter.empty() &&
        r.key.find(opts.key_filter) == std::string::npos) {
      return false;
    }
    if (r.only_before || r.only_after) return true;
    if (r.delta() == 0.0) return opts.include_unchanged;
    return r.rel() >= opts.min_rel && std::fabs(r.delta()) >= opts.min_abs;
  };

  auto b = before.begin();
  auto a = after.begin();
  while (b != before.end() || a != after.end()) {
    DiffRow r;
    if (a == after.end() || (b != before.end() && b->first < a->first)) {
      r.key = b->first;
      r.before = b->second;
      r.only_before = true;
      ++b;
    } else if (b == before.end() || a->first < b->first) {
      r.key = a->first;
      r.after = a->second;
      r.only_after = true;
      ++a;
    } else {
      r.key = b->first;
      r.before = b->second;
      r.after = a->second;
      ++b;
      ++a;
    }
    if (keep(r)) rows.push_back(std::move(r));
  }
  return rows;
}

const DiffRow* first_gate_failure(const std::vector<DiffRow>& rows,
                                  double fail_over) {
  for (const DiffRow& r : rows) {
    if (r.only_before || r.only_after || r.rel() > fail_over) return &r;
  }
  return nullptr;
}

std::string render_diff(const std::vector<DiffRow>& rows) {
  if (rows.empty()) return "";
  Table table({"metric", "before", "after", "delta", "rel"});
  for (const DiffRow& r : rows) {
    table.add_row(
        {r.key, r.only_after ? "-" : format_double(r.before, 4),
         r.only_before ? "-" : format_double(r.after, 4),
         (r.only_before || r.only_after) ? "-" : format_double(r.delta(), 4),
         (r.only_before || r.only_after) ? "new/gone"
                                         : format_percent(r.rel(), 1)});
  }
  return table.to_string();
}

}  // namespace ballfit::obs
