#include "util/json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace dramdig {

void write_file(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::trunc);
  if (!out.good()) {
    throw std::runtime_error("write_file: cannot open '" + tmp +
                             "' for writing");
  }
  out << contents;
  out.close();
  if (out.fail()) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file: short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_file: cannot replace '" + path + "'");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("read_file: cannot open '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) {
    throw std::runtime_error("read_file: read failure on '" + path + "'");
  }
  return out.str();
}

namespace {

/// Corrupted store files must degrade, never crash — a hostile level of
/// nesting would otherwise overflow the recursive-descent stack.
constexpr int kMaxDepth = 128;

}  // namespace

/// Strict recursive-descent parser over the grammar json_writer emits
/// (RFC 8259 minus unpaired-surrogate pedantry: \uXXXX escapes decode to
/// UTF-8, which covers everything quote() produces).
class json_parser {
 public:
  explicit json_parser(std::string_view text) : text_(text) {}

  json_value run() {
    json_value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw json_parse_error("json parse error at byte " +
                           std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  json_value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_ws();
    switch (peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': {
        json_value v;
        v.kind_ = json_value::kind::string;
        v.scalar_ = string_token();
        return v;
      }
      case 't': literal("true"); return boolean(true);
      case 'f': literal("false"); return boolean(false);
      case 'n': {
        literal("null");
        return json_value{};
      }
      default: return number();
    }
  }

  static json_value boolean(bool b) {
    json_value v;
    v.kind_ = json_value::kind::boolean;
    v.bool_ = b;
    return v;
  }

  void literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) expect(*p);
  }

  json_value object(int depth) {
    expect('{');
    json_value v;
    v.kind_ = json_value::kind::object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = string_token();
      skip_ws();
      expect(':');
      v.members_.emplace_back(std::move(key), value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  json_value array(int depth) {
    expect('[');
    json_value v;
    v.kind_ = json_value::kind::array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(value(depth + 1));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string_token() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = peek();
      ++pos_;
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
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = peek();
            ++pos_;
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // UTF-8 encode; quote() only ever emits codes below 0x20, but a
          // hand-edited store file may carry anything in the BMP.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  json_value number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
      fail("expected a value");
    }
    if (text_[pos_] == '0') {
      ++pos_;  // JSON: a leading zero stands alone ("01" is malformed)
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() || !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || !(text_[pos_] >= '0' && text_[pos_] <= '9')) {
        fail("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    json_value v;
    v.kind_ = json_value::kind::number;
    v.scalar_.assign(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

json_value json_value::parse(std::string_view text) {
  return json_parser(text).run();
}

bool json_value::as_bool() const {
  DRAMDIG_EXPECTS(kind_ == kind::boolean);
  return bool_;
}

double json_value::as_double() const {
  DRAMDIG_EXPECTS(kind_ == kind::number);
  return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t json_value::as_u64() const {
  DRAMDIG_EXPECTS(kind_ == kind::number);
  // The token was validated at parse time; reject fractions/exponents and
  // negatives here so a double can never silently truncate into a hash.
  if (scalar_.find_first_of(".eE-") != std::string::npos) {
    throw json_parse_error("as_u64 on non-integer token '" + scalar_ + "'");
  }
  errno = 0;
  const std::uint64_t v = std::strtoull(scalar_.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    throw json_parse_error("u64 overflow in token '" + scalar_ + "'");
  }
  return v;
}

std::int64_t json_value::as_i64() const {
  DRAMDIG_EXPECTS(kind_ == kind::number);
  if (scalar_.find_first_of(".eE") != std::string::npos) {
    throw json_parse_error("as_i64 on non-integer token '" + scalar_ + "'");
  }
  errno = 0;
  const std::int64_t v = std::strtoll(scalar_.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    throw json_parse_error("i64 overflow in token '" + scalar_ + "'");
  }
  return v;
}

const std::string& json_value::as_string() const {
  DRAMDIG_EXPECTS(kind_ == kind::string);
  return scalar_;
}

std::size_t json_value::size() const {
  DRAMDIG_EXPECTS(kind_ == kind::array || kind_ == kind::object);
  return kind_ == kind::array ? items_.size() : members_.size();
}

const json_value& json_value::operator[](std::size_t i) const {
  DRAMDIG_EXPECTS(kind_ == kind::array);
  DRAMDIG_EXPECTS(i < items_.size());
  return items_[i];
}

const json_value* json_value::find(std::string_view key) const {
  DRAMDIG_EXPECTS(kind_ == kind::object);
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const json_value& json_value::at(std::string_view key) const {
  const json_value* v = find(key);
  if (v == nullptr) {
    throw json_parse_error("missing object member '" + std::string(key) + "'");
  }
  return *v;
}

const json_value::member_list& json_value::members() const {
  DRAMDIG_EXPECTS(kind_ == kind::object);
  return members_;
}

}  // namespace dramdig
