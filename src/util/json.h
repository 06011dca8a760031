// Minimal JSON emission and parsing.
//
// Every bench binary writes a machine-readable BENCH_*.json next to its
// ASCII tables so the perf trajectory (wall time, virtual-clock time,
// access/measurement counts) can be tracked across PRs by CI, via a small
// append-style writer with automatic comma/indent management that renders
// straight into one std::string, pretty (indented) or compact (one line,
// the fleet store's log records). The fleet
// mapping store (src/store) also *reads* its files back, so the header
// pairs the writer with `json_value`: a strict recursive-descent parser
// whose round-trip guarantee the store relies on — anything json_writer
// emits parses back to the same values (numbers are kept as their source
// token, so a uint64 hash survives exactly), and malformed or truncated
// input throws json_parse_error instead of yielding a partial tree.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/expect.h"

namespace dramdig {

class json_writer {
 public:
  /// How the output is laid out: `pretty` puts every item on its own
  /// line, indented two spaces per level (BENCH files, tool results);
  /// `compact` renders the whole value on one line, items separated by
  /// ", " (the fleet store's log records).
  enum class layout { pretty, compact };

  explicit json_writer(layout l = layout::pretty)
      : compact_(l == layout::compact) {}

  json_writer& begin_object() {
    open('{');
    return *this;
  }
  json_writer& end_object() {
    close('}');
    return *this;
  }
  json_writer& begin_array() {
    open('[');
    return *this;
  }
  json_writer& end_array() {
    close(']');
    return *this;
  }

  /// Emit `"name":` — must be followed by a value or container.
  json_writer& key(const std::string& name) {
    separate();
    quote(name);
    out_ += ": ";
    after_key_ = true;
    return *this;
  }

  /// JSON null — e.g. a tool_result with no recovered mapping.
  json_writer& null_value() { return scalar("null"); }

  json_writer& value(const std::string& v) { return string_value(v); }
  json_writer& value(const char* v) { return string_value(v); }
  json_writer& value(bool v) { return scalar(v ? "true" : "false"); }
  /// One template for every integer width so size_t/uint64_t call sites
  /// resolve identically on LP64 and LLP64 platforms.
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  json_writer& value(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
    return scalar({buf, static_cast<std::size_t>(end - buf)});
  }
  json_writer& value(double v) {
    // JSON has no NaN/Inf; clamp to null, which consumers treat as absent.
    if (v != v || v > 1.7e308 || v < -1.7e308) return scalar("null");
    // What a default-floatfield stream at precision 15 prints.
    char buf[32];
    const int n = std::snprintf(buf, sizeof buf, "%.15g", v);
    return scalar({buf, static_cast<std::size_t>(n)});
  }

  /// Finished document plus a closing newline; valid only when every
  /// container was closed.
  [[nodiscard]] std::string str() const {
    DRAMDIG_EXPECTS(depth_.empty());
    return out_ + "\n";
  }

 private:
  json_writer& string_value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }

  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  void newline() {
    if (compact_) return;
    out_ += '\n';
    out_.append(2 * depth_.size(), ' ');
  }

  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!depth_.empty()) {
      if (depth_.back()) out_ += compact_ ? ", " : ",";
      newline();
      depth_.back() = true;
    }
  }

  void open(char bracket) {
    separate();
    out_ += bracket;
    depth_.push_back(false);
  }

  void close(char bracket) {
    DRAMDIG_EXPECTS(!depth_.empty());
    const bool had_items = depth_.back();
    depth_.pop_back();
    if (had_items) newline();
    out_ += bracket;
  }

  json_writer& scalar(std::string_view text) {
    separate();
    out_ += text;
    return *this;
  }

  std::string out_;
  std::vector<bool> depth_;  ///< per open container: has emitted an item
  bool compact_ = false;
  bool after_key_ = false;
};

/// Write `contents` to `path`, replacing any previous file. The bytes go to
/// the sibling `path + ".tmp"` first, which is then renamed over `path`, so
/// a process crash mid-write leaves the old file or the new one, never a
/// prefix (no fsync: power loss is not covered). Throws std::runtime_error
/// when either step fails; `path` is then untouched.
void write_file(const std::string& path, const std::string& contents);

/// Whole file as a string. Throws std::runtime_error when unreadable.
[[nodiscard]] std::string read_file(const std::string& path);

/// Thrown by json_value::parse on malformed, truncated, or trailing-garbage
/// input; what() carries the byte offset of the failure.
class json_parse_error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// An immutable parsed JSON document node.
///
/// Numbers keep their source token and convert on demand (as_double /
/// as_u64 / as_i64), so 64-bit integers — the store's fingerprint hashes
/// and XOR masks — round-trip exactly instead of through a double.
/// Object members preserve document order. Accessors throw
/// contract_violation when the node has the wrong kind.
class json_value {
 public:
  enum class kind { null, boolean, number, string, array, object };
  using member_list = std::vector<std::pair<std::string, json_value>>;

  /// Parse a complete document (one value, optional surrounding
  /// whitespace, nothing after it). Throws json_parse_error otherwise.
  [[nodiscard]] static json_value parse(std::string_view text);

  json_value() = default;  ///< null

  [[nodiscard]] kind type() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == kind::null; }

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Element count (array or object).
  [[nodiscard]] std::size_t size() const;
  /// Array element by index.
  [[nodiscard]] const json_value& operator[](std::size_t i) const;
  /// Object member by key, or nullptr when absent (first match wins).
  [[nodiscard]] const json_value* find(std::string_view key) const;
  /// Object member by key; throws json_parse_error when absent, so store
  /// loaders report a missing field like any other malformed document.
  [[nodiscard]] const json_value& at(std::string_view key) const;
  /// Object members in document order.
  [[nodiscard]] const member_list& members() const;

 private:
  kind kind_ = kind::null;
  bool bool_ = false;
  std::string scalar_;  ///< string payload, or the number's source token
  std::vector<json_value> items_;
  member_list members_;

  friend class json_parser;
};

}  // namespace dramdig
