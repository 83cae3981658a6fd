#pragma once

// Minimal JSON: a value tree, a recursive-descent parser, and the one file
// writer every artifact and saved model goes through.  Scope is
// deliberately small — enough to emit and round-trip the documents this
// repository produces (run reports, profiles, Chrome traces, serve and
// drift reports, bench rows) and to let tests assert their structure.
// Numbers are parsed as double; emitters format doubles with %.17g so they
// survive a parse/serialize cycle exactly, and print 64-bit ids and counts
// from make_uint exactly (a double rounds them above 2^53).  dump() is
// compact: no whitespace.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pdc::obs {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  static Json make_bool(bool b);
  static Json make_number(double v);
  /// A kNumber that dump() prints as exactly `v` (as_number() rounds it).
  static Json make_uint(std::uint64_t v);
  static Json make_string(std::string s);
  static Json make_array();
  static Json make_object();

  /// Parses a complete document; throws std::runtime_error (with offset)
  /// on malformed input or trailing garbage.
  static Json parse(std::string_view text);

  Type type() const { return type_; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  const std::vector<Json>& items() const;
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  /// Object access: find() returns nullptr when the key is absent; at()
  /// throws.  members() iterates the (key, value) pairs in document order.
  const Json* find(std::string_view key) const;
  const Json& at(std::string_view key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  // Builders (for tests and emitters that want a tree).
  void push_back(Json v);
  void set(std::string key, Json v);

  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  bool exact_ = false;  ///< kNumber is uint_ (number_ is its double)
  double number_ = 0.0;
  std::uint64_t uint_ = 0;
  std::string string_;
  std::vector<Json> array_;
  // Insertion-ordered object representation: (key, value) pairs.
  std::vector<std::pair<std::string, Json>> object_;
};

/// Writes `json` and a newline to `path`, replacing the file, or adding
/// one line to it when `append` is set (JSONL bench rows).  Every document,
/// row and saved model goes through one checked writer, which throws
/// std::runtime_error naming `path` when the file cannot be opened, written
/// or closed — a full disk often surfaces only when fclose flushes the
/// buffer.
void write_json_file(const std::string& path, std::string_view json,
                     bool append = false);

/// Replaces `path` with `bytes` through the same checked writer.
void write_bytes_file(const std::string& path,
                      std::span<const std::byte> bytes);

/// All of `path`'s bytes; throws std::runtime_error naming `path` when the
/// file cannot be opened or read.
std::vector<std::byte> read_bytes_file(const std::string& path);

}  // namespace pdc::obs
