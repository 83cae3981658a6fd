#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <stdexcept>

namespace pdc::obs {

Json Json::make_bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::make_number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::make_uint(std::uint64_t v) {
  Json j;
  j.type_ = Type::kNumber;
  j.exact_ = true;
  j.uint_ = v;
  j.number_ = static_cast<double>(v);
  return j;
}

Json Json::make_string(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::make_array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::make_object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw std::runtime_error("Json: not a bool");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw std::runtime_error("Json: not a number");
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw std::runtime_error("Json: not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::kArray) throw std::runtime_error("Json: not an array");
  return array_;
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  throw std::runtime_error("Json: size() needs an array or object");
}

const Json& Json::at(std::size_t i) const {
  const auto& v = items();
  if (i >= v.size()) throw std::runtime_error("Json: index out of range");
  return v[i];
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) throw std::runtime_error("Json: not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (!v) throw std::runtime_error("Json: missing key " + std::string(key));
  return *v;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::kObject) throw std::runtime_error("Json: not an object");
  return object_;
}

void Json::push_back(Json v) {
  if (type_ != Type::kArray) throw std::runtime_error("Json: not an array");
  array_.push_back(std::move(v));
}

void Json::set(std::string key, Json v) {
  if (type_ != Type::kObject) throw std::runtime_error("Json: not an object");
  for (auto& [k, old] : object_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(v));
}

namespace {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// %.17g, with non-finite values mapped to null (JSON has no inf/nan).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string Json::dump() const {
  switch (type_) {
    case Type::kNull: return "null";
    case Type::kBool: return bool_ ? "true" : "false";
    case Type::kNumber:
      return exact_ ? std::to_string(uint_) : json_number(number_);
    case Type::kString: return "\"" + json_escape(string_) + "\"";
    case Type::kArray: {
      std::string out = "[";
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ",";
        out += array_[i].dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      bool first = true;
      for (const auto& [k, v] : object_) {
        if (!first) out += ",";
        first = false;
        out += "\"" + json_escape(k) + "\":" + v.dump();
      }
      return out + "}";
    }
  }
  return "null";
}

namespace {

/// The one checked writer: opens `path` with `mode` and writes `parts` in
/// order.  A full disk often surfaces only when fclose flushes the buffer,
/// so that is checked too.
void write_parts(const std::string& path, const char* mode,
                 std::initializer_list<std::span<const std::byte>> parts) {
  // pdc: io-wrapper(artifact and model export after the modeled run; never on the modeled timeline)
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f) {
    bool written = true;
    for (const auto part : parts) {
      written = written &&
                std::fwrite(part.data(), 1, part.size(), f) == part.size();
    }
    const int write_errno = errno;
    if (std::fclose(f) == 0 && written) return;
    if (!written) errno = write_errno;
  }
  throw std::runtime_error("cannot write " + path + ": " +
                           std::strerror(errno));
}

}  // namespace

void write_json_file(const std::string& path, std::string_view json,
                     bool append) {
  static constexpr char kNewline[] = {'\n'};
  write_parts(path, append ? "ab" : "wb",
              {std::as_bytes(std::span(json)),
               std::as_bytes(std::span(kNewline))});
}

void write_bytes_file(const std::string& path,
                      std::span<const std::byte> bytes) {
  write_parts(path, "wb", {bytes});
}

std::vector<std::byte> read_bytes_file(const std::string& path) {
  // pdc: io-wrapper(model load at the run boundary, outside the modeled timeline)
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    throw std::runtime_error("cannot read " + path + ": " +
                             std::strerror(errno));
  }
  std::vector<std::byte> out;
  std::byte chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    out.insert(out.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) throw std::runtime_error("cannot read " + path);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("Json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json::make_string(parse_string());
    if (consume_literal("true")) return Json::make_bool(true);
    if (consume_literal("false")) return Json::make_bool(false);
    if (consume_literal("null")) return Json();
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return obj;
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::make_array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return arr;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // The emitters only produce \u for control characters; decode
          // the BMP code point as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("malformed number");
    return Json::make_number(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

}  // namespace pdc::obs
