// Untrusted-narrowing (PDA510) negative fixture.
//
// Every parse_* function below pulls a count, size or index straight off
// an untrusted byte buffer and lets it drive an allocation, a copy
// length, an array subscript, a loop bound or a narrowing cast with no
// validated bound in between.  parse_checked() and
// parse_cursor_counted() are the controls: they bound the count against
// the buffer and reject, so they must stay quiet.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "mp/serialize.hpp"

namespace fixture {

// Non-throwing word reader: the taint seed for every consumer below
// (and because it never rejects, no loop calling it is self-validating).
inline std::uint64_t get_word(std::span<const std::byte> in,
                              std::size_t& at) {
  std::uint64_t v = 0;
  if (at + sizeof(v) <= in.size()) {
    std::memcpy(&v, in.data() + at, sizeof(v));
    at += sizeof(v);
  }
  return v;
}

inline std::vector<float> parse_values(std::span<const std::byte> in) {
  std::size_t at = 0;
  std::vector<float> values;
  const std::uint64_t n = get_word(in, at);
  values.resize(n);  // expect-PDA510 (allocation size)
  return values;
}

inline std::vector<int> parse_table(std::span<const std::byte> in) {
  std::size_t at = 0;
  const std::uint64_t rows = get_word(in, at);
  std::vector<int> table(rows);  // expect-PDA510 (container extent)
  return table;
}

inline float* parse_floats(std::span<const std::byte> in) {
  std::size_t at = 0;
  const std::uint64_t n = get_word(in, at);
  return new float[n];  // expect-PDA510 (new[] extent)
}

inline std::uint16_t parse_port(std::span<const std::byte> in) {
  std::size_t at = 0;
  const std::uint64_t raw = get_word(in, at);
  return static_cast<std::uint16_t>(raw);  // expect-PDA510 (narrowing)
}

inline void parse_blob(std::span<const std::byte> in, char* dst) {
  std::size_t at = 0;
  const std::uint64_t len = get_word(in, at);
  std::memcpy(dst, in.data() + at, len);  // expect-PDA510 (memcpy length)
}

inline int parse_pick(std::span<const std::byte> in,
                      std::span<const int> table) {
  std::size_t at = 0;
  const std::uint64_t idx = get_word(in, at);
  return table[idx];  // expect-PDA510 (array index)
}

inline std::uint64_t parse_sum(std::span<const std::byte> in) {
  std::size_t at = 0;
  const std::uint64_t count = get_word(in, at);
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < count; ++i) {  // expect-PDA510 (loop bound)
    sum += get_word(in, at);
  }
  return sum;
}

// Through the wire cursor, mp::WireReader (the harness analyzes this
// fixture together with src/mp/serialize.hpp): get_raw() is a raw read,
// untrusted by its prefix, while count() bounds the count it reads against
// the bytes left and throws.
inline std::vector<float> parse_cursor_raw(std::span<const std::byte> in) {
  pdc::mp::WireReader cur(in, "fixture");
  std::vector<float> values;
  const auto n = cur.get_raw<std::uint64_t>();
  values.resize(n);  // expect-PDA510 (allocation size via the raw reader)
  return values;
}

// Control: the count comes through count(), already bounded by the input.
inline std::vector<float> parse_cursor_counted(
    std::span<const std::byte> in) {
  pdc::mp::WireReader cur(in, "fixture");
  std::vector<float> values;
  values.resize(cur.count(sizeof(float)));
  return values;
}

// Control: the count is compared against what the buffer can hold and
// rejected before it sizes anything, so nothing below may fire.
inline std::vector<float> parse_checked(std::span<const std::byte> in) {
  std::size_t at = 0;
  const std::uint64_t n = get_word(in, at);
  if (n > in.size() / sizeof(float)) {
    return {};
  }
  std::vector<float> out(n);
  return out;
}

}  // namespace fixture
