#pragma once

// Byte (de)serialization: mp::to_bytes/from_bytes for the payloads of
// collectives, and the WireWriter/WireReader cursor that writes and reads
// every persisted or exchanged format (model files, checkpoint state and
// manifests, statistics blobs).  This is the one file that turns values
// into bytes and back (pdc-lint PDC010).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/wire.hpp"

namespace pdc::mp {

// Every format is little-endian on the wire, and values are copied in host
// byte order, so this is the one place that assumption is made.
static_assert(std::endian::native == std::endian::little,
              "wire formats are little-endian and copied in host byte order");

template <class T>
concept Wireable = std::is_trivially_copyable_v<T>;

template <Wireable T>
std::vector<std::byte> to_bytes(std::span<const T> data) {
  std::vector<std::byte> out(data.size_bytes());
  if (!data.empty()) std::memcpy(out.data(), data.data(), data.size_bytes());
  return out;
}

template <Wireable T>
std::vector<std::byte> to_bytes(const T& value) {
  return to_bytes(std::span<const T>(&value, 1));
}

template <Wireable T>
std::vector<T> from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() % sizeof(T) != 0) {
    throw WireError("mp: blob length is not a multiple of the element size");
  }
  std::vector<T> out(bytes.size() / sizeof(T));
  if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  return out;
}

template <Wireable T>
T value_from_bytes(std::span<const std::byte> bytes) {
  if (bytes.size() != sizeof(T)) {
    throw WireError("mp: value blob length mismatch");
  }
  T out;
  std::memcpy(&out, bytes.data(), sizeof(T));
  return out;
}

/// Appends fields to a growing byte buffer.  Values go in their host
/// layout; every count is a u64.
class WireWriter {
 public:
  template <Wireable T>
  void put_raw(const T& value) {
    put_bytes(std::as_bytes(std::span<const T>(&value, 1)));
  }

  /// Bytes with no count: a magic, or a blob whose own format ends it.
  void put_bytes(std::span<const std::byte> bytes) {
    const std::size_t at = buf_.size();
    buf_.resize(at + bytes.size());
    if (!bytes.empty()) {
      std::memcpy(buf_.data() + at, bytes.data(), bytes.size());
    }
  }

  /// A u64 element count, then the elements.
  template <Wireable T>
  void put_array(const std::vector<T>& values) {
    put_raw<std::uint64_t>(values.size());
    put_bytes(std::as_bytes(std::span<const T>(values)));
  }

  /// A u64 byte count, then the characters.
  void put_string(std::string_view s) {
    put_raw<std::uint64_t>(s.size());
    put_bytes(std::as_bytes(std::span<const char>(s)));
  }

  /// LEB128: seven bits a byte, low group first, the high bit set while
  /// more bytes follow.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::byte>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<std::byte>(v));
  }

  /// What has been written so far.
  std::span<const std::byte> bytes() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads fields back in the order a WireWriter wrote them.  Every read is
/// bounds-checked: a short read, a count the remaining bytes cannot hold,
/// or bytes left over at finish() throw pdc::WireError naming the codec.
/// What the get_ methods return is untrusted (pdc_analyze PDA510 seeds on
/// the prefix); count() returns a count already bounded by the input.
class WireReader {
 public:
  /// `bytes` must outlive the reader; `codec` opens every error message.
  WireReader(std::span<const std::byte> bytes, std::string codec)
      : bytes_(bytes), codec_(std::move(codec)) {}

  template <Wireable T>
  T get_raw() {
    T value;
    std::memcpy(&value, get_bytes(sizeof(T)).data(), sizeof(T));
    return value;
  }

  /// The next `n` bytes, viewed in place.
  std::span<const std::byte> get_bytes(std::size_t n) {
    if (n > remaining()) reject("truncated at offset " + std::to_string(at_));
    const auto out = bytes_.subspan(at_, n);
    at_ += n;
    return out;
  }

  /// A u64 count of entries that each take at least `min_entry_bytes`
  /// (> 0) on the wire.  A count the remaining bytes cannot hold is
  /// rejected, so the result may size an allocation or bound a loop.
  std::size_t count(std::size_t min_entry_bytes) {
    const auto n = get_raw<std::uint64_t>();
    if (n > remaining() / min_entry_bytes) {
      reject("count " + std::to_string(n) + " overruns the input");
    }
    return static_cast<std::size_t>(n);
  }

  /// The inverse of WireWriter::put_array.
  template <Wireable T>
  std::vector<T> get_array() {
    std::vector<T> out(count(sizeof(T)));
    const std::size_t n = out.size() * sizeof(T);
    if (n != 0) std::memcpy(out.data(), get_bytes(n).data(), n);
    return out;
  }

  /// The inverse of WireWriter::put_string.
  std::string get_string() {
    std::string out(count(1), '\0');
    if (!out.empty()) {
      std::memcpy(out.data(), get_bytes(out.size()).data(), out.size());
    }
    return out;
  }

  /// The inverse of WireWriter::put_varint; at most ten bytes.
  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      const auto b = std::to_integer<std::uint64_t>(get_bytes(1)[0]);
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
    reject("varint longer than ten bytes");
  }

  std::size_t remaining() const { return bytes_.size() - at_; }

  /// Rejects bytes left after the last field.
  void finish() const {
    if (remaining() != 0) {
      reject(std::to_string(remaining()) + " trailing byte(s)");
    }
  }

  [[noreturn]] void reject(const std::string& why) const {
    throw WireError(codec_ + ": " + why);
  }

 private:
  std::span<const std::byte> bytes_;
  std::string codec_;
  std::size_t at_ = 0;
};

}  // namespace pdc::mp
