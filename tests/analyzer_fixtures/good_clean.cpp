// Near-misses for every check: this file must produce zero findings.
#include <cstdio>
#include <cstddef>
#include <vector>

struct Comm {
  int rank() const;
  int size() const;
  void barrier();
  int all_reduce(int v);
};

struct Record {
  int label;
};

struct Source {
  template <class F>
  void scan(const F& fn) const;
};

void charge_io(std::size_t bytes);

// p2p-style rank branching with no collective inside is legal.
int rank_branch_without_collective(Comm& comm) {
  if (comm.rank() == 0) {
    return 1;
  }
  return 2;
}

// Collective governed by a size()-uniform loop (comm.size() is not a
// taint seed: it is identical on every rank).
void size_bounded_collectives(Comm& comm) {
  for (int i = 0; i < comm.size(); ++i) {
    comm.barrier();
  }
}

// Per-record work that only updates fixed-size statistics is the
// out-of-core discipline working as intended.
int histogram_scan(const Source& source) {
  int counts[4] = {0, 0, 0, 0};
  source.scan([&](const Record& r) { ++counts[r.label & 3]; });
  return counts[0];
}

// Raw I/O charged to the modeled clock in the same function.
void charged_write(const char* path, const std::vector<char>& bytes) {
  std::FILE* f = std::fopen(path, "wb");
  if (f != nullptr) {
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    charge_io(bytes.size());
    std::fclose(f);
  }
}

// PDA400 near-miss: a lock-owning class whose every field is accounted
// for — guarded, atomic, const, or escaped with a reason.
#include <atomic>
#define PDC_GUARDED_BY(x)

namespace pdc {
class Mutex {};
class LockGuard {
 public:
  explicit LockGuard(Mutex& mu);
};
}  // namespace pdc

class AccountedState {
 public:
  void tick();

 private:
  pdc::Mutex mu_;
  int ticks_ PDC_GUARDED_BY(mu_) = 0;
  std::atomic<int> epoch_{0};
  const int limit_ = 16;
  // pdc: unshared(written before the worker thread exists)
  int seed_ = 0;
};

// PDA410 near-misses: both methods take the two locks in the SAME order
// (edges, no cycle), and the third takes them sequentially — the second
// guard opens after the first one's scope has closed, so reversed order
// without overlap adds no edge at all.
class OrderedPair {
 public:
  void first_then_second() {
    pdc::LockGuard a(first_mu_);
    pdc::LockGuard b(second_mu_);
  }

  void also_first_then_second() {
    pdc::LockGuard a(first_mu_);
    pdc::LockGuard b(second_mu_);
  }

  void sequential_not_nested() {
    { pdc::LockGuard b(second_mu_); }
    { pdc::LockGuard a(first_mu_); }
  }

 private:
  pdc::Mutex first_mu_;
  pdc::Mutex second_mu_;
};

// PDA500 near-miss: writer and reader cover exactly the same members,
// and the derived cache is annotated off the wire.
#include <cstdint>

class CleanCounters {
 public:
  std::vector<std::uint64_t> serialize() const {
    std::vector<std::uint64_t> out;
    out.push_back(lo_);
    out.push_back(hi_);
    return out;
  }

  void deserialize(const std::vector<std::uint64_t>& in) {
    lo_ = in.at(0);
    hi_ = in.at(1);
    rebuild();
  }

 private:
  void rebuild();
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t cache_ = 0;  // pdc: nonwire(derived from lo_/hi_ by rebuild() after load)
};

// PDA500 near-miss: member calls with template arguments are calls, not
// fields, so both sides of this pair touch exactly {magic, size}.
struct FrameHeader {
  std::uint32_t magic = 0;
  std::uint32_t size = 0;
};

class ByteSink {
 public:
  template <class T>
  void put(const T& v);
};

class ByteSource {
 public:
  template <class T>
  T get();
};

inline void put_frame_header(ByteSink& out, const FrameHeader& h) {
  out.put<std::uint32_t>(h.magic);
  out.put<std::uint32_t>(h.size);
}

inline FrameHeader get_frame_header(ByteSource& in) {
  FrameHeader h;
  h.magic = in.get<std::uint32_t>();
  h.size = in.get<std::uint32_t>();
  return h;
}

// PDA510 near-miss: the wire count is bounded against the buffer and
// rejected before it sizes anything.
inline std::uint64_t take_count(const std::vector<unsigned char>& in,
                                std::size_t& at) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8 && at < in.size(); ++b) {
    v |= static_cast<std::uint64_t>(in.at(at++)) << (8 * b);
  }
  return v;
}

inline std::vector<int> decode_frame(const std::vector<unsigned char>& in) {
  std::size_t at = 0;
  const std::uint64_t n = take_count(in, at);
  if (n > in.size()) {
    return {};
  }
  std::vector<int> out(n);
  return out;
}

// PDA520 near-miss: the writer materializes and sorts the keys before
// walking the unordered map, so the wire order is a pure function of
// the contents.
#include <algorithm>
#include <unordered_map>

class CleanRoutes {
 public:
  std::vector<std::uint64_t> serialize() const {
    std::vector<std::uint64_t> sorted_keys;
    for (const auto& [id, hits] : routes_) {
      sorted_keys.push_back(id);
    }
    std::sort(sorted_keys.begin(), sorted_keys.end());
    std::vector<std::uint64_t> out;
    for (const auto id : sorted_keys) {
      out.push_back(id);
      out.push_back(routes_.at(id));
    }
    return out;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> routes_;
};
