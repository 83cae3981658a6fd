#include "common.hpp"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

std::string fs_type(const std::filesystem::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x01021997UL: return "9p";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return tv_s(ru.ru_utime) + tv_s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void wait_until(double t) {
  for (double left = t - now_s(); left > 0.0; left = t - now_s()) {
    if (left > 2e-4) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(left - 1.5e-4));
    }
  }
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

obs::Json host_descriptor(const std::filesystem::path& scratch) {
  obs::Json h = obs::Json::make_object();
  h.set("nproc", obs::Json::make_number(
                     static_cast<double>(std::thread::hardware_concurrency())));
  h.set("cpu", obs::Json::make_string(cpu_model()));
#if defined(__clang__)
  h.set("compiler", obs::Json::make_string(std::string("clang ") +
                                           __clang_version__));
#elif defined(__GNUC__)
  h.set("compiler", obs::Json::make_string(std::string("gcc ") + __VERSION__));
#else
  h.set("compiler", obs::Json::make_string("unknown"));
#endif
  h.set("build_type", obs::Json::make_string(PERFBENCH_BUILD_TYPE));
  h.set("scratch_fs", obs::Json::make_string(fs_type(scratch)));
  return h;
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  obs::Json m = obs::Json::make_object();
  m.set("value", obs::Json::make_number(value));
  m.set("unit", obs::Json::make_string(unit));
  metrics_.set(name, std::move(m));
}

void Result::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    correct_ = false;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Result::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::note(const std::string& key, obs::Json value) {
  notes_.set(key, std::move(value));
}

std::string Result::to_json() const {
  obs::Json doc = obs::Json::make_object();
  doc.set("correct", obs::Json::make_bool(correct_));
  doc.set("attempted",
          obs::Json::make_number(static_cast<double>(attempted_)));
  doc.set("failed", obs::Json::make_number(static_cast<double>(failed_)));
  doc.set("metrics", metrics_);
  doc.set("notes", notes_);
  return doc.dump();
}

}  // namespace perfbench
