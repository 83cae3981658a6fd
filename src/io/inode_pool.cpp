#include "io/inode_pool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <string>
#include <system_error>

namespace pdc::io {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kFreePrefix = ".free.";

}  // namespace

InodePool::InodePool(fs::path dir) : dir_(std::move(dir)) {
  fs::create_directories(dir_);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const auto name = entry.path().filename().string();
    if (!name.starts_with(kFreePrefix)) continue;
    const auto* begin = name.data() + kFreePrefix.size();
    const auto* end = name.data() + name.size();
    std::uint64_t k = 0;
    const auto [ptr, err] = std::from_chars(begin, end, k);
    if (err != std::errc{} || ptr != end) continue;
    free_.push_back(k);
    next_ = std::max(next_, k + 1);
  }
}

fs::path InodePool::free_path(std::uint64_t k) const {
  return dir_ / (std::string(kFreePrefix) + std::to_string(k));
}

FilePtr InodePool::open_empty(const fs::path& path) {
  // pdc: io-wrapper(opens a file for writing only; its write requests are charged at LocalDisk::settle)
  std::error_code ec;
  while (!free_.empty() && !fs::exists(path, ec)) {
    const auto k = free_.back();
    free_.pop_back();
    // A free file another pool on this directory took is simply skipped.
    if (std::rename(free_path(k).c_str(), path.c_str()) == 0) {
      return FilePtr(std::fopen(path.c_str(), "r+b"));
    }
  }
  return FilePtr(std::fopen(path.c_str(), "wb"));
}

void InodePool::release(const fs::path& path) {
  // pdc: io-wrapper(empties and renames a removed file; removal is not a modeled disk request)
  // Truncate through a descriptor and close it, so ext4's flush at close
  // runs now, on an empty file, and not after the file's next write.
  const int fd = ::open(path.c_str(), O_WRONLY | O_TRUNC | O_CLOEXEC);
  if (fd >= 0) {
    ::close(fd);
    const auto k = next_++;
    if (std::rename(path.c_str(), free_path(k).c_str()) == 0) {
      free_.push_back(k);
      return;
    }
  }
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace pdc::io
