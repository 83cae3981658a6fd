#include "io/scratch_file.hpp"

#include <fcntl.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

namespace pdc::io {

ScratchFile::Pages* ScratchFile::find(const std::string& name) {
  const auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

const ScratchFile::Pages* ScratchFile::find(const std::string& name) const {
  const auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

ScratchFile::Pages& ScratchFile::create(const std::string& name) {
  Pages& file = files_[name];
  release(file);
  return file;
}

void ScratchFile::install(const std::string& name, Pages file) {
  Pages& slot = files_[name];
  release(slot);
  slot = std::move(file);
}

bool ScratchFile::remove(const std::string& name) {
  const auto it = files_.find(name);
  if (it == files_.end()) return false;
  release(it->second);
  files_.erase(it);
  return true;
}

void ScratchFile::release(Pages& file) {
  // Reversed, so the file's first page is the next one taken.
  free_.insert(free_.end(), file.pages.rbegin(), file.pages.rend());
  file.pages.clear();
  file.bytes = 0;
}

std::uint64_t ScratchFile::take_page() {
  if (free_.empty()) return extent_++;
  const auto page = free_.back();
  free_.pop_back();
  return page;
}

void ScratchFile::map(Pages& file, std::uint64_t offset, std::size_t bytes,
                      std::vector<ByteRun>& runs) {
  const std::uint64_t end = offset + bytes;
  while (file.pages.size() * kPageBytes < end) {
    file.pages.push_back(take_page());
  }
  for (std::uint64_t at = offset; at < end;) {
    const std::uint64_t in_page = at % kPageBytes;
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageBytes - in_page, end - at));
    const std::uint64_t where =
        file.pages[static_cast<std::size_t>(at / kPageBytes)] * kPageBytes +
        in_page;
    if (!runs.empty() && runs.back().offset + runs.back().bytes == where) {
      runs.back().bytes += n;
    } else {
      runs.push_back({where, n});
    }
    at += n;
  }
}

int ScratchFile::fd() {
  if (!fd_) {
    std::string path = (dir_ / ".scratch.XXXXXX").string();
    fd_.reset(::mkostemp(path.data(), O_CLOEXEC));
    if (!fd_) {
      throw std::runtime_error("ScratchFile: cannot create a scratch file in " +
                               dir_.string());
    }
    ::unlink(path.c_str());
  }
  return fd_.get();
}

std::uint64_t ScratchFile::live_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, file] : files_) total += file.bytes;
  return total;
}

}  // namespace pdc::io
