#pragma once

// InodePool: the emptied files a rank's directory keeps for reuse.
//
// The paper's partitioning streams every record of a large node into two
// new child files and then drops the parent, so one training run creates
// and deletes thousands of files per rank.  On ext4, creating a file in a
// directory after that churn cost 250-480 us of kernel CPU (11-23 us in a
// quiet directory): the inode allocator steps over recently freed inodes.
// So LocalDisk never unlinks a file it removes.  release() empties it
// through a truncating open and close and renames it to a free name,
// `.free.<k>`; open_empty() renames a free file into place instead of
// creating a new one.  Free files outlive the pool that freed them: a pool
// adopts every `.free.<k>` it finds in its directory, so the next LocalDisk
// on that directory (a later training call, or a process resuming a killed
// run) reuses them.
//
// Free files are always empty, and there are never more of them than the
// directory's peak number of live files: a file turns free only when it is
// removed, and every new name takes a free file while one exists.  Names
// starting with `.free.` belong to the pool.  Only the rank thread touches
// a pool.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <vector>

namespace pdc::io {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

class InodePool {
 public:
  /// Creates `dir` if needed and adopts the free files already in it.
  explicit InodePool(std::filesystem::path dir);

  InodePool(const InodePool&) = delete;
  InodePool& operator=(const InodePool&) = delete;

  /// The one open step of every file written from empty: an existing name
  /// is truncated; a new name takes a free file, opened without O_TRUNC
  /// (ext4 writes a file truncated to zero out to disk at close, while a
  /// file that was already empty keeps its data in the page cache); with
  /// no free file left it is created.  Null if the file will not open.
  FilePtr open_empty(const std::filesystem::path& path);

  /// Empties `path` and keeps it as a free file.  A missing name is a
  /// no-op; a file that will not open for writing is unlinked instead.
  void release(const std::filesystem::path& path);

  /// Free files held.
  std::size_t size() const { return free_.size(); }

 private:
  std::filesystem::path free_path(std::uint64_t k) const;

  std::filesystem::path dir_;
  /// Suffixes of the free files, most recently freed last.
  std::vector<std::uint64_t> free_;
  /// Suffix of the next file to free: above every suffix adopted.
  std::uint64_t next_ = 0;
};

}  // namespace pdc::io
