#pragma once

// ScratchFile: the one file that holds a LocalDisk's task files.
//
// The paper's partitioning streams every record of a large node into two
// new child files and then drops the parent, so one training run creates
// and drops thousands of task files per rank.  As real files each of them
// costs file-system metadata the model never charges: an open that creates
// an inode, and an unlink or rename that drops one.  So a task file is not
// a file of the directory.  It is a list of kPageBytes pages of the disk's
// one scratch file plus a byte length, and creating, looking up or
// dropping it is a table operation with no system call.
//
// The scratch file is created in the rank directory on first use and
// unlinked at once, so nothing of it outlives the disk (or a killed
// process), and it is never truncated: it only grows, to the peak of the
// pages live at once.  Freed pages go on a LIFO free list in reverse order,
// so the next file takes them back in the order the freed file held them:
// a file written into pages freed by one file lands mostly in adjacent
// pages, whose byte runs coalesce into one transfer.
//
// Only the rank thread touches the table and the free list: a stream maps
// a request's pages when it issues the request, and the disk's worker only
// moves bytes at the offsets it was given.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/async_engine.hpp"

namespace pdc::io {

class ScratchFile {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  /// A task file: the pages holding its bytes, in file order, and its
  /// length.  A write may hold pages past the length (a stream whose
  /// request died keeps the pages it had taken).
  struct Pages {
    std::vector<std::uint64_t> pages;
    std::uint64_t bytes = 0;
  };

  /// The scratch file will live in `dir`; nothing is created yet.
  explicit ScratchFile(std::filesystem::path dir) : dir_(std::move(dir)) {}

  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;

  /// The task file `name`, or null.  The pointer stays valid until the
  /// file is removed or replaced.
  Pages* find(const std::string& name);
  const Pages* find(const std::string& name) const;

  /// A new, empty task file `name`; an old one's pages are freed.
  Pages& create(const std::string& name);

  /// Makes `file` the task file `name`; an old one's pages are freed.
  void install(const std::string& name, Pages file);

  /// Frees `name`'s pages and forgets it; false if there is no such file.
  bool remove(const std::string& name);

  /// Frees the pages of a file that is not in the table.
  void release(Pages& file);

  /// Appends to `runs` the byte runs of the scratch file that hold bytes
  /// [offset, offset + bytes) of `file`, adjacent pages as one run.  A
  /// write past the file's last page takes new pages for it.
  void map(Pages& file, std::uint64_t offset, std::size_t bytes,
           std::vector<ByteRun>& runs);

  /// The scratch file's descriptor; created (and unlinked) on first use.
  /// Throws std::runtime_error if it cannot be created.
  int fd();

  /// Pages held by task files.
  std::size_t live_pages() const { return extent_ - free_.size(); }
  /// Pages of the scratch file free for reuse.
  std::size_t free_pages() const { return free_.size(); }
  /// Task files in the table, and the bytes they hold.
  std::size_t files() const { return files_.size(); }
  std::uint64_t live_bytes() const;

 private:
  std::uint64_t take_page();

  std::filesystem::path dir_;
  UniqueFd fd_;
  std::unordered_map<std::string, Pages> files_;
  /// Free pages; the next one to take is last.
  std::vector<std::uint64_t> free_;
  /// Pages in the scratch file, live or free.
  std::uint64_t extent_ = 0;
};

}  // namespace pdc::io
