#pragma once

// Scratch space management: one directory per virtual processor plays the
// role of that processor's local disk in the paper's shared-nothing machine.

#include <filesystem>
#include <string>

namespace pdc::io {

/// Creates (and on destruction removes) a unique scratch tree with one
/// subdirectory per rank.  All out-of-core files of rank r live under
/// `rank_dir(r)`, which models the shared-nothing "one disk per processor"
/// assumption: ranks never open each other's files; data moves between
/// ranks only through the message-passing layer.
class ScratchArena {
 public:
  /// `tag` names the arena; a unique suffix is appended.  The arena lives
  /// under $PDC_SCRATCH_ROOT if set, else the system temp directory.
  explicit ScratchArena(const std::string& tag, int nprocs);

  /// Tag type selecting the persistent constructor.
  struct Persist {};

  /// A persistent arena at an exact path: nothing is removed on
  /// destruction, and an existing tree at `root` is adopted as-is.  This is
  /// what lets a restarted process (`pclouds_cli --resume`) find the
  /// checkpoints a killed run left behind.
  ScratchArena(std::filesystem::path root, int nprocs, Persist);

  ~ScratchArena();

  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  const std::filesystem::path& root() const { return root_; }
  std::filesystem::path rank_dir(int rank) const;
  int nprocs() const { return nprocs_; }

  /// Bytes of the files in the rank directories, across all ranks (for
  /// assertions about out-of-core residency).  Task files are not among
  /// them: they live in each LocalDisk's unlinked scratch file, whose
  /// pages that disk counts (io/scratch_file.hpp).
  std::uintmax_t bytes_on_disk() const;

 private:
  std::filesystem::path root_;
  int nprocs_;
  bool keep_ = false;
};

}  // namespace pdc::io
