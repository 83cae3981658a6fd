#pragma once

// Versioned, checksum-validated snapshots on a rank's local disk.
//
// Snapshot format `pdc.checkpoint.v1`: a snapshot of version V is a set of
// named byte blobs, each in its own file `<prefix>.v<V>.<name>`, plus a
// manifest `<prefix>.v<V>.manifest` written LAST.  The manifest lists every
// blob with its byte count and FNV-1a checksum and carries a self-checksum
// over its own bytes.  A snapshot is valid only if the manifest parses, its
// self-checksum matches, and every listed blob exists with matching size
// and checksum — so a crash or torn write at any point during snapshotting
// (including mid-manifest) leaves the previous snapshot untouched and the
// new one detectably incomplete, never a silently corrupt state.
//
// All file traffic goes through io::LocalDisk, so snapshot and restore
// costs are charged to the rank's modeled clock like any other out-of-core
// I/O (and are subject to fault injection like any other disk request).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "io/local_disk.hpp"

namespace pdc::fault {

/// 64-bit FNV-1a over a byte span (checksum of record in the manifest).
std::uint64_t fnv1a64(std::span<const std::byte> bytes);

/// A named blob queued for, or recovered from, a snapshot.
struct CheckpointBlob {
  std::string name;
  std::vector<std::byte> bytes;
};

class CheckpointStore {
 public:
  /// Snapshots live in `disk`'s directory under `<prefix>.v<V>.*` names;
  /// the prefix keeps them clearly apart from the algorithm's data files.
  explicit CheckpointStore(io::LocalDisk& disk,
                           std::string prefix = "pdc.ckpt");

  /// Writes a complete snapshot: blobs first, manifest last.  Any stale
  /// files of the same version are removed up front, so a re-used version
  /// number can never mix old and new blobs.
  void write(std::uint64_t version, std::span<const CheckpointBlob> blobs);

  /// Versions whose manifest parses and whose every blob checksums clean,
  /// sorted ascending.
  std::vector<std::uint64_t> valid_versions();

  /// Blob names listed by a valid snapshot's manifest, in write order.
  /// Empty optional if the snapshot is missing or fails validation.
  std::optional<std::vector<std::string>> blob_names(std::uint64_t version);

  /// Reads one blob of a snapshot: the manifest, then that blob alone,
  /// whose size and checksum must match the manifest's entry.  Throws
  /// std::runtime_error if the manifest is invalid, lists no such blob, or
  /// the blob does not match it.
  std::vector<std::byte> read_blob(std::uint64_t version,
                                   const std::string& name);

  /// Removes every snapshot file except those of the `keep` highest valid
  /// versions.  Invalid (torn) snapshots are always removed.
  void gc(std::size_t keep);

  /// Removes every snapshot file.
  void clear();

 private:
  struct ManifestEntry {
    std::string name;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
  };

  std::string file_of(std::uint64_t version, const std::string& blob) const;
  std::string manifest_of(std::uint64_t version) const;
  /// Parses a snapshot's manifest alone; empty optional if it is missing,
  /// torn or of another version.
  std::optional<std::vector<ManifestEntry>> read_manifest(
      std::uint64_t version);
  /// One blob's bytes, if its size and checksum match `entry`.
  std::optional<std::vector<std::byte>> read_checked(
      std::uint64_t version, const ManifestEntry& entry);
  /// Parses + fully validates a snapshot; empty optional if invalid.
  std::optional<std::vector<ManifestEntry>> load_manifest(
      std::uint64_t version);
  /// All versions that have any file on disk (valid or not).
  std::vector<std::uint64_t> versions_on_disk() const;

  io::LocalDisk* disk_;
  std::string prefix_;
};

}  // namespace pdc::fault
