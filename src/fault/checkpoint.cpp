#include "fault/checkpoint.hpp"

#include <algorithm>
#include <charconv>
#include <set>

#include "common/wire.hpp"
#include "mp/serialize.hpp"

namespace pdc::fault {

namespace fs = std::filesystem;

namespace {

constexpr char kMagic[8] = {'p', 'd', 'c', 'C', 'k', 'p', 't', '1'};

}  // namespace

std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

CheckpointStore::CheckpointStore(io::LocalDisk& disk, std::string prefix)
    : disk_(&disk), prefix_(std::move(prefix)) {}

std::string CheckpointStore::file_of(std::uint64_t version,
                                     const std::string& blob) const {
  return prefix_ + ".v" + std::to_string(version) + "." + blob;
}

std::string CheckpointStore::manifest_of(std::uint64_t version) const {
  return file_of(version, "manifest");
}

void CheckpointStore::write(std::uint64_t version,
                            std::span<const CheckpointBlob> blobs) {
  // Invalidate any stale snapshot of this version before the first blob
  // lands: the manifest is removed first, so a crash mid-write can only
  // leave a version with no manifest (invalid), never a manifest that
  // vouches for mixed old/new blobs.
  const auto stale = manifest_of(version);
  if (disk_->exists(stale)) disk_->remove(stale);

  mp::WireWriter manifest;
  manifest.put_bytes(std::as_bytes(std::span(kMagic)));
  manifest.put_raw<std::uint64_t>(version);
  manifest.put_raw<std::uint64_t>(blobs.size());
  for (const auto& blob : blobs) {
    disk_->write_file<std::byte>(file_of(version, blob.name), blob.bytes);
    manifest.put_string(blob.name);
    manifest.put_raw<std::uint64_t>(blob.bytes.size());
    manifest.put_raw(fnv1a64(blob.bytes));
  }
  manifest.put_raw(fnv1a64(manifest.bytes()));
  disk_->write_file<std::byte>(manifest_of(version), manifest.take());
}

std::optional<std::vector<CheckpointStore::ManifestEntry>>
CheckpointStore::read_manifest(std::uint64_t version) {
  const auto name = manifest_of(version);
  if (!disk_->exists(name)) return std::nullopt;
  const auto raw = disk_->read_file<std::byte>(name);
  if (raw.size() < sizeof(std::uint64_t)) return std::nullopt;
  // Self-checksum over everything before the trailing hash (guards against
  // the manifest write itself having torn).
  const auto body = std::span(raw).first(raw.size() - sizeof(std::uint64_t));
  if (fnv1a64(body) != mp::value_from_bytes<std::uint64_t>(
                           std::span(raw).last(sizeof(std::uint64_t)))) {
    return std::nullopt;
  }
  std::vector<ManifestEntry> entries;
  try {
    mp::WireReader in(body, "checkpoint manifest");
    if (!std::ranges::equal(in.get_bytes(sizeof(kMagic)),
                            std::as_bytes(std::span(kMagic))) ||
        in.get_raw<std::uint64_t>() != version) {
      return std::nullopt;
    }
    // Every entry costs at least three u64s on the wire.
    entries.resize(in.count(3 * sizeof(std::uint64_t)));
    for (auto& e : entries) {
      e.name = in.get_string();
      e.bytes = in.get_raw<std::uint64_t>();
      e.checksum = in.get_raw<std::uint64_t>();
    }
    in.finish();
  } catch (const WireError&) {
    return std::nullopt;
  }
  return entries;
}

std::optional<std::vector<std::byte>> CheckpointStore::read_checked(
    std::uint64_t version, const ManifestEntry& entry) {
  const auto file = file_of(version, entry.name);
  if (disk_->file_bytes(file) != entry.bytes) return std::nullopt;
  auto bytes = disk_->read_file<std::byte>(file);
  if (bytes.size() != entry.bytes || fnv1a64(bytes) != entry.checksum) {
    return std::nullopt;
  }
  return bytes;
}

std::optional<std::vector<CheckpointStore::ManifestEntry>>
CheckpointStore::load_manifest(std::uint64_t version) {
  auto entries = read_manifest(version);
  if (!entries) return std::nullopt;
  // A snapshot vouches for its blobs: every one must exist with matching
  // size and checksum, or the whole version is rejected.
  for (const auto& e : *entries) {
    if (!read_checked(version, e)) return std::nullopt;
  }
  return entries;
}

std::vector<std::uint64_t> CheckpointStore::versions_on_disk() const {
  std::set<std::uint64_t> found;
  const std::string stem = prefix_ + ".v";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(disk_->dir(), ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind(stem, 0) != 0) continue;
    const auto rest = name.substr(stem.size());
    const auto dot = rest.find('.');
    if (dot == std::string::npos) continue;
    std::uint64_t v = 0;
    const auto* end = rest.data() + dot;
    auto [ptr, err] = std::from_chars(rest.data(), end, v);
    if (err == std::errc{} && ptr == end) found.insert(v);
  }
  return {found.begin(), found.end()};
}

std::vector<std::uint64_t> CheckpointStore::valid_versions() {
  std::vector<std::uint64_t> out;
  for (const auto v : versions_on_disk()) {
    if (load_manifest(v).has_value()) out.push_back(v);
  }
  return out;
}

std::optional<std::vector<std::string>> CheckpointStore::blob_names(
    std::uint64_t version) {
  auto entries = load_manifest(version);
  if (!entries) return std::nullopt;
  std::vector<std::string> names;
  names.reserve(entries->size());
  for (auto& e : *entries) names.push_back(std::move(e.name));
  return names;
}

std::vector<std::byte> CheckpointStore::read_blob(std::uint64_t version,
                                                  const std::string& name) {
  const auto where = "CheckpointStore: snapshot v" + std::to_string(version);
  const auto entries = read_manifest(version);
  if (!entries) throw std::runtime_error(where + " is not valid");
  for (const auto& e : *entries) {
    if (e.name != name) continue;
    auto bytes = read_checked(version, e);
    if (!bytes) {
      throw std::runtime_error(where + " blob '" + name +
                               "' does not match its manifest");
    }
    return std::move(*bytes);
  }
  throw std::runtime_error(where + " has no blob '" + name + "'");
}

void CheckpointStore::gc(std::size_t keep) {
  const auto valid = valid_versions();
  std::set<std::uint64_t> keepers;
  for (std::size_t i = valid.size() > keep ? valid.size() - keep : 0;
       i < valid.size(); ++i) {
    keepers.insert(valid[i]);
  }
  const std::string stem = prefix_ + ".v";
  std::vector<std::string> doomed;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(disk_->dir(), ec)) {
    const auto name = entry.path().filename().string();
    if (name.rfind(stem, 0) != 0) continue;
    const auto rest = name.substr(stem.size());
    const auto dot = rest.find('.');
    if (dot == std::string::npos) continue;
    std::uint64_t v = 0;
    const auto* end = rest.data() + dot;
    auto [ptr, err] = std::from_chars(rest.data(), end, v);
    if (err != std::errc{} || ptr != end) continue;
    if (!keepers.contains(v)) doomed.push_back(name);
  }
  for (const auto& name : doomed) disk_->remove(name);
}

void CheckpointStore::clear() { gc(0); }

}  // namespace pdc::fault
