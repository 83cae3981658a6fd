#pragma once

// Decision-tree model persistence: a versioned binary format so trained
// classifiers can be saved, shipped and reloaded.  A pdcT file is the u32
// magic, the u32 version, then the node arena as a counted array (TreeNode
// is trivially copyable and layout-checked).

#include <cstdint>
#include <cstdio>
#include <filesystem>

#include "clouds/tree.hpp"
#include "mp/serialize.hpp"
#include "obs/json.hpp"

namespace pdc::clouds {

namespace detail {
inline constexpr std::uint32_t kTreeMagic = 0x70646354;  // "pdcT"
inline constexpr std::uint32_t kTreeVersion = 1;
}  // namespace detail

inline void save_tree(const DecisionTree& tree,
                      const std::filesystem::path& path) {
  mp::WireWriter out;
  out.put_raw(detail::kTreeMagic);
  out.put_raw(detail::kTreeVersion);
  out.put_array(tree.serialize());
  obs::write_bytes_file(path.string(), out.take());
}

/// Reads a model file's leading magic (0 on a missing/short file), so
/// callers that accept both interpreted trees ("pdcT") and compiled serve
/// blobs (serve/compiled_tree.hpp) can dispatch without trial parsing.
inline std::uint32_t peek_model_magic(const std::filesystem::path& path) {
  // pdc: io-wrapper(model persistence at the run boundary, outside the modeled timeline)
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return 0;
  std::uint32_t magic = 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1) magic = 0;
  std::fclose(f);
  return magic;
}

inline DecisionTree load_tree(const std::filesystem::path& path) {
  const auto bytes = obs::read_bytes_file(path.string());
  mp::WireReader in(bytes, "load_tree " + path.string());
  if (in.get_raw<std::uint32_t>() != detail::kTreeMagic ||
      in.get_raw<std::uint32_t>() != detail::kTreeVersion) {
    in.reject("bad magic/version");
  }
  auto nodes = in.get_array<TreeNode>();
  in.finish();
  return DecisionTree::deserialize(std::move(nodes));
}

}  // namespace pdc::clouds
