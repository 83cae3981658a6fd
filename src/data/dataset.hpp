#pragma once

// Glue between the generator, the initial random distribution and the
// per-rank disks: materializes each rank's slice of the training set as a
// record file on that rank's local disk (the paper's starting condition),
// and draws the in-memory sample set S used by CLOUDS.

#include <cstdint>
#include <string>
#include <vector>

#include "data/agrawal.hpp"
#include "data/partition.hpp"
#include "data/record.hpp"
#include "io/local_disk.hpp"
#include "io/pipeline.hpp"

namespace pdc::data {

/// Writes rank `rank`'s randomly-assigned slice of the global dataset to
/// `name` on `disk`, streaming `block_records` per request at queue depth
/// 0.  Returns the number of records written.
inline std::uint64_t materialize_local_slice(const AgrawalGenerator& gen,
                                             const DatasetPartition& part,
                                             int rank, io::LocalDisk& disk,
                                             const std::string& name,
                                             std::size_t block_records) {
  io::BlockWriter<Record> writer(disk, name, block_records);
  for (std::uint64_t i = 0; i < part.total_records(); ++i) {
    if (part.owner_of(i) == rank) writer.append(gen.make(i));
  }
  writer.close();
  return writer.count();
}

/// Draws rank `rank`'s part of the pre-drawn sample set S (kept in memory).
inline std::vector<Record> draw_local_sample(const AgrawalGenerator& gen,
                                             const DatasetPartition& part,
                                             const Sampler& sampler,
                                             int rank) {
  std::vector<Record> out;
  for (std::uint64_t i = 0; i < part.total_records(); ++i) {
    if (part.owner_of(i) == rank && sampler.contains(i)) {
      out.push_back(gen.make(i));
    }
  }
  return out;
}

/// A held-out test set: the `count` records after the training range.
inline std::vector<Record> make_test_set(const AgrawalGenerator& gen,
                                         std::uint64_t train_records,
                                         std::uint64_t count) {
  return gen.make_range(train_records, train_records + count);
}

}  // namespace pdc::data
