// Link layering: a binary whose only library call is fault::fnv1a64 links.
// CheckpointStore (fault/checkpoint.cpp, beside fnv1a64) writes through
// io::LocalDisk, so its library must sit above pdc_io; when it sat in
// pdc_fault, below pdc_io, this binary failed to link with an undefined
// reference to io::execute.  Nothing else of the library may be called
// here, or the other references would pull pdc_io in and hide the fault.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>

#include "fault/checkpoint.hpp"

namespace {

std::uint64_t hash_of(std::string_view s) {
  return pdc::fault::fnv1a64(std::as_bytes(std::span(s.data(), s.size())));
}

TEST(LinkLayering, ChecksumAloneLinks) {
  // The published FNV-1a 64-bit test vectors.
  EXPECT_EQ(hash_of(""), 0xcbf29ce484222325u);
  EXPECT_EQ(hash_of("a"), 0xaf63dc4c8601ec8cu);
  EXPECT_EQ(hash_of("foobar"), 0x85944171f73967e8u);
}

}  // namespace
