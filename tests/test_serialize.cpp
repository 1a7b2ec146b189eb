#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>

#include "common/error.hpp"
#include "dtype/serialize.hpp"
#include "test_util.hpp"

namespace llio::dt {
namespace {

void expect_roundtrip(const Type& t) {
  const ByteVec wire = serialize(t);
  const Type back = deserialize(wire);
  EXPECT_TRUE(equal(t, back)) << to_string(t) << " != " << to_string(back);
  EXPECT_EQ(size(back), size(t));
  EXPECT_EQ(extent(back), extent(t));
  EXPECT_EQ(block_count(back), block_count(t));
}

TEST(Serialize, Basic) { expect_roundtrip(double_()); }

TEST(Serialize, Contiguous) { expect_roundtrip(contiguous(12, int_())); }

TEST(Serialize, Vector) { expect_roundtrip(vector(8, 2, 5, double_())); }

TEST(Serialize, Indexed) {
  const Off bls[] = {1, 2, 3};
  const Off ds[] = {0, 40, 200};
  expect_roundtrip(hindexed(bls, ds, byte()));
}

TEST(Serialize, Struct) {
  const Off bls[] = {2, 1};
  const Off ds[] = {0, 32};
  const Type kids[] = {int_(), vector(2, 1, 3, double_())};
  expect_roundtrip(struct_(bls, ds, kids));
}

TEST(Serialize, Resized) {
  expect_roundtrip(resized(vector(4, 1, 2, byte()), 0, 64));
}

TEST(Serialize, DeepNesting) {
  Type t = byte();
  for (int i = 0; i < 20; ++i) t = hvector(2, 1, 3 + i, t);
  expect_roundtrip(t);
}

TEST(Serialize, CompactComparedToOlList) {
  // The point of fileview caching: the wire form scales with the tree,
  // not with N_block (paper §3.2.3).
  const Type t = hvector(100000, 1, 16, double_());
  const ByteVec wire = serialize(t);
  EXPECT_LT(to_off(wire.size()), 64);
  EXPECT_EQ(flatten(t).memory_bytes(), 1600000);
}

TEST(Serialize, RandomTreesRoundTrip) {
  testutil::Rng rng(123);
  for (int i = 0; i < 200; ++i)
    expect_roundtrip(testutil::random_type(rng, 4));
}

TEST(Deserialize, RejectsTruncatedInput) {
  const ByteVec wire = serialize(vector(8, 2, 5, double_()));
  for (std::size_t cut : {std::size_t{0}, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(deserialize(ConstByteSpan(wire.data(), cut)), Error);
  }
}

TEST(Deserialize, RejectsTrailingBytes) {
  ByteVec wire = serialize(byte());
  wire.push_back(Byte{0});
  EXPECT_THROW(deserialize(wire), Error);
}

TEST(Deserialize, RejectsBadKind) {
  ByteVec wire = serialize(byte());
  wire[0] = Byte{0xFF};
  EXPECT_THROW(deserialize(wire), Error);
}

TEST(Deserialize, RejectsBadBasicId) {
  ByteVec wire = serialize(byte());
  wire[1] = Byte{0x7F};
  EXPECT_THROW(deserialize(wire), Error);
}

void expect_invalid_datatype(const std::function<void()>& fn,
                             const char* what) {
  try {
    fn();
    ADD_FAILURE() << what << ": accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), Errc::InvalidDatatype) << what;
  }
}

// Sizes, bounds and stride x extent that do not fit 64 bits are refused
// at construction instead of wrapping (2^80 bytes once read as size 0).
TEST(Datatype, OverflowingSizesAndBoundsThrow) {
  expect_invalid_datatype(
      [] { hvector(Off{1} << 40, Off{1} << 40, 1, byte()); }, "2^80 bytes");
  expect_invalid_datatype(
      [] { hvector(Off{3} << 31, Off{3} << 31, 1, byte()); }, "9 * 2^62 bytes");
  expect_invalid_datatype(
      [] { hvector(3, 1, Off{1} << 62, byte()); }, "upper bound");
  expect_invalid_datatype(
      [] { vector(2, 1, Off{1} << 61, double_()); }, "stride x extent");
  expect_invalid_datatype(
      [] { contiguous(Off{1} << 61, double_()); }, "contiguous size");
  expect_invalid_datatype(
      [] { resized(byte(), std::numeric_limits<Off>::max(), 2); },
      "resized upper bound");
  const Off bls[] = {Off{1} << 62, Off{1} << 62};
  const Off ds[] = {0, 0};
  expect_invalid_datatype([&] { hindexed(bls, ds, short_()); },
                          "indexed size");
}

// A serialized tree hand-patched to the overflowing counts fails to
// decode the same way.
TEST(Deserialize, RejectsOverflowingVector) {
  const ByteVec wire = serialize(hvector(2, 3, 1, byte()));
  // Layout: u8 kind, i64 count, i64 blocklen, i64 stride, child.
  for (const Off probe : {Off{1} << 40, Off{3} << 31}) {
    ByteVec bad = wire;
    std::memcpy(bad.data() + 1, &probe, sizeof(Off));
    std::memcpy(bad.data() + 9, &probe, sizeof(Off));
    expect_invalid_datatype([&] { deserialize(bad); }, "patched vector");
  }
}

TEST(Deserialize, RejectsBlockCountBeyondInput) {
  const Off bls[] = {1};
  const Off ds[] = {0};
  ByteVec bad = serialize(hindexed(bls, ds, byte()));
  const Off huge = Off{1} << 31;  // 2^31 pairs cannot fit in a few bytes
  std::memcpy(bad.data() + 1, &huge, sizeof(Off));
  expect_invalid_datatype([&] { deserialize(bad); }, "block count");
}

}  // namespace
}  // namespace llio::dt
