// Unit tests for src/util: Status/StatusOr, bit helpers, RNG workload
// generators, aligned buffers, the table printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>

#include "util/aligned.h"
#include "util/bits.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace ccdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad bits");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad bits");
  EXPECT_EQ(s.ToString(), "invalid argument: bad bits");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kFailedPrecondition,
        StatusCode::kResourceExhausted, StatusCode::kUnimplemented,
        StatusCode::kUnavailable, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(c), "unknown");
  }
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::Ok(), Status::Ok());
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(7), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 5);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  CCDB_ASSIGN_OR_RETURN(int h, Half(x));
  CCDB_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2=3 is odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(BitsTest, PowersOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 40));
}

TEST(BitsTest, Log2) {
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(2), 1);
  EXPECT_EQ(Log2Floor(3), 1);
  EXPECT_EQ(Log2Floor(1024), 10);
  EXPECT_EQ(Log2Ceil(1), 0);
  EXPECT_EQ(Log2Ceil(3), 2);
  EXPECT_EQ(Log2Ceil(1024), 10);
  EXPECT_EQ(Log2Ceil(1025), 11);
}

TEST(BitsTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(4), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(BitsTest, ExtractAndMask) {
  EXPECT_EQ(ExtractBits(0b110101, 0, 3), 0b101u);
  EXPECT_EQ(ExtractBits(0b110101, 3, 3), 0b110u);
  EXPECT_EQ(ExtractBits(0xffffffff, 0, 32), 0xffffffffu);
  EXPECT_EQ(LowMask32(0), 0u);
  EXPECT_EQ(LowMask32(5), 31u);
  EXPECT_EQ(LowMask32(32), 0xffffffffu);
}

TEST(BitsTest, SplitBitsEvenlyLargerSharesFirst) {
  int out[4];
  SplitBitsEvenly(7, 2, out);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 3);
  SplitBitsEvenly(12, 3, out);
  EXPECT_EQ(out[0], 4);
  EXPECT_EQ(out[1], 4);
  EXPECT_EQ(out[2], 4);
  SplitBitsEvenly(13, 4, out);
  EXPECT_EQ(out[0] + out[1] + out[2] + out[3], 13);
  EXPECT_GE(out[0], out[3]);
}

TEST(HashTest, KnownValues) {
  // splitmix64's first output from state 0, and the published FNV-1a
  // 64-bit vectors: exchange routing, HLL estimates and plan-cache keys
  // depend on these exact constants.
  EXPECT_EQ(SplitMix64(0), 0xE220A8397B1DCDAFull);
  EXPECT_EQ(Fnv1a(""), kFnv1aBasis);
  EXPECT_EQ(Fnv1a("a"), 0xAF63DC4C8601EC8Cull);
  EXPECT_EQ(Fnv1a("foobar"), 0x85944171F73967E8ull);
  EXPECT_EQ(Fnv1a("bar", Fnv1a("foo")), Fnv1a("foobar"));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, UniqueU32ProducesDistinctValues) {
  auto v = UniqueU32(10000, 42);
  EXPECT_EQ(v.size(), 10000u);
  std::set<uint32_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), v.size());
}

TEST(RngTest, UniqueU32SeedsDiffer) {
  EXPECT_NE(UniqueU32(100, 1), UniqueU32(100, 2));
  EXPECT_EQ(UniqueU32(100, 3), UniqueU32(100, 3));
}

TEST(RngTest, ShuffleIsPermutation) {
  std::vector<uint32_t> v(100);
  std::iota(v.begin(), v.end(), 0u);
  auto orig = v;
  Rng rng(9);
  Shuffle(v, rng);
  EXPECT_NE(v, orig);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(AlignedBufferTest, AlignmentAndZeroing) {
  AlignedBuffer buf(1000, 4096);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 4096, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf.data()[i], 0);
}

TEST(AlignedBufferTest, CacheLineAlignment) {
  AlignedBuffer buf(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 64, 0u);
}

TEST(TablePrinterTest, FormatsAlignedColumns) {
  TablePrinter t({"bits", "millisecs"});
  t.AddRow({"4", "12.50"});
  t.AddRow({"20", "3.25"});
  // Print to a memstream-like buffer via tmpfile.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::rewind(f);
  char buf[256];
  std::string all;
  while (std::fgets(buf, sizeof(buf), f)) all += buf;
  std::fclose(f);
  EXPECT_NE(all.find("bits"), std::string::npos);
  EXPECT_NE(all.find("12.50"), std::string::npos);
  EXPECT_NE(all.find("----"), std::string::npos);
}

TEST(TablePrinterTest, FmtHelpers) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(uint64_t{12345}), "12345");
  EXPECT_EQ(TablePrinter::Fmt(-7), "-7");
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer t;
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  EXPECT_GT(t.ElapsedNanos(), 0);
  EXPECT_GE(t.ElapsedMillis(), 0.0);
}

}  // namespace
}  // namespace ccdb
