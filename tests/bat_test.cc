// BAT layer unit tests: columns (incl. void virtual-OID columns), BATs,
// BUN views, and the byte-encoding machinery of §3.1.
#include <gtest/gtest.h>

#include "bat/bat.h"
#include "bat/column.h"
#include "bat/encoding.h"

namespace ccdb {
namespace {

TEST(ColumnTest, VoidColumnIsFree) {
  Column c = Column::Void(1000, 8);
  EXPECT_TRUE(c.is_void());
  EXPECT_EQ(c.type(), PhysType::kVoid);
  EXPECT_EQ(c.size(), 8u);
  EXPECT_EQ(c.MemoryBytes(), 0u);  // the point of virtual OIDs
  EXPECT_EQ(c.GetOid(0), 1000u);
  EXPECT_EQ(c.GetOid(7), 1007u);
  EXPECT_EQ(c.GetIntegral(3), 1003u);
}

TEST(ColumnTest, VoidMaterializesToU32) {
  Column c = Column::Void(5, 4);
  Column m = c.Materialize();
  EXPECT_EQ(m.type(), PhysType::kU32);
  auto span = m.Span<uint32_t>();
  ASSERT_EQ(span.size(), 4u);
  EXPECT_EQ(span[0], 5u);
  EXPECT_EQ(span[3], 8u);
  EXPECT_EQ(m.MemoryBytes(), 16u);
}

TEST(ColumnTest, TypedFactoriesAndSpans) {
  Column u8 = Column::U8({1, 2, 3});
  EXPECT_EQ(u8.type(), PhysType::kU8);
  EXPECT_EQ(u8.Span<uint8_t>()[2], 3);
  EXPECT_EQ(u8.MemoryBytes(), 3u);

  Column u16 = Column::U16({300, 400});
  EXPECT_EQ(u16.type(), PhysType::kU16);
  EXPECT_EQ(u16.GetIntegral(1), 400u);

  Column i64 = Column::I64({-5, 7});
  EXPECT_EQ(i64.type(), PhysType::kI64);
  EXPECT_EQ(i64.Span<int64_t>()[0], -5);

  Column f64 = Column::F64({1.5, 2.5});
  EXPECT_EQ(f64.type(), PhysType::kF64);
  EXPECT_DOUBLE_EQ(f64.Span<double>()[1], 2.5);
}

TEST(ColumnTest, StringColumn) {
  Column s = Column::Str({"MAIL", "AIR", "", "TRUCK"});
  EXPECT_EQ(s.type(), PhysType::kStr);
  EXPECT_EQ(s.size(), 4u);
  EXPECT_EQ(s.GetStr(0), "MAIL");
  EXPECT_EQ(s.GetStr(1), "AIR");
  EXPECT_EQ(s.GetStr(2), "");
  EXPECT_EQ(s.GetStr(3), "TRUCK");
  EXPECT_GT(s.MemoryBytes(), 0u);
}

TEST(ColumnTest, I32BitPatternThroughGetIntegral) {
  Column c = Column::I32({-1, 2});
  EXPECT_EQ(c.GetIntegral(0), 0xffffffffu);
  EXPECT_EQ(c.GetIntegral(1), 2u);
}

TEST(ColumnTest, ConcatAppendsAndAdoptsAnEmptyFront) {
  Column u = Column::Concat(Column::U32({1, 2}), Column::U32({3}));
  ASSERT_EQ(u.size(), 3u);
  EXPECT_EQ(u.Span<uint32_t>()[2], 3u);
  Column s = Column::Concat(Column::Str({"a"}), Column::Str({"bc", ""}));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_EQ(s.GetStr(0), "a");
  EXPECT_EQ(s.GetStr(1), "bc");
  EXPECT_EQ(s.GetStr(2), "");
  EXPECT_EQ(s.MemoryBytes(), Column::Str({"a", "bc", ""}).MemoryBytes());
  Column v = Column::Concat(Column::Void(5, 2), Column::Void(7, 3));
  EXPECT_TRUE(v.is_void());
  EXPECT_EQ(v.void_base(), 5u);
  EXPECT_EQ(v.size(), 5u);
  // An empty front takes the back's type.
  EXPECT_EQ(Column::Concat(Column(), Column::U8({7})).type(), PhysType::kU8);
}

TEST(BatTest, MakeChecksLengths) {
  auto ok = Bat::Make(Column::Void(0, 3), Column::U32({1, 2, 3}));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 3u);

  auto bad = Bat::Make(Column::Void(0, 2), Column::U32({1, 2, 3}));
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatTest, DenseTailConvention) {
  Bat b = Bat::DenseTail(Column::U32({10, 20, 30}));
  EXPECT_TRUE(b.head().is_void());
  EXPECT_EQ(b.head().GetOid(2), 2u);
  EXPECT_EQ(b.tail().Span<uint32_t>()[1], 20u);
  // Void head costs nothing: the BAT is 4 bytes/BUN, not 8 (§3.1).
  EXPECT_EQ(b.MemoryBytes(), 12u);
}

TEST(BatTest, BunRoundTrip) {
  std::vector<Bun> buns = {{5, 100}, {6, 200}, {9, 300}};
  Bat b = Bat::FromBuns(buns);
  EXPECT_EQ(b.size(), 3u);
  auto back = b.ToBuns();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, buns);
}

TEST(BatTest, ToBunsWidensNarrowTails) {
  Bat b = Bat::DenseTail(Column::U8({7, 8}));
  auto buns = b.ToBuns();
  ASSERT_TRUE(buns.ok());
  EXPECT_EQ((*buns)[0], (Bun{0, 7}));
  EXPECT_EQ((*buns)[1], (Bun{1, 8}));
}

TEST(BatTest, ToBunsRejectsWideTails) {
  Bat b = Bat::DenseTail(Column::F64({1.0}));
  EXPECT_EQ(b.ToBuns().status().code(), StatusCode::kInvalidArgument);
  Bat s = Bat::DenseTail(Column::Str({"x"}));
  EXPECT_EQ(s.ToBuns().status().code(), StatusCode::kInvalidArgument);
}

TEST(BatTest, ReverseSwapsColumns) {
  Bat b = Bat::DenseTail(Column::U32({10, 20}));
  Bat r = b.Reverse();
  EXPECT_EQ(r.head().type(), PhysType::kU32);
  EXPECT_TRUE(r.tail().is_void());
}

TEST(DictEncodeTest, LowCardinalityUsesOneByte) {
  Column s = Column::Str({"MAIL", "AIR", "MAIL", "SHIP", "AIR", "MAIL"});
  auto enc = DictEncode(s);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->codes.type(), PhysType::kU8);
  EXPECT_EQ(enc->code_width(), 1u);
  EXPECT_EQ(enc->dict.size(), 3u);
  // First-appearance order: MAIL=0, AIR=1, SHIP=2.
  EXPECT_EQ(enc->dict.Get(0), "MAIL");
  EXPECT_EQ(enc->dict.Get(1), "AIR");
  EXPECT_EQ(enc->dict.Get(2), "SHIP");
  auto codes = enc->codes.Span<uint8_t>();
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[3], 2);
  EXPECT_EQ(codes[5], 0);
}

TEST(DictEncodeTest, RoundTrip) {
  std::vector<std::string> vals = {"a", "b", "c", "a", "c", "c", ""};
  Column s = Column::Str(vals);
  auto enc = DictEncode(s);
  ASSERT_TRUE(enc.ok());
  auto dec = DictDecode(*enc);
  ASSERT_TRUE(dec.ok());
  ASSERT_EQ(dec->size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(dec->GetStr(i), vals[i]);
}

TEST(DictEncodeTest, MediumCardinalityUsesTwoBytes) {
  std::vector<std::string> vals;
  for (int i = 0; i < 1000; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "v%d", i % 300);
    vals.emplace_back(buf);
  }
  auto enc = DictEncode(Column::Str(vals));
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->codes.type(), PhysType::kU16);
  EXPECT_EQ(enc->dict.size(), 300u);
}

TEST(DictEncodeTest, RejectsNonStringColumn) {
  EXPECT_EQ(DictEncode(Column::U32({1})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DictEncodeTest, OverflowsAt65537Values) {
  std::vector<std::string> vals;
  vals.reserve(65537);
  for (int i = 0; i < 65537; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%d", i);
    vals.emplace_back(buf);
  }
  auto enc = DictEncode(Column::Str(vals));
  EXPECT_EQ(enc.status().code(), StatusCode::kResourceExhausted);
}

TEST(DictEncodeTest, LookupFindsCodesAndMisses) {
  auto enc = DictEncode(Column::Str({"x", "y"}));
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(*enc->dict.Lookup("y"), 1u);
  EXPECT_EQ(enc->dict.Lookup("z").status().code(), StatusCode::kNotFound);
}

TEST(DictAppendTest, KeepsOldCodesAndWidensPast256Values) {
  auto enc = DictEncode(Column::Str({"x", "y", "x"}));
  ASSERT_TRUE(enc.ok());
  std::vector<std::string> more = {"y"};
  for (int i = 0; i < 300; ++i) more.push_back("v" + std::to_string(i));
  auto grown = DictAppend(enc->codes, enc->dict, Column::Str(more));
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(enc->dict.size(), 2u);  // the input dictionary is not touched
  ASSERT_EQ(grown->codes.type(), PhysType::kU16);
  auto codes = grown->codes.Span<uint16_t>();
  ASSERT_EQ(codes.size(), 304u);
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[1], 1);
  EXPECT_EQ(codes[2], 0);
  EXPECT_EQ(codes[3], 1);
  EXPECT_EQ(codes[303], 301);
  EXPECT_EQ(grown->dict.Get(301), "v299");
  EXPECT_EQ(*grown->dict.Lookup("v0"), 2u);
}

TEST(DictEncodeIntsTest, RoundTripAndWidth) {
  Column c = Column::U32({5, 5, 900000, 5, 900000});
  auto enc = DictEncodeInts(c);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->codes.type(), PhysType::kU8);
  EXPECT_EQ(enc->dict.size(), 2u);
  auto dec = DictDecodeInts(*enc);
  ASSERT_TRUE(dec.ok());
  auto span = dec->Span<uint32_t>();
  EXPECT_EQ(span[2], 900000u);
  EXPECT_EQ(span[4], 900000u);
  EXPECT_EQ(span[0], 5u);
}

TEST(DictEncodeIntsTest, RejectsFloats) {
  EXPECT_EQ(DictEncodeInts(Column::F64({1.0})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PhysTypeTest, WidthsAndNames) {
  EXPECT_EQ(PhysTypeWidth(PhysType::kU8), 1u);
  EXPECT_EQ(PhysTypeWidth(PhysType::kU16), 2u);
  EXPECT_EQ(PhysTypeWidth(PhysType::kU32), 4u);
  EXPECT_EQ(PhysTypeWidth(PhysType::kI64), 8u);
  EXPECT_EQ(PhysTypeWidth(PhysType::kVoid), 0u);
  EXPECT_STREQ(PhysTypeName(PhysType::kVoid), "void");
  EXPECT_STREQ(PhysTypeName(PhysType::kStr), "str");
}

}  // namespace
}  // namespace ccdb
