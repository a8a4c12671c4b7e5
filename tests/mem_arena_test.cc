// Page-aware arena (mem/arena.h): huge-page grant/fallback behaviour,
// alignment guarantees, stats accounting, threshold routing, and — the
// property the whole adoption rests on — byte-identical query results when
// columns and join scratch move from plain vectors to arena-backed ColVecs,
// at parallelism 1, 2 and 8.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "exec/plan.h"
#include "exec/table.h"
#include "mem/arena.h"
#include "model/planner.h"

namespace ccdb {
namespace {

bool Aligned(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

/// RAII threshold override so a failing assertion cannot leak a tiny
/// threshold into later tests of the same binary.
class ScopedThreshold {
 public:
  explicit ScopedThreshold(size_t bytes)
      : prev_(arena::SetLargeThresholdBytes(bytes)) {}
  ~ScopedThreshold() { arena::SetLargeThresholdBytes(prev_); }

 private:
  size_t prev_;
};

TEST(ArenaBlockTest, LargeBlocksAreAlignedZeroFilledAndRegistered) {
  const size_t kBytes = 3 << 20;  // 3 MB: forces a 2-huge-page mapping
  void* p = arena::AllocateBlock(kBytes, arena::HugePolicy::kRequest);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(Aligned(p, arena::kCacheLineBytes));
  EXPECT_TRUE(arena::IsLargeBlock(p));
  // Anonymous mappings are zero-filled; the heap fallback memsets.
  const unsigned char* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < kBytes; i += 4096) EXPECT_EQ(b[i], 0u) << i;
  EXPECT_EQ(b[kBytes - 1], 0u);
  arena::FreeBlock(p);
  EXPECT_FALSE(arena::IsLargeBlock(p));
}

TEST(ArenaBlockTest, ConsecutiveBlockStartsAreColored) {
  // Cache-index coloring: consecutive large blocks must not all start at
  // the same offset modulo the page, or power-of-two-strided buffers alias
  // into the same cache sets (seen as a real pathology in the simulator
  // before coloring went in). At least two distinct line offsets among a
  // handful of consecutive allocations.
  std::vector<void*> blocks;
  std::vector<uintptr_t> offsets;
  for (int i = 0; i < 8; ++i) {
    void* p = arena::AllocateBlock(4 << 20, arena::HugePolicy::kDisable);
    blocks.push_back(p);
    offsets.push_back(reinterpret_cast<uintptr_t>(p) %
                      arena::HugePageBytes());
    EXPECT_TRUE(Aligned(p, arena::kCacheLineBytes));
  }
  bool distinct = false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] != offsets[0]) distinct = true;
  }
  EXPECT_TRUE(distinct);
  for (void* p : blocks) arena::FreeBlock(p);
}

TEST(ArenaBlockTest, HugePolicyRequestVsDisable) {
  const size_t kBytes = 8 << 20;
  // kDisable blocks are advised MADV_NOHUGEPAGE: even on THP=always hosts
  // they must report zero huge-backed bytes (this is what keeps the
  // calibrator's TLB probe honest).
  void* base = arena::AllocateBlock(kBytes, arena::HugePolicy::kDisable);
  std::memset(base, 1, kBytes);
  EXPECT_EQ(arena::HugeBackedBytes(base), 0u);
  arena::FreeBlock(base);

  // kRequest: the kernel may or may not grant huge pages, but whatever
  // HugeBackedBytes reports must be sane — a multiple of the huge-page
  // size, no larger than the mapping.
  void* huge = arena::AllocateBlock(kBytes, arena::HugePolicy::kRequest);
  std::memset(huge, 1, kBytes);  // THP backing is decided at fault time
  size_t backed = arena::HugeBackedBytes(huge);
  EXPECT_EQ(backed % arena::HugePageBytes(), 0u);
  EXPECT_LE(backed, kBytes + arena::HugePageBytes());
  if (arena::ThpAvailable()) {
    // Can't assert a grant (memory pressure, defrag settings), only report.
    RecordProperty("huge_backed_bytes", static_cast<int>(backed >> 20));
  } else {
    EXPECT_EQ(backed, 0u);
  }
  arena::FreeBlock(huge);
}

TEST(ArenaAllocTest, SmallAllocationsAreCacheLineAligned) {
  // Every arena start is >= 64 B aligned — the property that lets
  // concurrent partition writers of adjacent buffers never share a line.
  std::vector<void*> ps;
  for (size_t bytes : {1u, 7u, 64u, 100u, 4096u, 100000u}) {
    void* p = arena::Allocate(bytes);
    EXPECT_TRUE(Aligned(p, arena::kCacheLineBytes)) << bytes;
    std::memset(p, 0xab, bytes);  // must be writable end to end
    ps.push_back(p);
  }
  size_t i = 0;
  for (size_t bytes : {1u, 7u, 64u, 100u, 4096u, 100000u}) {
    arena::Deallocate(ps[i++], bytes);
  }
}

TEST(ArenaAllocTest, StatsTrackRoutingAndMappedBytes) {
  arena::ResetStats();
  const size_t kLarge = arena::LargeThresholdBytes() + (1 << 20);
  void* big = arena::Allocate(kLarge);
  void* small = arena::Allocate(1024);
  arena::ArenaStats s = arena::Stats();
  EXPECT_EQ(s.large_allocs, 1u);
  EXPECT_EQ(s.large_bytes, kLarge);
  // Mapped bytes are huge-page rounded (plus any coloring offset).
  EXPECT_GE(s.large_mapped_bytes, kLarge);
  EXPECT_EQ(s.large_mapped_bytes % arena::HugePageBytes(), 0u);
  EXPECT_EQ(s.small_allocs, 1u);
  EXPECT_EQ(s.small_bytes, 1024u);
  if (arena::ThpAvailable() && s.fallback_allocs == 0) {
    EXPECT_EQ(s.huge_advised_bytes, s.large_mapped_bytes);
  }
  arena::Deallocate(big, kLarge);
  arena::Deallocate(small, 1024);
}

#if defined(__linux__)
size_t VmSizeBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "re");
  if (f == nullptr) return 0;
  unsigned long pages = 0;
  int got = std::fscanf(f, "%lu", &pages);
  std::fclose(f);
  return got == 1 ? pages * arena::BasePageBytes() : 0;
}

TEST(ArenaAllocTest, ColoredLargeBlocksAreFullyUnmappedOnFree) {
  // Regression: Deallocate used to munmap at the *user* pointer instead of
  // the mapping base. Coloring makes the user pointer non-page-aligned for
  // most blocks, so munmap failed (silently, pre-CCDB_CHECK) and every
  // large ColVec free leaked its whole mapping. 64 leaked 4 MB mappings
  // would grow VmSize by >= 256 MB; a correct free path keeps it flat.
  constexpr size_t kLarge = size_t{4} << 20;
  for (int i = 0; i < 4; ++i) {  // warm-up: allocator/registry internals
    arena::Deallocate(arena::Allocate(kLarge), kLarge);
  }
  size_t before = VmSizeBytes();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 64; ++i) {  // cycles through every coloring slot twice
    void* p = arena::Allocate(kLarge);
    std::memset(p, 1, kLarge);
    arena::Deallocate(p, kLarge);
  }
  size_t after = VmSizeBytes();
  EXPECT_LT(after, before + (size_t{64} << 20));
}
#endif  // __linux__

TEST(ArenaAllocTest, ThresholdChangeBetweenAllocAndFreeIsSafe) {
  // Deallocate routes by registry membership, not by re-applying the
  // current threshold — so blocks survive a threshold change between
  // allocate and free in either direction.
  const size_t kDefault = arena::LargeThresholdBytes();

  // Allocated small (heap path), freed while the threshold says "large".
  void* heap_block = arena::Allocate(256 << 10);
  EXPECT_FALSE(arena::IsLargeBlock(heap_block));
  {
    ScopedThreshold tiny(64 << 10);
    // Allocated large under the tiny threshold...
    void* mapped_block = arena::Allocate(256 << 10);
    EXPECT_TRUE(arena::IsLargeBlock(mapped_block));
    arena::Deallocate(heap_block, 256 << 10);  // small path, by registry
    // ...freed after the threshold went back up.
    arena::SetLargeThresholdBytes(kDefault);
    arena::Deallocate(mapped_block, 256 << 10);  // mmap path, by registry
  }
  EXPECT_EQ(arena::LargeThresholdBytes(), kDefault);
}

TEST(ArenaAllocTest, ColVecGrowsAcrossTheThresholdBoundary) {
  // A ColVec that grows from below to above the threshold exercises
  // allocate-small / reallocate-large / free-both sequencing.
  ScopedThreshold tiny(64 << 10);
  ColVec<uint32_t> v;
  for (uint32_t i = 0; i < (1u << 16); ++i) v.push_back(i);  // 256 KB data
  ASSERT_TRUE(arena::IsLargeBlock(v.data()));
  for (uint32_t i = 0; i < (1u << 16); ++i) ASSERT_EQ(v[i], i);
  ColVec<uint32_t> moved = std::move(v);  // is_always_equal: pointer moves
  EXPECT_EQ(moved.size(), 1u << 16);
  EXPECT_EQ(moved[12345], 12345u);
}

// --- byte-identity of arena-backed execution ---------------------------------

RowStore MakeFact(size_t n) {
  auto rs = RowStore::Make({{"k", FieldType::kU32},
                            {"g", FieldType::kU32},
                            {"v", FieldType::kU32}},
                           n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i % (n / 2)));
    rs->SetU32(r, 1, static_cast<uint32_t>(i % 16));
    rs->SetU32(r, 2, static_cast<uint32_t>((i * 2654435761u) % 1000));
  }
  return *std::move(rs);
}

Table MakeDim(size_t n) {
  auto rs = RowStore::Make(
      {{"id", FieldType::kU32}, {"w", FieldType::kU32}}, n);
  CCDB_CHECK(rs.ok());
  for (size_t i = 0; i < n; ++i) {
    size_t r = *rs->AppendRow();
    rs->SetU32(r, 0, static_cast<uint32_t>(i));
    rs->SetU32(r, 1, static_cast<uint32_t>(i % 5));
  }
  return *Table::FromRowStore(*rs);
}

TEST(ArenaExecTest, ArenaBackedQueryIsByteIdenticalAcrossParallelism) {
  constexpr size_t kRows = 60000;
  // Mmap-backed run: a 64 KB threshold drives every column and every
  // radix/join scratch buffer of this query through the mmap path.
  RowStore fact_rows = MakeFact(kRows);
  Table dim = MakeDim(kRows / 2);
  auto run = [&](Table& fact, size_t par) {
    auto plan = QueryBuilder(fact)
                    .Filter(Between(Col("v"), 100u, 499u))
                    .Join(dim, "k", "id")
                    .Project({"k", "g", "w"})
                    .Build();
    CCDB_CHECK(plan.ok());
    PlannerOptions opts;
    opts.exec.scan_chunk_rows = 8192;
    opts.exec.parallelism = par;
    auto r = Execute(*plan, opts);
    CCDB_CHECK(r.ok());
    return *std::move(r);
  };

  QueryResult baseline;  // heap-path columns, serial
  {
    ScopedThreshold huge(size_t{1} << 40);  // nothing takes the mmap path
    Table fact = *Table::FromRowStore(fact_rows);
    baseline = run(fact, 1);
  }
  ASSERT_GT(baseline.num_rows(), 0u);

  {
    ScopedThreshold tiny(64 << 10);  // everything takes the mmap path
    Table fact = *Table::FromRowStore(fact_rows);
    for (size_t par : {1u, 2u, 8u}) {
      QueryResult got = run(fact, par);
      ASSERT_EQ(got.num_rows(), baseline.num_rows()) << "par " << par;
      ASSERT_EQ(got.num_columns(), baseline.num_columns());
      for (size_t c = 0; c < baseline.num_columns(); ++c) {
        EXPECT_EQ(got.columns[c].u32_values, baseline.columns[c].u32_values)
            << "par " << par << " col " << baseline.columns[c].name;
      }
    }
  }
}

}  // namespace
}  // namespace ccdb
