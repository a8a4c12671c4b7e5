// Ablation (§2's discussion of [Mow94]): software prefetching to hide
// memory latency behind CPU work. The paper argued its effectiveness is
// "limited due to the fact that the amount of CPU work per memory access
// tends to be small in database operations" (4 cycles in their scan).
// This bench measures probe-stream prefetching on the non-partitioned hash
// join across prefetch distances — and contrasts it with the paper's
// preferred cure, radix partitioning, which removes the misses instead of
// hiding them. Every distance must return exactly the output of
// JoinRelations(JoinShape{}), the engine's B = 0 join. It then times the
// positional probe (ProbeSlots, §3.1) over a 2 MiB head array without and
// with its look-ahead, and checks that both write the same position lists.
#include "bench_common.h"

#include "algo/join.h"
#include "model/cost_model.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace ccdb {
namespace {

using bench::BenchEnv;

// JoinOp's two position lists, written as its match sink writes them:
// match k is lpos[k] (probe position) and rpos[k] (build head), stored
// unconditionally, one slot per probe row.
struct Positions {
  std::vector<uint32_t> lpos, rpos;
  size_t filled = 0;

  void push_back_if(Bun b, bool keep) {
    lpos[filled] = b.head;
    rpos[filled] = b.tail;
    filled += keep;
  }
};

// The B = 0 hash join (JoinShape{}) with software prefetching on the probe
// stream, [Mow94]'s latency hiding: builds one table over `r`, then runs
// ProbeHashTable's step over `l`, first prefetching the bucket offsets that
// tuple i + distance will read. At distance 0 this is the engine's loop.
std::vector<Bun> PrefetchingHashJoin(std::span<const Bun> l,
                                     std::span<const Bun> r, size_t distance) {
  DirectMemory mem;
  BucketChainedHashTable<DirectMemory> table(r, /*shift=*/0,
                                             kDefaultChainLength, mem);
  const auto v = table.view();
  std::vector<Bun> out;
  out.reserve(std::min(l.size(), r.size()));
  for (size_t i = 0; i < l.size(); ++i) {
    if (distance > 0 && i + distance < l.size()) {
      __builtin_prefetch(&v.off[v.Bucket(l[i + distance].tail)]);
    }
    Bun lt = l[i];
    v.Probe(lt.tail, mem, [&](Bun rt, bool keep) {
      EmitResultIf(out, Bun{lt.head, rt.head}, keep, mem);
    });
  }
  return out;
}

// ProbeSlots looking `kLookAhead` tuples ahead over `keys`; returns the best
// of three runs in ms and leaves the matches in `out`.
template <size_t kLookAhead>
double TimeProbeSlots(const std::vector<uint32_t>& slots, KeyDomain domain,
                      const std::vector<uint32_t>& keys, Positions* out) {
  const KeyColumn<uint32_t, false> probe{keys.data(), nullptr, keys.size()};
  DirectMemory mem;
  out->lpos.resize(keys.size());
  out->rpos.resize(keys.size());
  double ms = MinTimeMillis(3, [&] {
    out->filled = 0;
    ProbeSlots<kLookAhead>(slots.data(), domain, probe, mem, *out);
  });
  out->lpos.resize(out->filled);
  out->rpos.resize(out->filled);
  return ms;
}

int Run(int argc, char** argv) {
  BenchEnv env = BenchEnv::FromArgs(argc, argv);
  env.PrintHeader("Ablation", "software prefetch vs radix partitioning");

  const size_t kC = env.full ? (8u << 20) : (2u << 20);
  auto [l, r] = bench::JoinPair(kC, 61);
  DirectMemory direct;

  auto engine = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                              JoinShape{}, direct);
  CCDB_CHECK(engine.ok() && engine->size() == kC);
  TablePrinter table({"variant", "ms", "speedup_vs_baseline"});
  double baseline_ms = 0;
  for (size_t distance : {0u, 1u, 2u, 4u, 8u, 16u, 32u}) {
    std::vector<Bun> out;
    double ms = MinTimeMillis(
        3, [&] { out = PrefetchingHashJoin(l, r, distance); });
    CCDB_CHECK(out == *engine);
    if (distance == 0) baseline_ms = ms;
    char name[40];
    std::snprintf(name, sizeof(name), "simple hash, prefetch d=%zu", distance);
    table.AddRow({name, TablePrinter::Fmt(ms, 1),
                  TablePrinter::Fmt(baseline_ms / ms, 2)});
  }

  // The cache-conscious alternative: don't hide the misses, remove them.
  CostModel model(env.profile);
  int bits = model.BestPhashBits(kC);
  double phash_ms = MinTimeMillis(3, [&] {
    auto out = JoinRelations(std::span<const Bun>(l), std::span<const Bun>(r),
                             {.kernel = JoinKernel::kHash,
                              .bits = bits,
                              .passes = model.OptimalPasses(bits)},
                             direct);
    CCDB_CHECK(out.ok() && out->size() == kC);
  });
  char name[40];
  std::snprintf(name, sizeof(name), "partitioned hash (B=%d)", bits);
  table.AddRow({name, TablePrinter::Fmt(phash_ms, 1),
                TablePrinter::Fmt(baseline_ms / phash_ms, 2)});
  table.Print(stdout);

  // The positional probe: kC keys over a 2^19-key domain (a 2 MiB head
  // array, past the L2 of most hosts), a third of whose keys are built.
  constexpr uint32_t kDomain = 1u << 19;
  const KeyDomain domain{.key_min = 0, .key_range = kDomain};
  Rng rng(62);
  std::vector<uint32_t> slots(kDomain, kNoSlot);
  for (uint32_t key = 0; key < kDomain; ++key) {
    if (rng.NextBelow(3) == 0) slots[key] = key;
  }
  std::vector<uint32_t> keys(kC);
  for (uint32_t& k : keys) k = static_cast<uint32_t>(rng.NextBelow(kDomain));
  Positions plain, ahead;
  double plain_ms = TimeProbeSlots<0>(slots, domain, keys, &plain);
  double ahead_ms = TimeProbeSlots<kSlotLookAhead>(slots, domain, keys, &ahead);
  CCDB_CHECK(!plain.lpos.empty());
  CCDB_CHECK(plain.lpos == ahead.lpos && plain.rpos == ahead.rpos);
  TablePrinter positional({"variant", "ms", "speedup_vs_look_ahead_0"});
  positional.AddRow({"positional, look-ahead 0", TablePrinter::Fmt(plain_ms, 1),
                     TablePrinter::Fmt(1.0, 2)});
  char ahead_name[40];
  std::snprintf(ahead_name, sizeof(ahead_name), "positional, look-ahead %zu",
                kSlotLookAhead);
  positional.AddRow({ahead_name, TablePrinter::Fmt(ahead_ms, 1),
                     TablePrinter::Fmt(plain_ms / ahead_ms, 2)});
  std::printf("\n");
  positional.Print(stdout);

  std::printf(
      "\nExpected, hash: prefetching the bucket offsets gains little and\n"
      "unreliably. At the default scale on a shared 4-core x86 host, seven\n"
      "runs measured 0.93x to 2.20x of d=0 (the engine's own loop), most\n"
      "rows 1.0-1.5x: there is little CPU work to hide latency behind, as\n"
      "the paper argued. Radix partitioning removes the misses instead and\n"
      "ran 1.2-2.3x faster.\n"
      "Expected, positional: the look-ahead pays. A positional probe is one\n"
      "independent load, so prefetching the slot 16 probes early overlaps\n"
      "the misses; on a shared 4-core x86 host it ran 2.7-3.7x faster, with\n"
      "the same matches in the same order.\n");
  return 0;
}

}  // namespace
}  // namespace ccdb

int main(int argc, char** argv) { return ccdb::Run(argc, argv); }
