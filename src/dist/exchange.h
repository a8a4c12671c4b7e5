// Exchange operator pair: scale-out execution over shared-nothing worker
// partitions, in-process today, cross-process tomorrow (dist/wire.h).
//
// ExchangeMergeOp is the plan-visible operator. Open() splits the plan at
// this point into:
//
//            ExchangeMergeOp            (caller thread: deterministic merge)
//              |        |
//     WorkerContext 0 .. N-1            (one thread each: fragment over
//       fragment op tree                 partition-local state)
//         ExchangePartitionOp leaves    (pop from this partition's channels)
//              |  bounded ChunkChannel per (input, partition) edge
//       producer pump threads           (one per input: route chunks)
//         producer operator subtrees
//
// Each WorkerContext is shared-nothing: its own ExecContext (drawing morsel
// workers from the shared ThreadPool at parallelism/N), its own input
// channels, and partition-local output staging — no state is shared between
// fragments except the transports. Producer chunks are routed by hash of
// the key column (repartition), replicated (broadcast), or forwarded
// round-robin zero-copy (the broadcast join's probe side). A hash route
// gathers the key at its value type (VisitValueType, exec/operator.h) and
// sends row r to partition hash % N: splitmix64 of a u32, i64 or f64 key's
// bits (integers widened to 64), FNV-1a of a string key's bytes
// (util/hash.h), so equal keys colocate whatever their storage encoding.
//
// Determinism: the merge emits partition-major — all of partition 0's
// chunks in production order, then partition 1's, ... — so a plan's output
// is a pure function of (plan, partitions), independent of thread timing.
// With partitions == 1 the planner inserts no exchange at all, keeping the
// engine byte-identical to the single-context executor.
//
// Cancellation: every blocking edge (channel Push/Pop, the merge wait)
// polls ScheduleContext::Check() each wait slice, so cancelled or
// past-deadline queries unwind cleanly: pumps stop, workers close their
// fragments, Close() joins every thread.
#ifndef CCDB_DIST_EXCHANGE_H_
#define CCDB_DIST_EXCHANGE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/chunk_channel.h"
#include "exec/exec_context.h"
#include "exec/operator.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ccdb {

/// Planner-visible record of one exchange node: the chosen strategy, the
/// transfer-term estimate, and the measured bytes folded back at Close() —
/// the same predict-then-verify contract as JoinNodeInfo, surfaced by
/// PhysicalPlan::ExplainCosts() as "xfer pred/meas".
struct ExchangeNodeInfo {
  ExchangeStrategy strategy = ExchangeStrategy::kRepartition;
  size_t partitions = 1;
  /// Estimated payload bytes the chosen strategy moves (repartition:
  /// both inputs once; broadcast: N x the replicated side, forwarded side
  /// free) and the transfer term they price to.
  double predicted_transfer_bytes = 0;
  double predicted_transfer_ns = 0;
  /// Bytes that actually crossed the counting transports.
  uint64_t measured_transfer_bytes = 0;
  /// Competing estimates the decision compared (ExplainCosts shows the
  /// margin): repartition-vs-broadcast transfer bytes.
  double repartition_bytes = 0;
  double broadcast_bytes = 0;
  /// OpCostInfo slot carrying this exchange's transfer term.
  int cost_index = -1;
};

/// How one exchange input's chunks are routed across partitions.
enum class ExchangeRouting : uint8_t {
  kHash,       ///< by hash of `key_column` — equal keys colocate
  kBroadcast,  ///< every partition receives every chunk (copied)
  kForward,    ///< whole chunks round-robin, zero-copy (priced at 0 bytes)
};

/// One producer feeding the exchange.
struct ExchangeInputSpec {
  std::unique_ptr<Operator> producer;
  ExchangeRouting routing = ExchangeRouting::kHash;
  std::string key_column;   ///< routing key for kHash
  bool count_bytes = true;  ///< false for forwarded (zero-copy) edges
};

/// Builds one partition's fragment operator tree over its input leaves
/// (`inputs[i]` pops from input i's channel for this partition). Called on
/// the Open() thread, once per partition, before any worker starts.
using FragmentFactory = std::function<StatusOr<std::unique_ptr<Operator>>(
    size_t partition, std::vector<std::unique_ptr<Operator>> inputs,
    const ExecContext* worker_ctx)>;

struct ExchangeOptions {
  size_t partitions = 2;
  /// Chunks buffered per channel edge; bounds producer run-ahead.
  size_t channel_capacity = 4;
  /// Round-trip every chunk through the wire format (SerializedChunkTransport).
  bool serialize = false;
  /// Runs once in Close() after all worker threads have joined — the hook
  /// the planner uses to fold per-worker JoinNodeInfo actuals into the
  /// plan-visible record.
  std::function<void()> on_close;
};

/// Worker-side leaf: emits the chunks routed to one partition. Lives in a
/// fragment tree, reading from a borrowed transport owned by the
/// ExchangeMergeOp that built it.
class ExchangePartitionOp : public Operator {
 public:
  explicit ExchangePartitionOp(ChunkTransport* transport)
      : transport_(transport) {}

  Status Open() override { return Status::Ok(); }
  StatusOr<bool> Next(Chunk* out) override { return transport_->Recv(out); }
  void Close() override {}

 private:
  ChunkTransport* const transport_;
};

/// One shared-nothing partition: its own ExecContext on the shared pool,
/// its own input transports, its own fragment — the in-process stand-in
/// for a remote worker process.
struct WorkerContext {
  size_t partition = 0;
  ExecContext exec;
  /// transports[i] carries input i's chunks for this partition (owned
  /// here: this is the partition-local half of each edge).
  std::vector<std::unique_ptr<ChunkTransport>> transports;
  std::unique_ptr<Operator> fragment;
  std::thread thread;
};

/// The plan-visible exchange operator (see file comment for the shape).
class ExchangeMergeOp : public Operator {
 public:
  /// `ctx` (borrowed) is the plan's context; `info` (borrowed, nullable)
  /// receives measured transfer bytes at Close().
  ExchangeMergeOp(std::vector<ExchangeInputSpec> inputs,
                  FragmentFactory fragment_factory, ExchangeOptions options,
                  const ExecContext* ctx, ExchangeNodeInfo* info);
  ~ExchangeMergeOp() override;

  Status Open() override;
  StatusOr<bool> Next(Chunk* out) override;
  void Close() override;

 private:
  /// Fan-in point for worker output. Workers append to their own partition
  /// deque; the merge drains in partition-major order. Unbounded by design:
  /// backpressure lives on the bounded input channels, and what queues here
  /// is (at most) the result the caller is about to materialize anyway —
  /// bounding it would let a stalled partition-0 worker wedge partitions
  /// 1..N-1 behind full queues.
  struct Collector {
    Mutex mu;
    CondVar cv;
    std::vector<std::deque<Chunk>> chunks CCDB_GUARDED_BY(mu);
    std::vector<bool> done CCDB_GUARDED_BY(mu);
    Status error CCDB_GUARDED_BY(mu) = Status::Ok();  // first failure wins
  };

  void PumpInput(size_t input_index);
  void WorkerMain(WorkerContext* worker);
  void AbortTransports();
  void JoinThreads();

  std::vector<ExchangeInputSpec> inputs_;
  FragmentFactory fragment_factory_;
  ExchangeOptions options_;
  const ExecContext* const ctx_;
  ExchangeNodeInfo* const info_;

  std::vector<std::unique_ptr<WorkerContext>> workers_;
  std::vector<std::thread> pumps_;
  Collector collector_;
  size_t merge_partition_ = 0;  ///< partition the merge is draining
  bool open_ = false;
  bool producers_open_ = false;
};

}  // namespace ccdb

#endif  // CCDB_DIST_EXCHANGE_H_
