// Length-prefixed wire format for BAT chunks — the seed for cross-process
// exchange workers. SerializeChunk materializes a chunk (lazy columns are
// gathered through their candidate lists) into one self-describing frame;
// DeserializeChunk rebuilds an owned-column chunk that flows through every
// downstream operator exactly like an in-process one.
//
// Frame layout (host-endian; a cross-machine transport would pin
// little-endian at the socket boundary):
//   u32 magic 'CCXF' | u32 rows | u32 ncols
//   per column: u32 name_len | name bytes | u8 type tag | payload
//     kU32: rows x u32        kI64: rows x i64        kF64: rows x f64
//     kStr: u64 arena_len | (rows+1) x u32 offsets | arena bytes
// The type tag is Chunk::TypeOf's value type, one of {kU32, kI64, kF64,
// kStr} (narrow integrals read as u32, dictionary-encoded strings decode
// to kStr); each column is gathered and rebuilt at that type through
// VisitValueType (exec/operator.h), so a round-tripped chunk materializes
// to identical bytes and serializes to the same frame.
//
// Known limit of the decode-on-the-wire choice: GroupByAggOp and OrderByOp
// consume encoded string columns by their integer dictionary codes, which
// a deserialized chunk no longer carries — a serialized exchange therefore
// cannot sit between a scan and a group/order on an encoded string column.
// Cross-process workers need dictionary-carrying frames (ship codes + the
// dict once per column) before that shape works; see ROADMAP.md.
#ifndef CCDB_DIST_WIRE_H_
#define CCDB_DIST_WIRE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "dist/chunk_channel.h"
#include "exec/operator.h"
#include "util/status.h"

namespace ccdb {

/// Serializes `chunk` into one wire frame.
StatusOr<std::vector<uint8_t>> SerializeChunk(const Chunk& chunk);

/// Inverse of SerializeChunk: rebuilds the chunk with owned columns.
StatusOr<Chunk> DeserializeChunk(const std::vector<uint8_t>& frame);

/// Exchange transport that round-trips every chunk through the wire format
/// over a bounded frame channel: the rehearsal mode for cross-process
/// workers (ExecOptions::serialize_exchange). bytes_moved() counts true
/// frame bytes, so measured transfer reflects real serialized volume.
class SerializedChunkTransport : public ChunkTransport {
 public:
  SerializedChunkTransport(size_t capacity, const ScheduleContext* sched,
                           bool count_bytes)
      : channel_(capacity, sched), count_bytes_(count_bytes) {}

  Status Send(Chunk chunk) override;
  StatusOr<bool> Recv(Chunk* out) override;
  void CloseSend() override { channel_.CloseSender(); }
  void Abort() override { channel_.Abort(); }
  uint64_t bytes_moved() const override {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  dist_internal::BoundedChannel<std::vector<uint8_t>> channel_;
  const bool count_bytes_;
  std::atomic<uint64_t> bytes_{0};
};

}  // namespace ccdb

#endif  // CCDB_DIST_WIRE_H_
