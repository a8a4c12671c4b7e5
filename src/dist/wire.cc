#include "dist/wire.h"

#include <cstring>
#include <string>
#include <utility>

#include "bat/column.h"
#include "bat/types.h"

namespace ccdb {

namespace {

constexpr uint32_t kFrameMagic = 0x43435846;  // 'CCXF'

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

template <typename T>
void PutRaw(std::vector<uint8_t>* out, const T& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(&v);
  out->insert(out->end(), p, p + sizeof(T));
}

// A column's payload: fixed-width values as they are, strings as
// u64 arena_len | (rows+1) x u32 offsets | arena bytes.
template <typename T>
void PutValues(std::vector<uint8_t>* out, const std::vector<T>& v) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(v.data());
  out->insert(out->end(), p, p + v.size() * sizeof(T));
}

void PutValues(std::vector<uint8_t>* out, const std::vector<std::string>& v) {
  std::vector<uint32_t> offsets;
  offsets.reserve(v.size() + 1);
  uint64_t arena_len = 0;
  offsets.push_back(0);
  for (const std::string& s : v) {
    arena_len += s.size();
    offsets.push_back(static_cast<uint32_t>(arena_len));
  }
  PutRaw(out, arena_len);
  PutValues(out, offsets);
  for (const std::string& s : v) out->insert(out->end(), s.begin(), s.end());
}

/// Bounds-checked frame reader.
class FrameReader {
 public:
  explicit FrameReader(const std::vector<uint8_t>& frame) : frame_(frame) {}

  template <typename T>
  Status Read(T* out) {
    if (frame_.size() - pos_ < sizeof(T)) {
      return Status::InvalidArgument("wire frame truncated");
    }
    std::memcpy(out, frame_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::Ok();
  }

  /// `count` values as PutValues wrote them.
  template <typename T>
  Status ReadValues(size_t count, std::vector<T>* out) {
    if (count > (frame_.size() - pos_) / sizeof(T)) {
      return Status::InvalidArgument("wire frame truncated");
    }
    out->resize(count);
    // An empty vector's data() may be null, which memcpy must not get.
    if (count == 0) return Status::Ok();
    std::memcpy(out->data(), frame_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return Status::Ok();
  }

  Status ReadValues(size_t rows, std::vector<std::string>* out) {
    uint64_t arena_len = 0;
    CCDB_RETURN_IF_ERROR(Read(&arena_len));
    std::vector<uint32_t> offsets;
    CCDB_RETURN_IF_ERROR(ReadValues(rows + 1, &offsets));
    std::string arena;
    CCDB_RETURN_IF_ERROR(ReadString(arena_len, &arena));
    out->resize(rows);
    for (size_t i = 0; i < rows; ++i) {
      if (offsets[i] > offsets[i + 1] || offsets[i + 1] > arena.size()) {
        return Status::InvalidArgument("wire frame string offsets");
      }
      (*out)[i] = arena.substr(offsets[i], offsets[i + 1] - offsets[i]);
    }
    return Status::Ok();
  }

  Status ReadString(size_t len, std::string* out) {
    if (len > frame_.size() - pos_) {
      return Status::InvalidArgument("wire frame truncated");
    }
    out->assign(reinterpret_cast<const char*>(frame_.data() + pos_), len);
    pos_ += len;
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == frame_.size(); }

 private:
  const std::vector<uint8_t>& frame_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<std::vector<uint8_t>> SerializeChunk(const Chunk& chunk) {
  std::vector<uint8_t> out;
  PutRaw(&out, kFrameMagic);
  PutRaw(&out, static_cast<uint32_t>(chunk.rows));
  PutRaw(&out, static_cast<uint32_t>(chunk.cols.size()));
  for (size_t c = 0; c < chunk.cols.size(); ++c) {
    const std::string& name = chunk.cols[c].name;
    PutRaw(&out, static_cast<uint32_t>(name.size()));
    out.insert(out.end(), name.begin(), name.end());
    PhysType t = chunk.TypeOf(c);
    PutU8(&out, static_cast<uint8_t>(t));
    CCDB_RETURN_IF_ERROR(VisitValueType(
        t, Status::Internal("unexpected chunk column type on the wire"),
        [&]<typename T>(std::type_identity<T>) -> Status {
          CCDB_ASSIGN_OR_RETURN(std::vector<T> v, chunk.Gather<T>(c));
          PutValues(&out, v);
          return Status::Ok();
        }));
  }
  return out;
}

StatusOr<Chunk> DeserializeChunk(const std::vector<uint8_t>& frame) {
  FrameReader r(frame);
  uint32_t magic = 0;
  CCDB_RETURN_IF_ERROR(r.Read(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad wire frame magic");
  }
  uint32_t rows = 0, ncols = 0;
  CCDB_RETURN_IF_ERROR(r.Read(&rows));
  CCDB_RETURN_IF_ERROR(r.Read(&ncols));
  Chunk chunk;
  chunk.rows = rows;
  chunk.cols.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    uint32_t name_len = 0;
    CCDB_RETURN_IF_ERROR(r.Read(&name_len));
    ChunkColumn col;
    CCDB_RETURN_IF_ERROR(r.ReadString(name_len, &col.name));
    uint8_t tag = 0;
    CCDB_RETURN_IF_ERROR(r.Read(&tag));
    CCDB_RETURN_IF_ERROR(VisitValueType(
        static_cast<PhysType>(tag),
        Status::InvalidArgument("unknown wire column type tag"),
        [&]<typename T>(std::type_identity<T>) -> Status {
          std::vector<T> v;
          CCDB_RETURN_IF_ERROR(r.ReadValues(rows, &v));
          col.owned = OwnedColumn(v);
          return Status::Ok();
        }));
    chunk.cols.push_back(std::move(col));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in wire frame");
  }
  return chunk;
}

Status SerializedChunkTransport::Send(Chunk chunk) {
  CCDB_ASSIGN_OR_RETURN(std::vector<uint8_t> frame, SerializeChunk(chunk));
  if (count_bytes_) {
    bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  }
  return channel_.Push(std::move(frame));
}

StatusOr<bool> SerializedChunkTransport::Recv(Chunk* out) {
  std::vector<uint8_t> frame;
  CCDB_ASSIGN_OR_RETURN(bool more, channel_.Pop(&frame));
  if (!more) return false;
  CCDB_ASSIGN_OR_RETURN(*out, DeserializeChunk(frame));
  return true;
}

}  // namespace ccdb
