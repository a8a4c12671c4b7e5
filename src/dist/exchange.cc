#include "dist/exchange.h"

#include <bit>
#include <chrono>
#include <optional>
#include <span>
#include <string>

#include "dist/wire.h"
#include "util/hash.h"

namespace ccdb {

namespace {

/// Wait slice between ScheduleContext polls in the merge loop — same
/// cadence as the channel waits.
constexpr std::chrono::milliseconds kMergeWait{2};

// A routing key's hash: fixed-width keys mix their bit pattern (integers
// widened to 64 bits), strings hash their bytes.
uint64_t RouteHash(uint32_t k) { return SplitMix64(k); }
uint64_t RouteHash(int64_t k) { return SplitMix64(static_cast<uint64_t>(k)); }
uint64_t RouteHash(double k) { return SplitMix64(std::bit_cast<uint64_t>(k)); }
uint64_t RouteHash(const std::string& k) { return Fnv1a(k); }

/// Per-row partition ids for hash routing; handles every wire-visible key
/// type so group-by exchanges can route on string keys too.
StatusOr<std::vector<uint32_t>> RowPartitions(const Chunk& chunk,
                                              size_t key_idx, size_t n) {
  return VisitValueType(
      chunk.TypeOf(key_idx), Status::Internal("unroutable exchange key type"),
      [&]<typename T>(std::type_identity<T>)
          -> StatusOr<std::vector<uint32_t>> {
        CCDB_ASSIGN_OR_RETURN(std::vector<T> keys, chunk.Gather<T>(key_idx));
        std::vector<uint32_t> out(keys.size());
        for (size_t i = 0; i < keys.size(); ++i) {
          out[i] = static_cast<uint32_t>(RouteHash(keys[i]) % n);
        }
        return out;
      });
}

}  // namespace

ExchangeMergeOp::ExchangeMergeOp(std::vector<ExchangeInputSpec> inputs,
                                 FragmentFactory fragment_factory,
                                 ExchangeOptions options,
                                 const ExecContext* ctx,
                                 ExchangeNodeInfo* info)
    : inputs_(std::move(inputs)),
      fragment_factory_(std::move(fragment_factory)),
      options_(std::move(options)),
      ctx_(ctx),
      info_(info) {
  if (options_.partitions == 0) options_.partitions = 1;
}

ExchangeMergeOp::~ExchangeMergeOp() {
  if (open_ || !pumps_.empty()) Close();
}

Status ExchangeMergeOp::Open() {
  if (open_) return Status::FailedPrecondition("exchange already open");
  const size_t n = options_.partitions;

  // Producers open on the caller thread so failures surface synchronously,
  // before any thread exists.
  for (size_t i = 0; i < inputs_.size(); ++i) {
    Status st = inputs_[i].producer->Open();
    if (!st.ok()) {
      for (size_t j = 0; j < i; ++j) inputs_[j].producer->Close();
      return st;
    }
  }
  producers_open_ = true;

  workers_.clear();
  workers_.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    auto w = std::make_unique<WorkerContext>();
    w->partition = p;
    w->exec.pool = ctx_->pool;
    w->exec.parallelism =
        ctx_->parallelism > n ? ctx_->parallelism / n : size_t{1};
    w->exec.sched = ctx_->sched;
    w->exec.shared_scans = nullptr;
    w->exec.partitions = 1;
    std::vector<std::unique_ptr<Operator>> leaves;
    leaves.reserve(inputs_.size());
    for (const ExchangeInputSpec& in : inputs_) {
      std::unique_ptr<ChunkTransport> t;
      if (options_.serialize) {
        t = std::make_unique<SerializedChunkTransport>(
            options_.channel_capacity, ctx_->sched, in.count_bytes);
      } else {
        t = std::make_unique<InProcessChunkTransport>(
            options_.channel_capacity, ctx_->sched, in.count_bytes);
      }
      leaves.push_back(std::make_unique<ExchangePartitionOp>(t.get()));
      w->transports.push_back(std::move(t));
    }
    auto fragment = fragment_factory_(p, std::move(leaves), &w->exec);
    if (!fragment.ok()) {
      Close();
      return fragment.status();
    }
    w->fragment = *std::move(fragment);
    workers_.push_back(std::move(w));
  }

  {
    MutexLock lock(&collector_.mu);
    collector_.chunks.assign(n, {});
    collector_.done.assign(n, false);
    collector_.error = Status::Ok();
  }
  merge_partition_ = 0;
  open_ = true;

  pumps_.reserve(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    pumps_.emplace_back([this, i] { PumpInput(i); });
  }
  for (auto& w : workers_) {
    WorkerContext* wp = w.get();
    w->thread = std::thread([this, wp] { WorkerMain(wp); });
  }
  return Status::Ok();
}

void ExchangeMergeOp::PumpInput(size_t input_index) {
  ExchangeInputSpec& spec = inputs_[input_index];
  const size_t n = workers_.size();
  auto transport = [&](size_t p) -> ChunkTransport* {
    return workers_[p]->transports[input_index].get();
  };

  Status st = Status::Ok();
  bool sent_layout = false;
  size_t round_robin = 0;
  std::optional<size_t> key_idx;
  Chunk chunk;
  while (st.ok()) {
    if (ctx_->sched != nullptr) {
      st = ctx_->sched->Check();
      if (!st.ok()) break;
    }
    StatusOr<bool> more = spec.producer->Next(&chunk);
    if (!more.ok()) {
      st = more.status();
      break;
    }
    if (!*more) break;

    if (n == 1) {
      st = transport(0)->Send(std::move(chunk));
      continue;
    }
    // Every partition's fragment must see at least one layout-bearing
    // chunk (the operator contract) even when no rows route to it: seed
    // each edge with a zero-row projection of the first chunk.
    if (!sent_layout && spec.routing != ExchangeRouting::kBroadcast) {
      StatusOr<Chunk> layout = chunk.Take(std::span<const uint32_t>{});
      if (!layout.ok()) {
        st = layout.status();
        break;
      }
      for (size_t p = 0; p < n && st.ok(); ++p) {
        Chunk copy = *layout;
        st = transport(p)->Send(std::move(copy));
      }
      sent_layout = true;
      if (!st.ok()) break;
    }

    switch (spec.routing) {
      case ExchangeRouting::kHash: {
        if (!key_idx.has_value()) {
          StatusOr<size_t> idx = chunk.Find(spec.key_column);
          if (!idx.ok()) {
            st = idx.status();
            break;
          }
          key_idx = *idx;
        }
        if (chunk.rows == 0) break;
        StatusOr<std::vector<uint32_t>> pids =
            RowPartitions(chunk, *key_idx, n);
        if (!pids.ok()) {
          st = pids.status();
          break;
        }
        std::vector<std::vector<uint32_t>> positions(n);
        for (size_t r = 0; r < pids->size(); ++r) {
          positions[(*pids)[r]].push_back(static_cast<uint32_t>(r));
        }
        for (size_t p = 0; p < n && st.ok(); ++p) {
          if (positions[p].empty()) continue;
          StatusOr<Chunk> part = chunk.Take(positions[p]);
          if (!part.ok()) {
            st = part.status();
            break;
          }
          st = transport(p)->Send(*std::move(part));
        }
        break;
      }
      case ExchangeRouting::kBroadcast: {
        for (size_t p = 0; p + 1 < n && st.ok(); ++p) {
          Chunk copy = chunk;
          st = transport(p)->Send(std::move(copy));
        }
        if (st.ok()) st = transport(n - 1)->Send(std::move(chunk));
        break;
      }
      case ExchangeRouting::kForward: {
        st = transport(round_robin % n)->Send(std::move(chunk));
        ++round_robin;
        break;
      }
    }
  }

  if (st.ok()) {
    for (size_t p = 0; p < n; ++p) transport(p)->CloseSend();
  } else {
    {
      MutexLock lock(&collector_.mu);
      if (collector_.error.ok()) collector_.error = st;
      collector_.cv.NotifyAll();
    }
    AbortTransports();
  }
}

void ExchangeMergeOp::WorkerMain(WorkerContext* worker) {
  Status st = worker->fragment->Open();
  if (st.ok()) {
    Chunk chunk;
    while (true) {
      if (ctx_->sched != nullptr) {
        st = ctx_->sched->Check();
        if (!st.ok()) break;
      }
      StatusOr<bool> more = worker->fragment->Next(&chunk);
      if (!more.ok()) {
        st = more.status();
        break;
      }
      if (!*more) break;
      MutexLock lock(&collector_.mu);
      collector_.chunks[worker->partition].push_back(std::move(chunk));
      collector_.cv.NotifyAll();
    }
  }
  worker->fragment->Close();
  {
    MutexLock lock(&collector_.mu);
    if (!st.ok() && collector_.error.ok()) collector_.error = st;
    collector_.done[worker->partition] = true;
    collector_.cv.NotifyAll();
  }
  // A failed fragment stops consuming: unblock the pumps (and, through
  // them, sibling fragments) instead of leaving a producer stuck on this
  // partition's full channel.
  if (!st.ok()) AbortTransports();
}

StatusOr<bool> ExchangeMergeOp::Next(Chunk* out) {
  if (!open_) return Status::FailedPrecondition("exchange not open");
  MutexLock lock(&collector_.mu);
  while (true) {
    if (!collector_.error.ok()) return collector_.error;
    if (merge_partition_ >= workers_.size()) return false;
    std::deque<Chunk>& q = collector_.chunks[merge_partition_];
    if (!q.empty()) {
      *out = std::move(q.front());
      q.pop_front();
      return true;
    }
    if (collector_.done[merge_partition_]) {
      ++merge_partition_;
      continue;
    }
    if (ctx_->sched != nullptr) CCDB_RETURN_IF_ERROR(ctx_->sched->Check());
    collector_.cv.WaitFor(&collector_.mu, kMergeWait);
  }
}

void ExchangeMergeOp::AbortTransports() {
  for (auto& w : workers_) {
    for (auto& t : w->transports) t->Abort();
  }
}

void ExchangeMergeOp::JoinThreads() {
  for (std::thread& t : pumps_) {
    if (t.joinable()) t.join();
  }
  pumps_.clear();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

void ExchangeMergeOp::Close() {
  AbortTransports();
  JoinThreads();
  if (producers_open_) {
    for (ExchangeInputSpec& in : inputs_) in.producer->Close();
    producers_open_ = false;
  }
  if (info_ != nullptr) {
    uint64_t bytes = 0;
    for (const auto& w : workers_) {
      for (const auto& t : w->transports) bytes += t->bytes_moved();
    }
    info_->measured_transfer_bytes = bytes;
  }
  if (options_.on_close) {
    options_.on_close();
    options_.on_close = nullptr;  // fold once, even if Close runs twice
  }
  open_ = false;
}

}  // namespace ccdb
