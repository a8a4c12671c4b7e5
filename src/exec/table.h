// Table: a vertically decomposed relational table with automatic
// byte-encoding of low-cardinality string columns — the storage design of
// §3.1 / Fig. 4. Every column is a BAT with a void (virtual OID) head;
// string columns whose domain fits 1-2 bytes are stored as their code
// column plus a dictionary, and selections on them (SelectOp,
// exec/operator.h) are *remapped to codes* rather than decoding tuples.
#ifndef CCDB_EXEC_TABLE_H_
#define CCDB_EXEC_TABLE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/dsm.h"
#include "bat/encoding.h"
#include "exec/schema.h"
#include "model/stats.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace ccdb {

class Table {
 public:
  /// Decomposes `rows` into BATs; when `auto_encode` is set, string columns
  /// with domain cardinality <= 65536 are byte-encoded. This is AppendRows'
  /// column-wise append onto an empty table, whose columns adopt the
  /// decomposed ones without copying them.
  static StatusOr<Table> FromRowStore(const RowStore& rows,
                                      bool auto_encode = true);

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return schema_.num_fields(); }

  /// The stored BAT of column `i`: for encoded string columns this is the
  /// code column (kU8/kU16), otherwise the raw value column.
  const Bat& column_bat(size_t i) const { return bats_[i]; }
  bool is_encoded(size_t i) const { return dicts_[i].has_value(); }
  const StrDictionary& dict(size_t i) const { return *dicts_[i]; }

  /// Bytes stored per tuple of column `i` (the scan stride for that column).
  size_t column_value_bytes(size_t i) const;

  /// Total heap bytes across all columns; contrast with
  /// schema().record_width() * num_rows() for the NSM footprint.
  size_t MemoryBytes() const;

  // --- statistics (model/stats.h) ------------------------------------------

  /// Per-column statistics, computed lazily on first use (one scan of the
  /// column) and cached; AppendRows invalidates the cache. Thread-safe:
  /// concurrent planners may ask for stats on a shared table.
  StatusOr<ColumnStats> stats(size_t i) const;
  StatusOr<ColumnStats> stats(const std::string& col) const;

  /// Appends `extra` rows (same schema, by name and type) and invalidates
  /// the cached statistics. Column by column: only `extra` is decomposed,
  /// and each new column holds the old values followed by the batch's. An
  /// encoded column interns the batch into a copy of its dictionary, so old
  /// codes stay valid (widening and overflow: DictAppend); a raw string
  /// column stays raw. The result equals FromRowStore over all rows (with
  /// this table's `auto_encode`). All-or-nothing: on error the table is
  /// unchanged. The new columns replace the old BATs, so plans holding lazy
  /// references into them must not be executing concurrently.
  Status AppendRows(const RowStore& extra);

  /// Monotonic ingest counter, bumped by every AppendRows. It lives in the
  /// (address-stable) stats cache, so a reader holding the table pointer
  /// observes the bump even across the append — this is the invalidation
  /// signal the serving layer's plan cache keys on. Copies restart at 0
  /// (they also get a fresh stats cache).
  uint64_t data_version() const {
    return stats_->data_version.load(std::memory_order_acquire);
  }

  /// A token that expires when this table is destroyed (it aliases the
  /// address-stable stats cache). Holders of raw `const Table*` — the plan
  /// cache, the shared-scan registry — use it to *assert* the documented
  /// lifetime contract (tables outlive the Server) in debug builds instead
  /// of silently dereferencing a dangling pointer. Best-effort: moving a
  /// table transfers the cache, so a moved-from table's token expires only
  /// when the destination dies.
  std::weak_ptr<const void> liveness() const { return stats_; }

  /// Materializes string values of column `i` for the given OIDs
  /// (decoding via the dictionary when encoded) — the projection path.
  StatusOr<std::vector<std::string>> GatherStr(
      size_t i, std::span<const oid_t> oids) const;

  // Copies get a fresh (empty) stats cache — a copied-then-appended table
  // must never publish its stats through the original's cache. Moves
  // transfer the cache.
  Table() = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  Table(const Table& o)
      : schema_(o.schema_),
        rows_(o.rows_),
        bats_(o.bats_),
        dicts_(o.dicts_) {}
  Table& operator=(const Table& o) {
    if (this != &o) {
      schema_ = o.schema_;
      rows_ = o.rows_;
      bats_ = o.bats_;
      dicts_ = o.dicts_;
      stats_ = std::make_shared<StatsCache>();
    }
    return *this;
  }

 private:
  /// Lazily filled per-column stats, shared_ptr so the table stays movable;
  /// all access goes through the mutex. The object is address-stable for
  /// the table's lifetime: AppendRows clears `cols` in place (holding `mu`
  /// for its whole append, which also serializes it against concurrent
  /// lazy fills reading the old BATs) rather than swapping in a fresh
  /// cache, so a stats() call blocked on `mu` never dereferences a
  /// destroyed cache.
  struct StatsCache {
    Mutex mu;
    std::vector<std::optional<ColumnStats>> cols CCDB_GUARDED_BY(mu);
    /// Atomic, not guarded: data_version() reads it lock-free while
    /// AppendRows may be mid-append under `mu`.
    std::atomic<uint64_t> data_version{0};
  };

  TableSchema schema_;
  size_t rows_ = 0;
  std::vector<Bat> bats_;
  std::vector<std::optional<StrDictionary>> dicts_;
  std::shared_ptr<StatsCache> stats_ = std::make_shared<StatsCache>();

  StatusOr<size_t> Col(const std::string& name) const {
    return schema_.FieldIndex(name);
  }

  /// The column-wise append behind FromRowStore and AppendRows: builds
  /// every new column, then swaps them all in (or none, on error).
  /// Pre: `more` has this table's fields.
  Status AppendColumns(const RowStore& more);

  /// The lazy fill behind both stats() overloads.
  StatusOr<ColumnStats> StatsLocked(size_t i) const CCDB_REQUIRES(stats_->mu);
};

}  // namespace ccdb

#endif  // CCDB_EXEC_TABLE_H_
