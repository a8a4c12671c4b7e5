// Decomposed Storage Model [CK85]: a k-attribute relational table becomes k
// BATs with a shared (virtual) OID head (§3.1, Fig. 4). Decompose() turns a
// RowStore into its vertical fragments; Reconstruct* invert the mapping via
// positional lookup — the "tuple-reconstruction joins" that Monet gets for
// free on void OID columns.
#ifndef CCDB_BAT_DSM_H_
#define CCDB_BAT_DSM_H_

#include <string>
#include <vector>

#include "bat/bat.h"
#include "bat/nsm.h"
#include "util/status.h"

namespace ccdb {

/// Field `f` of every row of `rows` as one column: kU8/kU16/kU32/kI64/kF64
/// values, or kStr for the char fields (trailing NULs dropped).
Column DecomposeField(const RowStore& rows, size_t f);

/// A vertically decomposed table: one BAT per attribute, all with void heads
/// over the same OID range.
class DecomposedTable {
 public:
  /// Vertical decomposition of `rows`: column j of the result holds
  /// [void OID, value of field j].
  static StatusOr<DecomposedTable> Decompose(const RowStore& rows);

  size_t num_columns() const { return bats_.size(); }
  size_t num_rows() const {
    return bats_.empty() ? 0 : bats_.front().size();
  }
  const Bat& column(size_t i) const { return bats_[i]; }
  const std::string& column_name(size_t i) const { return names_[i]; }
  const FieldDef& field(size_t i) const { return fields_[i]; }
  StatusOr<size_t> ColumnIndex(const std::string& name) const;

  /// Writes tuple `oid` back into row `row` of `out` (which must have the
  /// same schema). This is the projection/tuple-reconstruction path: one
  /// positional (void) lookup per attribute, no join needed.
  Status ReconstructRow(oid_t oid, RowStore* out, size_t row) const;

  /// Rebuilds a full RowStore; round-trips with Decompose().
  StatusOr<RowStore> Reconstruct() const;

  /// Sum of column memory; compare against RowStore footprint to see the
  /// §3.1 stride reduction.
  size_t MemoryBytes() const;

 private:
  std::vector<std::string> names_;
  std::vector<FieldDef> fields_;
  std::vector<Bat> bats_;
};

}  // namespace ccdb

#endif  // CCDB_BAT_DSM_H_
