// Byte-encodings (§3.1): columns with low domain cardinality are stored as
// 1- or 2-byte integer codes into a dictionary. The paper deliberately
// chooses fixed-size codes over bit-compression: predicates are *remapped*
// onto codes (a selection on "MAIL" becomes a selection on byte 3), so no
// per-tuple decoding work is added to the scan. An encoded column grows by
// appending (DictAppend): codes already issued never change, the
// dictionary only grows, and the code width follows its size (u8 up to
// 256 values, u16 up to 65536, unencoded beyond).
#ifndef CCDB_BAT_ENCODING_H_
#define CCDB_BAT_ENCODING_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bat/column.h"
#include "util/status.h"

namespace ccdb {

/// Ordered value dictionary for string domains. Codes are dense 0..n-1 in
/// first-appearance order. A value->code index makes Intern and Lookup
/// O(1); it owns its keys, so copies of the dictionary stay valid.
class StrDictionary {
 public:
  StrDictionary() = default;

  /// Adds `v` if absent; returns its code.
  uint32_t Intern(std::string_view v);

  /// Code of `v`, or kNotFound.
  StatusOr<uint32_t> Lookup(std::string_view v) const;

  std::string_view Get(uint32_t code) const;
  size_t size() const { return values_.size(); }

 private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> values_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
};

/// A dictionary-encoded column: `codes` is kU8 or kU16 (chosen by domain
/// cardinality), `dict` maps codes back to values.
struct EncodedStrColumn {
  Column codes;
  StrDictionary dict;

  /// Width of one encoded value in bytes (1 or 2).
  size_t code_width() const { return PhysTypeWidth(codes.type()); }
};

/// Appends the kStr column `more` to the encoded column (`codes`, `dict`):
/// interns its values into a copy of `dict` and emits the old codes (widened
/// to u16 once the dictionary passes 256 values) followed by the new ones,
/// so the result equals DictEncode over the old values and then `more`.
/// Fails with kResourceExhausted past 65536 values (the paper's encodings
/// stop at 2 bytes; the caller stores the column raw). An empty `codes`
/// may have any type.
StatusOr<EncodedStrColumn> DictAppend(const Column& codes,
                                      const StrDictionary& dict,
                                      const Column& more);

/// Encodes a kStr column: DictAppend onto an empty encoded column.
StatusOr<EncodedStrColumn> DictEncode(const Column& str_column);

/// Reconstructs the original kStr column (used by projections that must
/// emit strings; selections never need this — they remap the predicate).
StatusOr<Column> DictDecode(const EncodedStrColumn& enc);

/// Integer variant: encodes any integral column whose distinct-value count
/// is <= 65536 into u8/u16 codes plus a u32 value dictionary.
struct EncodedIntColumn {
  Column codes;
  std::vector<uint32_t> dict;
  size_t code_width() const { return PhysTypeWidth(codes.type()); }
};

StatusOr<EncodedIntColumn> DictEncodeInts(const Column& int_column);
StatusOr<Column> DictDecodeInts(const EncodedIntColumn& enc);

}  // namespace ccdb

#endif  // CCDB_BAT_ENCODING_H_
