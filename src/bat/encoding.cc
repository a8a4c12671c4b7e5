#include "bat/encoding.h"

#include <unordered_map>

namespace ccdb {

uint32_t StrDictionary::Intern(std::string_view v) {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  auto code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(v);
  index_.emplace(values_.back(), code);
  return code;
}

StatusOr<uint32_t> StrDictionary::Lookup(std::string_view v) const {
  auto it = index_.find(v);
  if (it != index_.end()) return it->second;
  return Status::NotFound("value not in dictionary: " + std::string(v));
}

std::string_view StrDictionary::Get(uint32_t code) const {
  CCDB_CHECK(code < values_.size());
  return values_[code];
}

namespace {

// The codes of `old` (kU8, kU16, or empty of any type) followed by `more`,
// at width Code. A kU16 `old` implies more than 256 values, so Code is u16
// too (Span checks it).
template <typename Code>
ColVec<Code> AppendCodes(const Column& old, std::span<const uint32_t> more) {
  ColVec<Code> out;
  out.reserve(old.size() + more.size());
  if (old.size() > 0) {
    if (old.type() == PhysType::kU8) {
      std::span<const uint8_t> s = old.Span<uint8_t>();
      out.insert(out.end(), s.begin(), s.end());
    } else {
      std::span<const Code> s = old.Span<Code>();
      out.insert(out.end(), s.begin(), s.end());
    }
  }
  size_t at = out.size();
  out.resize(at + more.size());
  for (size_t i = 0; i < more.size(); ++i) {
    out[at + i] = static_cast<Code>(more[i]);
  }
  return out;
}

}  // namespace

StatusOr<EncodedStrColumn> DictAppend(const Column& codes,
                                      const StrDictionary& dict,
                                      const Column& more) {
  if (more.type() != PhysType::kStr) {
    return Status::InvalidArgument(
        std::string("dictionary encoding requires a str column, got ") +
        PhysTypeName(more.type()));
  }
  EncodedStrColumn out{Column(), dict};
  // Intern first: the final dictionary size decides the code width.
  std::vector<uint32_t> wide_codes(more.size());
  for (size_t i = 0; i < more.size(); ++i) {
    wide_codes[i] = out.dict.Intern(more.GetStr(i));
    if (out.dict.size() > 65536) {
      return Status::ResourceExhausted(
          "domain cardinality exceeds 65536; column not byte-encodable");
    }
  }
  if (out.dict.size() <= 256) {
    out.codes = Column::U8(AppendCodes<uint8_t>(codes, wide_codes));
  } else {
    out.codes = Column::U16(AppendCodes<uint16_t>(codes, wide_codes));
  }
  return out;
}

StatusOr<EncodedStrColumn> DictEncode(const Column& str_column) {
  return DictAppend(Column(), StrDictionary(), str_column);
}

StatusOr<Column> DictDecode(const EncodedStrColumn& enc) {
  size_t n = enc.codes.size();
  std::vector<std::string> values;
  values.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code = enc.codes.GetIntegral(i);
    values.emplace_back(enc.dict.Get(static_cast<uint32_t>(code)));
  }
  return Column::Str(values);
}

StatusOr<EncodedIntColumn> DictEncodeInts(const Column& int_column) {
  switch (int_column.type()) {
    case PhysType::kU8:
    case PhysType::kU16:
    case PhysType::kU32:
    case PhysType::kI32:
    case PhysType::kVoid:
      break;
    default:
      return Status::InvalidArgument(
          std::string("DictEncodeInts requires a 32-bit integral column, got ") +
          PhysTypeName(int_column.type()));
  }
  size_t n = int_column.size();
  EncodedIntColumn out;
  std::unordered_map<uint32_t, uint32_t> index;
  std::vector<uint32_t> wide_codes(n);
  for (size_t i = 0; i < n; ++i) {
    uint32_t v = static_cast<uint32_t>(int_column.GetIntegral(i));
    auto [it, inserted] =
        index.emplace(v, static_cast<uint32_t>(out.dict.size()));
    if (inserted) out.dict.push_back(v);
    wide_codes[i] = it->second;
    if (out.dict.size() > 65536) {
      return Status::ResourceExhausted(
          "domain cardinality exceeds 65536; column not byte-encodable");
    }
  }
  if (out.dict.size() <= 256) {
    std::vector<uint8_t> codes(n);
    for (size_t i = 0; i < n; ++i) codes[i] = static_cast<uint8_t>(wide_codes[i]);
    out.codes = Column::U8(std::move(codes));
  } else {
    std::vector<uint16_t> codes(n);
    for (size_t i = 0; i < n; ++i)
      codes[i] = static_cast<uint16_t>(wide_codes[i]);
    out.codes = Column::U16(std::move(codes));
  }
  return out;
}

StatusOr<Column> DictDecodeInts(const EncodedIntColumn& enc) {
  size_t n = enc.codes.size();
  std::vector<uint32_t> values(n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t code = enc.codes.GetIntegral(i);
    CCDB_CHECK(code < enc.dict.size());
    values[i] = enc.dict[code];
  }
  return Column::U32(std::move(values));
}

}  // namespace ccdb
