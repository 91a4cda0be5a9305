#pragma once
// On-disk record framing for the result store and the batch manifest.
//
// A record is a fixed 40-byte little-endian header followed by the payload:
//
//   offset  size  field
//        0     4  magic      "BSTR" (0x42535452)
//        4     4  version    kStoreFormatVersion
//        8     8  payload_len
//       16     8  checksum   FNV-1a 64 over the payload bytes
//       24     8  key.hi     content-address the payload was stored under
//       32     8  key.lo
//
// The key lives in the header so a record that was misfiled (or a file whose
// name was tampered with) can never be returned for the wrong request — a
// key mismatch is a corruption verdict like any other.  parse_record() never
// throws; every way a frame can be bad maps to a RecordCheck value, and the
// store turns anything but Ok into a quarantine + miss.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/hash.hpp"

namespace bist {

inline constexpr std::uint32_t kStoreMagic = 0x42535452u;  // "BSTR"
/// Bump whenever the serialized payload layout changes; old records then
/// read as BadVersion and are quarantined rather than misdecoded.
/// v2: StageCode gained the Rejected terminal status (widens the valid
/// enum range the payload decoder accepts).
/// v3: CompressedTopoff lost its `enabled` flag; decoded-ROM points carry
/// all-ones row flags, the LFSR degree and the CUT output count.
inline constexpr std::uint32_t kStoreFormatVersion = 3;
inline constexpr std::size_t kRecordHeaderSize = 40;

enum class RecordCheck : std::uint8_t {
  Ok,
  TooShort,     ///< fewer bytes than a header (truncated at/inside header)
  BadMagic,     ///< not a store record at all
  BadVersion,   ///< written by a different code-format version
  BadLength,    ///< payload_len exceeds the bytes actually present
  BadKey,       ///< header key differs from the key the caller expected
  BadChecksum,  ///< payload bytes fail the checksum (bit rot, torn write)
};

std::string_view record_check_name(RecordCheck c);

/// Header + payload, ready for atomic_write_file / append_file.
std::vector<std::uint8_t> frame_record(const Digest128& key,
                                       std::span<const std::uint8_t> payload);

struct ParsedRecord {
  RecordCheck check = RecordCheck::TooShort;
  std::uint32_t version = 0;
  Digest128 key;
  std::span<const std::uint8_t> payload;  ///< valid only when check == Ok
  std::size_t frame_size = 0;  ///< header + payload bytes consumed when Ok
};

/// Validate one record at the front of `bytes`.  When `expect_key` is given,
/// a header key mismatch yields BadKey.  Trailing bytes after the frame are
/// legal (the manifest stores records back to back); the store itself
/// additionally requires frame_size == file size.
ParsedRecord parse_record(std::span<const std::uint8_t> bytes,
                          const Digest128* expect_key = nullptr);

}  // namespace bist
