#pragma once
// 64-lane packed test patterns — the unit every bit-parallel simulator,
// the LFSR source and the MISR audit exchange.  Each 64-bit word carries one
// input across 64 test patterns (pattern-parallel, PPSFP style).

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/bitvec.hpp"

namespace bist {

/// A block of up to 64 test patterns for a circuit with `width` inputs,
/// stored input-major: word(i) bit L = value of input i in pattern L.
struct PatternBlock {
  std::size_t width = 0;       ///< number of primary inputs
  std::size_t count = 0;       ///< number of valid pattern lanes (<= 64)
  std::vector<std::uint64_t> input_words;

  /// Lane mask with `count` low bits set.
  std::uint64_t lane_mask() const {
    return count >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << count) - 1);
  }
};

/// Pack up to 64 patterns (each a BitVec of length = input count) into a
/// PatternBlock.  Patterns beyond 64 are ignored by this call.
inline PatternBlock pack_patterns(std::span<const BitVec> patterns,
                                  std::size_t width) {
  PatternBlock b;
  b.width = width;
  b.count = std::min<std::size_t>(patterns.size(), 64);
  b.input_words.assign(width, 0);
  for (std::size_t lane = 0; lane < b.count; ++lane) {
    const BitVec& p = patterns[lane];
    if (p.size() != width)
      throw std::invalid_argument("pack_patterns: pattern width mismatch");
    for (std::size_t i = 0; i < width; ++i)
      if (p.get(i)) b.input_words[i] |= std::uint64_t{1} << lane;
  }
  return b;
}

/// Split an arbitrary pattern list into consecutive 64-pattern blocks.
inline std::vector<PatternBlock> pack_all(std::span<const BitVec> patterns,
                                          std::size_t width) {
  std::vector<PatternBlock> blocks;
  for (std::size_t off = 0; off < patterns.size(); off += 64)
    blocks.push_back(pack_patterns(
        patterns.subspan(off, std::min<std::size_t>(64, patterns.size() - off)),
        width));
  return blocks;
}

}  // namespace bist
