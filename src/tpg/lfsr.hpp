#pragma once
// External-XOR (Fibonacci) LFSR pseudo-random pattern source — the paper's
// pseudo-random phase generator.  Parameterized by its characteristic
// polynomial; with a primitive polynomial the state sequence is maximal
// length (period 2^degree - 1, the all-zero state excluded).
//
// Bit-stream convention: the register shifts left one position per step and
// emits its former MSB; a test pattern for a `width`-input circuit is
// `width` consecutive stream bits (test-per-clock, as in the BIST TPG).
// Patterns are packed straight into 64-lane PatternBlocks for the
// bit-parallel simulators.

#include <cstdint>

#include "sim/pattern_block.hpp"
#include "util/bitvec.hpp"

namespace bist {

class Lfsr {
 public:
  /// `degree` in [2, 64].  Bit i of `taps` set means state bit i feeds the
  /// XOR network; since stage i holds the feedback bit from i+1 steps ago,
  /// the output stream obeys f(t) = XOR(f(t-i-1) : bit i set), i.e. the
  /// characteristic polynomial is x^degree + sum(x^(degree-1-i)).  Bit
  /// degree-1 (the output stage) must be set or the recurrence degenerates.
  /// `seed` must be non-zero in its low `degree` bits (the all-zero state is
  /// a fixed point); high bits are masked off.  Throws std::invalid_argument
  /// on any violation.
  Lfsr(unsigned degree, std::uint64_t taps, std::uint64_t seed = 1);

  /// Known-primitive polynomial for this degree (maximal-length sequence).
  /// Supported for every degree in [2, 32]; throws outside that range.
  static std::uint64_t primitive_taps(unsigned degree);
  /// Convenience: maximal-length LFSR of the given degree.
  static Lfsr maximal(unsigned degree, std::uint64_t seed = 1);

  unsigned degree() const { return degree_; }
  std::uint64_t taps() const { return taps_; }
  std::uint64_t state() const { return state_; }

  /// Shift one position; returns the bit shifted out (former MSB).
  bool step();

  /// Next `bv.size()` stream bits into an existing BitVec (index 0 first).
  void fill(BitVec& bv);
  /// Next `width` stream bits as a fresh pattern.
  BitVec next_pattern(std::size_t width);

  /// Pack the next `count` (<= 64) patterns of `width` bits each directly
  /// into a PatternBlock (lane L = L-th pattern generated).
  PatternBlock next_block(std::size_t width, std::size_t count = 64);
  /// `total` patterns split into consecutive blocks.
  std::vector<PatternBlock> blocks(std::size_t width, std::size_t total);

 private:
  unsigned degree_;
  std::uint64_t taps_;
  std::uint64_t mask_;
  std::uint64_t state_;
};

}  // namespace bist
