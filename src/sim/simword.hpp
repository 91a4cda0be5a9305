#pragma once
// Simulation word abstraction: W x 64 pattern lanes per signal.
//
// The whole bit-parallel stack (KernelSim, the PPSFP fault engine) was
// written against a hard-coded std::uint64_t pattern word.  SimWord<W>
// generalizes that to W consecutive 64-lane sub-words carried as one value —
// W=4 gives a 256-bit word whose bitwise ops compile to two AVX2 (or four
// SSE2) instructions under auto-vectorization — while keeping the 64-lane
// ABI intact: SimWord<1> *is* std::uint64_t (an alias, not a wrapper), so
// every existing caller of the narrow path compiles unchanged and the
// templated engines instantiate to exactly the old code at W=1.
//
// Generic code uses the shared operator set (&, |, ^, ~) plus the free
// helpers below, all of which overload on both std::uint64_t and
// WideWord<W>:
//   w_any(x)         any lane set
//   w_zero<Word>()   all-zero word
//   w_broadcast<Word>(m)  every sub-word = m (invert masks are 0 or ~0)
//   w_first_lane(x)  index of the lowest set lane (x must be non-zero)
//   w_sub(x, j)      sub-word j (lanes j*64 .. j*64+63)
//   w_lane_range<Word>(lo, hi)  lanes [lo, hi) set
//
// Lane L of sub-word j is pattern lane j*64 + L; pattern blocks are grouped
// so that lane index == pattern offset within the group (see WideSimT).
//
// BIST_WIDE_WORDS (CMake option, default ON) gates the W>1 instantiations;
// with it off the engines clamp every width request to 1 and no wide code is
// compiled.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#ifndef BIST_WIDE_WORDS
#define BIST_WIDE_WORDS 1
#endif

namespace bist {

template <unsigned W>
struct WideWord {
  static_assert(W >= 2, "WideWord is the W>1 representation; SimWord<1> is uint64_t");
  std::uint64_t w[W];

  friend WideWord operator&(WideWord a, const WideWord& b) {
    for (unsigned i = 0; i < W; ++i) a.w[i] &= b.w[i];
    return a;
  }
  friend WideWord operator|(WideWord a, const WideWord& b) {
    for (unsigned i = 0; i < W; ++i) a.w[i] |= b.w[i];
    return a;
  }
  friend WideWord operator^(WideWord a, const WideWord& b) {
    for (unsigned i = 0; i < W; ++i) a.w[i] ^= b.w[i];
    return a;
  }
  friend WideWord operator~(WideWord a) {
    for (unsigned i = 0; i < W; ++i) a.w[i] = ~a.w[i];
    return a;
  }
  WideWord& operator&=(const WideWord& b) { return *this = *this & b; }
  WideWord& operator|=(const WideWord& b) { return *this = *this | b; }
  WideWord& operator^=(const WideWord& b) { return *this = *this ^ b; }
  friend bool operator==(const WideWord&, const WideWord&) = default;
};

/// Simulation word of W x 64 lanes.  W=1 is literally std::uint64_t so the
/// narrow path keeps its original ABI and codegen.
template <unsigned W>
using SimWord = std::conditional_t<W == 1, std::uint64_t, WideWord<W>>;

inline bool w_any(std::uint64_t v) { return v != 0; }
template <unsigned W>
inline bool w_any(const WideWord<W>& v) {
  std::uint64_t acc = 0;
  for (unsigned i = 0; i < W; ++i) acc |= v.w[i];
  return acc != 0;
}

template <class Word>
inline Word w_zero() {
  return Word{};
}

/// Broadcast a 64-bit mask into every sub-word (identity at W=1).
template <class Word>
inline Word w_broadcast(std::uint64_t m) {
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    return m;
  } else {
    Word r;
    for (auto& s : r.w) s = m;
    return r;
  }
}

/// Index of the lowest set lane.  Precondition: w_any(v).
inline unsigned w_first_lane(std::uint64_t v) {
  return static_cast<unsigned>(std::countr_zero(v));
}
template <unsigned W>
inline unsigned w_first_lane(const WideWord<W>& v) {
  for (unsigned i = 0; i < W; ++i)
    if (v.w[i]) return i * 64 + static_cast<unsigned>(std::countr_zero(v.w[i]));
  return W * 64;  // unreachable under the precondition
}

/// Sub-word j (lanes j*64 .. j*64+63); the word itself at W=1.
inline std::uint64_t w_sub(std::uint64_t v, unsigned) { return v; }
template <unsigned W>
inline std::uint64_t w_sub(const WideWord<W>& v, unsigned j) {
  return v.w[j];
}

/// Word with lanes [lo, hi) set (lanes past the word's width are ignored).
template <class Word>
inline Word w_lane_range(std::size_t lo, std::size_t hi) {
  const auto sub = [&](std::size_t j) -> std::uint64_t {
    const std::size_t b = lo < 64 * j ? 64 * j : std::min(lo, 64 * j + 64);
    const std::size_t e = hi < b ? b : std::min(hi, 64 * j + 64);
    return e == b ? 0 : (~std::uint64_t{0} >> (64 - (e - b))) << (b - 64 * j);
  };
  if constexpr (std::is_same_v<Word, std::uint64_t>) {
    return sub(0);
  } else {
    Word r;
    for (std::size_t j = 0; j < sizeof(r.w) / sizeof(r.w[0]); ++j)
      r.w[j] = sub(j);
    return r;
  }
}

/// Widest word width compiled into this build (in 64-lane units).
inline constexpr unsigned kMaxWordWidth = BIST_WIDE_WORDS ? 4u : 1u;

}  // namespace bist
