#include "bist/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "sim/bitpar_sim.hpp"
#include "tpg/lfsr.hpp"

namespace bist {
namespace {

std::uint64_t degree_mask(unsigned degree) {
  return degree >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << degree) - 1;
}

/// One raw register step (Lfsr::step() without the class's nonzero-seed
/// invariant — a solved seed may legitimately be all-zero).
std::uint64_t raw_step(std::uint64_t s, unsigned degree, std::uint64_t taps) {
  const std::uint64_t fb = std::uint64_t(std::popcount(s & taps) & 1);
  return ((s << 1) | fb) & degree_mask(degree);
}

}  // namespace

// ---------------------------------------------------------------------------
// MISR
// ---------------------------------------------------------------------------

unsigned misr_degree_for(std::size_t outputs) {
  return static_cast<unsigned>(std::clamp<std::size_t>(outputs, 16, 24));
}

MisrSpec misr_spec_for(std::size_t outputs) {
  MisrSpec m;
  m.degree = misr_degree_for(outputs);
  m.taps = Lfsr::primitive_taps(m.degree);
  return m;
}

std::uint64_t misr_fold(const MisrSpec& m, const BitVec& outputs) {
  std::uint64_t inj = 0;
  for (std::size_t o = 0; o < outputs.size(); ++o)
    inj ^= std::uint64_t(outputs.get(o)) << m.cls(o);
  return inj;
}

std::uint64_t misr_step(const MisrSpec& m, std::uint64_t state,
                        std::uint64_t inject) {
  return raw_step(state, m.degree, m.taps) ^ inject;
}

std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const PatternBlock> blocks,
                             const MisrSpec& m, std::uint64_t state) {
  const auto outs = cut.outputs();
  KernelSim sim(cut);
  for (const PatternBlock& blk : blocks) {
    sim.simulate(blk);
    for (std::size_t lane = 0; lane < blk.count; ++lane) {
      std::uint64_t inj = 0;
      for (std::size_t o = 0; o < outs.size(); ++o)
        inj ^= ((sim.value_at(outs[o]) >> lane) & 1) << m.cls(o);
      state = misr_step(m, state, inj);
    }
  }
  return state;
}

std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const BitVec> applied,
                             const MisrSpec& m) {
  return misr_signature(cut, pack_all(applied, cut.inputs().size()), m, 0);
}

namespace {

/// Audit core shared by misr_aliasing_check and choose_misr_fold: ONE
/// fault-propagation sweep over the stream, evaluating every candidate
/// output-to-stage assignment's escape count.  Returns per-candidate escape
/// totals; `checked` gets the number of detected faults audited.
std::vector<std::size_t> audit_fold_maps(
    FaultSimulator& fsim, const SimKernel& cut,
    std::span<const PatternBlock> blocks, std::size_t patterns,
    unsigned K, std::uint64_t taps,
    std::span<const std::int64_t> first_detected,
    std::span<const std::vector<std::uint16_t>> maps, std::size_t* checked) {
  const auto outs = cut.outputs();
  const std::size_t n_blocks = (patterns + 63) / 64;
  if (blocks.size() < n_blocks)
    throw std::invalid_argument("misr fold audit: blocks short of stream");

  // Backward transition powers, bitsliced for 64-lane accumulation:
  // mask[block][c][k] bit `lane` = bit k of M^(patterns-1-t) * e_c at cycle
  // t = block*64 + lane.  A fault's contribution bit k then accumulates as
  // parity(class_diff_word & mask[...][c][k]) — one AND+popcount per
  // (fault, block, diffing class, k) — and the class words are the only
  // map-dependent quantity, so every candidate shares the same sweep.
  const Gf2Matrix M = lfsr_transition(K, taps);
  std::vector<std::uint64_t> mask(n_blocks * K * K, 0);
  for (unsigned c = 0; c < K; ++c) {
    std::uint64_t v = std::uint64_t{1} << c;  // M^0 * e_c at t = patterns-1
    for (std::size_t t = patterns; t-- > 0;) {
      const std::size_t base = (t / 64) * K * K + c * K;
      const unsigned lane = t % 64;
      for (unsigned k = 0; k < K; ++k)
        mask[base + k] |= ((v >> k) & 1) << lane;
      v = M.apply(v);
    }
  }

  const std::size_t n_faults = fsim.faults().size();
  const std::size_t n_maps = maps.size();
  std::vector<std::uint64_t> acc(n_maps * n_faults, 0);
  std::vector<std::uint64_t> diffs(outs.size());
  std::vector<std::uint64_t> class_word(K);
  KernelSim sim(cut);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    sim.simulate(blocks[b]);
    const std::size_t lanes_n = std::min<std::size_t>(64, patterns - b * 64);
    const std::uint64_t lane_mask =
        lanes_n == 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << lanes_n) - 1;
    const std::uint64_t* mblk = mask.data() + b * K * K;
    for (std::size_t f = 0; f < n_faults; ++f) {
      if (first_detected[f] < 0 ||
          first_detected[f] >= std::int64_t(patterns))
        continue;  // not detected within this stream (prefix results keep
                   // later detections)
      if (!fsim.output_diffs(fsim.faults()[f], sim.values(), lane_mask,
                             diffs))
        continue;  // no difference in this block
      for (std::size_t mi = 0; mi < n_maps; ++mi) {
        std::fill(class_word.begin(), class_word.end(), 0);
        for (std::size_t o = 0; o < outs.size(); ++o)
          class_word[maps[mi][o]] ^= diffs[o];
        for (unsigned c = 0; c < K; ++c) {
          const std::uint64_t cw = class_word[c];
          if (!cw) continue;
          const std::uint64_t* mc = mblk + c * K;
          std::uint64_t delta = 0;
          for (unsigned k = 0; k < K; ++k)
            delta |= std::uint64_t(std::popcount(cw & mc[k]) & 1) << k;
          acc[mi * n_faults + f] ^= delta;
        }
      }
    }
  }
  std::size_t n_checked = 0;
  std::vector<std::size_t> escapes(n_maps, 0);
  for (std::size_t f = 0; f < n_faults; ++f) {
    if (first_detected[f] < 0 ||
        first_detected[f] >= std::int64_t(patterns))
      continue;
    ++n_checked;
    for (std::size_t mi = 0; mi < n_maps; ++mi)
      if (acc[mi * n_faults + f] == 0) ++escapes[mi];
  }
  if (checked) *checked = n_checked;
  return escapes;
}

}  // namespace

std::vector<std::uint16_t> fold_map(const MisrSpec& m, std::size_t outputs) {
  std::vector<std::uint16_t> map(outputs);
  for (std::size_t o = 0; o < outputs; ++o)
    map[o] = static_cast<std::uint16_t>(m.cls(o));
  return map;
}

AliasingReport misr_aliasing_check(FaultSimulator& fsim, const SimKernel& cut,
                                   std::span<const PatternBlock> blocks,
                                   std::size_t patterns, const MisrSpec& m,
                                   std::span<const std::int64_t> first_detected) {
  AliasingReport rep;
  rep.bound = std::ldexp(1.0, -int(m.degree));
  if (!m.enabled() || patterns == 0) return rep;
  const std::vector<std::vector<std::uint16_t>> maps{
      fold_map(m, cut.outputs().size())};
  const std::vector<std::size_t> esc =
      audit_fold_maps(fsim, cut, blocks, patterns, m.degree, m.taps,
                      first_detected, maps, &rep.detected_checked);
  rep.escapes = esc[0];
  return rep;
}

MisrSpec choose_misr_fold(FaultSimulator& fsim, const SimKernel& cut,
                          std::span<const PatternBlock> blocks,
                          std::size_t patterns,
                          std::span<const std::int64_t> first_detected,
                          MisrSpec base) {
  const std::size_t outs = cut.outputs().size();
  if (!base.enabled() || patterns == 0 || outs == 0) return base;
  const unsigned K = base.degree;

  // Candidate family, in preference order: natural modulo fold, diagonal
  // staggers (o + s*(o/K)) mod K — these split the bus-aligned stride-K
  // pairs the natural fold collapses — then deterministic hashed
  // assignments for CUTs whose output correlations defeat every stagger.
  std::vector<std::vector<std::uint16_t>> maps;
  for (unsigned s = 0; s < K; ++s) {
    std::vector<std::uint16_t> map(outs);
    for (std::size_t o = 0; o < outs; ++o)
      map[o] = static_cast<std::uint16_t>((o + s * (o / K)) % K);
    maps.push_back(std::move(map));
  }
  for (std::uint64_t a = 1; a <= 8; ++a) {
    std::vector<std::uint16_t> map(outs);
    for (std::size_t o = 0; o < outs; ++o) {
      std::uint64_t x = (o + 1) * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull;
      x ^= x >> 30;
      x *= 0xBF58476D1CE4E5B9ull;
      x ^= x >> 27;
      x *= 0x94D049BB133111EBull;
      x ^= x >> 31;
      map[o] = static_cast<std::uint16_t>(x % K);
    }
    maps.push_back(std::move(map));
  }

  const std::vector<std::size_t> esc = audit_fold_maps(
      fsim, cut, blocks, patterns, K, base.taps, first_detected, maps, nullptr);
  std::size_t best = 0;
  for (std::size_t mi = 0; mi < maps.size() && esc[best] != 0; ++mi)
    if (esc[mi] < esc[best]) best = mi;
  if (best == 0) return base;  // natural fold clean (or nothing better)
  base.fold = std::move(maps[best]);
  return base;
}

// ---------------------------------------------------------------------------
// Seed schedules
// ---------------------------------------------------------------------------

std::size_t CompressedTopoff::fallback_rows() const {
  std::size_t n = 0;
  for (const std::uint8_t f : fallback) n += f;
  return n;
}

std::vector<std::uint32_t> CompressedTopoff::offsets_used() const {
  std::vector<std::uint32_t> offs;
  for (const SeedEvent& e : seeds) offs.push_back(e.offset);
  std::sort(offs.begin(), offs.end());
  offs.erase(std::unique(offs.begin(), offs.end()), offs.end());
  return offs;
}

BitVec fill_decoded_row(std::span<const Ternary> cube,
                        const std::function<bool()>& free_bit) {
  BitVec p(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i) {
    const bool bit =
        cube[i] == Ternary::VX ? free_bit() : cube[i] == Ternary::V1;
    p.set(i, bit);
  }
  return p;
}

RowCompression compress_cube(std::span<const Ternary> cube, unsigned degree,
                             std::uint64_t taps,
                             const std::function<bool()>& free_bit) {
  const std::size_t w = cube.size();
  const unsigned D = degree;
  RowCompression rc;

  // Segmentation: walk the care bits in shift order through an incremental
  // eliminator over the current seed's variables.  reg[j] is the symbolic
  // coefficient mask of register bit j; the pre-shift output stage reg[D-1]
  // is stream bit t.  On an inconsistency at shift t (only possible at
  // t >= segment_start + D: the first D rows after a load are the identity)
  // the solver reseeds at the last D-aligned boundary at or below t and
  // replays the care bits from there, so progress is guaranteed.
  std::vector<std::pair<std::uint32_t, Gf2Solver>> segments;  // (offset, sys)
  if (w > D) {
    std::uint32_t start = 0;
    while (true) {
      Gf2Solver sys(D);
      Gf2Solver at_boundary;  // snapshot at the last D-aligned boundary
      std::vector<std::uint64_t> reg(D);
      for (unsigned j = 0; j < D; ++j) reg[j] = std::uint64_t{1} << j;
      std::uint32_t conflict_at = 0;
      bool conflicted = false;
      for (std::size_t t = start; t < w; ++t) {
        if (t > start && (t % D) == 0) at_boundary = sys;
        if (cube[t] != Ternary::VX) {
          const bool bit = cube[t] == Ternary::V1;
          if (sys.add(reg[D - 1], bit) == Gf2Add::Inconsistent) {
            conflict_at = static_cast<std::uint32_t>((t / D) * D);
            conflicted = true;
            break;
          }
        }
        // step: fb = parity over tapped stages, shift up
        std::uint64_t fb = 0;
        for (unsigned j = 0; j < D; ++j)
          if ((taps >> j) & 1) fb ^= reg[j];
        for (unsigned j = D; j-- > 1;) reg[j] = reg[j - 1];
        reg[0] = fb;
      }
      if (!conflicted) {
        segments.emplace_back(start, std::move(sys));
        break;
      }
      segments.emplace_back(start, std::move(at_boundary));
      start = conflict_at;
    }
  }

  // Fallback by cost: seeds must strictly beat the decoded row.
  rc.fallback = w <= D || segments.size() * D >= w;
  if (rc.fallback) {
    rc.pattern = fill_decoded_row(cube, free_bit);
    return rc;
  }

  for (const auto& [offset, sys] : segments) {
    std::uint64_t free_vals = 0;
    for (unsigned j = 0; j < D; ++j)
      free_vals |= std::uint64_t(free_bit()) << j;
    SeedEvent e;
    e.offset = offset;
    e.seed = sys.solve(free_vals);
    rc.seeds.push_back(e);
  }
  rc.pattern = expand_row(rc.seeds, D, taps, w);
  return rc;
}

BitVec expand_row(std::span<const SeedEvent> seeds, unsigned degree,
                  std::uint64_t taps, std::size_t width) {
  BitVec p(width);
  std::uint64_t state = 0;
  std::size_t next = 0;
  for (std::size_t t = 0; t < width; ++t) {
    if (next < seeds.size() && seeds[next].offset == t)
      state = seeds[next++].seed & degree_mask(degree);
    p.set(t, (state >> (degree - 1)) & 1);
    state = raw_step(state, degree, taps);
  }
  return p;
}

}  // namespace bist
