#include "bist/compress.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "sim/pattern_block.hpp"
#include "tpg/lfsr.hpp"
#include "util/parallel.hpp"

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

/// Throws unless `blk` is a well-formed block of `width` inputs holding at
/// most 64 patterns.
void check_block(const PatternBlock& blk, std::size_t width,
                 const char* what) {
  if (blk.count > 64 || blk.width != width || blk.input_words.size() != width)
    throw std::invalid_argument(std::string(what) + ": malformed pattern block");
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
    check_block(blk, cut.inputs().size(), "misr_signature");
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

std::vector<std::uint16_t> fold_map(const MisrSpec& m, std::size_t outputs) {
  std::vector<std::uint16_t> map(outputs);
  for (std::size_t o = 0; o < outputs; ++o)
    map[o] = static_cast<std::uint16_t>(m.cls(o));
  return map;
}

namespace {

/// The fold audit's GF(2) algebra for one MISR (degree K, transition M).
///
/// A fault escapes iff sum_t M^(n-1-t) * fold(d_t) is zero, i.e. (M being
/// invertible) iff T = sum_t M^-t * fold(d_t) is zero — and T does not depend
/// on the stream length n.  M^i * e_0 is stage i plus lower stages, so the
/// vectors M^i * e_0 (i < K) form a basis and each stage vector is
/// e_c = E_c * e_0 for a unique polynomial E_c in M.  Polynomials in M
/// commute, so T = sum_c E_c * r_c with r_c the XOR over outputs o folded
/// into stage c of q_o = sum_t d_o[t] * M^-t * e_0.  The per-output
/// accumulators q_o are what the pass collects; they are independent of the
/// output-to-stage map.  Accumulators are K <= 32 bits wide.
using Acc = std::uint32_t;

class AuditAlgebra {
 public:
  /// Tables for streams of up to `cycles` cycles.
  AuditAlgebra(unsigned K, std::uint64_t taps, std::size_t cycles) : K_(K) {
    if (K == 0 || K > 32)
      throw std::invalid_argument(
          "misr fold audit: MISR degree must be in [1, 32]");
    const Gf2Matrix M = lfsr_transition(K, taps);
    // raw_step shifts up and feeds parity(s & taps) into stage 0, so with
    // the top tap set its inverse shifts down and recovers the top stage.
    Gf2Matrix inv(K);
    for (unsigned i = 0; i + 1 < K; ++i)
      inv.set_row(i, std::uint64_t{1} << (i + 1));
    inv.set_row(K - 1, 1 | ((taps & degree_mask(K - 1)) << 1));
    if (!(M * inv == Gf2Matrix::identity(K)))
      throw std::invalid_argument(
          "misr fold audit: MISR transition is singular");

    // Bitsliced M^-t * e_0: mask_[block * K + k] bit `lane` = bit k of the
    // vector at cycle t = block * 64 + lane.  One spare block lets weigh()
    // split a word that starts mid-block.
    const std::size_t blocks = cycles / 64 + 2;
    mask_.assign(blocks * K, 0);
    std::uint64_t v = 1;
    for (std::size_t t = 0; t < blocks * 64; ++t) {
      std::uint64_t* row = mask_.data() + (t / 64) * K;
      for (unsigned k = 0; k < K; ++k) row[k] |= ((v >> k) & 1) << (t % 64);
      v = inv.apply(v);
    }

    // E_c = sum_i b_i M^i where Krylov * b = e_c, Krylov column i = M^i e_0.
    std::vector<Gf2Matrix> pw{Gf2Matrix::identity(K)};
    std::vector<std::uint64_t> krylov(K, 0);  // row k: bit i = bit k of M^i e_0
    std::uint64_t col = 1;
    for (unsigned i = 0; i < K; ++i) {
      for (unsigned k = 0; k < K; ++k) krylov[k] |= ((col >> k) & 1) << i;
      col = M.apply(col);
      if (i + 1 < K) pw.push_back(pw.back() * M);
    }
    for (unsigned c = 0; c < K; ++c) {
      Gf2Solver sys(K);
      for (unsigned k = 0; k < K; ++k) sys.add(krylov[k], k == c);
      const std::uint64_t b = sys.solve();
      Gf2Matrix e(K);
      for (unsigned r = 0; r < K; ++r) {
        std::uint64_t row = 0;
        for (unsigned i = 0; i < K; ++i)
          if ((b >> i) & 1) row ^= pw[i].row(r);
        e.set_row(r, row);
      }
      stage_.push_back(std::move(e));
    }
  }

  unsigned degree() const { return K_; }

  /// sum over the set lanes of `d` of M^-(at + lane) * e_0.
  Acc weigh(std::uint64_t d, std::size_t at) const {
    const std::size_t b = at / 64;
    const unsigned s = at % 64;
    if (s == 0) return dense(b, d);
    return dense(b, d << s) ^ dense(b + 1, d >> (64 - s));
  }

  /// T of one fault: per-output accumulators `q` folded by `map`.
  /// `cls` is K words of caller scratch.
  std::uint64_t fold(const Acc* q, std::span<const std::uint16_t> map,
                     Acc* cls) const {
    std::fill_n(cls, K_, 0);
    for (std::size_t o = 0; o < map.size(); ++o) cls[map[o]] ^= q[o];
    std::uint64_t t = 0;
    for (unsigned c = 0; c < K_; ++c)
      if (cls[c]) t ^= stage_[c].apply(cls[c]);
    return t;
  }

 private:
  Acc dense(std::size_t block, std::uint64_t d) const {
    if (!d) return 0;
    const std::uint64_t* row = mask_.data() + block * K_;
    Acc r = 0;
    for (unsigned k = 0; k < K_; ++k)
      r |= Acc(std::popcount(d & row[k]) & 1) << k;
    return r;
  }

  unsigned K_;
  std::vector<std::uint64_t> mask_;
  std::vector<Gf2Matrix> stage_;
};

/// Throws unless every point's detection span matches the fault list, every
/// top-off block is a well-formed non-empty block of the CUT's inputs, and
/// `stream` covers the longest prefix with full blocks up to its last one
/// (lane l of stream block b is cycle 64b + l).
void check_points(const FaultSimulator& fsim, const SimKernel& cut,
                  std::span<const PatternBlock> stream,
                  std::span<const AuditPoint> points) {
  const std::size_t width = cut.inputs().size();
  std::size_t prefix = 0;
  for (const AuditPoint& p : points) {
    if (p.first_detected.size() != fsim.faults().size())
      throw std::invalid_argument(
          "misr fold audit: first_detected does not match the fault list");
    for (const PatternBlock& b : p.topoff) {
      check_block(b, width, "misr fold audit: top-off");
      if (b.count == 0)
        throw std::invalid_argument("misr fold audit: empty top-off block");
    }
    prefix = std::max(prefix, p.prefix);
  }
  const std::size_t blocks = (prefix + 63) / 64;
  if (stream.size() < blocks)
    throw std::invalid_argument("misr fold audit: blocks short of stream");
  for (std::size_t b = 0; b < blocks; ++b) {
    check_block(stream[b], width, "misr fold audit: stream");
    const std::size_t need = std::min<std::size_t>(64, prefix - b * 64);
    if (stream[b].count < (b + 1 < blocks ? 64 : need))
      throw std::invalid_argument(
          "misr fold audit: stream block short of its prefix");
  }
}

/// Per point: the chosen candidate (index into the map list), its escape
/// count and the number of detected faults audited.
struct PointAudit {
  std::size_t map = 0;
  std::size_t escapes = 0;
  std::size_t checked = 0;
};

/// The audit's pattern word: the fault simulator's widest word.
constexpr unsigned kW = kMaxWordWidth;
using Word = FlipWord;
using GoodSim = WideSimT<kW>;

/// The audit engine behind choose_misr_folds and misr_aliasing_check: one
/// forward pass over `stream` accumulating every fault's per-output
/// contribution, each point finalized when the pass reaches its prefix —
/// its audited faults' accumulators plus its own top-off blocks — with
/// maps[0] evaluated first and the rest of `maps` only if it has escapes.
/// The chosen map is the first clean one, otherwise the fewest escapes
/// (first on ties).  Faults are propagated per FFR stem, one cone pass per
/// stem and word of kW x 64 lanes (FaultSimulator::stem_flips).
std::vector<PointAudit> audit_points(
    FaultSimulator& fsim, const SimKernel& cut,
    std::span<const PatternBlock> stream, std::span<const AuditPoint> points,
    const MisrSpec& m, std::span<const std::vector<std::uint16_t>> maps,
    unsigned threads) {
  const std::size_t n_faults = fsim.faults().size();
  const std::size_t n_outs = cut.outputs().size();

  // Stream length per point, and per fault the stream window the pass must
  // cover: from its earliest audited detection to the longest prefix of a
  // point that audits it.
  std::vector<std::size_t> length(points.size());
  std::size_t cycles = 0;
  std::size_t max_prefix = 0;
  std::vector<std::int64_t> first(n_faults, -1);
  std::vector<std::size_t> until(n_faults, 0);
  for (std::size_t p = 0; p < points.size(); ++p) {
    length[p] = points[p].prefix;
    for (const PatternBlock& b : points[p].topoff) length[p] += b.count;
    cycles = std::max(cycles, length[p]);
    max_prefix = std::max(max_prefix, points[p].prefix);
    for (std::size_t f = 0; f < n_faults; ++f) {
      const std::int64_t fd = points[p].first_detected[f];
      if (fd < 0 || fd >= std::int64_t(length[p])) continue;
      if (first[f] < 0 || fd < first[f]) first[f] = fd;
      until[f] = std::max(until[f], points[p].prefix);
    }
  }
  stream = stream.first((max_prefix + 63) / 64);
  // Accumulator rows of the faults the stream pass propagates (-1: none).
  std::vector<std::int64_t> row_of(n_faults, -1);
  std::size_t rows = 0;
  for (std::size_t f = 0; f < n_faults; ++f)
    if (first[f] >= 0 && std::size_t(first[f]) < until[f])
      row_of[f] = std::int64_t(rows++);
  std::size_t max_group = 0;
  for (std::size_t g = 0; g < fsim.stem_groups(); ++g)
    max_group = std::max(max_group, fsim.stem_group(g).size());

  const AuditAlgebra alg(m.degree, m.taps, cycles);
  WorkerPool& pool = fsim.pool(threads);
  struct Worker {
    PropagationScratch scratch;
    std::vector<std::uint32_t> members;  // faults of the stem in flight
    std::vector<Acc*> rows;              // their accumulator rows
    std::vector<Word> stem_words;
    std::vector<Word> flips;       // per output
    std::vector<std::uint32_t> hot;  // outputs with a flip
    std::vector<Acc> own_rows;     // finalize: rebuilt rows of one stem
    std::vector<Acc> cls;
    std::vector<std::size_t> escapes;
  };
  std::vector<Worker> workers;
  for (unsigned w = 0; w < pool.workers(); ++w) {
    workers.push_back({PropagationScratch(cut), {}, {},
                       std::vector<Word>(max_group),
                       std::vector<Word>(n_outs), {},
                       std::vector<Acc>(max_group * n_outs),
                       std::vector<Acc>(alg.degree()), {}});
    workers.back().members.reserve(max_group);
    workers.back().rows.reserve(max_group);
    workers.back().hot.reserve(n_outs);
  }

  // Propagate w.members over one word of good values (sub-word j's lane 0
  // at cycle at + 64j) and add each flipped output's weighted lanes into
  // the members' rows.
  const auto add_word = [&](Worker& w, const Word* good, const Word& lanes,
                            std::size_t at) {
    if (!fsim.stem_flips(w.members, good, lanes, w.stem_words.data(),
                         w.flips.data(), w.scratch))
      return;
    w.hot.clear();
    for (std::uint32_t o = 0; o < n_outs; ++o)
      if (w_any(w.flips[o])) w.hot.push_back(o);
    for (std::size_t i = 0; i < w.members.size(); ++i) {
      if (!w_any(w.stem_words[i])) continue;
      Acc* row = w.rows[i];
      for (const std::uint32_t o : w.hot) {
        const Word d = w.stem_words[i] & w.flips[o];
        for (unsigned j = 0; j < kW; ++j)
          if (const std::uint64_t dj = w_sub(d, j))
            row[o] ^= alg.weigh(dj, at + 64 * j);
      }
    }
  };

  std::vector<Acc> q(rows * n_outs, 0);
  std::vector<PointAudit> out(points.size());
  GoodSim good(cut);
  std::size_t simulated = std::size_t(-1);  // first stream block in `good`

  const auto finalize = [&](std::size_t p) {
    const AuditPoint& pt = points[p];
    std::vector<char> audited(n_faults, 0);
    for (std::size_t f = 0; f < n_faults; ++f) {
      const std::int64_t fd = pt.first_detected[f];
      audited[f] = fd >= 0 && fd < std::int64_t(length[p]);
      out[p].checked += audited[f];
    }
    if (out[p].checked == 0) return;
    struct TopoffWord {
      std::vector<Word> good;
      Word lanes;
      std::size_t at;
    };
    std::vector<TopoffWord> topoff;
    for (std::size_t bi = 0, at = pt.prefix; bi < pt.topoff.size();) {
      const std::size_t nb = GoodSim::group_size(pt.topoff, bi);
      const std::span<const PatternBlock> grp = pt.topoff.subspan(bi, nb);
      good.simulate(grp, &pool);
      topoff.push_back({{good.values().begin(), good.values().end()},
                        GoodSim::group_lane_mask(grp), at});
      for (const PatternBlock& b : grp) at += b.count;
      bi += nb;
    }
    simulated = std::size_t(-1);

    // Escape counts of maps [mb, me).  Each worker rebuilds a stem's full
    // rows in its own buffer — the stream accumulators at this prefix plus
    // the top-off words — so no per-point copy of the accumulators exists.
    const auto count = [&](std::size_t mb, std::size_t me) {
      for (Worker& w : workers) w.escapes.assign(me - mb, 0);
      parallel_for(pool, fsim.stem_groups(), 1,
                   [&](unsigned wid, std::size_t b, std::size_t e) {
        Worker& w = workers[wid];
        for (std::size_t g = b; g < e; ++g) {
          w.members.clear();
          w.rows.clear();
          for (const std::uint32_t f : fsim.stem_group(g)) {
            if (!audited[f]) continue;
            Acc* row = w.own_rows.data() + w.rows.size() * n_outs;
            if (row_of[f] >= 0)
              std::copy_n(q.data() + row_of[f] * n_outs, n_outs, row);
            else
              std::fill_n(row, n_outs, 0);
            w.members.push_back(f);
            w.rows.push_back(row);
          }
          if (w.members.empty()) continue;
          for (const TopoffWord& t : topoff)
            add_word(w, t.good.data(), t.lanes, t.at);
          for (const Acc* row : w.rows)
            for (std::size_t mi = mb; mi < me; ++mi)
              if (alg.fold(row, maps[mi], w.cls.data()) == 0)
                ++w.escapes[mi - mb];
        }
      });
      std::vector<std::size_t> total(me - mb, 0);
      for (const Worker& w : workers)
        for (std::size_t j = 0; j < total.size(); ++j) total[j] += w.escapes[j];
      return total;
    };
    out[p].escapes = count(0, 1)[0];
    if (out[p].escapes == 0 || maps.size() < 2) return;
    const std::vector<std::size_t> rest = count(1, maps.size());
    for (std::size_t j = 0; j < rest.size(); ++j)
      if (rest[j] < out[p].escapes) {
        out[p].map = j + 1;
        out[p].escapes = rest[j];
      }
  };

  // The forward pass: word by word (kW stream blocks, kW-aligned), split at
  // point prefixes; a point is finalized as soon as the pass has covered
  // exactly its prefix.  Per word, each stem group propagates the faults
  // whose window meets the word's lanes.  Rows are disjoint per fault and
  // stem groups disjoint per worker, so the split cannot race.
  std::vector<std::size_t> order(points.size());
  for (std::size_t p = 0; p < order.size(); ++p) order[p] = p;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return points[a].prefix < points[b].prefix;
                   });
  std::size_t next = 0;
  std::size_t cur = 0;
  while (true) {
    while (next < order.size() && points[order[next]].prefix == cur)
      finalize(order[next++]);
    if (next == order.size()) break;
    const std::size_t gb = cur / 64 / kW * kW;
    const std::size_t nb = std::min<std::size_t>(kW, stream.size() - gb);
    const std::size_t base = gb * 64;
    const std::size_t end =
        std::min(base + nb * 64, points[order[next]].prefix);
    if (simulated != gb) {
      good.simulate(stream.subspan(gb, nb), &pool);
      simulated = gb;
    }
    const Word lanes = w_lane_range<Word>(cur - base, end - base);
    parallel_for(pool, fsim.stem_groups(), 1,
                 [&](unsigned wid, std::size_t gb, std::size_t ge) {
      Worker& w = workers[wid];
      for (std::size_t g = gb; g < ge; ++g) {
        w.members.clear();
        w.rows.clear();
        for (const std::uint32_t f : fsim.stem_group(g))
          if (row_of[f] >= 0 && std::size_t(first[f]) < end &&
              until[f] > cur) {
            w.members.push_back(f);
            w.rows.push_back(q.data() + row_of[f] * n_outs);
          }
        if (!w.members.empty())
          add_word(w, good.values().data(), lanes, base);
      }
    });
    cur = end;
  }
  return out;
}

}  // namespace

std::vector<std::vector<std::uint16_t>> misr_fold_candidates(unsigned K,
                                                             std::size_t outs) {
  // Diagonal staggers split the bus-aligned stride-K pairs the natural
  // fold collapses; the hashed assignments cover CUTs whose output
  // correlations defeat every stagger.
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
  return maps;
}

std::vector<AliasingReport> misr_aliasing_check(
    FaultSimulator& fsim, const SimKernel& cut,
    std::span<const PatternBlock> stream, std::span<const AuditPoint> points,
    const MisrSpec& m, unsigned threads) {
  check_points(fsim, cut, stream, points);
  std::vector<AliasingReport> reps(points.size());
  for (AliasingReport& rep : reps) rep.bound = std::ldexp(1.0, -int(m.degree));
  if (!m.enabled()) return reps;
  const std::vector<std::vector<std::uint16_t>> maps{
      fold_map(m, cut.outputs().size())};
  const std::vector<PointAudit> audits =
      audit_points(fsim, cut, stream, points, m, maps, threads);
  for (std::size_t p = 0; p < points.size(); ++p) {
    reps[p].detected_checked = audits[p].checked;
    reps[p].escapes = audits[p].escapes;
  }
  return reps;
}

std::vector<MisrSpec> choose_misr_folds(FaultSimulator& fsim,
                                        const SimKernel& cut,
                                        std::span<const PatternBlock> stream,
                                        std::span<const AuditPoint> points,
                                        const MisrSpec& base,
                                        unsigned threads) {
  check_points(fsim, cut, stream, points);
  std::vector<MisrSpec> specs(points.size(), base);
  const std::size_t outs = cut.outputs().size();
  if (!base.enabled() || outs == 0) return specs;
  const std::vector<std::vector<std::uint16_t>> maps =
      misr_fold_candidates(base.degree, outs);
  const std::vector<PointAudit> audits =
      audit_points(fsim, cut, stream, points, base, maps, threads);
  for (std::size_t p = 0; p < points.size(); ++p)
    if (audits[p].map != 0) specs[p].fold = maps[audits[p].map];
  return specs;
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
