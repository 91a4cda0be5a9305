// Unit tests of the test-data compression layer (bist/compress): the
// reseeding solver's round-trip guarantee (every care bit of a cube is
// reproduced by the seed expansion), its fallback-by-cost rule, the
// MISR fold/step/signature helpers, and the empirical aliasing audit — on a
// real circuit, against an independent serial signature oracle on a CUT
// built to alias under the natural fold, across shared-prefix points with
// their own top-off sets, and on malformed arguments.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bist/compress.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/builder.hpp"
#include "sim/pattern_block.hpp"
#include "sim/kernel.hpp"
#include "ternary_sim.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

// Deterministic free-bit source that counts its draws.
struct CountedBits {
  Rng rng;
  std::size_t drawn = 0;
  explicit CountedBits(std::uint64_t seed) : rng(seed) {}
  bool next() {
    ++drawn;
    return rng.next_bool();
  }
};

Ternary care(bool v) { return v ? Ternary::V1 : Ternary::V0; }

// misr_aliasing_check / choose_misr_folds for one stream with no separate
// top-off.
AliasingReport check_one(FaultSimulator& fsim, const SimKernel& k,
                         std::span<const PatternBlock> blocks,
                         std::size_t patterns, const MisrSpec& m,
                         std::span<const std::int64_t> first_detected,
                         unsigned threads = 1) {
  const AuditPoint pt{patterns, {}, first_detected};
  return misr_aliasing_check(fsim, k, blocks, {&pt, 1}, m, threads)[0];
}

MisrSpec choose_one_fold(FaultSimulator& fsim, const SimKernel& k,
                         std::span<const PatternBlock> blocks,
                         std::size_t patterns,
                         std::span<const std::int64_t> first_detected,
                         const MisrSpec& base, unsigned threads = 1) {
  const AuditPoint pt{patterns, {}, first_detected};
  return choose_misr_folds(fsim, k, blocks, {&pt, 1}, base, threads)[0];
}

// --- compress_cube --------------------------------------------------------

void test_roundtrip_random_cubes() {
  // Random cubes over several degrees and widths: whatever route the solver
  // takes (seeds or fallback), the emitted pattern must honor every care
  // bit, seeded rows must re-expand to exactly the stored pattern, and seed
  // offsets must be degree-aligned and strictly ascending.
  Rng rng(0xBEEF);
  for (const unsigned D : {8u, 16u, 24u, 32u}) {
    const std::uint64_t taps = Lfsr::primitive_taps(D);
    for (int trial = 0; trial < 40; ++trial) {
      const std::size_t w = 1 + rng.next_below(4 * D);
      const double density = 0.1 + 0.8 * rng.next_double();
      std::vector<Ternary> cube(w, Ternary::VX);
      for (std::size_t i = 0; i < w; ++i)
        if (rng.next_bool(density)) cube[i] = care(rng.next_bool());

      CountedBits bits(trial);
      const RowCompression rc =
          compress_cube(cube, D, taps, [&bits] { return bits.next(); });

      CHECK_EQ(rc.pattern.size(), w);
      for (std::size_t i = 0; i < w; ++i)
        if (cube[i] != Ternary::VX)
          CHECK_EQ(rc.pattern.get(i), cube[i] == Ternary::V1);

      if (w <= D) CHECK(rc.fallback);  // a seed can never beat the row
      if (rc.fallback) {
        CHECK(rc.seeds.empty());
        // One draw per X bit, cube order.
        std::size_t xs = 0;
        for (const Ternary t : cube) xs += t == Ternary::VX;
        CHECK_EQ(bits.drawn, xs);
      } else {
        CHECK(!rc.seeds.empty());
        CHECK(rc.seeds.size() * D < w);  // strictly beats the decoded row
        std::uint32_t prev_off = 0;
        for (std::size_t si = 0; si < rc.seeds.size(); ++si) {
          CHECK_EQ(rc.seeds[si].offset % D, 0u);
          if (si) CHECK(rc.seeds[si].offset > prev_off);
          prev_off = rc.seeds[si].offset;
        }
        CHECK(expand_row(rc.seeds, D, taps, w) == rc.pattern);
        CHECK_EQ(bits.drawn, rc.seeds.size() * D);  // D free vars per seed
      }
    }
  }
}

void test_single_seed_sparse_cube() {
  // A sparse cube much wider than the degree compresses into one seed.
  const unsigned D = 16;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  std::vector<Ternary> cube(6 * D, Ternary::VX);
  cube[3] = Ternary::V1;
  cube[40] = Ternary::V0;
  cube[77] = Ternary::V1;
  CountedBits bits(1);
  const RowCompression rc =
      compress_cube(cube, D, taps, [&bits] { return bits.next(); });
  CHECK(!rc.fallback);
  CHECK_EQ(rc.seeds.size(), std::size_t{1});
  CHECK_EQ(rc.seeds[0].offset, 0u);
  CHECK(rc.pattern.get(3));
  CHECK(!rc.pattern.get(40));
  CHECK(rc.pattern.get(77));
}

void test_fully_specified_falls_back() {
  // A fully specified random cube of width 2D forces a reseed roughly every
  // D bits, so the seed schedule can never undercut the decoded row and the
  // solver must fall back (this is the c6288s regime: w = 2D, cubes dense).
  const unsigned D = 16;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Ternary> cube(2 * D);
    for (auto& t : cube) t = care(rng.next_bool());
    CountedBits bits(trial);
    const RowCompression rc =
        compress_cube(cube, D, taps, [&bits] { return bits.next(); });
    CHECK(rc.fallback);
    for (std::size_t i = 0; i < cube.size(); ++i)
      CHECK_EQ(rc.pattern.get(i), cube[i] == Ternary::V1);
  }
}

// --- MISR helpers ---------------------------------------------------------

void test_misr_spec_and_fold() {
  CHECK_EQ(misr_degree_for(2), 16u);    // floor
  CHECK_EQ(misr_degree_for(20), 20u);   // pass-through
  CHECK_EQ(misr_degree_for(140), 24u);  // cap
  const MisrSpec m = misr_spec_for(40);
  CHECK_EQ(m.degree, 24u);
  CHECK(m.enabled());
  CHECK(m.fold.empty());
  CHECK_EQ(m.cls(0), 0u);
  CHECK_EQ(m.cls(25), 1u);  // natural o mod K
  const std::vector<std::uint16_t> map = fold_map(m, 40);
  CHECK_EQ(map.size(), std::size_t{40});
  for (std::size_t o = 0; o < map.size(); ++o) CHECK_EQ(map[o], o % 24);

  // An explicit fold overrides the modulo rule.
  MisrSpec f = m;
  f.fold.assign(40, 0);
  f.fold[7] = 13;
  CHECK_EQ(f.cls(7), 13u);
  CHECK_EQ(f.cls(8), 0u);

  BitVec outs(40);
  outs.set(7, true);
  outs.set(8, true);
  CHECK_EQ(misr_fold(f, outs), (std::uint64_t{1} << 13) | 1u);
  // Natural fold: outputs 0 and 24 collide in stage 0 — the structural
  // cancellation choose_misr_folds exists to break.
  BitVec pair(40);
  pair.set(0, true);
  pair.set(24, true);
  CHECK_EQ(misr_fold(m, pair), std::uint64_t{0});
}

void test_misr_step_linearity() {
  // misr_step(s, i) = raw_step(s) ^ i implies signatures are linear in the
  // injection stream: step(a^b, i^j) == step(a,i) ^ step(b,j) ^ step(0,0).
  const MisrSpec m = misr_spec_for(16);
  Rng rng(5);
  for (int t = 0; t < 100; ++t) {
    const std::uint64_t mask = (std::uint64_t{1} << m.degree) - 1;
    const std::uint64_t a = rng.next_u64() & mask, b = rng.next_u64() & mask;
    const std::uint64_t i = rng.next_u64() & mask, j = rng.next_u64() & mask;
    CHECK_EQ(misr_step(m, a ^ b, i ^ j),
             misr_step(m, a, i) ^ misr_step(m, b, j) ^ misr_step(m, 0, 0));
  }
}

void test_signature_chaining_and_audit() {
  // Golden-signature chaining (two halves == one run) plus the empirical
  // aliasing audit on a real CUT: every fault the stream detects must
  // perturb the signature (zero escapes on c880s' audited fold).
  const Netlist cut = make_iscas85("c880s");
  const SimKernel k(cut);
  const MisrSpec m = misr_spec_for(cut.output_count());

  Lfsr lfsr = Lfsr::maximal(24, 1);
  const std::size_t n = 192;
  const std::vector<PatternBlock> blocks = lfsr.blocks(cut.input_count(), n);
  const std::uint64_t whole = misr_signature(k, blocks, m, 0);
  const std::uint64_t half1 =
      misr_signature(k, std::span(blocks).first(2), m, 0);
  const std::uint64_t half2 =
      misr_signature(k, std::span(blocks).subspan(2), m, half1);
  CHECK_EQ(half2, whole);

  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  CHECK(fr.detected > 0);
  const MisrSpec chosen =
      choose_one_fold(fsim, k, blocks, n, fr.first_detected, m);
  const AliasingReport rep =
      check_one(fsim, k, blocks, n, chosen, fr.first_detected);
  CHECK_EQ(rep.detected_checked, fr.detected);
  CHECK_EQ(rep.escapes, std::size_t{0});
  CHECK(rep.bound <= 1.0 / 65536.0);
}

// --- fold audit vs an independent oracle -----------------------------------

// 27 inputs, 25 outputs (MISR degree 24).  x = AND(i0, i1) drives output 0
// and y = OR(i2, i3) output 1; output 24 is XOR(x, y), so every fault that
// flips x flips outputs 0 and 24 together and every fault that flips y
// flips outputs 1 and 24.  Under the natural o mod 24 fold the x pair shares
// stage 0 and cancels; under the first diagonal stagger (output 24 moves to
// stage 1) the y pair does — escapes by construction, so the first clean
// candidate is the second stagger.  Outputs 2..23 are XORs of input pairs.
Netlist make_aliasing_cut() {
  NetlistBuilder b("alias25");
  for (int i = 0; i < 27; ++i) b.input("i" + std::to_string(i));
  b.define("x", GateType::And, {"i0", "i1"});
  b.define("y", GateType::Or, {"i2", "i3"});
  b.define("o0", GateType::Buf, {"x"});
  b.define("o1", GateType::Buf, {"y"});
  for (int o = 2; o < 24; ++o)
    b.define("o" + std::to_string(o), GateType::Xor,
             {"i" + std::to_string(o + 2), "i" + std::to_string(o + 3)});
  b.define("o24", GateType::Xor, {"x", "y"});
  for (int o = 0; o < 25; ++o) b.output("o" + std::to_string(o));
  return b.build();
}

std::vector<BitVec> lfsr_patterns(std::uint64_t seed, std::size_t width,
                                  std::size_t n) {
  Lfsr lfsr = Lfsr::maximal(24, seed);
  std::vector<BitVec> out;
  for (std::size_t t = 0; t < n; ++t) out.push_back(lfsr.next_pattern(width));
  return out;
}

// Serial reference for the fold audit: every detected fault's faulty-machine
// output stream, one pattern at a time through TernarySim with the fault
// forced, and signatures folded and stepped with the public
// misr_fold/misr_step.  Shares no code with the audit's propagation or its
// GF(2) accumulation.
struct SignatureOracle {
  std::vector<BitVec> good;                 // per pattern: output values
  std::vector<std::vector<BitVec>> faulty;  // per detected fault

  SignatureOracle(const Netlist& cut, const SimKernel& k,
                  const FaultSimulator& fsim,
                  std::span<const std::int64_t> first_detected,
                  std::span<const BitVec> applied) {
    good = outputs(cut, k, nullptr, applied);
    for (std::size_t f = 0; f < fsim.faults().size(); ++f)
      if (first_detected[f] >= 0)
        faulty.push_back(outputs(cut, k, &fsim.faults()[f], applied));
  }

  static std::vector<BitVec> outputs(const Netlist& cut, const SimKernel& k,
                                     const Fault* f,
                                     std::span<const BitVec> applied) {
    TernarySim sim(k);
    if (f) {
      const Ternary v = f->stuck ? Ternary::V1 : Ternary::V0;
      if (f->is_output_fault())
        sim.force(f->gate, v);
      else
        sim.force_pin(f->gate, static_cast<unsigned>(f->pin), v);
    }
    std::vector<BitVec> out;
    for (const BitVec& p : applied) {
      for (std::size_t i = 0; i < p.size(); ++i)
        sim.set_input(i, p.get(i) ? Ternary::V1 : Ternary::V0);
      BitVec o(cut.output_count());
      for (std::size_t j = 0; j < o.size(); ++j)
        o.set(j, sim.value(cut.outputs()[j]) == Ternary::V1);
      out.push_back(std::move(o));
    }
    return out;
  }

  static std::uint64_t signature(std::span<const BitVec> outs,
                                 const MisrSpec& m) {
    std::uint64_t state = 0;
    for (const BitVec& o : outs) state = misr_step(m, state, misr_fold(m, o));
    return state;
  }

  // Detected faults whose signature equals the good machine's.
  std::size_t escapes(const MisrSpec& m) const {
    const std::uint64_t golden = signature(good, m);
    std::size_t n = 0;
    for (const std::vector<BitVec>& fo : faulty)
      n += signature(fo, m) == golden;
    return n;
  }
};

MisrSpec misr_of_degree(unsigned degree) {
  return MisrSpec{degree, Lfsr::primitive_taps(degree), {}};
}

// The selection rule stated over oracle counts: the first clean candidate,
// otherwise the fewest escapes, first on ties.
std::size_t oracle_choice(std::span<const std::size_t> escapes) {
  std::size_t best = 0;
  for (std::size_t i = 0; i < escapes.size(); ++i)
    if (escapes[i] < escapes[best]) best = i;
  return best;
}

void test_audit_matches_oracle() {
  // At K = 24 the natural fold's escapes are structural (the x cone); at
  // K <= 4 most escapes are temporal cancellations, which only an exact
  // accumulation reproduces fault for fault.
  const Netlist cut = make_aliasing_cut();
  const SimKernel k(cut);
  const std::size_t n = 200;  // partial last block
  const std::vector<BitVec> applied = lfsr_patterns(3, cut.input_count(), n);
  const std::vector<PatternBlock> blocks = pack_all(applied, cut.input_count());
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  const SignatureOracle oracle(cut, k, fsim, fr.first_detected, applied);
  CHECK_EQ(oracle.faulty.size(), fr.detected);

  for (const unsigned degree : {24u, 4u, 3u}) {
    const MisrSpec base = misr_of_degree(degree);
    CHECK_EQ(misr_signature(k, blocks, base, 0),
             SignatureOracle::signature(oracle.good, base));
    const std::vector<std::vector<std::uint16_t>> maps =
        misr_fold_candidates(degree, cut.output_count());
    CHECK_EQ(maps.size(), std::size_t{degree + 8});
    CHECK(maps[0] == fold_map(base, cut.output_count()));
    std::vector<std::size_t> expect;
    for (const auto& map : maps) {
      MisrSpec m = base;
      m.fold = map;
      expect.push_back(oracle.escapes(m));
    }
    const std::size_t choice = oracle_choice(expect);
    if (degree == 24) {
      CHECK(expect[0] > 0);  // the x-cone faults cancel in stage 0
      CHECK(expect[1] > 0);  // the y-cone faults cancel in stage 1
      CHECK_EQ(choice, std::size_t{2});
      CHECK_EQ(expect[choice], std::size_t{0});
    }
    for (const unsigned threads : {1u, 3u}) {
      for (std::size_t mi = 0; mi < maps.size(); ++mi) {
        MisrSpec m = base;
        m.fold = maps[mi];
        const AliasingReport rep =
            check_one(fsim, k, blocks, n, m, fr.first_detected, threads);
        CHECK_EQ(rep.detected_checked, fr.detected);
        CHECK_EQ(rep.escapes, expect[mi]);
      }
      const MisrSpec chosen = choose_one_fold(fsim, k, blocks, n,
                                             fr.first_detected, base, threads);
      CHECK(chosen.fold ==
            (choice == 0 ? std::vector<std::uint16_t>{} : maps[choice]));
    }
  }
}

void test_shared_prefix_points() {
  // Points over one stream's prefixes, some with their own top-off sets:
  // one multi-point misr_aliasing_check per candidate must reproduce the
  // oracle's escape count over each point's concatenated applied stream,
  // and one choose_misr_folds call must pick what those counts select.  At
  // small MISR degrees most escapes are temporal cancellations, so the
  // counts hinge on every cycle's exact weight.  The audit propagates each
  // FFR stem once per word of kMaxWordWidth x 64 lanes, so prefixes end
  // mid-block (64k+r) and mid-word, top-off sets span 1 to 5 blocks — one
  // with partial blocks in the middle — and two points audit only every
  // other fault of each stem group.
  const Netlist cut = make_aliasing_cut();
  const SimKernel k(cut);
  const std::size_t w = cut.input_count();
  const std::vector<BitVec> stream = lfsr_patterns(5, w, 700);
  const std::vector<PatternBlock> stream_blocks = pack_all(stream, w);
  FaultSimulator fsim(k);

  struct Case {
    std::size_t prefix;
    std::vector<std::size_t> topoff;  // packed piece by piece
    bool partial = false;  // audit every other fault of each stem group
  };
  const Case cases[] = {{100, {70}},  {256, {}},    {64, {10}},
                        {0, {5}},     {0, {}},      {37, {91}},
                        {130, {64}},  {300, {300}}, {512, {129}},
                        {449, {250}}, {700, {65}},  {300, {20}, true},
                        {193, {}, true},            {0, {257}},
                        {260, {64, 30, 64, 10, 5}}};
  std::vector<std::vector<PatternBlock>> topoff_blocks;
  std::vector<std::vector<std::int64_t>> detected;
  std::vector<SignatureOracle> oracles;
  for (const Case& c : cases) {
    std::vector<BitVec> all(stream.begin(), stream.begin() + c.prefix);
    std::vector<PatternBlock> blocks;
    for (const std::size_t n : c.topoff) {
      const std::vector<BitVec> top = lfsr_patterns(11 + n, w, n);
      all.insert(all.end(), top.begin(), top.end());
      for (PatternBlock& b : pack_all(top, w)) blocks.push_back(std::move(b));
    }
    topoff_blocks.push_back(std::move(blocks));
    std::vector<std::int64_t> fd = fsim.run(pack_all(all, w)).first_detected;
    if (c.partial)
      for (std::size_t g = 0; g < fsim.stem_groups(); ++g) {
        const std::span<const std::uint32_t> grp = fsim.stem_group(g);
        for (std::size_t i = 1; i < grp.size(); i += 2) fd[grp[i]] = -1;
      }
    detected.push_back(std::move(fd));
    oracles.emplace_back(cut, k, fsim, detected.back(), all);
  }
  std::vector<AuditPoint> points;
  for (std::size_t p = 0; p < oracles.size(); ++p)
    points.push_back({cases[p].prefix, topoff_blocks[p], detected[p]});
  CHECK_EQ(topoff_blocks[7].size(), std::size_t{5});
  CHECK_EQ(topoff_blocks[14].size(), std::size_t{5});
  std::size_t dropped = 0;  // audited faults' stem-mates left out
  for (std::size_t g = 0; g < fsim.stem_groups(); ++g) {
    const std::span<const std::uint32_t> grp = fsim.stem_group(g);
    if (grp.size() > 1 && detected[11][grp[0]] >= 0) dropped += grp.size() / 2;
  }
  CHECK(dropped > 0);

  for (const unsigned degree : {24u, 4u, 3u}) {
    const MisrSpec base = misr_of_degree(degree);
    const std::vector<std::vector<std::uint16_t>> maps =
        misr_fold_candidates(degree, cut.output_count());
    std::vector<std::vector<std::size_t>> esc(oracles.size());
    std::vector<std::vector<std::uint16_t>> expect;
    for (std::size_t p = 0; p < oracles.size(); ++p) {
      for (const auto& map : maps) {
        MisrSpec m = base;
        m.fold = map;
        esc[p].push_back(oracles[p].escapes(m));
      }
      const std::size_t choice = oracle_choice(esc[p]);
      expect.push_back(choice == 0 ? std::vector<std::uint16_t>{}
                                   : maps[choice]);
    }
    for (const unsigned threads : {1u, 2u, 3u}) {
      for (std::size_t mi = 0; mi < maps.size(); ++mi) {
        MisrSpec m = base;
        m.fold = maps[mi];
        const std::vector<AliasingReport> reps = misr_aliasing_check(
            fsim, k, stream_blocks, points, m, threads);
        for (std::size_t p = 0; p < points.size(); ++p) {
          CHECK_EQ(reps[p].detected_checked, oracles[p].faulty.size());
          CHECK_EQ(reps[p].escapes, esc[p][mi]);
        }
      }
      const std::vector<MisrSpec> specs =
          choose_misr_folds(fsim, k, stream_blocks, points, base, threads);
      CHECK_EQ(specs.size(), points.size());
      for (std::size_t p = 0; p < points.size(); ++p)
        CHECK(specs[p].fold == expect[p]);
    }
    if (degree == 24) CHECK(!expect[0].empty());
    CHECK(expect[4].empty());  // nothing applied, nothing audited
  }
}

template <class Fn>
bool throws_invalid_argument(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_audit_rejects_malformed_arguments() {
  // A detection span shorter than the fault list used to be read out of
  // bounds; a stream shorter than the audited length is rejected as well.
  const Netlist cut = make_aliasing_cut();
  const SimKernel k(cut);
  const MisrSpec m = misr_spec_for(cut.output_count());
  const std::vector<PatternBlock> blocks =
      pack_all(lfsr_patterns(3, cut.input_count(), 128), cut.input_count());
  FaultSimulator fsim(k);
  const FaultSimResult fr = fsim.run(blocks);
  const std::span<const std::int64_t> fd = fr.first_detected;
  const std::span<const std::int64_t> short_fd = fd.first(fd.size() - 1);
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, blocks, 128, m, short_fd); }));
  CHECK(throws_invalid_argument(
      [&] { choose_one_fold(fsim, k, blocks, 128, short_fd, m); }));
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, blocks, 192, m, fd); }));
  const AuditPoint pt{128, {}, short_fd};
  CHECK(throws_invalid_argument(
      [&] { choose_misr_folds(fsim, k, blocks, {&pt, 1}, m); }));
  CHECK(throws_invalid_argument(
      [&] { misr_aliasing_check(fsim, k, blocks, {&pt, 1}, m); }));
  CHECK_EQ(check_one(fsim, k, blocks, 128, m, fd).detected_checked,
           fr.detected);

  // Top-off blocks must hold 1..64 patterns of exactly the CUT's inputs.
  const auto rejects_topoff = [&](const PatternBlock& bad) {
    const std::vector<PatternBlock> top{blocks[0], bad};
    const AuditPoint p{64, top, fd};
    return throws_invalid_argument(
               [&] { misr_aliasing_check(fsim, k, blocks, {&p, 1}, m); }) &&
           throws_invalid_argument(
               [&] { choose_misr_folds(fsim, k, blocks, {&p, 1}, m); });
  };
  PatternBlock bad = blocks[1];
  bad.count = 0;
  CHECK(rejects_topoff(bad));
  bad.count = 65;
  CHECK(rejects_topoff(bad));
  bad = blocks[1];
  bad.width = cut.input_count() - 1;
  CHECK(rejects_topoff(bad));
  bad = blocks[1];
  bad.input_words.pop_back();
  CHECK(rejects_topoff(bad));
  bad = blocks[1];
  bad.count = 1;
  {
    const std::vector<PatternBlock> top{blocks[0], bad};
    const AuditPoint p{64, top, fd};
    CHECK_EQ(misr_aliasing_check(fsim, k, blocks, {&p, 1}, m).size(),
             std::size_t{1});
  }

  // Below a prefix every stream block but the last must be full (lane l of
  // block b is cycle 64b + l), and the last must reach the prefix.
  std::vector<PatternBlock> holed = blocks;
  holed[0].count = 63;
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, holed, 128, m, fd); }));
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, holed, 65, m, fd); }));
  CHECK_EQ(check_one(fsim, k, holed, 63, m, fd).detected_checked,
           std::size_t(fr.detected_at(63)));
  std::vector<PatternBlock> short_last = blocks;
  short_last[1].count = 10;
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, short_last, 75, m, fd); }));
  CHECK_EQ(check_one(fsim, k, short_last, 74, m, fd).detected_checked,
           std::size_t(fr.detected_at(74)));
  std::vector<PatternBlock> narrow = blocks;
  narrow[1].input_words.pop_back();
  CHECK(throws_invalid_argument(
      [&] { check_one(fsim, k, narrow, 128, m, fd); }));

  // The golden signature reads `count` lanes of each block: more than 64
  // would shift past the word.
  std::vector<PatternBlock> wide = blocks;
  wide[0].count = 65;
  CHECK(throws_invalid_argument([&] { misr_signature(k, wide, m, 0); }));
}

void test_expand_row_reseed_overwrite() {
  // A mid-stream reseed overwrites the register: bits after the event come
  // from the new seed's expansion, and the first `degree` of them spell the
  // seed out MSB-first (the identity window).
  const unsigned D = 8;
  const std::uint64_t taps = Lfsr::primitive_taps(D);
  std::vector<SeedEvent> ev(2);
  ev[0].offset = 0;
  ev[0].seed = 0xA5;
  ev[1].offset = 16;
  ev[1].seed = 0x3C;
  const BitVec p = expand_row(ev, D, taps, 32);
  for (unsigned t = 0; t < D; ++t) {
    CHECK_EQ(p.get(t), bool((0xA5 >> (D - 1 - t)) & 1));
    CHECK_EQ(p.get(16 + t), bool((0x3C >> (D - 1 - t)) & 1));
  }
}

}  // namespace

int main() {
  test_roundtrip_random_cubes();
  test_single_seed_sparse_cube();
  test_fully_specified_falls_back();
  test_misr_spec_and_fold();
  test_misr_step_linearity();
  test_signature_chaining_and_audit();
  test_audit_matches_oracle();
  test_shared_prefix_points();
  test_audit_rejects_malformed_arguments();
  test_expand_row_reseed_overwrite();
  return bist_test::summary();
}
