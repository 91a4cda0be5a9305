// Parallel FFR-aware fault-sim engine checks.
//
// 1. FFR decomposition: every gate reaches exactly one stem by following
//    unique fanouts; stems are exactly the gates with fanout != 1 or PO
//    status; the per-stem member lists partition the netlist.
// 2. Differential: FaultSimResult detection results (first_detected,
//    detected, detected_weight) at threads in {1, 2, 8} and word widths in
//    {1, 4} match a per-fault reference — one detect_lanes propagation per
//    (fault, block) over the public KernelSim, no stem sharing — on the
//    full ISCAS85 surrogate family; coverage curves are bit-identical
//    across engine configurations; faulty_gate_evals is
//    thread-count-invariant at fixed width.

#include <bit>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"

using namespace bist;

namespace {

void check_ffr_decomposition(const SimKernel& k) {
  const std::size_t cnt = k.gate_count();
  const std::uint32_t* fo_off = k.fanout_offset_data();

  std::vector<std::uint32_t> seen(cnt, 0);
  std::size_t member_total = 0;
  for (std::uint32_t s = 0; s < k.stem_count(); ++s) {
    const KIndex stem = k.stems()[s];
    CHECK(k.is_stem(stem));
    CHECK_EQ(k.stem_of(stem), stem);
    CHECK_EQ(k.stem_ordinal(stem), s);
    for (KIndex m : k.ffr_members(s)) {
      CHECK_EQ(k.stem_of(m), stem);
      ++seen[m];
      ++member_total;
    }
  }
  // Membership partitions the gate set: every gate in exactly one region.
  for (std::uint32_t c : seen) CHECK_EQ(c, 1u);
  CHECK_EQ(member_total, cnt);

  for (KIndex g = 0; g < cnt; ++g) {
    const std::uint32_t nfo = fo_off[g + 1] - fo_off[g];
    const bool stem_gate = nfo != 1 || k.is_output(g);
    CHECK_EQ(k.is_stem(g), stem_gate);
    // Walk unique fanouts until a stem; must land on the recorded root.
    KIndex cur = g;
    unsigned steps = 0;
    while (!k.is_stem(cur) && steps <= k.max_level() + 1) {
      cur = k.fanout_data()[fo_off[cur]];
      ++steps;
    }
    CHECK(k.is_stem(cur));
    CHECK_EQ(k.stem_of(g), cur);
  }
}

// Per-fault reference: each fault propagated on its own, block by block,
// until its first detecting pattern.
struct Reference {
  std::vector<std::int64_t> first_detected;
  std::size_t detected = 0;
  std::uint64_t detected_weight = 0;
};

Reference reference_run(FaultSimulator& fsim, const SimKernel& k,
                        std::span<const PatternBlock> blocks) {
  Reference ref;
  ref.first_detected.assign(fsim.faults().size(), -1);
  KernelSim good(k);
  std::size_t base = 0;
  for (const PatternBlock& blk : blocks) {
    good.simulate(blk);
    for (std::size_t f = 0; f < fsim.faults().size(); ++f) {
      if (ref.first_detected[f] >= 0) continue;
      const std::uint64_t det =
          fsim.detect_lanes(fsim.faults()[f], good.values(), blk.lane_mask());
      if (!det) continue;
      ref.first_detected[f] =
          static_cast<std::int64_t>(base) + std::countr_zero(det);
      ++ref.detected;
      ref.detected_weight += fsim.weights()[f];
    }
    base += blk.count;
  }
  return ref;
}

bool matches(const Reference& ref, const FaultSimResult& r) {
  return r.first_detected == ref.first_detected &&
         r.detected == ref.detected &&
         r.detected_weight == ref.detected_weight;
}

bool same_detection(const FaultSimResult& a, const FaultSimResult& b) {
  bool ok = true;
  ok = ok && a.total_faults == b.total_faults;
  ok = ok && a.sim_faults == b.sim_faults;
  ok = ok && a.detected == b.detected;
  ok = ok && a.detected_weight == b.detected_weight;
  ok = ok && a.total_weight == b.total_weight;
  ok = ok && a.patterns == b.patterns;
  ok = ok && a.first_detected == b.first_detected;
  ok = ok && a.coverage == b.coverage;
  ok = ok && a.coverage_weighted == b.coverage_weighted;
  return ok;
}

}  // namespace

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);

    check_ffr_decomposition(k);

    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const auto blocks = lfsr.blocks(n.input_count(), 512);

    const Reference ref = reference_run(fsim, k, blocks);
    CHECK(ref.detected > 0u);
    // The default configuration (1 thread, 64 lanes) anchors the curves.
    const FaultSimResult base = fsim.run(blocks);
    CHECK_EQ(base.threads, 1u);
    CHECK_EQ(base.word_width, 1u);
    CHECK(matches(ref, base));
    CHECK_EQ(base.patterns, 512u);
    CHECK_EQ(base.sim_faults, fsim.faults().size());

    std::uint64_t evals_by_width[2] = {0, 0};
    for (const unsigned width : {1u, 4u}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        FaultSimOptions opt;
        opt.threads = threads;
        opt.word_width = width;
        const FaultSimResult r = fsim.run(blocks, opt);
        CHECK(matches(ref, r));
        CHECK(same_detection(base, r));
        CHECK_EQ(r.threads, threads);
        CHECK_EQ(r.word_width, BIST_WIDE_WORDS ? width : 1u);
        // Work measure is a deterministic function of the width:
        // partitioning across workers must not change it.
        const unsigned wslot = width == 1 ? 0 : 1;
        if (evals_by_width[wslot] == 0)
          evals_by_width[wslot] = r.faulty_gate_evals;
        CHECK_EQ(r.faulty_gate_evals, evals_by_width[wslot]);
      }
    }

    // drop_detected=false must agree with the dropping run too.
    FaultSimOptions keep;
    keep.drop_detected = false;
    keep.threads = 2;
    const FaultSimResult rk = fsim.run(blocks, keep);
    CHECK(matches(ref, rk));
    CHECK(same_detection(base, rk));
  }

  // The engine must also agree with the reference on an explicit sub-list
  // with weights (the tail-fault path the mixed-scheme sweep exercises).
  {
    const Netlist n = make_iscas85("c432s");
    const SimKernel k(n);
    FaultSimulator full(k);
    std::vector<Fault> sub(full.faults().begin(),
                           full.faults().begin() + full.faults().size() / 3);
    std::vector<std::uint32_t> w(full.weights().begin(),
                                 full.weights().begin() + sub.size());
    FaultSimulator part(k, sub, 2 * sub.size(), w);
    Lfsr lfsr = Lfsr::maximal(32, 0xBEEF);
    const auto blocks = lfsr.blocks(n.input_count(), 256);
    const Reference ref = reference_run(part, k, blocks);
    const FaultSimResult base = part.run(blocks);
    CHECK(matches(ref, base));
    CHECK_EQ(base.total_faults, 2 * sub.size());
    FaultSimOptions opt;
    opt.threads = 8;
    opt.word_width = 4;
    const FaultSimResult wide = part.run(blocks, opt);
    CHECK(matches(ref, wide));
    CHECK(same_detection(base, wide));
  }

  return bist_test::summary();
}
