// Cross-simulator consistency: on every ISCAS85 surrogate, random patterns
// must produce identical values from the seed-path BitParSim (per-gate heap
// traversal), the kernel-path KernelSim (structure-of-arrays), and a
// fully-specified TernarySim (event-driven, no X anywhere).

#include <iostream>
#include <vector>

#include "bitpar_sim.hpp"
#include "circuits/iscas85_family.hpp"
#include "sim/kernel.hpp"
#include "ternary_sim.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

using namespace bist;

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel kernel(n);
    Rng rng(0x5eed + n.gate_count());

    std::vector<BitVec> pats;
    for (int p = 0; p < 128; ++p) {
      BitVec v(n.input_count());
      for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.next_bool());
      pats.push_back(std::move(v));
    }
    const auto blocks = pack_all(pats, n.input_count());

    BitParSim seed_sim(n);
    KernelSim kern_sim(kernel);
    std::size_t word_mismatches = 0;
    for (const auto& blk : blocks) {
      seed_sim.simulate(blk);
      kern_sim.simulate(blk);
      const std::uint64_t lanes = blk.lane_mask();
      for (GateId g = 0; g < n.gate_count(); ++g)
        if ((seed_sim.value(g) ^ kern_sim.value(g)) & lanes) ++word_mismatches;
    }
    CHECK_EQ(word_mismatches, 0u);
    if (word_mismatches)
      std::cout << name << ": seed vs kernel mismatch\n";

    // Fully-specified TernarySim on the first 4 patterns: no X may survive a
    // complete PI assignment, and every gate must match the bit-parallel
    // value in the corresponding lane of block 0.
    seed_sim.simulate(blocks[0]);
    TernarySim tsim(kernel);
    std::size_t cross = 0;
    for (std::size_t p = 0; p < 4; ++p) {
      for (std::size_t i = 0; i < n.input_count(); ++i)
        tsim.set_input(i, pats[p].get(i) ? Ternary::V1 : Ternary::V0);
      for (GateId g = 0; g < n.gate_count(); ++g) {
        const bool expect = (seed_sim.value(g) >> p) & 1;
        const Ternary got = tsim.value(g);
        if (got != (expect ? Ternary::V1 : Ternary::V0)) ++cross;
      }
    }
    CHECK_EQ(cross, 0u);
    if (cross) std::cout << name << ": ternary vs bit-parallel mismatch\n";

    // simulate_single convenience path agrees with the kernel path on POs.
    const BitVec po = simulate_single(n, pats[0]);
    kern_sim.simulate(blocks[0]);
    for (std::size_t o = 0; o < n.output_count(); ++o)
      CHECK_EQ(po.get(o), bool(kern_sim.value(n.outputs()[o]) & 1));
  }
  return bist_test::summary();
}
