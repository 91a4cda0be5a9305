// TernarySim force semantics: input assignments survive force/unforce cycles
// (the PODEM backtracking contract), gate-level forces override fanins, and
// pin-level forces hit exactly one fanin connection without disturbing the
// driver net or its other branches.

#include "circuits/c17.hpp"
#include "sim/kernel.hpp"
#include "ternary_sim.hpp"
#include "test_util.hpp"

using namespace bist;

int main() {
  const Netlist c17 = make_c17();
  const SimKernel k(c17);
  const GateId i3 = c17.find("3");
  const GateId g10 = c17.find("10");
  const GateId g11 = c17.find("11");
  const GateId g16 = c17.find("16");
  const GateId g19 = c17.find("19");
  const GateId g22 = c17.find("22");
  const GateId g23 = c17.find("23");
  const std::uint32_t idx3 = c17.input_index(i3);

  TernarySim sim(k);

  // All-ones pattern: hand-computed reference values.
  for (std::size_t i = 0; i < c17.input_count(); ++i)
    sim.set_input(i, Ternary::V1);
  CHECK_EQ(int(sim.value(g10)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g16)), int(Ternary::V1));
  CHECK_EQ(int(sim.value(g19)), int(Ternary::V1));
  CHECK_EQ(int(sim.value(g22)), int(Ternary::V1));
  CHECK_EQ(int(sim.value(g23)), int(Ternary::V0));

  // --- regression: force -> set_input -> unforce restores the assignment ---
  sim.force(i3, Ternary::V0);
  CHECK_EQ(int(sim.value(i3)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g10)), int(Ternary::V1));  // NAND(1, 0)
  sim.set_input(idx3, Ternary::V1);                 // assign under the force
  CHECK_EQ(int(sim.value(i3)), int(Ternary::V0));   // force still wins
  sim.unforce(i3);
  CHECK_EQ(int(sim.value(i3)), int(Ternary::V1));   // assignment restored
  CHECK_EQ(int(sim.value(g10)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g22)), int(Ternary::V1));

  // Assignment made before the force also survives a force/unforce cycle.
  sim.set_input(idx3, Ternary::V0);
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V1));  // NAND(0, 1)
  sim.force(i3, Ternary::V1);
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V0));
  sim.unforce(i3);
  CHECK_EQ(int(sim.value(i3)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V1));
  sim.set_input(idx3, Ternary::V1);  // back to all-ones

  // VX unassigns and X propagates back through the cone.
  sim.set_input(idx3, Ternary::VX);
  CHECK_EQ(int(sim.value(i3)), int(Ternary::VX));
  CHECK_EQ(int(sim.value(g10)), int(Ternary::VX));
  sim.set_input(idx3, Ternary::V1);

  // --- stem force on an internal gate --------------------------------------
  sim.force(g11, Ternary::V1);
  CHECK_EQ(int(sim.value(g16)), int(Ternary::V0));  // NAND(1, forced 1)
  CHECK_EQ(int(sim.value(g19)), int(Ternary::V0));  // both branches see it
  sim.unforce(g11);
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V0));
  CHECK_EQ(int(sim.value(g16)), int(Ternary::V1));
  CHECK_EQ(int(sim.value(g19)), int(Ternary::V1));

  // --- pin force: only the forced branch sees the stuck value --------------
  // g16 = NAND(2, 11); force its pin 1 (the g11 branch) to 1.
  sim.force_pin(g16, 1, Ternary::V1);
  CHECK_EQ(int(sim.value(g16)), int(Ternary::V0));  // NAND(1, 1)
  CHECK_EQ(int(sim.value(g11)), int(Ternary::V0));  // driver net untouched
  CHECK_EQ(int(sim.value(g19)), int(Ternary::V1));  // other branch untouched
  CHECK_EQ(int(sim.value(g22)), int(Ternary::V1));  // NAND(0, 0)
  CHECK_EQ(int(sim.value(g23)), int(Ternary::V1));  // NAND(0, 1)
  sim.unforce_pin(g16, 1);
  CHECK_EQ(int(sim.value(g16)), int(Ternary::V1));
  CHECK_EQ(int(sim.value(g23)), int(Ternary::V0));

  // Pin force out of range throws.
  CHECK_THROWS(sim.force_pin(g16, 5, Ternary::V0));

  // reset clears values, forces and assignments.
  sim.force(g11, Ternary::V1);
  sim.force_pin(g16, 0, Ternary::V0);
  sim.reset();
  CHECK_EQ(int(sim.value(i3)), int(Ternary::VX));
  CHECK_EQ(int(sim.value(g11)), int(Ternary::VX));
  CHECK_EQ(int(sim.value(g16)), int(Ternary::VX));
  CHECK_EQ(int(sim.value(g22)), int(Ternary::VX));

  return bist_test::summary();
}
