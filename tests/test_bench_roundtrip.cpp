// .bench serialization round trip: write → read → re-freeze must preserve
// the circuit (same stats, same simulation behaviour) for the embedded C17
// and for a generated circuit.

#include <sstream>

#include "bitpar_sim.hpp"
#include "circuits/c17.hpp"
#include "circuits/generators.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

using namespace bist;

namespace {

void check_roundtrip(const Netlist& orig) {
  const std::string text = write_bench(orig);
  const Netlist back = read_bench(text, orig.name());
  CHECK(back.frozen());

  const NetlistStats a = compute_stats(orig);
  const NetlistStats b = compute_stats(back);
  CHECK_EQ(a.inputs, b.inputs);
  CHECK_EQ(a.outputs, b.outputs);
  CHECK_EQ(a.gates, b.gates);
  CHECK_EQ(a.nets, b.nets);
  CHECK_EQ(a.depth, b.depth);
  CHECK_EQ(a.max_fanin, b.max_fanin);
  CHECK_EQ(a.max_fanout, b.max_fanout);
  for (std::size_t t = 0; t < a.by_type.size(); ++t)
    CHECK_EQ(a.by_type[t], b.by_type[t]);

  // Same behaviour on random patterns, matching POs by name (the reader may
  // reorder gates; names are the stable identity).
  Rng rng(99);
  for (int p = 0; p < 16; ++p) {
    BitVec pat(orig.input_count());
    for (std::size_t i = 0; i < pat.size(); ++i) pat.set(i, rng.next_bool());
    // map pattern onto back's input order by name
    BitVec pat_back(back.input_count());
    for (std::size_t i = 0; i < orig.input_count(); ++i) {
      const GateId g = back.find(orig.gate(orig.inputs()[i]).name);
      CHECK(g != kNoGate);
      pat_back.set(back.input_index(g), pat.get(i));
    }
    const BitVec out_a = simulate_single(orig, pat);
    const BitVec out_b = simulate_single(back, pat_back);
    for (std::size_t o = 0; o < orig.output_count(); ++o) {
      const GateId g = back.find(orig.gate(orig.outputs()[o]).name);
      CHECK(g != kNoGate);
      // find g's position in back's output list
      bool found = false;
      for (std::size_t ob = 0; ob < back.output_count(); ++ob)
        if (back.outputs()[ob] == g) {
          CHECK_EQ(out_a.get(o), out_b.get(ob));
          found = true;
          break;
        }
      CHECK(found);
    }
  }

  // write(read(write(x))) is a fixpoint
  CHECK_EQ(write_bench(back),
           write_bench(read_bench(write_bench(back), back.name())));
}

}  // namespace

int main() {
  check_roundtrip(make_c17());

  // the embedded C17 text parses to the same circuit as the builder
  const Netlist parsed = read_bench(c17_bench_text(), "c17");
  const NetlistStats ps = compute_stats(parsed);
  const NetlistStats cs = compute_stats(make_c17());
  CHECK_EQ(ps.gates, cs.gates);
  CHECK_EQ(ps.inputs, cs.inputs);
  CHECK_EQ(ps.outputs, cs.outputs);

  // a generated circuit with XOR trees and wide gates
  check_roundtrip(make_ecc_circuit(16, 5));
  check_roundtrip(make_array_multiplier(4));

  // stream reader agrees with the string reader
  std::istringstream in(c17_bench_text());
  const Netlist streamed = read_bench_stream(in, "c17");
  CHECK_EQ(compute_stats(streamed).gates, cs.gates);

  return bist_test::summary();
}
