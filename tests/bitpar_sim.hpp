#pragma once
// Per-gate 64-lane bit-parallel simulator straight over the Netlist's gate
// array — the seed reference loop the tests check SimKernel's simulators
// against.  It shares only the Netlist and PatternBlock with the library.

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern_block.hpp"
#include "util/bitvec.hpp"

namespace bist {

/// Evaluate one gate's function over packed fanin words.
inline std::uint64_t eval_gate_words(GateType t,
                                     std::span<const std::uint64_t> ins) {
  switch (t) {
    case GateType::Input: return 0;  // inputs are set externally
    case GateType::Const0: return 0;
    case GateType::Const1: return ~std::uint64_t{0};
    case GateType::Buf: return ins[0];
    case GateType::Not: return ~ins[0];
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v &= ins[i];
      return t == GateType::Nand ? ~v : v;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v |= ins[i];
      return t == GateType::Nor ? ~v : v;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint64_t v = ins[0];
      for (std::size_t i = 1; i < ins.size(); ++i) v ^= ins[i];
      return t == GateType::Xnor ? ~v : v;
    }
  }
  return 0;
}

/// Bit-parallel simulator bound to a frozen netlist.
class BitParSim {
 public:
  explicit BitParSim(const Netlist& n) : n_(&n), values_(n.gate_count(), 0) {
    if (!n.frozen()) throw std::invalid_argument("BitParSim: netlist not frozen");
  }

  /// Simulate one block; afterwards value(g) holds gate g's word.
  void simulate(const PatternBlock& block) {
    if (block.width != n_->input_count())
      throw std::invalid_argument("BitParSim: block width mismatch");
    std::uint64_t fis[64];
    for (GateId g = 0; g < n_->gate_count(); ++g) {
      const Gate& gg = n_->gate(g);
      if (gg.type == GateType::Input) {
        values_[g] = block.input_words[n_->input_index(g)];
        continue;
      }
      const std::size_t nin = gg.fanins.size();
      if (nin > 64) throw std::runtime_error("gate fanin > 64 unsupported");
      for (std::size_t i = 0; i < nin; ++i) fis[i] = values_[gg.fanins[i]];
      values_[g] = eval_gate_words(gg.type, {fis, nin});
    }
  }

  std::uint64_t value(GateId g) const { return values_[g]; }

 private:
  const Netlist* n_;
  std::vector<std::uint64_t> values_;
};

/// Simulate a single fully-specified pattern, returning PO bits.
inline BitVec simulate_single(const Netlist& n, const BitVec& pattern) {
  BitParSim sim(n);
  sim.simulate(pack_patterns({&pattern, 1}, n.input_count()));
  BitVec out(n.output_count());
  for (std::size_t i = 0; i < n.output_count(); ++i)
    out.set(i, sim.value(n.outputs()[i]) & 1);
  return out;
}

}  // namespace bist
