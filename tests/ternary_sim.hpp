#pragma once
// Event-driven three-valued (0/1/X) simulator with fault forcing — the
// serial reference the tests check the bit-parallel simulators and the MISR
// fold audit against.  It shares only the gate function (eval_ternary) and
// the SimKernel arrays with the library.
//
// Assigning one PI re-evaluates only the affected cone, in level order.
// Fault injection comes in two grains, matching the stem/branch fault model:
//  - force(g, v): the gate's output net is stuck (stem fault);
//  - force_pin(g, pin, v): a single fanin connection of g is stuck (fanout
//    branch fault) — only g sees the stuck value, the driver net and its
//    other branches are untouched.
// Primary-input assignments are stored separately from forces, so
// force -> set_input -> unforce round-trips back to the assigned value.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/ternary.hpp"

namespace bist {

class TernarySim {
 public:
  /// Shares `k` (must outlive the simulator); every signal starts at X.
  explicit TernarySim(const SimKernel& k) : k_(&k) {
    const std::size_t n = k.gate_count();
    values_.assign(n, Ternary::VX);
    assigned_.assign(n, Ternary::VX);
    forced_.assign(n, Ternary::VX);
    has_force_.assign(n, 0);
    pin_forced_.assign(k.fanin_offset_data()[n], Ternary::VX);
    has_pin_force_.assign(n, 0);
    level_queues_.resize(k.max_level() + 1);
    queued_.assign(n, 0);
    full_eval();
  }

  /// Reset every signal to X and clear all forces and input assignments.
  void reset() {
    std::fill(values_.begin(), values_.end(), Ternary::VX);
    std::fill(assigned_.begin(), assigned_.end(), Ternary::VX);
    std::fill(forced_.begin(), forced_.end(), Ternary::VX);
    std::fill(has_force_.begin(), has_force_.end(), 0);
    std::fill(pin_forced_.begin(), pin_forced_.end(), Ternary::VX);
    std::fill(has_pin_force_.begin(), has_pin_force_.end(), 0);
    full_eval();
  }

  /// Force gate g's output to v regardless of its fanins (stem fault
  /// injection); wins over a PI assignment while active.
  void force(GateId g, Ternary v) {
    const KIndex k = k_->index_of(g);
    forced_[k] = v;
    has_force_[k] = 1;
    propagate_from(k);
  }
  void unforce(GateId g) {
    const KIndex k = k_->index_of(g);
    has_force_[k] = 0;
    propagate_from(k);
  }

  /// Force the connection into fanin `pin` of g to v (fanout-branch fault
  /// injection).  Only g's evaluation sees the stuck value.
  void force_pin(GateId g, unsigned pin, Ternary v) {
    const KIndex k = k_->index_of(g);
    pin_forced_[pin_slot(k, pin)] = v;
    has_pin_force_[k] = 1;
    propagate_from(k);
  }
  void unforce_pin(GateId g, unsigned pin) {
    const KIndex k = k_->index_of(g);
    pin_forced_[pin_slot(k, pin)] = Ternary::VX;
    const std::uint32_t* off = k_->fanin_offset_data();
    has_pin_force_[k] = 0;
    for (std::uint32_t i = off[k]; i < off[k + 1]; ++i)
      if (pin_forced_[i] != Ternary::VX) has_pin_force_[k] = 1;
    propagate_from(k);
  }

  /// Assign a primary input (VX = unassign) and propagate the change through
  /// its cone.  The assignment is remembered independently of any force on
  /// the input gate and is restored when the force is removed.
  void set_input(std::size_t input_idx, Ternary v) {
    const KIndex g = k_->inputs()[input_idx];
    assigned_[g] = v;
    propagate_from(g);
  }

  Ternary value(GateId g) const { return values_[k_->index_of(g)]; }
  Ternary value_at(KIndex k) const { return values_[k]; }

 private:
  std::uint32_t pin_slot(KIndex k, unsigned pin) const {
    const std::uint32_t* off = k_->fanin_offset_data();
    if (off[k] + pin >= off[k + 1])
      throw std::out_of_range("TernarySim: pin out of range");
    return off[k] + pin;
  }

  Ternary compute(KIndex k) const {
    if (has_force_[k]) return forced_[k];
    if (k_->type(k) == GateType::Input) return assigned_[k];
    const std::uint32_t b = k_->fanin_offset_data()[k];
    const KIndex* fi = k_->fanin_data() + b;
    const Ternary* pins = pin_forced_.data() + b;
    const bool pinned = has_pin_force_[k];
    return eval_ternary(k_->type(k), k_->fanins(k).size(), [&](std::size_t i) {
      return pinned && pins[i] != Ternary::VX ? pins[i] : values_[fi[i]];
    });
  }

  void full_eval() {
    for (KIndex g = 0; g < k_->gate_count(); ++g) values_[g] = compute(g);
  }

  // Levelized event propagation: root's recomputation, then strictly
  // increasing levels, so every gate is evaluated at most once.  An
  // unchanged root value means no fanout can change either.
  void propagate_from(KIndex root) {
    const Ternary nv = compute(root);
    if (values_[root] == nv) return;
    values_[root] = nv;
    const auto schedule_fanouts = [&](KIndex g) {
      for (const KIndex f : k_->fanouts(g))
        if (!queued_[f]) {
          queued_[f] = 1;
          level_queues_[k_->level(f)].push_back(f);
        }
    };
    schedule_fanouts(root);
    for (unsigned lv = k_->level(root) + 1; lv <= k_->max_level(); ++lv) {
      auto& q = level_queues_[lv];
      for (std::size_t i = 0; i < q.size(); ++i) {
        const KIndex g = q[i];
        queued_[g] = 0;
        const Ternary v = compute(g);
        if (v == values_[g]) continue;
        values_[g] = v;
        schedule_fanouts(g);
      }
      q.clear();
    }
  }

  const SimKernel* k_;
  // All per-gate state below is in kernel-index space.
  std::vector<Ternary> values_;
  std::vector<Ternary> assigned_;    // PI assignments (VX elsewhere/unassigned)
  std::vector<Ternary> forced_;      // VX = not forced
  std::vector<char> has_force_;
  std::vector<Ternary> pin_forced_;  // one slot per fanin CSR entry, VX = free
  std::vector<char> has_pin_force_;  // per gate: any fanin slot forced
  std::vector<std::vector<KIndex>> level_queues_;
  std::vector<char> queued_;
};

}  // namespace bist
