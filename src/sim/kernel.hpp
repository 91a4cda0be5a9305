#pragma once
// Frozen structure-of-arrays compilation of a Netlist for the hot simulation
// loops.  The builder-facing Netlist stores one heap-allocated Gate per node
// (type + fanin vector + name, pointer-chased per gate per evaluation).
// SimKernel flattens that into contiguous arrays once — and renumbers the
// gates into level order, so the evaluation schedule is a sequential sweep
// over memory instead of a scatter across the id space:
//
//   kernel index       dense renumbering, sorted by (level, GateId)
//   types_             one byte per gate, kernel order
//   fanin CSR          flat fanin kernel indices + offsets (size gates+1)
//   fanout CSR         flat fanout kernel indices + offsets
//   levels_            logic level per gate, non-decreasing in kernel order
//   schedule_          kernel indices of gates with fanins, ascending
//   ops_/inv_          gate functions lowered to micro-ops (see MicroOp)
//
// The ten GateTypes are lowered to a 2-bit reduction op (And/Or/Xor/Copy)
// plus a 64-bit output-invert mask: NAND = And + invert, NOT = Copy +
// invert, and so on.  The hot loop then dispatches on a 4-way switch instead
// of a 10-way jump table — on type-diverse circuits the indirect-branch
// misprediction cost of the wide switch dominates gate evaluation, and this
// lowering is worth ~3x throughput.
//
// Everything inside the kernel speaks kernel indices; index_of()/gate_of()
// translate at the boundary to the netlist's GateId space (names, fault
// sites, test expectations).
//
// The kernel also carries the fanout-free-region (FFR) decomposition the
// fault engine is built on.  A *stem* is a gate whose output is electrically
// observable beyond a single successor: fanout count != 1, or a primary
// output.  Every other gate has exactly one fanout, so following fanouts
// from any gate traces a unique path that ends at a stem — that stem is the
// gate's *stem root*, and the set of gates sharing a root is one FFR.  A
// fault effect inside an FFR can only reach the rest of the circuit through
// the root, which is what lets the fault simulator localize per-fault work
// to a short in-region walk and share one global cone propagation per stem.

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/pattern_block.hpp"
#include "sim/simword.hpp"

namespace bist {

class WorkerPool;

/// Dense gate index in a SimKernel's level-ordered numbering.
using KIndex = std::uint32_t;

/// Reduction operator a gate's function is lowered to (inversion is a
/// separate mask, applied to the reduction result).
enum class MicroOp : std::uint8_t {
  And = 0,
  Or = 1,
  Xor = 2,
  Copy = 3,  ///< first fanin passthrough (Buf/Not after invert)
};

class SimKernel {
 public:
  /// Compile a frozen netlist.  Throws std::invalid_argument if not frozen.
  /// The netlist must outlive the kernel.
  explicit SimKernel(const Netlist& n);

  const Netlist& netlist() const { return *n_; }
  std::size_t gate_count() const { return types_.size(); }

  /// GateId <-> kernel index translation (inverse permutations).
  KIndex index_of(GateId g) const { return kindex_[g]; }
  GateId gate_of(KIndex k) const { return order_[k]; }

  GateType type(KIndex k) const { return types_[k]; }
  unsigned level(KIndex k) const { return levels_[k]; }
  unsigned max_level() const { return max_level_; }
  bool is_output(KIndex k) const { return is_output_[k]; }

  std::span<const KIndex> fanins(KIndex k) const {
    return {fanin_flat_.data() + fanin_offset_[k],
            fanin_flat_.data() + fanin_offset_[k + 1]};
  }
  std::span<const KIndex> fanouts(KIndex k) const {
    return {fanout_flat_.data() + fanout_offset_[k],
            fanout_flat_.data() + fanout_offset_[k + 1]};
  }

  /// Primary inputs in PI order / primary outputs in PO order (kernel idx).
  std::span<const KIndex> inputs() const { return inputs_; }
  std::span<const KIndex> outputs() const { return outputs_; }

  /// Gates with at least one fanin (everything except inputs and constants)
  /// in evaluation order.  Ascending kernel index, hence level-ordered and
  /// fanin-safe by construction.
  std::span<const KIndex> schedule() const { return schedule_; }

  /// Fanin-less non-input gates (Const0/Const1), evaluated once at sim setup.
  std::span<const KIndex> constants() const { return constants_; }

  /// CSR of schedule() by level: the gates of level l occupy
  /// schedule()[off[l] .. off[l+1]) (off has max_level()+2 entries; level-0
  /// ranges are empty — inputs and constants are not scheduled).  Gates
  /// within one level are independent, which is what lets the wide simulator
  /// partition a level across workers without changing any value.
  std::span<const std::uint32_t> schedule_level_offsets() const {
    return schedule_level_offset_;
  }

  MicroOp op(KIndex k) const { return ops_[k]; }
  std::uint64_t invert_mask(KIndex k) const { return inv_[k]; }

  // --- FFR decomposition (see the header comment) ------------------------
  /// True iff k's output is observable beyond one successor (fanout != 1 or
  /// primary output); such gates root the fanout-free regions.
  bool is_stem(KIndex k) const { return stem_[k] == k; }
  /// Stem root of k's FFR (k itself when is_stem(k)).
  KIndex stem_of(KIndex k) const { return stem_[k]; }
  /// Ordinal of stem_of(k) in stems() — dense stem numbering for grouping.
  std::uint32_t stem_ordinal(KIndex k) const { return stem_ordinal_[stem_[k]]; }
  /// All stems in level order (ascending kernel index).
  std::span<const KIndex> stems() const { return stems_; }
  std::size_t stem_count() const { return stems_.size(); }
  /// Gates of the FFR rooted at stems()[ordinal], ascending kernel index.
  /// The member lists partition the gate set.
  std::span<const KIndex> ffr_members(std::uint32_t ordinal) const {
    return {ffr_members_.data() + ffr_offset_[ordinal],
            ffr_members_.data() + ffr_offset_[ordinal + 1]};
  }

  /// Raw array access for the innermost loops (kernel-index space).
  const GateType* type_data() const { return types_.data(); }
  const std::uint32_t* fanin_offset_data() const { return fanin_offset_.data(); }
  const KIndex* fanin_data() const { return fanin_flat_.data(); }
  const std::uint32_t* fanout_offset_data() const { return fanout_offset_.data(); }
  const KIndex* fanout_data() const { return fanout_flat_.data(); }
  const MicroOp* op_data() const { return ops_.data(); }
  const std::uint64_t* invert_data() const { return inv_.data(); }
  const std::uint32_t* level_data() const { return levels_.data(); }
  const char* is_output_data() const { return is_output_.data(); }

 private:
  const Netlist* n_;
  std::vector<GateId> order_;    // kernel idx -> GateId
  std::vector<KIndex> kindex_;   // GateId -> kernel idx
  std::vector<GateType> types_;
  std::vector<std::uint32_t> fanin_offset_;  // size gates+1
  std::vector<KIndex> fanin_flat_;
  std::vector<std::uint32_t> fanout_offset_;  // size gates+1
  std::vector<KIndex> fanout_flat_;
  std::vector<std::uint32_t> levels_;
  std::vector<char> is_output_;
  std::vector<KIndex> inputs_;
  std::vector<KIndex> outputs_;
  std::vector<KIndex> schedule_;
  std::vector<std::uint32_t> schedule_level_offset_;  // size max_level+2
  std::vector<KIndex> constants_;
  std::vector<MicroOp> ops_;
  std::vector<std::uint64_t> inv_;
  std::vector<KIndex> stem_;           // per gate: its FFR's stem root
  std::vector<std::uint32_t> stem_ordinal_;  // per stem gate: index in stems_
  std::vector<KIndex> stems_;          // stems in level order
  std::vector<std::uint32_t> ffr_offset_;    // size stems_+1, CSR into members
  std::vector<KIndex> ffr_members_;    // gates grouped by stem ordinal
  unsigned max_level_ = 0;
};

/// Evaluate one gate in the micro-op lowering over pattern words.  Fanin
/// slot i (indexing the kernel's flat fanin array, [b, e), e > b) is
/// supplied by `in(i)`; the word type (std::uint64_t or a wide SimWord<W>)
/// is deduced from its return value.  Inlines to the same code as an
/// open-coded loop — at W=1 this is byte-for-byte the original 64-bit
/// reduction.
template <class In>
auto eval_reduce(MicroOp op, std::uint64_t inv, std::uint32_t b,
                 std::uint32_t e, In&& in) {
  using Word = std::decay_t<decltype(in(b))>;
  Word v = in(b);
  switch (op) {
    case MicroOp::And:
      for (std::uint32_t i = b + 1; i < e; ++i) v &= in(i);
      break;
    case MicroOp::Or:
      for (std::uint32_t i = b + 1; i < e; ++i) v |= in(i);
      break;
    case MicroOp::Xor:
      for (std::uint32_t i = b + 1; i < e; ++i) v ^= in(i);
      break;
    case MicroOp::Copy: break;
  }
  return v ^ w_broadcast<Word>(inv);
}

/// Bit-parallel 2-valued simulator running on a SimKernel (the seed
/// per-gate loop survives only as the test oracle tests/bitpar_sim.hpp).
/// Each evaluation pass carries
/// W x 64 patterns: a group of up to W consecutive 64-lane PatternBlocks is
/// simulated at once, block j occupying sub-word j (pattern lane j*64 + L =
/// lane L of block j).  PatternBlock itself stays the 64-lane unit, so the
/// narrow ABI is untouched; KernelSim below is the W=1 instantiation and is
/// exactly the pre-template simulator.
template <unsigned W>
class WideSimT {
 public:
  using Word = SimWord<W>;

  /// The kernel must outlive the simulator.
  explicit WideSimT(const SimKernel& k);

  /// Simulate a group of 1..W blocks (same width each); afterwards value(g)
  /// holds gate g's word, block j in sub-word j (missing blocks are zero).
  void simulate(std::span<const PatternBlock> blocks);
  /// Simulate one block (sub-word 0 at W>1).
  void simulate(const PatternBlock& block) { simulate({&block, 1}); }

  /// Same evaluation, with wide levels partitioned across `pool` (levels are
  /// natural barriers: gates within one level never feed each other, so each
  /// value slot is written once by exactly one worker and the result is
  /// bit-identical to the serial pass for every worker count).  A null pool,
  /// a 1-worker pool, and levels too small to amortize the dispatch all fall
  /// back to the serial loop.
  void simulate(std::span<const PatternBlock> blocks, WorkerPool* pool);

  /// Lane mask of a block group: sub-word j = blocks[j].lane_mask().
  static Word group_lane_mask(std::span<const PatternBlock> blocks);

  /// Number of blocks (1..W) starting at `bi` that form one simulation
  /// group: a block is appended only while the previously added block is
  /// full (count == 64), so lane j*64+L always equals the pattern offset
  /// within the group — the invariant every simulate() consumer that maps
  /// lanes back to pattern indices relies on.
  static std::size_t group_size(std::span<const PatternBlock> blocks,
                                std::size_t bi) {
    std::size_t nb = 1;
    while (nb < W && bi + nb < blocks.size() && blocks[bi + nb - 1].count == 64)
      ++nb;
    return nb;
  }

  /// Value by netlist GateId (translated; use values()/value_at for hot paths).
  Word value(GateId g) const { return values_[k_->index_of(g)]; }
  /// Value by kernel index.
  Word value_at(KIndex k) const { return values_[k]; }
  /// All values, kernel-index space.
  std::span<const Word> values() const { return values_; }

  /// Output words in primary-output order.
  std::vector<Word> output_words() const;

  const SimKernel& kernel() const { return *k_; }

 private:
  const SimKernel* k_;
  std::vector<Word> values_;
};

extern template class WideSimT<1>;
#if BIST_WIDE_WORDS
extern template class WideSimT<4>;
#endif

/// The 64-lane simulator every pre-wide-word call site was written against.
using KernelSim = WideSimT<1>;

}  // namespace bist
