#pragma once
// PPSFP (parallel-pattern single-fault propagation) stuck-at fault simulator,
// rebuilt as a parallel FFR-aware engine.
//
// For each pattern group the good machine is evaluated once on the
// SimKernel; then fault effects are propagated in two stages that exploit
// the kernel's fanout-free-region decomposition:
//
//   local stage   every live fault is walked from its site to its FFR stem
//                 root — a unique single-fanout path, one gate re-evaluation
//                 per step — yielding the *stem word*: the pattern lanes on
//                 which the fault flips the stem output.  Faults whose
//                 effect dies inside the region never touch the global event
//                 queues.
//   stem stage    per stem with any live activated fault, ONE event-driven
//                 cone propagation is run for the OR of its faults' stem
//                 words.  Lanes are independent in 2-valued simulation, so
//                 the resulting observability word D (lanes where a stem
//                 flip reaches a primary output) is exact per lane, and each
//                 fault's detection word is just stem_word & D.  All faults
//                 sharing a stem share that one propagation.
//
// The stem groups are split across a persistent WorkerPool: workers pull
// stem groups off an atomic cursor, each with its own propagation scratch,
// sharing the read-only good-machine values.  Per-fault results land in
// disjoint slots and are reduced serially in fixed fault order afterwards,
// so first-detection indices, coverage curves, and eval counters are
// bit-identical for every thread count.
//
// Pattern words are SimWord<W> (W x 64 lanes, W = 1 or 4): the engine
// consumes W consecutive 64-lane PatternBlocks per pass, keeping the narrow
// block ABI while letting the 256-bit path auto-vectorize.  Detection
// results are lane-exact, hence identical across widths too.
//
// Coverage is reported under both accounting conventions: the collapsed
// convention (each representative counts as one fault) and the
// total-enumerated convention (each representative weighted by its
// equivalence-class size, denominator = uncollapsed fault count).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "util/deadline.hpp"

namespace bist {

class WorkerPool;

/// Pattern word of the stem-group primitive: the widest word compiled into
/// this build (kMaxWordWidth x 64 lanes).
using FlipWord = SimWord<kMaxWordWidth>;

/// Caller-owned event-driven propagation scratch for
/// FaultSimulator::stem_flips(): one per thread, sized for one kernel, at
/// the FlipWord width.  Threads that each own one may call stem_flips()
/// concurrently.
class PropagationScratch {
 public:
  explicit PropagationScratch(const SimKernel& k);
  ~PropagationScratch();
  PropagationScratch(PropagationScratch&&) noexcept;
  PropagationScratch& operator=(PropagationScratch&&) noexcept;

 private:
  friend class FaultSimulator;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct FaultSimOptions {
  bool drop_detected = true;  ///< stop simulating a fault once detected
  /// Worker count for the stem-group partition; 0 = hardware_concurrency.
  unsigned threads = 1;
  /// Pattern word width in 64-lane units (1 or kMaxWordWidth); unsupported
  /// widths clamp to 1.
  unsigned word_width = 1;
  /// Cooperative deadline/cancel, polled once per pattern-block group (so
  /// stop latency is bounded by one group's propagation cost).  A run that
  /// stops early returns the exact prefix result of the blocks it finished
  /// — bit-identical to an uninterrupted run over those patterns — with
  /// result.status recording why it stopped.  nullptr = never stops.
  const Deadline* deadline = nullptr;
};

struct FaultSimResult {
  std::size_t total_faults = 0;  ///< uncollapsed fault list size
  std::size_t sim_faults = 0;    ///< simulated (collapsed) fault list size
  std::size_t detected = 0;
  std::uint64_t detected_weight = 0;  ///< class-size-weighted detected count
  std::uint64_t total_weight = 0;     ///< sum of class sizes (== total_faults
                                      ///< when the list came from collapsing)
  std::size_t patterns = 0;  ///< patterns actually simulated (may be short
                             ///< of the request when status is not Ok)
  /// Ok for a full run; DeadlineExceeded/Cancelled when a cooperative check
  /// stopped the pass early, in which case every field describes the
  /// `patterns`-long prefix that DID run, bit-identically.
  StageStatus status;
  unsigned threads = 1;     ///< resolved worker count the run used
  unsigned word_width = 1;  ///< resolved pattern word width (64-lane units)
  /// Per simulated fault: index of the first detecting pattern, -1 undetected.
  std::vector<std::int64_t> first_detected;
  /// Per pattern: fraction of simulated faults detected by patterns [0..p].
  /// Monotone non-decreasing by construction.
  std::vector<double> coverage;
  /// Same curve weighted by equivalence-class size over total_weight — the
  /// total-enumerated-fault convention.
  std::vector<double> coverage_weighted;
  /// Faulty-machine gate evaluations performed (cone-limited work measure).
  /// Deterministic per word_width; independent of thread count.
  std::uint64_t faulty_gate_evals = 0;

  double final_coverage() const { return coverage.empty() ? 0.0 : coverage.back(); }
  double final_coverage_weighted() const {
    return coverage_weighted.empty() ? 0.0 : coverage_weighted.back();
  }

  // --- Prefix views (the mixed-scheme sweep substrate) ---------------------
  // first_detected is invariant under drop_detected and records the *first*
  // detecting pattern, so a run over the first L patterns of the same stream
  // is fully determined by this result: detected-within-L iff
  // 0 <= first_detected < L.  These helpers read that prefix directly,
  // letting one max-length pass answer every shorter candidate length
  // without re-simulating.

  /// Sim-fault indices NOT detected within the first `length` patterns
  /// (first_detected >= length or undetected), ascending — exactly the
  /// LFSR-resistant tail the mixed scheme's top-off phase would see after a
  /// pseudo-random phase of `length` patterns.  Well-defined at every
  /// length: 0 yields every simulated fault, anything >= patterns yields the
  /// run's final undetected set.
  std::vector<std::uint32_t> tail_at(std::size_t length) const;
  /// Number of simulated faults detected within the first `length` patterns
  /// (0 at length 0; the run's detected count at any length >= patterns).
  std::size_t detected_at(std::size_t length) const;
};

class FaultSimulator {
 public:
  /// Enumerates and collapses the stuck-at fault list of k.netlist().
  /// The kernel must outlive the simulator.
  explicit FaultSimulator(const SimKernel& k);

  /// Simulate an explicit (already collapsed) fault list; `total_faults` is
  /// the size of the uncollapsed list it came from (reported in results).
  /// `weights` optionally gives each fault's equivalence-class size (empty =
  /// weight 1 each).
  FaultSimulator(const SimKernel& k, std::vector<Fault> faults,
                 std::size_t total_faults,
                 std::vector<std::uint32_t> weights = {});
  ~FaultSimulator();

  std::span<const Fault> faults() const { return faults_; }
  std::span<const std::uint32_t> weights() const { return weights_; }

  /// Run over the pattern blocks with fault dropping; fills the coverage
  /// curves.  Repeatable: each call starts from the full fault list.
  /// Detection results (first_detected, curves, weights) are bit-identical
  /// across every (threads, word_width) combination.
  FaultSimResult run(std::span<const PatternBlock> blocks,
                     const FaultSimOptions& opt = {});

  /// Restriction of `full` (a result of run() on this simulator) to its
  /// first `length` patterns: bit-identical — including the coverage-curve
  /// doubles, which are running sums in pattern order — to what run() over
  /// only those patterns would have produced, derived without re-simulating.
  /// Exception: faulty_gate_evals is carried over unchanged from `full`
  /// (the work measure of the pass actually executed, not of a hypothetical
  /// shorter one).  Requires a `full` whose fault list matches this
  /// simulator's; `length` is clamped to full.patterns (so length 0 gives
  /// the empty-prefix result and any longer length gives the full run back).
  FaultSimResult prefix_result(const FaultSimResult& full,
                               std::size_t length) const;

  /// Lanes of `good_values` (a KernelSim values() array for the current
  /// block, kernel-index space) on which fault f is detected at some primary
  /// output.  Building block for pattern verification and static compaction.
  /// Uses the simulator's own scratch, so calls must not overlap.
  std::uint64_t detect_lanes(const Fault& f,
                             std::span<const std::uint64_t> good_values,
                             std::uint64_t lane_mask) {
    return propagate_fault(f, good_values.data(), lane_mask);
  }

  /// The static stem grouping of the fault list: group g holds the
  /// sim-fault indices (list order) whose sites share one FFR stem root.
  std::size_t stem_groups() const { return group_stem_.size(); }
  std::span<const std::uint32_t> stem_group(std::size_t g) const {
    return {group_faults_.data() + group_offset_[g],
            group_faults_.data() + group_offset_[g + 1]};
  }

  /// Where a set of faults sharing one FFR stem is observed, over one word
  /// of good values (`good`: a WideSimT<kMaxWordWidth> values() array,
  /// kernel-index space).  `members` are sim-fault indices from one
  /// stem_group().  stem_words[i] gets the lanes (within `lanes`) on which
  /// members[i] flips the stem.  When any lane does, ONE event-driven
  /// propagation of the OR of those words writes po_flips[o] (PO order,
  /// size >= output count) = the lanes on which the stem flip reaches
  /// output o, and the call returns true; otherwise it returns false and
  /// leaves po_flips alone.  Lanes are independent and primary outputs are
  /// stems, so members[i] flips output o on exactly stem_words[i] &
  /// po_flips[o].  Building block of the MISR aliasing audit
  /// (bist/compress), which needs *where* a fault is observed, not just
  /// whether.  All mutable state lives in `scratch`, so concurrent calls
  /// with distinct scratch objects are safe.
  bool stem_flips(std::span<const std::uint32_t> members,
                  const FlipWord* good, FlipWord lanes, FlipWord* stem_words,
                  FlipWord* po_flips, PropagationScratch& scratch) const;

  /// The simulator's persistent worker pool at `threads` workers
  /// (resolve_threads semantics; rebuilt only when the width changes).
  /// run() and the aliasing audit split stem groups over it.  Not
  /// reentrant: one parallel region at a time.
  WorkerPool& pool(unsigned threads);

 private:
  std::uint64_t propagate_fault(const Fault& f, const std::uint64_t* good,
                                std::uint64_t lanes);
  void build_stem_groups();
  template <unsigned W>
  FaultSimResult run_ffr(std::span<const PatternBlock> blocks,
                         const FaultSimOptions& opt);
  void finalize_curves(FaultSimResult& r) const;

  const SimKernel* k_;
  std::vector<Fault> faults_;
  std::vector<std::uint32_t> weights_;  ///< per-fault class sizes
  std::size_t total_faults_ = 0;
  std::uint64_t total_weight_ = 0;

  // Static stem grouping of the fault list: group g covers sim-fault indices
  // group_faults_[group_offset_[g] .. group_offset_[g+1]) whose sites share
  // the stem root group_stem_[g].  Only non-empty groups are kept, in stem
  // level order; within a group faults keep list order.
  std::vector<KIndex> group_stem_;
  std::vector<std::uint32_t> group_offset_;
  std::vector<std::uint32_t> group_faults_;

  // Worker pool cached across run() calls (rebuilt only when the resolved
  // worker count changes), so repeated runs don't pay thread spawn cost.
  std::unique_ptr<WorkerPool> pool_;

  // 64-lane propagation scratch behind detect_lanes().
  struct DetectScratch;
  std::unique_ptr<DetectScratch> scratch_;
};

}  // namespace bist
