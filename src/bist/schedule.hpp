#pragma once
// Mixed-scheme BIST scheduler: pure selection logic over the per-length
// MixedSchemeResult family produced by run_mixed_sweep.  The sweep makes the
// search cheap; this layer reproduces the paper's length-allocation
// trade-off — every additional pseudo-random pattern is test time, every
// stored top-off pattern is ROM bits — and emits the hardware plan the
// wrapper synthesizer consumes.
//
// Two objectives:
//
//   KneeUnderBudget   among the candidate points whose total test time
//                     (LFSR length + top-off patterns) fits the budget,
//                     pick the knee of the stored-cost curve: the point with
//                     the largest normalized distance below the chord
//                     joining the shortest and longest candidates.  The
//                     y-axis is area_bits(L) (seed ROM + fallback ROM +
//                     state bits) when the points carry a MISR — under
//                     reseeding, cost per stored pattern varies, so the knee
//                     can move — and topoff_patterns(L) for MISR-less
//                     decoded-ROM points, the pre-compression schedule.
//                     With a degenerate (flat or two-point) curve the
//                     tie-break minimizes normalized length + ROM, then
//                     length.
//   WeightedCost      minimize time_weight * test_time +
//                     area_weight * area_bits (ROM bits + LFSR/counter
//                     state bits under the area model).
//
// Selection is canonicalized over the *set* of swept lengths: duplicates
// collapse to their first occurrence (sweep points at equal lengths are
// bit-identical by the sweep's contract) and candidates are ordered by
// length, so the chosen plan is stable under duplicated and unsorted
// sweep-length lists — asserted by tests/test_bist_plan.cpp.

#include <cstdint>
#include <vector>

#include "bist/area.hpp"
#include "tpg/sweep.hpp"

namespace bist {

enum class ScheduleObjective : std::uint8_t {
  KneeUnderBudget,
  WeightedCost,
};

struct ScheduleOptions {
  ScheduleObjective objective = ScheduleObjective::KneeUnderBudget;
  /// Total test-time budget in cycles (LFSR + top-off); 0 = unbounded.  When
  /// no candidate fits, the minimum-test-time point is chosen.
  std::size_t test_time_budget = 0;
  double time_weight = 1.0;  ///< a: cost per test cycle (WeightedCost)
  double area_weight = 16.0; ///< b: cost per stored/state bit (WeightedCost)
  AreaModel area;
  /// LFSR parameters of the sweep that produced the points (the plan must
  /// regenerate the exact stream); defaults match MixedTpgOptions.
  unsigned lfsr_degree = 32;
  std::uint64_t lfsr_seed = 0xBADC0FFEu;
};

/// One candidate as the scheduler priced it (sorted by length, duplicates
/// collapsed) — the bench's trade-off curves and JSON come from this.
struct SchedulePoint {
  std::size_t point_index = 0;  ///< first occurrence in sweep.points
  std::size_t length = 0;
  std::size_t topoff_patterns = 0;
  std::size_t test_time = 0;
  std::size_t rom_bits = 0;       ///< decoded bits (fallback rows x width)
  std::size_t seed_rom_bits = 0;  ///< reseeding seed bits
  std::size_t misr_bits = 0;      ///< MISR flip-flops (0 = no MISR)
  std::size_t fallback_rows = 0;  ///< decoded top-off rows
  std::size_t area_bits = 0;
  double cost = 0;            ///< weighted objective value
  double knee_distance = 0;   ///< normalized distance below the chord
  bool within_budget = true;
  double final_coverage = 0;
};

/// The chosen BIST hardware configuration, self-contained for synthesis.
struct BistPlan {
  std::size_t point_index = 0;  ///< into sweep.points
  std::size_t lfsr_patterns = 0;
  std::size_t topoff_patterns = 0;
  std::size_t test_time = 0;    ///< lfsr_patterns + topoff_patterns cycles
  std::size_t rom_bits = 0;
  double cost = 0;              ///< objective value at the chosen point
  double knee_distance = 0;
  BistArea area;                ///< closed-form model estimate
  AreaModel area_model;         ///< the weights the plan was priced under
  unsigned lfsr_degree = 0;
  std::uint64_t lfsr_taps = 0;
  std::uint64_t lfsr_seed = 0;
  std::size_t width = 0;        ///< CUT primary-input count
  std::vector<BitVec> topoff;   ///< stored patterns, application order
  /// Row model of the chosen point (seed schedules, fallback flags, MISR
  /// spec + golden signature) — what synthesis and verification build and
  /// check; a decoded-ROM plan is all fallback rows with no MISR.
  CompressedTopoff comp;
  double lfsr_coverage = 0;
  double final_coverage = 0;
  double final_coverage_weighted = 0;
  /// True when the plan was selected from LfsrOnly (anytime-degraded) sweep
  /// points because no Complete point existed — the plan has an empty
  /// top-off set and claims only the pseudo-random coverage.  A degraded
  /// plan is still a valid hardware configuration: the wrapper synthesized
  /// from it passes verify_wrapper, since the coverage it claims is exactly
  /// what the LFSR phase proved.
  bool degraded = false;
  /// Every candidate the selection considered, ascending length.
  std::vector<SchedulePoint> candidates;
};

/// Select the operating point.  `width` is the CUT's primary-input count
/// (= pattern width; prices the ROM).  Throws std::invalid_argument on an
/// empty sweep, mismatched lengths/points arrays, a candidate whose row
/// model was built for another LFSR degree (comp.degree != opt.lfsr_degree)
/// or whose row flags do not match its top-off set, or a sweep with no usable
/// point (every point Skipped — run_mixed_sweep's anytime floor guarantees
/// this never happens for its own results).  Deterministic, and invariant
/// under permutation/duplication of the sweep's length list.
///
/// Anytime selection ladder: Complete points are preferred — when any
/// exists the selection runs over Complete points only and is bit-identical
/// to the pre-deadline behavior.  Otherwise the selection runs over the
/// LfsrOnly points and the plan is marked `degraded`.
BistPlan schedule_bist(const MixedSweepResult& sweep, std::size_t width,
                       const ScheduleOptions& opt = {});

}  // namespace bist
