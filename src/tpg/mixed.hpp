#pragma once
// The paper's mixed test scheme, end to end for one circuit:
//
//   LFSR phase        maximal-length LFSR patterns through the PPSFP fault
//                     simulator -> coverage curve + undetected tail
//   top-off phase     PODEM test cube per tail fault (redundant and aborted
//                     faults classified separately), X bits random-filled
//   compaction        reverse-order fault simulation drops patterns whose
//                     targets are covered by later patterns
//   verification      every emitted pattern re-checked by the PPSFP
//                     propagate against its target fault
//
// MixedSchemeResult carries the quantities the scheduler and area model
// trade off: LFSR length vs. deterministic pattern count (ROM bits) and the
// achieved coverage under both fault-accounting conventions.  The engine is
// run_mixed_sweep (tpg/sweep.hpp); a single LFSR length is a one-length
// sweep.  This header holds only the option and result types.

#include <cstdint>
#include <vector>

#include "bist/compress.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "sim/kernel.hpp"
#include "util/bitvec.hpp"
#include "util/deadline.hpp"

namespace bist {

struct MixedTpgOptions {
  /// Informational only: run_mixed_sweep ignores it (its `lengths` drive
  /// the pseudo-random stream).
  std::size_t lfsr_patterns = 4096;
  unsigned lfsr_degree = 32;
  std::uint64_t lfsr_seed = 0xBADC0FFEu;
  /// Fault-simulation engine knobs (threads, word width) for the LFSR phase
  /// and the final tail accounting; detection results are engine-invariant,
  /// so these only change speed.
  FaultSimOptions fsim;
  PodemOptions podem;
  /// Worker count for the PODEM top-off phase (resolve_threads semantics:
  /// 0 = hardware concurrency).  Verdicts are reduced in fixed fault order,
  /// so results are bit-identical for every value; this only changes speed.
  unsigned podem_threads = 1;
  std::uint64_t fill_seed = 0x5EEDF111;  ///< X-fill RNG seed for test cubes
  /// Row-storage policy, read only by the sweep.  true (the default): each
  /// detected cube is solved into an LFSR reseeding schedule
  /// (bist/compress), the stored top-off pattern is DEFINED as the seed
  /// expansion (free seed variables take the X-fill stream's bits), and a
  /// MISR spec + golden signature over the applied stream is attached to
  /// the result.  false selects the paper's decoded ROM: every cube becomes
  /// a decoded fallback row and there is no MISR — bit-identical to the
  /// pre-compression pipeline.
  bool compress = true;
  /// MISR degree override; 0 = misr_degree_for(CUT output count).  Only
  /// meaningful when `compress` is set.
  unsigned misr_degree = 0;
  /// MISR output-to-stage assignment override (size = CUT output count,
  /// values < degree).  Empty = audited automatic selection, per point:
  /// once a point's applied stream is final (pseudo-random prefix plus kept
  /// top-off set), choose_misr_fold() picks an assignment with zero
  /// empirical aliasing escapes over everything that stream detects (the
  /// natural o mod K fold when it is already clean).  The audit must see
  /// the top-off patterns: the random-pattern-resistant faults they target
  /// are exactly the ones a pseudo-random-only audit can never check.
  std::vector<std::uint16_t> misr_fold;
  bool compact = true;           ///< reverse-order compaction of the top-off set
  bool verify_patterns = true;   ///< fault-sim check of every emitted pattern
  /// Cooperative deadline/cancel for the whole scheme, threaded into the
  /// fault-sim pass (per block group) and PODEM (per decision, per fault).
  /// When it fires, the run degrades instead of failing: see
  /// MixedSchemeResult::state.  nullptr = never stops.
  const Deadline* deadline = nullptr;
};

/// How much of a mixed-scheme evaluation actually ran — the anytime ladder
/// the scheduler selects over when a deadline cuts a sweep short.
enum class PointState : std::uint8_t {
  Complete,  ///< full pipeline: LFSR phase + PODEM top-off + compaction
  LfsrOnly,  ///< LFSR phase finished but the top-off did not: coverage and
             ///< tail are exact for the pseudo-random phase alone, topoff
             ///< is empty — a valid (degraded) hardware point
  Skipped,   ///< nothing usable ran; every data field is meaningless
};

std::string_view point_state_name(PointState s);

struct MixedSchemeResult {
  std::size_t lfsr_patterns = 0;
  std::size_t tail_faults = 0;     ///< undetected after the LFSR phase
  std::size_t podem_detected = 0;  ///< tail faults with a generated test
  std::size_t redundant = 0;
  std::size_t aborted = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t podem_decisions = 0;
  std::size_t topoff_before_compaction = 0;
  std::size_t topoff_patterns = 0;  ///< |topoff| after compaction
  /// Deterministic top-off set in application order.
  std::vector<BitVec> topoff;
  /// Row model of the top-off set: per-row seed schedules and fallback
  /// flags aligned with `topoff`, plus (under opt.compress) the MISR spec
  /// and golden signature over the LFSR phase + top-off stream.  Without
  /// compression every row is a fallback row and the MISR is disabled.
  /// LfsrOnly points carry no rows (and, with a MISR, the golden for their
  /// possibly truncated pseudo-random prefix); Skipped points leave it
  /// default-constructed.
  CompressedTopoff comp;
  std::vector<Fault> redundant_faults;
  std::vector<Fault> aborted_faults;
  /// Coverage after the LFSR phase alone / after LFSR + top-off, collapsed
  /// convention (denominator = collapsed faults) and total-enumerated
  /// convention (class-size weighted, denominator = uncollapsed faults).
  double lfsr_coverage = 0.0;
  double lfsr_coverage_weighted = 0.0;
  double final_coverage = 0.0;
  double final_coverage_weighted = 0.0;
  /// True iff every emitted pattern was confirmed to detect its target fault
  /// (trivially true when verification is disabled).
  bool all_verified = true;
  /// Full LFSR-phase result (coverage curves for the scheduler).
  FaultSimResult lfsr_result;
  /// Wall-clock phase breakdown: pseudo-random phase (LFSR stream + fault
  /// simulation; 0 when a precomputed result was supplied), deterministic
  /// phase (PODEM generation + X-fill + pattern verification), and back end
  /// (compaction + final tail accounting).  Sweep points report only the
  /// work actually done for that point (cache hits cost no PODEM time).
  double lfsr_seconds = 0.0;
  double podem_seconds = 0.0;
  double compact_seconds = 0.0;
  /// Row-storage wall-clock (GF(2) reseeding solves or decoded-row fills +
  /// fold audit + golden-signature simulation); a sub-measure of the phases
  /// above, not additional time.
  double solve_seconds = 0.0;
  /// Anytime ladder position (Complete unless a deadline/cancel fired) and
  /// why a non-Complete state was reached.  For a Complete point `status`
  /// is Ok and every field is bit-identical to an undeadlined run; for
  /// LfsrOnly the lfsr_* fields and final_coverage (== lfsr_coverage) are
  /// exact and topoff is empty; for Skipped nothing is valid.
  PointState state = PointState::Complete;
  StageStatus status;
};

}  // namespace bist
