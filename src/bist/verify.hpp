#pragma once
// Closed-loop verification of a synthesized BIST wrapper — the proof that
// the generated hardware, simulated gate by gate, reproduces the scheduled
// mixed-scheme point exactly.
//
// simulate_wrapper() drives the one-frame wrapper through the SimKernel
// cycle by cycle: each cycle the current LFSR/counter state is applied on
// the state primary inputs, the wrapper is evaluated, the pattern the mux
// block applied to the embedded CUT is read off the (named) CUT input nets,
// and the next-state primary outputs are fed back.  Nothing about the
// expected stream is assumed — the state evolution comes entirely out of the
// synthesized gates.
//
// verify_wrapper() then checks the contract against the scheduled point:
//   - the first lfsr_patterns applied patterns are bit-identical to the
//     Lfsr class's stream for the plan's (degree, taps, seed);
//   - the remaining applied patterns equal the plan's stored top-off set in
//     application order (hence set-identical);
//   - fault-simulating the CUT over the applied patterns yields exactly the
//     point's final coverage, under both accounting conventions, down to
//     the double (same integer numerators over the same denominators);
//   - every seeded (non-fallback) top-off row is bit-identical to the
//     software re-expansion of its seed schedule (expand_row), proving the
//     stored set really is the seed expansion (trivial for an all-fallback
//     decoded-ROM plan);
//   - with a MISR (plan.comp.misr.enabled()), the wrapper's MISR lands
//     exactly on the plan's golden signature and raises bist_sign_ok on the
//     final cycle; without one the wrapper carries no signature state;
//   - with a MISR, the empirical aliasing audit (misr_aliasing_check) is
//     reported: detected faults whose faulty signature would equal the
//     golden one.  Escapes do not fail ok() — they bound the compaction's
//     quality and are gated to zero by the bench/tests on the surrogate
//     family.

#include <cstdint>
#include <vector>

#include "bist/schedule.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/netlist.hpp"
#include "tpg/mixed.hpp"
#include "util/bitvec.hpp"
#include "util/deadline.hpp"

namespace bist {

struct WrapperSimResult {
  /// One applied CUT input pattern per cycle (lfsr phase then ROM phase).
  std::vector<BitVec> applied;
  std::uint64_t final_lfsr_state = 0;
  std::uint64_t final_counter = 0;
  /// MISR state after the last cycle (read off bist_misr_n) and the
  /// comparator output on that cycle; both 0/false when the plan carries no
  /// MISR.
  std::uint64_t final_misr = 0;
  bool sign_ok = false;
  /// Ok for a full run; a cooperative stop leaves the exact prefix of
  /// cycles that DID run in `applied` and records why here.
  StageStatus status;
};

/// Run the wrapper for plan.test_time cycles.  `cut` provides the input
/// net names (the wrapper nets are resolved as "cut_<name>",
/// "bist_lfsr_s<i>", ... per the synth conventions); the wrapper may be the
/// synthesized netlist or a .bench re-parse of it.  Throws
/// std::runtime_error when an expected net is missing.  `deadline` is
/// polled once per cycle (bounded stop latency); nullptr never stops.
WrapperSimResult simulate_wrapper(const Netlist& wrapper, const Netlist& cut,
                                  const BistPlan& plan,
                                  const Deadline* deadline = nullptr);

struct WrapperVerification {
  bool lfsr_phase_identical = false;
  bool topoff_identical = false;
  bool coverage_identical = false;
  /// Row-model checks; trivially true for an all-fallback, MISR-less plan.
  bool seeds_identical = false;      ///< seeded rows == expand_row re-expansion
  bool signature_identical = false;  ///< final MISR == golden, sign_ok raised
  std::size_t cycles = 0;
  double achieved_coverage = 0;
  double achieved_coverage_weighted = 0;
  std::uint64_t misr_signature = 0;  ///< wrapper's final signature
  /// Empirical MISR aliasing audit over the applied stream (zeroed when the
  /// plan has no MISR): reported, not part of ok().
  AliasingReport aliasing;
  /// Ok when every check ran; a cooperative stop (mid-simulation or inside
  /// the coverage fault-sim pass) records why here and leaves the unreached
  /// checks false — ok() is then false, but the stop is not an error.
  StageStatus status;
  bool ok() const {
    return lfsr_phase_identical && topoff_identical && coverage_identical &&
           seeds_identical && signature_identical;
  }
};

/// Simulate the wrapper and check it against the scheduled point (the
/// MixedSchemeResult the plan was chosen from, i.e.
/// sweep.points[plan.point_index]).  `fopt` only selects the fault-sim
/// engine configuration; detection results are engine-invariant.
/// `deadline` (falling back to fopt.deadline when null) is polled per
/// wrapper cycle and threaded into the coverage fault-sim pass.
WrapperVerification verify_wrapper(const Netlist& wrapper, const Netlist& cut,
                                   const BistPlan& plan,
                                   const MixedSchemeResult& point,
                                   const FaultSimOptions& fopt = {},
                                   const Deadline* deadline = nullptr);

}  // namespace bist
