#pragma once
// The mixed-scheme engine: evaluate the paper's central trade-off — LFSR
// test length vs. stored deterministic patterns (ROM bits) — at one or more
// candidate lengths for the cost of little more than one evaluation at the
// longest.  A single length is a one-length sweep.  Four stacked
// optimizations over evaluating each length independently:
//
//   one LFSR pass      the fault simulator runs once, at max(lengths); a
//                      fault is in the tail at length L iff its
//                      first_detected index is >= L or it was never
//                      detected, so every point's tail and coverage prefix
//                      is derived from that single pass
//                      (FaultSimResult::tail_at / prefix_result) — the
//                      pseudo-random phase is never re-simulated
//   parallel PODEM     tail faults are partitioned across a persistent
//                      PodemBatch (per-worker engines, dynamic grain-1
//                      chunking, fixed-fault-order reduction), so verdicts
//                      are bit-identical for every thread count
//   cube caching       lengths are swept descending, so the tail only grows
//                      from point to point; a cube, redundancy proof, or
//                      aborted verdict generated when a fault first enters
//                      the tail is reused at every shorter length (a PODEM
//                      cube is valid regardless of the LFSR phase — only
//                      tail membership changes), making total PODEM work
//                      equal to ONE run at min(lengths)
//   one fold audit     after the point loop, the MISR sign-off audits every
//                      point's fold in ONE forward pass over the shared
//                      LFSR stream (choose_misr_folds: lazy candidates,
//                      faults split over the fsim worker pool), each point
//                      finalized at its length with its own top-off set,
//                      then signs each point's exact applied stream
//
// Per-point X-fill, verification, compaction, and tail accounting still run
// on the reused cubes (the fill stream replays per point, so the emitted
// pattern sets match an independent evaluation exactly).  Every point of a
// multi-length sweep is bit-identical to a one-length sweep at that length —
// tails, cube sets, verdicts, top-off patterns, and both coverage
// conventions — at every thread count; tests/test_mixed_sweep.cpp enforces
// that differential.

#include <cstdint>
#include <span>
#include <vector>

#include "tpg/mixed.hpp"

namespace bist {

/// Sweep-level counters and timings (per-point fields live in each
/// MixedSchemeResult).
struct MixedSweepStats {
  std::size_t podem_calls = 0;       ///< engine invocations (cache misses)
  std::size_t podem_cache_hits = 0;  ///< verdicts served by the cube cache
  unsigned podem_threads = 1;        ///< resolved PODEM worker count
  double lfsr_seconds = 0.0;     ///< the one shared max-length fault-sim pass
  double podem_seconds = 0.0;    ///< all points: generation + fill + verify
  /// All points: compaction + accounting, plus the shared MISR sign-off
  /// (fold audit + golden signatures, run once after the point loop).
  double compact_seconds = 0.0;
  /// All points: row storage (reseeding solves or decoded-row fills) plus
  /// the shared MISR sign-off — a sub-measure of the two above, not
  /// additional wall-clock.
  double solve_seconds = 0.0;
};

struct MixedSweepResult {
  std::vector<std::size_t> lengths;      ///< as given, order preserved
  std::vector<MixedSchemeResult> points; ///< parallel to `lengths`
  std::size_t width = 0;  ///< pattern width (= circuit PI count) of the run
  MixedSweepStats stats;
  /// Ok when every point ran to completion; otherwise the first stop reason
  /// (deadline/cancel) encountered.  Individual points carry their own
  /// state/status — a non-Ok sweep still holds every Complete point computed
  /// before the stop, bit-identical to an uninterrupted run.
  StageStatus status;
};

/// Evaluate the mixed scheme at every length in `lengths` (any order,
/// duplicates allowed; opt.lfsr_patterns is ignored — the lengths drive the
/// stream).  When `full` is non-null the caller vouches it is a run() result
/// of `fsim` over the LFSR stream `opt` describes covering at least
/// max(lengths) patterns, and the shared pass is skipped (stats.lfsr_seconds
/// stays 0).  Deterministic for a given kernel + options at every thread
/// count.
///
/// Anytime contract under opt.deadline: the deadline is polled per sweep
/// point and threaded into the shared LFSR pass and every PODEM batch.  When
/// it fires, points already finished stay Complete (bit-identical to an
/// uninterrupted sweep), the in-flight and remaining points degrade to
/// LfsrOnly where their exact LFSR prefix is available and Skipped where it
/// is not, and if NOTHING usable survived (deadline beat even the shared
/// pass) a bounded undeadlined fault-sim floor at min(lengths) produces one
/// exact LfsrOnly point — the sweep always returns at least one point a
/// scheduler can select and a wrapper can prove.
MixedSweepResult run_mixed_sweep(const SimKernel& k, FaultSimulator& fsim,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt = {},
                                 const FaultSimResult* full = nullptr);

/// Convenience overload owning its FaultSimulator.
MixedSweepResult run_mixed_sweep(const SimKernel& k,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt = {});

}  // namespace bist
