#pragma once
// Test-data compression layer: LFSR reseeding on the input side, MISR
// signature compaction on the output side — the architecture move that
// replaces the fully decoded top-off ROM (width bits per stored pattern)
// with degree-bit seeds expanded by the pattern generator itself, after the
// asymmetric-polynomial reseeding exemplar (arXiv:1711.08458), with the
// schedule selected under the compressed cost as in hybrid-BIST scheduling
// (arXiv:1711.08974).
//
// Input side (seeds).  A top-off pattern of width w is w consecutive stream
// bits of the wrapper's unrolled LFSR.  Stream bit t after a seed load is a
// known GF(2) linear function of the seed (transition-matrix expansion, see
// util/gf2), so the care bits of a PODEM cube become linear equations on the
// seed: compress_cube() walks the cube in shift order through an incremental
// eliminator.  The first `degree` equations after a load are identity rows
// — a conflict can only appear at shift >= load + degree — so when the
// system goes inconsistent the solver reseeds at the last degree-aligned
// window boundary and always terminates.  Each row therefore carries one
// seed at offset 0 plus extra seeds at offsets k*degree only when one seed
// cannot cover the cube.  Free variables take bits from the caller's X-fill
// source, so seed expansion doubles as the random fill of the mixed scheme.
// Rows whose seed schedule would store at least as many bits as the decoded
// pattern (in particular any CUT with width <= degree) fall back to a
// decoded ROM row.
//
// One row model serves both storage policies.  The paper's decoded-ROM
// architecture (MixedTpgOptions::compress = false) is the case where every
// row is a fallback row, there are no seeds and the MISR is absent
// (misr.degree == 0); area, synthesis, scheduling and verification read
// only the row flags and the MISR spec, never the policy.
//
// Output side (MISR).  A degree-K multiple-input signature register with a
// primitive feedback polynomial folds the CUT outputs (output o XORs into
// stage o mod K) every cycle; the golden signature is computed by good-
// machine simulation over the exact applied stream.  Aliasing: a detected
// fault escapes iff its accumulated output-difference contribution is zero
// — probability 2^-K for a random difference stream — and the fold audit
// (choose_misr_folds / misr_aliasing_check) verifies *empirically* that no
// detected fault in the final fault list aliases on the applied set, using
// the MISR's linearity.  The audit is one engine with three properties:
//
//   one pass      a fault's signature difference over n cycles is
//                 M^(n-1) * sum_t M^-t * fold(d_t), zero iff the sum is, and
//                 the sum does not depend on n.  Points that share a stream
//                 prefix (every sweep point is the first L patterns of one
//                 LFSR stream, then its own top-off set) are audited in ONE
//                 forward pass over the longest prefix: each point is
//                 finalized when the pass reaches its length, by a copy of
//                 the accumulators plus its own top-off blocks.
//   all maps      the accumulators are per primary output, not per MISR
//                 stage, so they do not depend on the output-to-stage map;
//                 each candidate map costs one fold of them per fault and
//                 point (every stage vector is a polynomial in M applied to
//                 stage 0's, and polynomials in M commute).
//   lazy          candidates are evaluated in preference order: the natural
//                 fold alone first, the rest of the family only for points
//                 where it has escapes.
//
// Propagation is shared per FFR stem: the audited faults are bucketed by
// the FaultSimulator's stem groups, and per bucket and word of
// kMaxWordWidth x 64 lanes one cone propagation of the OR of the faults'
// stem words yields per-output flip words (FaultSimulator::stem_flips).
// Buckets are split over the FaultSimulator's worker pool, each worker with
// its own propagation scratch; per-fault accumulators are XORs and escape
// counts sums, so results are identical at every thread count.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "sim/ternary.hpp"
#include "util/bitvec.hpp"
#include "util/gf2.hpp"

namespace bist {

// ---------------------------------------------------------------------------
// MISR
// ---------------------------------------------------------------------------

/// MISR configuration: Fibonacci shift register in the Lfsr class's bit
/// convention (stage 0 receives the tap parity), degree 0 = no MISR.
///
/// `fold` is the output-to-stage assignment.  Empty means the natural
/// modulo fold (output o into stage o mod degree).  The natural fold has a
/// structural blind spot: a fault observed *only* on pairs of outputs that
/// share a stage and flip simultaneously injects nothing at all, and
/// escapes at any stream length regardless of the 2^-degree bound — wide
/// bus-structured CUTs (outputs o and o+degree in one cone) hit this in
/// practice.  choose_misr_folds() audits a deterministic candidate family of
/// assignments against the real fault list and picks one with no escapes.
struct MisrSpec {
  unsigned degree = 0;
  std::uint64_t taps = 0;
  /// Per-output stage assignment (values < degree); empty = o mod degree.
  std::vector<std::uint16_t> fold;
  bool enabled() const { return degree != 0; }
  /// Stage receiving output o.
  unsigned cls(std::size_t o) const {
    return fold.empty() ? static_cast<unsigned>(o % degree) : fold[o];
  }
};

/// Signature-register degree for a CUT with `outputs` primary outputs:
/// clamp(outputs, 16, 24).  Small enough not to dominate tiny wrappers,
/// large enough that the 2^-degree aliasing bound makes escapes on the
/// surrogate family's fault lists improbable (checked empirically; a floor
/// of 8 measurably aliases — ~350 checked faults at 2^-8 expect more than
/// one temporal escape, and c432s shows exactly that).
unsigned misr_degree_for(std::size_t outputs);

/// misr_degree_for() with the matching primitive feedback taps.
MisrSpec misr_spec_for(std::size_t outputs);

/// Materialize m's output-to-stage assignment as an explicit map.
std::vector<std::uint16_t> fold_map(const MisrSpec& m, std::size_t outputs);

/// Fold one cycle's CUT output values into the injection word: output o
/// XORs into stage m.cls(o).
std::uint64_t misr_fold(const MisrSpec& m, const BitVec& outputs);

/// One MISR cycle: shift with feedback parity, XOR the injection word.
std::uint64_t misr_step(const MisrSpec& m, std::uint64_t state,
                        std::uint64_t inject);

/// Golden signature: good-machine simulation of `cut` over the applied
/// pattern stream (already packed into blocks; each block's `count` gives
/// its live lanes), folding every cycle's outputs, starting from `state` —
/// chainable, so LFSR phase and top-off phase compose without materializing
/// one concatenated stream.  Throws std::invalid_argument on a block of
/// more than 64 patterns or of the wrong input width.
std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const PatternBlock> blocks,
                             const MisrSpec& m, std::uint64_t state = 0);

/// Convenience overload over unpacked patterns, starting from state 0.
std::uint64_t misr_signature(const SimKernel& cut,
                             std::span<const BitVec> applied,
                             const MisrSpec& m);

/// Empirical aliasing audit over an applied pattern set.
struct AliasingReport {
  std::size_t detected_checked = 0;  ///< faults with first_detected >= 0
  std::size_t escapes = 0;           ///< detected faults whose signature
                                     ///< equals the golden signature
  double bound = 0;                  ///< 2^-degree single-fault bound
};

/// One applied stream the fold audit signs off: the first `prefix` patterns
/// of a stream shared by every point of the call, then the point's own
/// `topoff` blocks.
struct AuditPoint {
  std::size_t prefix = 0;
  std::span<const PatternBlock> topoff;
  /// Per fault of the simulator: index of the first detecting pattern
  /// within this point's applied stream (-1 = not detected), as a run over
  /// that stream reports it.  Faults with 0 <= first_detected < stream
  /// length are audited; no fault differs at an output before its first
  /// detection, so the pass skips those cycles.
  std::span<const std::int64_t> first_detected;
};

/// Empirical aliasing audit of one fold over every point's applied stream:
/// for every detected fault, accumulate its output-difference MISR
/// contribution and count the faults whose contribution cancels to zero
/// (signature == golden).  Exact — per-output difference words come from
/// the fault simulator's propagation engine — and independent of the golden
/// value itself by MISR linearity.  `stream` must cover every point's
/// prefix; verify_wrapper audits its applied stream as one point with no
/// separate top-off.  `threads` sizes fsim's worker pool (resolve_threads
/// semantics); the reports are the same at every width.  Throws
/// std::invalid_argument when a point's `first_detected` does not hold one
/// entry per fault of `fsim`, a top-off block does not hold 1..64 patterns
/// of the CUT's inputs, or `stream` is short of a prefix — every stream
/// block below the longest prefix but the last must be full, since lane l
/// of block b is cycle 64b + l.
std::vector<AliasingReport> misr_aliasing_check(
    FaultSimulator& fsim, const SimKernel& cut,
    std::span<const PatternBlock> stream, std::span<const AuditPoint> points,
    const MisrSpec& m, unsigned threads = 1);

/// The audited fold family for a degree-K MISR over `outputs` CUT outputs,
/// in preference order: the natural o mod K fold, the diagonal staggers
/// (o + s*(o/K)) mod K for s = 1..K-1, then 8 deterministic hashed
/// assignments.
std::vector<std::vector<std::uint16_t>> misr_fold_candidates(
    unsigned degree, std::size_t outputs);

/// Audited fold selection for every point at once: evaluate the
/// misr_fold_candidates() family against the detected faults of each
/// point's applied stream, and return `base` per point with the first
/// assignment whose empirical escape count is zero (preferring the natural
/// fold, so clean CUTs keep the canonical wiring).  When no candidate is
/// clean the one with the fewest escapes wins (first on ties);
/// verify_wrapper/bench report the residue honestly.  `stream` must cover
/// every point's prefix.  Callers audit the exact applied stream of the
/// point being signed off — in particular including the top-off patterns,
/// since the structural escapers are random-pattern-resistant faults the
/// pseudo-random phase never detects (and so never audits).  Same
/// `threads` contract and argument checks as misr_aliasing_check.
std::vector<MisrSpec> choose_misr_folds(FaultSimulator& fsim,
                                        const SimKernel& cut,
                                        std::span<const PatternBlock> stream,
                                        std::span<const AuditPoint> points,
                                        const MisrSpec& base,
                                        unsigned threads = 1);

// ---------------------------------------------------------------------------
// Seed schedules
// ---------------------------------------------------------------------------

/// One reseed event: load `seed` into the LFSR when top-off row `row` is
/// active, at unroll offset `offset` (0 = before the row's first stream
/// bit; always a multiple of the LFSR degree).
struct SeedEvent {
  std::uint32_t row = 0;
  std::uint32_t offset = 0;
  std::uint64_t seed = 0;
};

/// Row-model representation of one scheduled point's top-off set, carried
/// from the sweep through the plan into synthesis and verification.  The
/// stored patterns themselves stay in MixedSchemeResult/BistPlan::topoff —
/// for seeded rows they are *defined* as the seed expansion (bit-identical
/// by construction, re-proved by verify_wrapper).  A decoded-ROM plan has
/// every `fallback` flag set, no seeds and a disabled MISR.
struct CompressedTopoff {
  unsigned degree = 0;       ///< seed width = the plan's LFSR degree
  std::vector<SeedEvent> seeds;        ///< sorted by (row, offset)
  std::vector<std::uint8_t> fallback;  ///< per row: 1 = decoded ROM row
  MisrSpec misr;             ///< degree 0 = no MISR (decoded-ROM policy)
  std::uint64_t golden = 0;  ///< expected signature after the full stream
  /// CUT primary-output count (fixes the MISR fold structure, so the area
  /// model can price the injection XORs without the kernel in hand).
  std::size_t cut_outputs = 0;
  double solve_seconds = 0;

  std::uint64_t seed_rom_bits() const { return seeds.size() * degree; }
  std::size_t fallback_rows() const;
  /// Distinct reseed offsets in use, ascending (one load mux per offset).
  std::vector<std::uint32_t> offsets_used() const;
};

/// compress_cube() result for one top-off row.
struct RowCompression {
  BitVec pattern;                ///< stored/applied pattern (expansion or
                                 ///< decoded fallback fill)
  std::vector<SeedEvent> seeds;  ///< offsets ascending; row field left 0
  bool fallback = false;
};

/// Complete a PODEM cube into a decoded ROM row: specified bits are copied,
/// each X bit takes the next `free_bit()` in cube order.  A PODEM cube
/// detects its fault under every completion, so the fill is free to chase
/// incidental detections.
BitVec fill_decoded_row(std::span<const Ternary> cube,
                        const std::function<bool()>& free_bit);

/// Solve one PODEM cube into a reseeding schedule (or a decoded fallback
/// row when seeds would not save storage).  `free_bit` supplies X-fill bits:
/// consumed `degree` times per seed (seeded rows, segment order then
/// variable order; only the free-variable bits take effect) or once per X
/// cube bit (fallback rows, cube order) — deterministic either way.
RowCompression compress_cube(std::span<const Ternary> cube, unsigned degree,
                             std::uint64_t taps,
                             const std::function<bool()>& free_bit);

/// Re-expand a row's seed schedule through the LFSR: `width` stream bits,
/// reloading at each event's offset.  verify_wrapper uses this to prove the
/// stored top-off set is exactly the seed expansion.
BitVec expand_row(std::span<const SeedEvent> seeds, unsigned degree,
                  std::uint64_t taps, std::size_t width);

}  // namespace bist
