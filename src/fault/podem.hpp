#pragma once
// PODEM (path-oriented decision making) deterministic test generation for
// single stuck-at faults — the generator behind the mixed scheme's top-off
// phase.  One levelized, event-driven ternary implication pass over a shared
// SimKernel carries both machines: the good value of every gate, and the
// faulty value only inside the fault's transitive fanout cone — outside it
// the faulty machine equals the good one, so it is never evaluated there.
// The stuck value is applied in the faulty evaluation of the fault site (the
// site's output for a stem fault, its faulted fanin pin for a branch fault).
// A signal whose (good, faulty) pair is (1,0) carries D, (0,1) carries D-bar;
// a test is found when some primary output pair differs on binary values.
//
// The search is the classic PODEM loop: pick an objective (activate the
// fault line, then advance a D-frontier gate), backtrace it through the
// X-valued region to a primary-input assignment, simulate, and backtrack on
// failure.  Pruning is conservative — a branch is cut only when the fault
// provably cannot be activated, or no X-path from a difference (or the
// still-unresolved fault site) reaches a primary output under the current
// assignment — so an exhausted search proves the fault redundant.  Searches
// that hit the backtrack limit are reported Aborted, separately from
// Redundant.
//
// Cost per search node:
//  - Decisions live on an explicit stack (PI, value, trail mark, flipped),
//    not on the call stack, so a decision path as long as the PI count
//    costs heap memory only and never overflows a thread's stack.
//  - Every implication records the gates whose (good, faulty) pair changed
//    on a trail together with the old pair.  Backtracking pops the trail
//    back to the decision's mark instead of re-propagating X: the implied
//    state is a pure function of the PI assignment, so the restore is exact.
//  - The X-path check scans the cone once for the D gates and then runs a
//    depth-first search through X-valued gates that stops at the first
//    primary output; the objective takes its D-frontier from the same D
//    list instead of rescanning the cone.

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/ternary.hpp"
#include "util/deadline.hpp"

namespace bist {

class WorkerPool;

enum class PodemStatus : std::uint8_t {
  Detected,   ///< a primary output carries a binary difference under the cube
  Redundant,  ///< search space exhausted: no test exists
  Aborted,    ///< backtrack limit hit before a verdict
  Cancelled,  ///< deadline/cancel fired mid-search: NO verdict — unlike
              ///< Aborted this says nothing about the fault and must never
              ///< be cached or counted as a search outcome
};

std::string_view podem_status_name(PodemStatus s);

struct PodemOptions {
  /// Backtracks (decision reversals) allowed per fault before aborting.
  /// Detection saturates at a few hundred on the surrogate family; proofs of
  /// redundancy through reconvergent XOR/multiplier logic are the budget
  /// eaters and abort instead (see BENCH JSON podem.aborted per circuit).
  std::uint32_t backtrack_limit = 1000;
  /// Cooperative deadline/cancel, polled once per decision inside the
  /// search (and per fault by PodemBatch before claiming the next one).  A
  /// search stopped mid-flight returns PodemStatus::Cancelled; verdicts
  /// reached before the stop are untouched and bit-identical to an
  /// undeadlined run.  nullptr = never stops.
  const Deadline* deadline = nullptr;
};

struct PodemResult {
  PodemStatus status = PodemStatus::Redundant;
  /// Per primary input (PI order), VX = don't care.  Valid iff Detected.
  std::vector<Ternary> cube;
  std::uint32_t backtracks = 0;
  std::uint64_t decisions = 0;
};

/// Reusable PODEM engine; generate() may be called for any number of faults.
/// The kernel must outlive the engine.
///
/// Reuse contract (what lets pooled workers hold one engine each): generate()
/// starts from the engine's all-X state (computed once, at construction) and
/// resets every per-fault field (trail and decision stack included; the
/// X-path check's visited marks are stamped per call), so the result of a
/// call depends only on (kernel, fault, options) — never on the faults
/// generated before it.  The engine carries no RNG; the search is fully
/// deterministic.
class Podem {
 public:
  explicit Podem(const SimKernel& k);

  PodemResult generate(const Fault& f, const PodemOptions& opt = {});

 private:
  /// Faulty-machine value: its own inside the fault cone, the good value
  /// outside it.
  Ternary fval(KIndex u) const { return in_cone_[u] ? fv_[u] : gv_[u]; }
  /// Unresolved in some machine (cone gates only).
  bool is_x(KIndex u) const {
    return gv_[u] == Ternary::VX || fv_[u] == Ternary::VX;
  }
  Ternary eval_good(KIndex u) const;
  Ternary eval_faulty(KIndex u) const;
  /// Assign binary `v` to the unassigned PI `idx` and propagate both
  /// machines, recording every changed pair on the trail.
  void assign(std::uint32_t idx, Ternary v);
  /// Restore every pair recorded after trail position `mark`.
  void undo(std::size_t mark);
  bool detected() const;
  /// Also fills d_gates_, which objective() reads.
  bool x_path_ok();
  bool objective(KIndex* gate, Ternary* v) const;
  KIndex pick_x_fanin(KIndex g, bool easiest) const;
  void backtrace(KIndex g, Ternary v, std::uint32_t* pi_idx, Ternary* pv) const;
  bool search();
  void build_cone(KIndex site);

  struct TrailEntry {
    KIndex gate;
    Ternary good, faulty;  // the pair before the change
  };
  struct Decision {
    std::uint32_t pi;
    Ternary value;
    bool flipped;
    std::size_t mark;  // trail size before the decision's implication
  };

  const SimKernel* k_;
  std::vector<Ternary> x_state_;  // good values with every PI at X
  std::vector<Ternary> gv_;       // good machine, every gate
  std::vector<Ternary> fv_;       // faulty machine, valid on cone_ only
  std::vector<std::vector<KIndex>> level_queues_;  // event scratch
  std::vector<char> queued_;
  std::vector<std::uint32_t> pi_ordinal_;  // kernel idx -> PI index, ~0 if not PI
  std::vector<std::uint32_t> po_dist_;     // min fanout hops to a primary output

  // Per-fault state.
  KIndex site_ = 0;              // fault site gate
  KIndex line_ = 0;              // faulted line's driving signal
  bool branch_fault_ = false;
  unsigned branch_pin_ = 0;      // faulted fanin slot of site_ (branch fault)
  Ternary stuck_t_ = Ternary::V0;
  std::vector<KIndex> cone_;     // transitive fanout of site_ incl site_, ascending
  std::vector<char> in_cone_;
  std::vector<TrailEntry> trail_;
  std::vector<Decision> decisions_stack_;
  std::vector<KIndex> d_gates_;       // D gates of the cone, ascending
  std::vector<KIndex> dfs_;           // x_path_ok scratch
  std::vector<std::uint32_t> seen_;   // x_path_ok visited marks
  std::uint32_t stamp_ = 0;           // current seen_ mark
  std::uint32_t backtracks_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint32_t limit_ = 0;
  bool aborted_ = false;
  bool cancelled_ = false;
  const Deadline* deadline_ = nullptr;
};

/// Parallel PODEM: one persistent engine (its own implication state) per
/// worker of an owned WorkerPool, reused across generate() calls —
/// the construction cost (pool threads + per-engine kernel-sized scratch) is
/// paid once per batch object, which is what a sweep over many candidate
/// LFSR lengths needs.
///
/// generate() partitions the fault list dynamically at grain 1 (per-fault
/// cost is heavily skewed: an easy detection is microseconds while a
/// redundancy proof or abort burns the whole backtrack budget) and each
/// verdict lands in its fault's slot of the returned vector.  Combined with
/// the per-engine determinism contract of Podem::generate, the result is in
/// input order and bit-identical for every worker count.
class PodemBatch {
 public:
  /// `threads` resolved as in resolve_threads(); 1 spawns no threads and
  /// runs on the caller.  The kernel must outlive the batch.
  PodemBatch(const SimKernel& k, unsigned threads);
  ~PodemBatch();

  PodemBatch(const PodemBatch&) = delete;
  PodemBatch& operator=(const PodemBatch&) = delete;

  unsigned workers() const;

  /// One verdict per fault, input order; see the class comment.
  std::vector<PodemResult> generate(std::span<const Fault> faults,
                                    const PodemOptions& opt = {});

 private:
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<Podem>> engines_;  // one per worker
};

}  // namespace bist
