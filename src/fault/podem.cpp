#include "fault/podem.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {

namespace {

inline bool is_binary(Ternary v) { return v != Ternary::VX; }

}  // namespace

std::string_view podem_status_name(PodemStatus s) {
  switch (s) {
    case PodemStatus::Detected: return "detected";
    case PodemStatus::Redundant: return "redundant";
    case PodemStatus::Aborted: return "aborted";
    case PodemStatus::Cancelled: return "cancelled";
  }
  return "?";
}

Podem::Podem(const SimKernel& k) : k_(&k) {
  // All-X start state: constants resolved, everything they reach settled.
  // Kernel order is level order, so one forward sweep is a full evaluation.
  gv_.assign(k.gate_count(), Ternary::VX);
  for (KIndex u = 0; u < k.gate_count(); ++u)
    if (k.type(u) != GateType::Input) gv_[u] = eval_good(u);
  x_state_ = gv_;
  fv_.assign(k.gate_count(), Ternary::VX);
  level_queues_.resize(k.max_level() + 1);
  queued_.assign(k.gate_count(), 0);
  pi_ordinal_.assign(k.gate_count(), ~0u);
  for (std::uint32_t i = 0; i < k.inputs().size(); ++i)
    pi_ordinal_[k.inputs()[i]] = i;
  in_cone_.assign(k.gate_count(), 0);
  seen_.assign(k.gate_count(), 0);
  // Static distance-to-PO (min fanout hops), used to steer the D-frontier
  // towards the closest output.  Kernel order is level order, so a reverse
  // sweep sees every fanout before its driver.
  po_dist_.assign(k.gate_count(), ~0u);
  for (KIndex u = static_cast<KIndex>(k.gate_count()); u-- > 0;) {
    if (k.is_output(u)) { po_dist_[u] = 0; continue; }
    for (KIndex f : k.fanouts(u))
      if (po_dist_[f] != ~0u)
        po_dist_[u] = std::min(po_dist_[u], po_dist_[f] + 1);
  }
}

void Podem::build_cone(KIndex site) {
  for (KIndex u : cone_) in_cone_[u] = 0;
  cone_.clear();
  cone_.push_back(site);
  in_cone_[site] = 1;
  for (std::size_t i = 0; i < cone_.size(); ++i)
    for (KIndex f : k_->fanouts(cone_[i]))
      if (!in_cone_[f]) {
        in_cone_[f] = 1;
        cone_.push_back(f);
      }
  std::sort(cone_.begin(), cone_.end());  // ascending == level order
}

Ternary Podem::eval_good(KIndex u) const {
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  const std::uint32_t b = off[u];
  return eval_ternary(k_->type(u), off[u + 1] - b,
                      [&](std::size_t i) { return gv_[fi[b + i]]; });
}

Ternary Podem::eval_faulty(KIndex u) const {
  if (u == site_ && !branch_fault_) return stuck_t_;
  const std::uint32_t* off = k_->fanin_offset_data();
  const KIndex* fi = k_->fanin_data();
  const std::uint32_t b = off[u];
  const std::size_t pin =
      u == site_ ? static_cast<std::size_t>(branch_pin_) : ~std::size_t{0};
  return eval_ternary(k_->type(u), off[u + 1] - b, [&](std::size_t i) {
    return i == pin ? stuck_t_ : fval(fi[b + i]);
  });
}

void Podem::assign(std::uint32_t idx, Ternary v) {
  // Levelized event propagation from the PI: every gate is evaluated at
  // most once, in strictly increasing level order, the faulty machine only
  // on the cone, and the walk stops at the last level that still has
  // events — the cost follows the events, not the gate count.  A PI is in
  // the cone only as a stem-fault site, whose faulty value is the stuck
  // value whatever the assignment.
  const KIndex root = k_->inputs()[idx];
  trail_.push_back({root, gv_[root], fv_[root]});
  gv_[root] = v;
  const std::uint32_t* lvl = k_->level_data();
  std::size_t pending = 0;
  const auto schedule_fanouts = [&](KIndex g) {
    for (const KIndex f : k_->fanouts(g))
      if (!queued_[f]) {
        queued_[f] = 1;
        level_queues_[lvl[f]].push_back(f);
        ++pending;
      }
  };
  schedule_fanouts(root);
  for (unsigned lv = lvl[root] + 1; pending != 0; ++lv) {
    auto& q = level_queues_[lv];
    pending -= q.size();  // fanouts land on higher levels only
    for (const KIndex u : q) {
      queued_[u] = 0;
      const Ternary g = eval_good(u);
      const Ternary f = in_cone_[u] ? eval_faulty(u) : fv_[u];
      if (g == gv_[u] && f == fv_[u]) continue;
      trail_.push_back({u, gv_[u], fv_[u]});
      gv_[u] = g;
      fv_[u] = f;
      schedule_fanouts(u);
    }
    q.clear();
  }
}

void Podem::undo(std::size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    gv_[e.gate] = e.good;
    fv_[e.gate] = e.faulty;
    trail_.pop_back();
  }
}

bool Podem::detected() const {
  for (KIndex o : k_->outputs()) {
    const Ternary g = gv_[o];
    const Ternary f = fval(o);
    if (is_binary(g) && is_binary(f) && g != f) return true;
  }
  return false;
}

bool Podem::x_path_ok() {
  // A fault effect can still reach a primary output iff a path of gates
  // unresolved in some machine leads there from the unresolved site or from
  // a fanout of a D gate.  Ternary values are monotone under further PI
  // assignment (binary never reverts to X), so a signal pair that is
  // binary-equal is dead for good: if no such path exists, no completion of
  // the current assignment detects the fault.  One value scan collects the
  // D gates (objective() reads them), then a depth-first search through X
  // gates stops at the first primary output.  Fanouts of cone gates stay in
  // the cone, so every gate visited here is a cone gate.
  d_gates_.clear();
  for (const KIndex u : cone_)
    if (is_binary(gv_[u]) && is_binary(fv_[u]) && gv_[u] != fv_[u])
      d_gates_.push_back(u);
  if (++stamp_ == 0) {  // wrapped: clear the stale marks once
    std::fill(seen_.begin(), seen_.end(), 0);
    stamp_ = 1;
  }
  dfs_.clear();
  const auto push = [&](KIndex u) {
    if (seen_[u] != stamp_ && is_x(u)) {
      seen_[u] = stamp_;
      dfs_.push_back(u);
    }
  };
  const auto reaches_po = [&] {
    while (!dfs_.empty()) {
      const KIndex u = dfs_.back();
      dfs_.pop_back();
      if (k_->is_output(u)) return true;
      for (const KIndex f : k_->fanouts(u)) push(f);
    }
    return false;
  };
  push(site_);  // the fault effect can still materialize here
  if (reaches_po()) return true;
  for (const KIndex u : d_gates_) {
    if (k_->is_output(u)) return true;  // detected, caller handles first
    for (const KIndex f : k_->fanouts(u)) push(f);
    if (reaches_po()) return true;
  }
  return false;
}

bool Podem::objective(KIndex* gate, Ternary* v) const {
  // Phase 1: activate the fault — drive the faulted line to the opposite of
  // its stuck value.
  if (gv_[line_] == Ternary::VX) {
    *gate = line_;
    *v = stuck_t_ == Ternary::V0 ? Ternary::V1 : Ternary::V0;
    return true;
  }
  // Phase 2: advance the D-frontier — a gate whose output is unresolved in
  // some machine and that has a difference on a fanin (or is the site gate
  // of a branch fault, whose difference lives on the forced pin).  Among the
  // frontier gates take the one closest to a primary output: the shortest
  // propagation path needs the fewest side-input justifications.  Ties go
  // to the lowest kernel index.  The frontier gates are the X fanouts of
  // the D gates x_path_ok() just collected (plus a branch fault's site).
  KIndex best = kNoGate;
  const auto consider = [&](KIndex u) {
    if (!is_x(u)) return;
    if (best == kNoGate || po_dist_[u] < po_dist_[best] ||
        (po_dist_[u] == po_dist_[best] && u < best))
      best = u;
  };
  if (branch_fault_) consider(site_);
  for (const KIndex d : d_gates_)
    for (const KIndex u : k_->fanouts(d)) consider(u);
  if (best == kNoGate) return false;
  const KIndex pick = pick_x_fanin(best, /*easiest=*/false);
  if (pick == kNoGate) return false;
  const int c = controlling_value(k_->type(best));
  *gate = pick;
  // Side inputs must take the non-controlling value; XOR-family gates
  // sensitize for any binary side value, so the choice there is free.
  *v = c < 0 ? Ternary::V0 : (c == 0 ? Ternary::V1 : Ternary::V0);
  return true;
}

KIndex Podem::pick_x_fanin(KIndex g, bool easiest) const {
  // Among the unresolved fanins of g prefer the good machine's X region
  // (faulty-only X happens just inside the fault cone), then use logic level
  // as a controllability proxy: a shallow X (easiest) when a single
  // controlling input decides the gate, a deep X (hardest) when every input
  // must be justified — failing on the hard one first prunes earlier.
  KIndex pick = kNoGate;
  bool pick_good = false;
  for (KIndex w : k_->fanins(g)) {
    const bool gx = gv_[w] == Ternary::VX;
    const bool fx = fval(w) == Ternary::VX;
    if (!gx && !fx) continue;
    if (pick == kNoGate || (gx && !pick_good) ||
        (gx == pick_good &&
         (easiest ? k_->level(w) < k_->level(pick)
                  : k_->level(w) > k_->level(pick)))) {
      pick = w;
      pick_good = gx;
    }
  }
  return pick;
}

void Podem::backtrace(KIndex g, Ternary v, std::uint32_t* pi_idx,
                      Ternary* pv) const {
  // Walk the objective backwards through the X region to a primary input.
  // Every non-input gate on the walk has an unresolved fanin (its own value
  // is unresolved in some machine and pin forces are binary), so the walk
  // always lands on an unassigned PI.
  while (k_->type(g) != GateType::Input) {
    const GateType t = k_->type(g);
    const bool inv = is_inverting(t);
    const int c = controlling_value(t);
    KIndex next;
    if (t == GateType::Xor || t == GateType::Xnor) {
      // Parity-aware: the X input must supply v corrected for the inversion
      // and the parity already contributed by the binary fanins (unresolved
      // side fanins are optimistically counted as 0).
      bool parity = inv;
      next = pick_x_fanin(g, /*easiest=*/true);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
      for (KIndex w : k_->fanins(g))
        if (w != next && gv_[w] == Ternary::V1) parity = !parity;
      if (parity) v = t_not(v);
    } else {
      if (inv) v = t_not(v);
      // v == controlling: one input decides, take the easiest X; otherwise
      // every input needs the non-controlling value, take the hardest.
      const bool one_input_decides =
          c >= 0 && v == (c == 0 ? Ternary::V0 : Ternary::V1);
      next = pick_x_fanin(g, one_input_decides);
      if (next == kNoGate)
        throw std::logic_error("Podem::backtrace: no X fanin on the walk");
    }
    g = next;
  }
  *pi_idx = pi_ordinal_[g];
  *pv = v;
}

bool Podem::search() {
  // Depth-first over the decision stack.  Each pass of the outer loop is
  // one search node; a failed node backtracks: the innermost decision that
  // has not been flipped yet is undone and retried with the opposite value,
  // the flipped ones above it are undone and dropped.
  for (;;) {
    // Cooperative stop, polled once per search node (== once per decision
    // plus the root): a node costs a ternary implication, orders of
    // magnitude above the poll, so cancellation latency is one node while
    // an undeadlined search is untouched — the poll reads a clock and a
    // flag, never search state.
    if (deadline_ && deadline_->should_stop()) {
      cancelled_ = true;
      aborted_ = true;
      return false;
    }
    if (detected()) return true;
    KIndex og;
    Ternary ov;
    // Prune when activation is impossible under this cube, when every
    // propagation path is dead, or when no objective is left.
    if (gv_[line_] != stuck_t_ && x_path_ok() && objective(&og, &ov)) {
      std::uint32_t idx;
      Ternary v;
      backtrace(og, ov, &idx, &v);
      ++decisions_;
      decisions_stack_.push_back({idx, v, false, trail_.size()});
      assign(idx, v);
      continue;
    }
    for (;;) {
      if (decisions_stack_.empty()) return false;  // exhausted: redundant
      Decision& d = decisions_stack_.back();
      undo(d.mark);
      if (d.flipped) {
        decisions_stack_.pop_back();
        continue;
      }
      // An abort collapses the whole stack: nothing above it is retried.
      if (++backtracks_ > limit_) {
        aborted_ = true;
        return false;
      }
      d.flipped = true;
      assign(d.pi, t_not(d.value));
      break;
    }
  }
}

PodemResult Podem::generate(const Fault& f, const PodemOptions& opt) {
  if (f.gate >= k_->gate_count())
    throw std::out_of_range("Podem::generate: fault gate out of range");
  site_ = k_->index_of(f.gate);
  branch_fault_ = !f.is_output_fault();
  stuck_t_ = f.stuck ? Ternary::V1 : Ternary::V0;
  if (branch_fault_) {
    if (static_cast<std::size_t>(f.pin) >= k_->fanins(site_).size())
      throw std::out_of_range("Podem::generate: fault pin out of range");
    branch_pin_ = static_cast<unsigned>(f.pin);
    line_ = k_->fanins(site_)[f.pin];
  } else {
    line_ = site_;
  }
  build_cone(site_);
  // Every PI at X; the faulty machine settled over the cone in level order.
  gv_ = x_state_;
  for (const KIndex u : cone_) fv_[u] = eval_faulty(u);
  trail_.clear();
  decisions_stack_.clear();

  backtracks_ = 0;
  decisions_ = 0;
  limit_ = opt.backtrack_limit;
  aborted_ = false;
  cancelled_ = false;
  deadline_ = opt.deadline;
  const bool found = search();

  PodemResult r;
  r.backtracks = backtracks_;
  r.decisions = decisions_;
  if (found) {
    r.status = PodemStatus::Detected;
    r.cube.resize(k_->inputs().size());
    for (std::size_t i = 0; i < r.cube.size(); ++i)
      r.cube[i] = gv_[k_->inputs()[i]];
  } else if (cancelled_) {
    r.status = PodemStatus::Cancelled;  // no verdict: the search was cut off
  } else {
    r.status = aborted_ ? PodemStatus::Aborted : PodemStatus::Redundant;
  }
  return r;
}

PodemBatch::PodemBatch(const SimKernel& k, unsigned threads)
    : pool_(std::make_unique<WorkerPool>(threads)) {
  engines_.reserve(pool_->workers());
  for (unsigned w = 0; w < pool_->workers(); ++w)
    engines_.push_back(std::make_unique<Podem>(k));
}

PodemBatch::~PodemBatch() = default;

unsigned PodemBatch::workers() const { return pool_->workers(); }

std::vector<PodemResult> PodemBatch::generate(std::span<const Fault> faults,
                                              const PodemOptions& opt) {
  std::vector<PodemResult> results(faults.size());
  if (opt.deadline) {
    // Pre-mark every slot Cancelled so faults never claimed once the
    // deadline fires read as "no verdict" rather than the default status.
    // Claimed faults overwrite their slot (possibly also with Cancelled, if
    // the deadline fired mid-search); completed verdicts are bit-identical
    // to an undeadlined run by the engine's determinism contract.
    for (PodemResult& r : results) r.status = PodemStatus::Cancelled;
  }
  parallel_for(*pool_, faults.size(), 1,
               [&](unsigned wid, std::size_t b, std::size_t e) {
                 if (opt.deadline && opt.deadline->should_stop()) return;
                 for (std::size_t i = b; i < e; ++i)
                   results[i] = engines_[wid]->generate(faults[i], opt);
               });
  return results;
}

}  // namespace bist
