#include "fault/fault_sim.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/parallel.hpp"

namespace bist {
namespace {

// One cleared queue per level, each reserved to the gate count at that
// level, so the event-driven propagation loops never reallocate.
void reserve_level_queues(const SimKernel& k,
                          std::vector<std::vector<KIndex>>& queues) {
  queues.resize(k.max_level() + 1);
  std::vector<std::uint32_t> per_level(k.max_level() + 1, 0);
  const std::uint32_t* lvl = k.level_data();
  for (std::size_t g = 0; g < k.gate_count(); ++g) ++per_level[lvl[g]];
  for (unsigned lv = 0; lv <= k.max_level(); ++lv) {
    queues[lv].clear();
    queues[lv].reserve(per_level[lv]);
  }
}

// Per-worker event-driven propagation scratch (kernel-index space), reset
// via touched_list after each stem.  Capacities are reserved up front so
// the hot loops never reallocate.
template <unsigned W>
struct FfrScratch {
  using Word = SimWord<W>;
  std::vector<Word> fval;
  std::vector<char> touched;
  std::vector<KIndex> touched_list;
  std::vector<std::vector<KIndex>> level_queues;
  std::vector<char> queued;
  /// Per-fault stem words of the group being processed, indexed by position
  /// in the group's live list (worker-local: stem words never cross the
  /// worker/reduction boundary, unlike the shared det slots).
  std::vector<Word> stem_words;
  /// Faulty-gate evaluations this worker performed, reduced serially after
  /// the run.  Lives in the (large) per-worker scratch object rather than a
  /// shared dense array so the per-chunk flush does not bounce one cache
  /// line between all workers.
  std::uint64_t evals = 0;

  void init(const SimKernel& k) {
    const std::size_t cnt = k.gate_count();
    fval.assign(cnt, w_zero<Word>());
    touched.assign(cnt, 0);
    touched_list.clear();
    touched_list.reserve(cnt);
    queued.assign(cnt, 0);
    reserve_level_queues(k, level_queues);
  }
};

// Stem word of fault f: the lanes (within `lanes`) on which f flips its FFR
// stem root's output.  The walk from the site to the stem follows unique
// fanouts — one gate re-evaluation per step — and stops early when the
// divergence dies inside the region.
template <unsigned W>
SimWord<W> local_stem_word(const SimKernel& k, const Fault& f,
                           const SimWord<W>* good, SimWord<W> lanes,
                           std::uint64_t* evals) {
  using Word = SimWord<W>;
  const KIndex site = k.index_of(f.gate);
  const Word stuck_word = w_broadcast<Word>(f.stuck ? ~std::uint64_t{0} : 0);
  const MicroOp* op = k.op_data();
  const std::uint64_t* inv = k.invert_data();
  const std::uint32_t* off = k.fanin_offset_data();
  const KIndex* fi = k.fanin_data();

  Word val;
  if (f.is_output_fault()) {
    val = stuck_word;
  } else {
    // Branch fault: re-evaluate the site gate with the faulted pin forced.
    // Fanin order is preserved by the kernel renumbering, so pin j of the
    // netlist gate is slot b+j of the kernel CSR row.
    const std::uint32_t b = off[site];
    const std::uint32_t forced = b + static_cast<std::uint32_t>(f.pin);
    val = eval_reduce(op[site], inv[site], b, off[site + 1],
                      [&](std::uint32_t i) {
                        return i == forced ? stuck_word : good[fi[i]];
                      });
    ++*evals;
  }
  Word diff = (val ^ good[site]) & lanes;

  const KIndex stem = k.stem_of(site);
  const std::uint32_t* fo_off = k.fanout_offset_data();
  const KIndex* fo = k.fanout_data();
  KIndex cur = site;
  while (cur != stem && w_any(diff)) {
    const KIndex next = fo[fo_off[cur]];  // unique fanout inside the FFR
    val = eval_reduce(op[next], inv[next], off[next], off[next + 1],
                      [&](std::uint32_t i) {
                        return fi[i] == cur ? val : good[fi[i]];
                      });
    ++*evals;
    diff = (val ^ good[next]) & lanes;
    cur = next;
  }
  return diff;
}

// One event-driven cone propagation from `stem` for a flip word `diff`
// (subset of `lanes`): returns the lanes on which the stem flip reaches a
// primary output.  Lanes are independent in 2-valued simulation, so the
// result is exact per lane even when `diff` ORs several faults' stem words.
// With `po_diffs` it also writes each primary output's flip lanes, in PO
// order.
template <unsigned W>
SimWord<W> propagate_stem(const SimKernel& k, KIndex stem, SimWord<W> diff,
                          const SimWord<W>* good, SimWord<W> lanes,
                          FfrScratch<W>& s, std::uint64_t* evals,
                          SimWord<W>* po_diffs = nullptr) {
  using Word = SimWord<W>;
  const MicroOp* op = k.op_data();
  const std::uint64_t* inv = k.invert_data();
  const std::uint32_t* off = k.fanin_offset_data();
  const KIndex* fi = k.fanin_data();
  const std::uint32_t* fo_off = k.fanout_offset_data();
  const KIndex* fo = k.fanout_data();
  const std::uint32_t* lvl = k.level_data();
  const char* is_out = k.is_output_data();
  const unsigned max_lv = k.max_level();

  Word det = w_zero<Word>();
  s.fval[stem] = good[stem] ^ diff;
  s.touched[stem] = 1;
  s.touched_list.push_back(stem);
  if (is_out[stem]) det = diff;

  unsigned lo_level = max_lv + 1;
  for (std::uint32_t i = fo_off[stem]; i < fo_off[stem + 1]; ++i) {
    const KIndex u = fo[i];
    if (!s.queued[u]) {
      s.queued[u] = 1;
      s.level_queues[lvl[u]].push_back(u);
      lo_level = std::min(lo_level, static_cast<unsigned>(lvl[u]));
    }
  }
  for (unsigned lq = lo_level; lq <= max_lv; ++lq) {
    auto& q = s.level_queues[lq];
    for (const KIndex u : q) {
      s.queued[u] = 0;
      const Word v = eval_reduce(op[u], inv[u], off[u], off[u + 1],
                                 [&](std::uint32_t i) {
                                   const KIndex w = fi[i];
                                   return s.touched[w] ? s.fval[w] : good[w];
                                 });
      ++*evals;
      const Word d = (v ^ good[u]) & lanes;
      if (!w_any(d)) continue;  // divergence dies here
      s.fval[u] = v;
      s.touched[u] = 1;
      s.touched_list.push_back(u);
      if (is_out[u]) det |= d;
      for (std::uint32_t i = fo_off[u]; i < fo_off[u + 1]; ++i) {
        const KIndex w = fo[i];
        if (!s.queued[w]) {
          s.queued[w] = 1;
          s.level_queues[lvl[w]].push_back(w);
        }
      }
    }
    q.clear();
  }
  if (po_diffs) {
    const auto outs = k.outputs();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const KIndex o = outs[i];
      po_diffs[i] = s.touched[o] ? (s.fval[o] ^ good[o]) & lanes
                                 : w_zero<Word>();
    }
  }
  for (const KIndex u : s.touched_list) s.touched[u] = 0;
  s.touched_list.clear();
  return det;
}

}  // namespace

struct PropagationScratch::Impl : FfrScratch<kMaxWordWidth> {};
struct FaultSimulator::DetectScratch : FfrScratch<1> {};

PropagationScratch::PropagationScratch(const SimKernel& k)
    : impl_(std::make_unique<Impl>()) {
  impl_->init(k);
}
PropagationScratch::~PropagationScratch() = default;
PropagationScratch::PropagationScratch(PropagationScratch&&) noexcept = default;
PropagationScratch& PropagationScratch::operator=(
    PropagationScratch&&) noexcept = default;

std::vector<std::uint32_t> FaultSimResult::tail_at(std::size_t length) const {
  std::vector<std::uint32_t> tail;
  for (std::size_t i = 0; i < first_detected.size(); ++i) {
    const std::int64_t fd = first_detected[i];
    if (fd < 0 || fd >= static_cast<std::int64_t>(length))
      tail.push_back(static_cast<std::uint32_t>(i));
  }
  return tail;
}

std::size_t FaultSimResult::detected_at(std::size_t length) const {
  std::size_t n = 0;
  for (const std::int64_t fd : first_detected)
    if (fd >= 0 && fd < static_cast<std::int64_t>(length)) ++n;
  return n;
}

FaultSimResult FaultSimulator::prefix_result(const FaultSimResult& full,
                                             std::size_t length) const {
  if (full.first_detected.size() != faults_.size())
    throw std::invalid_argument("prefix_result: fault list mismatch");
  FaultSimResult r;
  // Lengths beyond the run clamp to the run (the full result *is* the prefix
  // at any longer length); length 0 degenerates to the empty-prefix result.
  // Exception: when `full` itself stopped early (deadline/cancel), a longer
  // length is NOT answered by the truncated run — the clamped data is still
  // returned, but the stop status is propagated so the caller can tell.
  if (length > full.patterns && !full.status.ok()) r.status = full.status;
  length = std::min(length, full.patterns);
  r.total_faults = full.total_faults;
  r.sim_faults = full.sim_faults;
  r.total_weight = full.total_weight;
  r.patterns = length;
  r.threads = full.threads;
  r.word_width = full.word_width;
  r.faulty_gate_evals = full.faulty_gate_evals;
  r.first_detected = full.first_detected;
  for (std::size_t f = 0; f < r.first_detected.size(); ++f) {
    std::int64_t& fd = r.first_detected[f];
    if (fd >= static_cast<std::int64_t>(length)) {
      fd = -1;
    } else if (fd >= 0) {
      ++r.detected;
      r.detected_weight += weights_[f];
    }
  }
  // The curves are running sums in pattern order, so the prefix of the full
  // curve is the shorter run's curve down to the last double bit.
  r.coverage.assign(full.coverage.begin(), full.coverage.begin() + length);
  r.coverage_weighted.assign(full.coverage_weighted.begin(),
                             full.coverage_weighted.begin() + length);
  return r;
}

FaultSimulator::FaultSimulator(const SimKernel& k)
    : k_(&k), scratch_(std::make_unique<DetectScratch>()) {
  scratch_->init(k);
  const auto all = enumerate_faults(k.netlist());
  total_faults_ = all.size();
  CollapsedFaults c = collapse_faults_sized(k.netlist(), all);
  faults_ = std::move(c.faults);
  weights_ = std::move(c.class_size);
  total_weight_ = std::accumulate(weights_.begin(), weights_.end(),
                                  std::uint64_t{0});
  build_stem_groups();
}

FaultSimulator::FaultSimulator(const SimKernel& k, std::vector<Fault> faults,
                               std::size_t total_faults,
                               std::vector<std::uint32_t> weights)
    : k_(&k), faults_(std::move(faults)), weights_(std::move(weights)),
      total_faults_(total_faults),
      scratch_(std::make_unique<DetectScratch>()) {
  scratch_->init(k);
  if (weights_.empty()) weights_.assign(faults_.size(), 1);
  if (weights_.size() != faults_.size())
    throw std::invalid_argument("FaultSimulator: weights/faults size mismatch");
  total_weight_ = std::accumulate(weights_.begin(), weights_.end(),
                                  std::uint64_t{0});
  build_stem_groups();
}

FaultSimulator::~FaultSimulator() = default;

WorkerPool& FaultSimulator::pool(unsigned threads) {
  const unsigned workers = resolve_threads(threads);
  if (!pool_ || pool_->workers() != workers)
    pool_ = std::make_unique<WorkerPool>(workers);
  return *pool_;
}

void FaultSimulator::build_stem_groups() {
  // Bucket sim faults by the stem ordinal of their site gate; only non-empty
  // groups are kept, in stem level order, faults in list order within each.
  const std::size_t nstems = k_->stem_count();
  std::vector<std::uint32_t> count(nstems, 0);
  std::vector<std::uint32_t> ord(faults_.size());
  for (std::size_t f = 0; f < faults_.size(); ++f) {
    ord[f] = k_->stem_ordinal(k_->index_of(faults_[f].gate));
    ++count[ord[f]];
  }
  std::vector<std::uint32_t> group_of(nstems, 0);
  group_stem_.clear();
  group_offset_.assign(1, 0);
  for (std::uint32_t s = 0; s < nstems; ++s) {
    if (!count[s]) continue;
    group_of[s] = static_cast<std::uint32_t>(group_stem_.size());
    group_stem_.push_back(k_->stems()[s]);
    group_offset_.push_back(group_offset_.back() + count[s]);
  }
  group_faults_.assign(faults_.size(), 0);
  std::vector<std::uint32_t> cur(group_offset_.begin(), group_offset_.end() - 1);
  for (std::size_t f = 0; f < faults_.size(); ++f)
    group_faults_[cur[group_of[ord[f]]]++] = static_cast<std::uint32_t>(f);
}

std::uint64_t FaultSimulator::propagate_fault(const Fault& f,
                                              const std::uint64_t* good,
                                              std::uint64_t lanes) {
  const KIndex site = k_->index_of(f.gate);
  const std::uint64_t stuck_word = f.stuck ? ~std::uint64_t{0} : 0;
  std::uint64_t evals = 0;
  std::uint64_t site_val;
  if (f.is_output_fault()) {
    site_val = stuck_word;
  } else {
    // Branch fault: re-evaluate the site gate with the faulted pin forced.
    // Fanin order is preserved by the kernel renumbering, so pin j of the
    // netlist gate is slot b+j of the kernel CSR row.
    const std::uint32_t* off = k_->fanin_offset_data();
    const KIndex* fi = k_->fanin_data();
    const std::uint32_t b = off[site];
    const std::uint32_t forced = b + static_cast<std::uint32_t>(f.pin);
    site_val = eval_reduce(k_->op_data()[site], k_->invert_data()[site], b,
                           off[site + 1], [&](std::uint32_t i) {
                             return i == forced ? stuck_word : good[fi[i]];
                           });
  }
  const std::uint64_t site_diff = (site_val ^ good[site]) & lanes;
  if (!site_diff) return 0;  // fault not activated by any lane
  return propagate_stem<1>(*k_, site, site_diff, good, lanes, *scratch_,
                           &evals);
}

bool FaultSimulator::stem_flips(std::span<const std::uint32_t> members,
                                const FlipWord* good, FlipWord lanes,
                                FlipWord* stem_words, FlipWord* po_flips,
                                PropagationScratch& scratch) const {
  constexpr unsigned W = kMaxWordWidth;
  std::uint64_t evals = 0;
  FlipWord any = w_zero<FlipWord>();
  for (std::size_t i = 0; i < members.size(); ++i) {
    stem_words[i] =
        local_stem_word<W>(*k_, faults_[members[i]], good, lanes, &evals);
    any |= stem_words[i];
  }
  if (!w_any(any)) return false;
  const KIndex stem = k_->stem_of(k_->index_of(faults_[members[0]].gate));
  propagate_stem<W>(*k_, stem, any, good, lanes, *scratch.impl_, &evals,
                    po_flips);
  return true;
}

void FaultSimulator::finalize_curves(FaultSimResult& r) const {
  std::vector<std::uint32_t> hits(r.patterns, 0);
  std::vector<std::uint64_t> hit_weight(r.patterns, 0);
  for (std::size_t f = 0; f < r.first_detected.size(); ++f) {
    const std::int64_t fd = r.first_detected[f];
    if (fd >= 0) {
      ++hits[static_cast<std::size_t>(fd)];
      hit_weight[static_cast<std::size_t>(fd)] += weights_[f];
    }
  }
  r.coverage.assign(r.patterns, 0.0);
  r.coverage_weighted.assign(r.patterns, 0.0);
  std::size_t running = 0;
  std::uint64_t running_w = 0;
  for (std::size_t p = 0; p < r.patterns; ++p) {
    running += hits[p];
    running_w += hit_weight[p];
    r.coverage[p] = r.sim_faults ? double(running) / double(r.sim_faults) : 0.0;
    r.coverage_weighted[p] =
        r.total_weight ? double(running_w) / double(r.total_weight) : 0.0;
  }
}

FaultSimResult FaultSimulator::run(std::span<const PatternBlock> blocks,
                                   const FaultSimOptions& opt) {
#if BIST_WIDE_WORDS
  if (opt.word_width == kMaxWordWidth) return run_ffr<kMaxWordWidth>(blocks, opt);
#endif
  return run_ffr<1>(blocks, opt);
}

template <unsigned W>
FaultSimResult FaultSimulator::run_ffr(std::span<const PatternBlock> blocks,
                                       const FaultSimOptions& opt) {
  using Word = SimWord<W>;
  FaultSimResult r;
  r.total_faults = total_faults_;
  r.sim_faults = faults_.size();
  r.total_weight = total_weight_;
  r.first_detected.assign(faults_.size(), -1);
  r.word_width = W;

  WorkerPool& pool = this->pool(opt.threads);
  r.threads = pool.workers();

  // Live fault lists per stem group; dropping shrinks a group in place.
  const std::size_t ngroups = group_stem_.size();
  std::vector<std::vector<std::uint32_t>> live(ngroups);
  for (std::size_t g = 0; g < ngroups; ++g)
    live[g].assign(group_faults_.begin() + group_offset_[g],
                   group_faults_.begin() + group_offset_[g + 1]);

  WideSimT<W> good(*k_);
  std::size_t max_group = 0;
  for (std::size_t g = 0; g < ngroups; ++g)
    max_group = std::max<std::size_t>(max_group,
                                      group_offset_[g + 1] - group_offset_[g]);
  std::vector<FfrScratch<W>> scratch(pool.workers());
  for (auto& s : scratch) {
    s.init(*k_);
    s.stem_words.assign(max_group, w_zero<Word>());
  }
  // Per-fault detection slots, written by the owning worker only (each fault
  // lives in exactly one stem group), read in the serial reduction.
  std::vector<Word> det(faults_.size(), w_zero<Word>());

  std::size_t base = 0;
  std::size_t bi = 0;
  while (bi < blocks.size()) {
    // One cooperative check per block group: stop latency is bounded by a
    // single group's good-machine + stem-stage cost, and the check touches
    // nothing the detection math depends on, so a stopped run is the exact
    // prefix of an uninterrupted one.
    if (opt.deadline && opt.deadline->should_stop()) {
      r.status = opt.deadline->stop_status("fault_sim");
      break;
    }
    const std::size_t nb = WideSimT<W>::group_size(blocks, bi);
    const std::span<const PatternBlock> grp = blocks.subspan(bi, nb);
    std::size_t grp_patterns = 0;
    for (const PatternBlock& b : grp) grp_patterns += b.count;

    if (r.detected == faults_.size()) {  // nothing left to detect
      base += grp_patterns;
      bi += nb;
      continue;
    }

    // Good-machine pass, wide levels split across the same pool the stem
    // stage uses (strictly before the stem parallel_for — the pool is not
    // reentrant).  Values are bit-identical to the serial pass, so every
    // downstream detection result is unchanged.
    good.simulate(grp, &pool);
    const Word lanes = WideSimT<W>::group_lane_mask(grp);
    const Word* gv = good.values().data();

    // Dynamic grain-1 chunking: stem-group cost is skewed (cone size varies
    // by orders of magnitude), so workers pull one group at a time.
    parallel_for(pool, ngroups, 1,
                 [&](unsigned wid, std::size_t gb, std::size_t ge) {
      FfrScratch<W>& s = scratch[wid];
      std::uint64_t ev = 0;
      for (std::size_t g = gb; g < ge; ++g) {
        const auto& lf = live[g];
        if (lf.empty()) continue;
        Word acc = w_zero<Word>();
        for (std::size_t i = 0; i < lf.size(); ++i) {
          const std::uint32_t fidx = lf[i];
          if (r.first_detected[fidx] >= 0) {  // kept live with dropping off
            s.stem_words[i] = w_zero<Word>();
            continue;
          }
          const Word sw =
              local_stem_word<W>(*k_, faults_[fidx], gv, lanes, &ev);
          s.stem_words[i] = sw;
          acc |= sw;
        }
        if (!w_any(acc)) continue;  // every fault died inside the region
        const Word obs =
            propagate_stem<W>(*k_, group_stem_[g], acc, gv, lanes, s, &ev);
        if (!w_any(obs)) continue;
        for (std::size_t i = 0; i < lf.size(); ++i)
          det[lf[i]] = s.stem_words[i] & obs;
      }
      s.evals += ev;
    });

    // Serial reduction: per-fault results are independent, so visiting them
    // in any fixed order yields identical counts/curves for every worker
    // count and work assignment.
    for (std::size_t g = 0; g < ngroups; ++g) {
      auto& lf = live[g];
      for (std::size_t i = 0; i < lf.size();) {
        const std::uint32_t fidx = lf[i];
        const Word d = det[fidx];
        det[fidx] = w_zero<Word>();
        if (w_any(d) && r.first_detected[fidx] < 0) {
          r.first_detected[fidx] =
              static_cast<std::int64_t>(base) + w_first_lane(d);
          ++r.detected;
          r.detected_weight += weights_[fidx];
          if (opt.drop_detected) {
            lf[i] = lf.back();
            lf.pop_back();
            continue;
          }
        }
        ++i;
      }
    }
    base += grp_patterns;
    bi += nb;
  }
  r.patterns = base;
  for (const FfrScratch<W>& s : scratch) r.faulty_gate_evals += s.evals;
  finalize_curves(r);
  return r;
}

}  // namespace bist
