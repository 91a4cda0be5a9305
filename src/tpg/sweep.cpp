#include "tpg/sweep.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "tpg/lfsr.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace bist {

std::string_view point_state_name(PointState s) {
  switch (s) {
    case PointState::Complete: return "complete";
    case PointState::LfsrOnly: return "lfsr_only";
    case PointState::Skipped: return "skipped";
  }
  return "?";
}

namespace {

// The deterministic back end of one sweep point.  Everything here is a pure
// function of its inputs, which is what makes reused PODEM verdicts
// bit-identical across points: only the tail membership and the fill-stream
// replay depend on the LFSR length.

/// Deterministic X-fill bit source: 64-bit PCG words sliced LSB-first, one
/// bit consumed per X.  Word-granular draws cost 1/64th the RNG work of one
/// draw per bit; the emitted stream is a fixed function of the seed alone,
/// so replaying a point's fill is just re-walking its tail.
class FillBits {
 public:
  explicit FillBits(std::uint64_t seed) : rng_(seed) {}

  bool next() {
    if (left_ == 0) {
      word_ = rng_.next_u64();
      left_ = 64;
    }
    const bool b = word_ & 1;
    word_ >>= 1;
    --left_;
    return b;
  }

 private:
  Rng rng_;
  std::uint64_t word_ = 0;
  unsigned left_ = 0;
};

/// Fault-sim check of every pattern against its target fault
/// (`fsim.faults()[target[i]]` for patterns[i]), batched 64 patterns per
/// KernelSim pass instead of one pass per pattern.  Returns true iff every
/// pattern detects its target.
bool verify_batched(const SimKernel& k, FaultSimulator& fsim,
                    std::span<const BitVec> patterns,
                    std::span<const std::uint32_t> target) {
  const std::size_t width = k.inputs().size();
  KernelSim sim(k);
  bool ok = true;
  for (std::size_t base = 0; base < patterns.size(); base += 64) {
    const std::size_t cnt = std::min<std::size_t>(64, patterns.size() - base);
    const PatternBlock blk = pack_patterns({patterns.data() + base, cnt}, width);
    sim.simulate(blk);
    for (std::size_t j = 0; j < cnt; ++j) {
      const Fault& f = fsim.faults()[target[base + j]];
      if (!(fsim.detect_lanes(f, sim.values(), blk.lane_mask()) >> j & 1))
        ok = false;
    }
  }
  return ok;
}

// Reverse-order compaction: simulate the top-off set backwards; a pattern
// survives only if it detects a target fault not covered by a later
// (already kept) pattern.  Runs 64 patterns per pass through the PPSFP
// propagate.  Returns the surviving row indices in application order, so
// the caller can select any per-row payload (patterns, seed schedules)
// alongside the patterns themselves.
std::vector<std::uint32_t> compact_reverse(
    const SimKernel& k, FaultSimulator& fsim,
    std::span<const BitVec> topoff, std::span<const std::uint32_t> target) {
  const std::size_t width = k.inputs().size();
  std::vector<BitVec> rev(topoff.rbegin(), topoff.rend());
  std::vector<char> covered(target.size(), 0);
  std::vector<char> keep(rev.size(), 0);
  KernelSim good(k);
  std::size_t remaining = target.size();
  std::vector<std::uint64_t> det(target.size(), 0);
  for (std::size_t base = 0; base < rev.size() && remaining; base += 64) {
    const std::size_t cnt = std::min<std::size_t>(64, rev.size() - base);
    const PatternBlock blk = pack_patterns({rev.data() + base, cnt}, width);
    good.simulate(blk);
    for (std::size_t t = 0; t < target.size(); ++t)
      det[t] = covered[t] ? 0
                          : fsim.detect_lanes(fsim.faults()[target[t]],
                                              good.values(), blk.lane_mask());
    for (std::size_t lane = 0; lane < cnt; ++lane) {
      bool newly = false;
      for (std::size_t t = 0; t < target.size(); ++t)
        if (!covered[t] && ((det[t] >> lane) & 1)) {
          covered[t] = 1;
          --remaining;
          newly = true;
        }
      if (newly) keep[base + lane] = 1;
    }
  }
  std::vector<std::uint32_t> kept;
  for (std::size_t i = rev.size(); i-- > 0;)  // back to application order
    if (keep[i])
      kept.push_back(static_cast<std::uint32_t>(rev.size() - 1 - i));
  return kept;
}

/// Resolve the point's MISR configuration from the options; the decoded-ROM
/// policy (opt.compress off) has no MISR.
MisrSpec misr_for(const SimKernel& k, const MixedTpgOptions& opt) {
  if (!opt.compress) return {};
  MisrSpec m = opt.misr_degree
                   ? MisrSpec{opt.misr_degree,
                              Lfsr::primitive_taps(opt.misr_degree),
                              {}}
                   : misr_spec_for(k.outputs().size());
  if (!opt.misr_fold.empty()) {
    if (opt.misr_fold.size() != k.outputs().size())
      throw std::invalid_argument(
          "mixed tpg: misr_fold size does not match the CUT output count");
    m.fold = opt.misr_fold;
  }
  return m;
}

/// Everything after the PODEM verdicts for one LFSR length: X-fill the
/// detected cubes (fresh fill stream from opt.fill_seed, tail order),
/// verification, reverse-order compaction, and the final tail accounting.
/// `tail` holds the point's sim-fault indices ascending and `verdicts[i]`
/// the PODEM outcome for tail[i].  Requires r.lfsr_result (plus the
/// lfsr_patterns/lfsr_coverage fields) to be filled in already; completes
/// every field of r except the MISR fold and golden signature (sign_off()
/// sets those for every point after the point loop), and adds the
/// fill+verify wall-clock to r.podem_seconds and the compaction+accounting
/// wall-clock to r.compact_seconds.  Returns, per sim fault, the first
/// detecting index within the point's applied stream (LFSR prefix, then the
/// kept top-off set), -1 if undetected — what the fold audit signs off.
std::vector<std::int64_t> topoff_phases(
    const SimKernel& k, FaultSimulator& fsim,
    std::span<const std::uint32_t> tail,
    std::span<const PodemResult* const> verdicts, const MixedTpgOptions& opt,
    MixedSchemeResult& r) {
  const auto t0 = WallClock::now();
  r.tail_faults = tail.size();
  const std::uint64_t taps = Lfsr::primitive_taps(opt.lfsr_degree);

  // Turn the detected cubes into rows in tail order from a fresh fill
  // stream — the stream position a cube sees depends only on the X counts of
  // the detected cubes before it in this point's tail, so a sweep replays it
  // exactly.  Under opt.compress the stream feeds the free seed variables of
  // the GF(2) reseeding solve (and the raw X bits of fallback rows), so the
  // stored pattern IS the seed expansion by construction; otherwise every
  // cube becomes a decoded fallback row.
  FillBits bits(opt.fill_seed);
  const std::function<bool()> free_bit = [&bits] { return bits.next(); };
  std::vector<std::uint32_t> target;  // per top-off pattern: its tail fault
  std::vector<RowCompression> rows;   // aligned with r.topoff
  double solve = 0.0;
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const PodemResult& pr = *verdicts[i];
    r.podem_backtracks += pr.backtracks;
    r.podem_decisions += pr.decisions;
    switch (pr.status) {
      case PodemStatus::Detected: {
        const auto s0 = WallClock::now();
        RowCompression rc;
        if (opt.compress) {
          rc = compress_cube(pr.cube, opt.lfsr_degree, taps, free_bit);
        } else {
          rc.pattern = fill_decoded_row(pr.cube, free_bit);
          rc.fallback = true;
        }
        solve += seconds_since(s0);
        r.topoff.push_back(std::move(rc.pattern));
        rc.pattern = BitVec();
        rows.push_back(std::move(rc));
        target.push_back(tail[i]);
        ++r.podem_detected;
        break;
      }
      case PodemStatus::Redundant:
        ++r.redundant;
        r.redundant_faults.push_back(fsim.faults()[tail[i]]);
        break;
      case PodemStatus::Aborted:
        ++r.aborted;
        r.aborted_faults.push_back(fsim.faults()[tail[i]]);
        break;
      case PodemStatus::Cancelled:
        // Callers must downgrade the point (LfsrOnly) instead of handing a
        // cut-off search to the back end — a Cancelled slot carries no
        // verdict and must not be counted under any bucket.
        throw std::logic_error(
            "topoff_phases: cancelled PODEM verdict reached the back end");
    }
  }
  r.topoff_before_compaction = r.topoff.size();
  if (opt.verify_patterns && !r.topoff.empty())
    r.all_verified = verify_batched(k, fsim, r.topoff, target);
  r.podem_seconds += seconds_since(t0);

  const auto t1 = WallClock::now();
  if (opt.compact && !r.topoff.empty()) {
    const std::vector<std::uint32_t> kept =
        compact_reverse(k, fsim, r.topoff, target);
    std::vector<BitVec> sel;
    sel.reserve(kept.size());
    std::vector<RowCompression> sel_rows;
    sel_rows.reserve(kept.size());
    for (const std::uint32_t i : kept) {
      sel.push_back(std::move(r.topoff[i]));
      sel_rows.push_back(std::move(rows[i]));
    }
    r.topoff = std::move(sel);
    rows = std::move(sel_rows);
  }
  r.topoff_patterns = r.topoff.size();

  // Final accounting: fault-sim the emitted set against the whole tail, so
  // incidental detections (random fill catching aborted faults) count.
  std::size_t topoff_detected = 0;
  std::uint64_t topoff_detected_weight = 0;
  std::vector<std::int64_t> topoff_fd;  // per tail fault, over r.topoff
  if (!r.topoff.empty()) {
    std::vector<Fault> tail_faults;
    std::vector<std::uint32_t> tail_w;
    for (const std::uint32_t idx : tail) {
      tail_faults.push_back(fsim.faults()[idx]);
      tail_w.push_back(fsim.weights()[idx]);
    }
    FaultSimulator tailsim(k, std::move(tail_faults),
                           r.lfsr_result.total_faults, std::move(tail_w));
    // The back end always runs to completion (its work is bounded by the
    // top-off set): a deadline on opt.fsim must not silently truncate the
    // accounting pass, or the point would claim a coverage it cannot prove.
    FaultSimOptions acct = opt.fsim;
    acct.deadline = nullptr;
    FaultSimResult tr =
        tailsim.run(pack_all(r.topoff, k.inputs().size()), acct);
    topoff_detected = tr.detected;
    topoff_detected_weight = tr.detected_weight;
    topoff_fd = std::move(tr.first_detected);
  }
  const FaultSimResult& lr = r.lfsr_result;
  r.final_coverage =
      lr.sim_faults
          ? double(lr.detected + topoff_detected) / double(lr.sim_faults)
          : 0.0;
  r.final_coverage_weighted =
      lr.total_weight
          ? double(lr.detected_weight + topoff_detected_weight) /
                double(lr.total_weight)
          : 0.0;

  // Row model: seed schedules renumbered to the kept rows, the fallback
  // flags and the MISR spec (fold and golden come from sign_off()).
  CompressedTopoff& c = r.comp;
  c.degree = opt.lfsr_degree;
  c.cut_outputs = k.outputs().size();
  c.fallback.assign(r.topoff.size(), 0);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    c.fallback[i] = rows[i].fallback;
    for (SeedEvent e : rows[i].seeds) {
      e.row = static_cast<std::uint32_t>(i);
      c.seeds.push_back(e);
    }
  }
  c.misr = misr_for(k, opt);
  c.solve_seconds = solve;
  r.solve_seconds = solve;
  r.compact_seconds += seconds_since(t1);

  // Everything this point's stream detects: the LFSR phase's faults plus
  // the top-off accounting pass's (which alone sees the random-pattern-
  // resistant faults whose bus-aligned output cones defeat the natural fold).
  std::vector<std::int64_t> detected = r.lfsr_result.first_detected;
  for (std::size_t j = 0; j < topoff_fd.size(); ++j)
    if (topoff_fd[j] >= 0)
      detected[tail[j]] = std::int64_t(r.lfsr_patterns) + topoff_fd[j];
  return detected;
}

/// Downgrade a result whose pseudo-random phase ran (possibly truncated) but
/// whose top-off did not: requires the lfsr_* fields to be filled in; sets
/// tail_faults, copies the LFSR coverage into the final coverage (an empty
/// top-off adds nothing), and marks the point LfsrOnly with `why` as the
/// reason.  The result is a valid degraded hardware point — the coverage it
/// claims is exactly what the pseudo-random phase proved.  It carries no
/// rows; with a MISR it still gets its spec, and sign_off() audits its fold
/// against the prefix's detected faults and signs the prefix stream that
/// ran, so a degraded wrapper signs off exactly like a complete one.
void finish_lfsr_only(const SimKernel& k, const MixedTpgOptions& opt,
                      MixedSchemeResult& r, StageStatus why) {
  const FaultSimResult& lr = r.lfsr_result;
  r.tail_faults = lr.sim_faults - lr.detected;
  r.final_coverage = r.lfsr_coverage;
  r.final_coverage_weighted = r.lfsr_coverage_weighted;
  CompressedTopoff& c = r.comp;
  c.degree = opt.lfsr_degree;
  c.cut_outputs = k.outputs().size();
  c.misr = misr_for(k, opt);
  r.state = PointState::LfsrOnly;
  r.status = std::move(why);
}

/// Golden signature of one point's applied stream: the first `prefix`
/// patterns of the shared LFSR stream, then its top-off blocks.
std::uint64_t golden_signature(const SimKernel& k,
                               std::span<const PatternBlock> stream,
                               std::size_t prefix,
                               std::span<const PatternBlock> topoff,
                               const MisrSpec& m) {
  const std::size_t whole = prefix / 64;
  std::uint64_t sig = misr_signature(k, stream.first(whole), m, 0);
  if (prefix % 64) {
    PatternBlock last = stream[whole];
    last.count = prefix % 64;
    sig = misr_signature(k, {&last, 1}, m, sig);
  }
  return misr_signature(k, topoff, m, sig);
}

/// MISR sign-off of every usable point, after the point loop: the audited
/// fold choice for all of them at once (one forward pass over the shared
/// LFSR stream, each point finalized at its prefix with its own top-off
/// set), then each point's golden signature over its exact applied stream.
/// `detected[i]` is points[i]'s per-fault first detection over that stream.
void sign_off(const SimKernel& k, FaultSimulator& fsim,
              const MixedTpgOptions& opt,
              std::vector<MixedSchemeResult>& points,
              const std::vector<std::vector<std::int64_t>>& detected) {
  const MisrSpec base = misr_for(k, opt);
  if (!base.enabled()) return;
  const std::size_t width = k.inputs().size();
  std::vector<std::size_t> usable;
  std::vector<std::vector<PatternBlock>> topoff;
  std::size_t lmax = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].state == PointState::Skipped) continue;
    usable.push_back(i);
    topoff.push_back(pack_all(points[i].topoff, width));
    lmax = std::max(lmax, points[i].lfsr_result.patterns);
  }
  Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
  const std::vector<PatternBlock> stream = lfsr.blocks(width, lmax);
  if (opt.misr_fold.empty()) {
    std::vector<AuditPoint> audit;
    for (std::size_t j = 0; j < usable.size(); ++j)
      audit.push_back({points[usable[j]].lfsr_result.patterns, topoff[j],
                       detected[usable[j]]});
    const std::vector<MisrSpec> specs =
        choose_misr_folds(fsim, k, stream, audit, base, opt.fsim.threads);
    for (std::size_t j = 0; j < usable.size(); ++j)
      points[usable[j]].comp.misr = specs[j];
  }
  for (std::size_t j = 0; j < usable.size(); ++j) {
    MixedSchemeResult& r = points[usable[j]];
    r.comp.golden = golden_signature(k, stream, r.lfsr_result.patterns,
                                     topoff[j], r.comp.misr);
  }
}

}  // namespace

MixedSweepResult run_mixed_sweep(const SimKernel& k,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt) {
  FaultSimulator fsim(k);
  return run_mixed_sweep(k, fsim, lengths, opt);
}

MixedSweepResult run_mixed_sweep(const SimKernel& k, FaultSimulator& fsim,
                                 std::span<const std::size_t> lengths,
                                 const MixedTpgOptions& opt,
                                 const FaultSimResult* full) {
  MixedSweepResult sr;
  sr.lengths.assign(lengths.begin(), lengths.end());
  sr.width = k.inputs().size();
  if (lengths.empty()) return sr;
  const std::size_t width = sr.width;
  const std::size_t lmax = *std::max_element(lengths.begin(), lengths.end());

  // --- One LFSR fault-sim pass amortized over every candidate length ------
  const Deadline* dl = opt.deadline;
  FaultSimResult own_full;
  if (full) {
    if (full->patterns < lmax || full->first_detected.size() != fsim.faults().size())
      throw std::invalid_argument(
          "run_mixed_sweep: supplied LFSR result does not cover the sweep");
  } else {
    const auto t0 = WallClock::now();
    FaultSimOptions fo = opt.fsim;
    if (dl) fo.deadline = dl;
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    own_full = fsim.run(lfsr.blocks(width, lmax), fo);
    sr.stats.lfsr_seconds = seconds_since(t0);
    full = &own_full;
  }

  // Distinct lengths descending: the tail only grows from point to point, so
  // a verdict cached when a fault first enters the tail serves every
  // subsequent (shorter) length.
  std::vector<std::size_t> order(sr.lengths);
  std::sort(order.begin(), order.end(), std::greater<>());
  order.erase(std::unique(order.begin(), order.end()), order.end());

  // Cross-point verdict cache, one slot per sim fault.
  std::vector<char> cached(fsim.faults().size(), 0);
  std::vector<PodemResult> cache(fsim.faults().size());
  PodemBatch batch(k, opt.podem_threads);
  sr.stats.podem_threads = batch.workers();

  std::vector<MixedSchemeResult> by_order;
  by_order.reserve(order.size());
  // Per point: first detection of every sim fault over its applied stream.
  std::vector<std::vector<std::int64_t>> detected;
  detected.reserve(order.size());
  for (const std::size_t len : order) {
    MixedSchemeResult r;
    r.lfsr_patterns = len;

    // Anytime check, once per sweep point.  A point whose exact LFSR prefix
    // exists (len within the patterns the shared pass actually simulated)
    // degrades to LfsrOnly — its pseudo-random data is bit-identical to an
    // uninterrupted run; a point beyond the truncated pass has no valid data
    // at all and is Skipped.
    if ((dl && dl->should_stop()) || !full->status.ok()) {
      const StageStatus why =
          dl ? dl->stop_status("mixed_sweep") : full->status;
      if (len <= full->patterns) {
        r.lfsr_result = fsim.prefix_result(*full, len);
        r.lfsr_result.status = StageStatus{};  // the prefix itself is exact
        r.lfsr_coverage = r.lfsr_result.final_coverage();
        r.lfsr_coverage_weighted = r.lfsr_result.final_coverage_weighted();
        finish_lfsr_only(k, opt, r, why);
      } else {
        r.state = PointState::Skipped;
        r.status = why;
      }
      detected.push_back(r.lfsr_result.first_detected);
      by_order.push_back(std::move(r));
      continue;
    }

    r.lfsr_result = fsim.prefix_result(*full, len);
    r.lfsr_coverage = r.lfsr_result.final_coverage();
    r.lfsr_coverage_weighted = r.lfsr_result.final_coverage_weighted();
    const std::vector<std::uint32_t> tail = full->tail_at(len);

    // PODEM only the faults that just entered the tail; everything else is
    // a cache hit.
    const auto t1 = WallClock::now();
    std::vector<std::uint32_t> miss;
    std::vector<Fault> miss_faults;
    for (const std::uint32_t idx : tail)
      if (!cached[idx]) {
        miss.push_back(idx);
        miss_faults.push_back(fsim.faults()[idx]);
      }
    PodemOptions po = opt.podem;
    if (dl) po.deadline = dl;
    std::vector<PodemResult> fresh = batch.generate(miss_faults, po);
    bool cut = false;
    for (std::size_t j = 0; j < miss.size(); ++j) {
      // A Cancelled slot carries no verdict: never cache it — a later
      // (shorter) point must not inherit a hole where a real verdict
      // belongs.
      if (fresh[j].status == PodemStatus::Cancelled) {
        cut = true;
        continue;
      }
      cache[miss[j]] = std::move(fresh[j]);
      cached[miss[j]] = 1;
    }
    sr.stats.podem_calls += miss.size();
    sr.stats.podem_cache_hits += tail.size() - miss.size();
    r.podem_seconds = seconds_since(t1);
    if (cut) {
      finish_lfsr_only(
          k, opt, r,
          dl ? dl->stop_status("mixed_sweep")
             : StageStatus::cancelled("mixed_sweep: podem cancelled"));
      detected.push_back(r.lfsr_result.first_detected);
      by_order.push_back(std::move(r));
      continue;
    }

    std::vector<const PodemResult*> vp(tail.size());
    for (std::size_t i = 0; i < tail.size(); ++i) vp[i] = &cache[tail[i]];
    detected.push_back(topoff_phases(k, fsim, tail, vp, opt, r));
    sr.stats.podem_seconds += r.podem_seconds;
    sr.stats.compact_seconds += r.compact_seconds;
    sr.stats.solve_seconds += r.solve_seconds;
    by_order.push_back(std::move(r));
  }

  // --- Anytime floor -------------------------------------------------------
  // If the deadline beat even the shared pass (every point Skipped), run a
  // bounded undeadlined fault-sim at the SMALLEST candidate length so the
  // sweep still returns one exact LfsrOnly point — a scheduler can select it
  // and a wrapper built from it passes verification.  This floor costs one
  // fault-sim pass of min(lengths) patterns, the cheapest point requested.
  const bool any_usable =
      std::any_of(by_order.begin(), by_order.end(),
                  [](const MixedSchemeResult& p) {
                    return p.state != PointState::Skipped;
                  });
  if (!any_usable) {
    const std::size_t lmin = order.back();  // descending order -> min length
    MixedSchemeResult& r = by_order.back();
    const StageStatus why = r.status;
    r = MixedSchemeResult{};
    r.lfsr_patterns = lmin;
    FaultSimOptions fo = opt.fsim;
    fo.deadline = nullptr;
    Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
    const auto t0 = WallClock::now();
    r.lfsr_result = fsim.run(lfsr.blocks(width, lmin), fo);
    r.lfsr_seconds = seconds_since(t0);
    r.lfsr_coverage = r.lfsr_result.final_coverage();
    r.lfsr_coverage_weighted = r.lfsr_result.final_coverage_weighted();
    finish_lfsr_only(k, opt, r, why);
    detected.back() = r.lfsr_result.first_detected;
  }

  // --- MISR sign-off: one fold audit for every point, then the goldens -----
  // Its wall-clock is shared by all points, so it is attributed once, to the
  // sweep's compaction and row-storage totals, not to any one point.
  const auto t2 = WallClock::now();
  sign_off(k, fsim, opt, by_order, detected);
  const double sign_seconds = seconds_since(t2);
  sr.stats.compact_seconds += sign_seconds;
  sr.stats.solve_seconds += sign_seconds;

  // Sweep-level verdict: the first non-Complete point's reason (points
  // before it are bit-identical to an uninterrupted sweep).
  for (const MixedSchemeResult& p : by_order)
    if (p.state != PointState::Complete) {
      sr.status = p.status;
      break;
    }

  // Hand results back in the caller's length order (duplicates share a copy).
  sr.points.reserve(sr.lengths.size());
  for (const std::size_t len : sr.lengths) {
    const std::size_t pos =
        std::lower_bound(order.begin(), order.end(), len, std::greater<>()) -
        order.begin();
    sr.points.push_back(by_order[pos]);
  }
  return sr;
}

}  // namespace bist
