// Differential check of the mixed-scheme sweep engine: every point of a
// multi-length sweep must be bit-identical to a one-length sweep at that
// length — tail size, PODEM verdicts and counters, the emitted top-off
// pattern sets before and after compaction, both coverage conventions, the
// row model with its audited MISR fold and golden signature (the sweep's
// one-pass audit against a per-point one), and the derived LFSR-phase
// prefix (first_detected + coverage-curve doubles) —
// at every PODEM thread count in {1, 2, 8}, on the full ISCAS85 surrogate
// family.  The one-length references run their own LFSR pass of exactly L,
// so this also pins prefix_result against a pass of that length and the
// cross-point verdict cache against fresh PODEM runs.  Every reference point
// must satisfy the mixed scheme's per-point invariants: all emitted patterns
// fault-sim-verified against their targets, one verdict per tail fault,
// 100% of the detectable faults covered, coverage monotone over the LFSR
// phase, and compaction never growing the top-off set.  Also checks the
// prefix/tail helpers directly, and that the fault-sim thread count — which
// also sizes the MISR fold audit's fault split — leaves every serialized
// sweep byte unchanged, chosen folds and golden signatures included.

#include <algorithm>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "pipeline/job.hpp"
#include "sim/kernel.hpp"
#include "store/serialize.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"

using namespace bist;

namespace {

// Everything except faulty_gate_evals (the sweep's derived prefixes carry
// the shared pass's work measure, documented in prefix_result).
bool same_lfsr_result(const FaultSimResult& a, const FaultSimResult& b) {
  bool ok = true;
  ok = ok && a.total_faults == b.total_faults;
  ok = ok && a.sim_faults == b.sim_faults;
  ok = ok && a.detected == b.detected;
  ok = ok && a.detected_weight == b.detected_weight;
  ok = ok && a.total_weight == b.total_weight;
  ok = ok && a.patterns == b.patterns;
  ok = ok && a.threads == b.threads;
  ok = ok && a.word_width == b.word_width;
  ok = ok && a.first_detected == b.first_detected;
  ok = ok && a.coverage == b.coverage;
  ok = ok && a.coverage_weighted == b.coverage_weighted;
  return ok;
}

// Row model and MISR sign-off: one fold audit over all points of a sweep
// must choose and sign exactly as a one-length sweep's audit does.
bool same_comp(const CompressedTopoff& a, const CompressedTopoff& b) {
  bool ok = a.degree == b.degree && a.fallback == b.fallback &&
            a.cut_outputs == b.cut_outputs && a.golden == b.golden &&
            a.misr.degree == b.misr.degree && a.misr.taps == b.misr.taps &&
            a.misr.fold == b.misr.fold && a.seeds.size() == b.seeds.size();
  for (std::size_t i = 0; ok && i < a.seeds.size(); ++i)
    ok = a.seeds[i].row == b.seeds[i].row &&
         a.seeds[i].offset == b.seeds[i].offset &&
         a.seeds[i].seed == b.seeds[i].seed;
  return ok;
}

bool same_point(const MixedSchemeResult& a, const MixedSchemeResult& b) {
  bool ok = true;
  ok = ok && a.lfsr_patterns == b.lfsr_patterns;
  ok = ok && a.tail_faults == b.tail_faults;
  ok = ok && a.podem_detected == b.podem_detected;
  ok = ok && a.redundant == b.redundant;
  ok = ok && a.aborted == b.aborted;
  ok = ok && a.podem_backtracks == b.podem_backtracks;
  ok = ok && a.podem_decisions == b.podem_decisions;
  ok = ok && a.topoff_before_compaction == b.topoff_before_compaction;
  ok = ok && a.topoff_patterns == b.topoff_patterns;
  ok = ok && a.topoff == b.topoff;  // exact emitted pattern bits
  ok = ok && a.redundant_faults == b.redundant_faults;
  ok = ok && a.aborted_faults == b.aborted_faults;
  ok = ok && a.lfsr_coverage == b.lfsr_coverage;
  ok = ok && a.lfsr_coverage_weighted == b.lfsr_coverage_weighted;
  ok = ok && a.final_coverage == b.final_coverage;
  ok = ok && a.final_coverage_weighted == b.final_coverage_weighted;
  ok = ok && a.all_verified == b.all_verified;
  ok = ok && same_comp(a.comp, b.comp);
  ok = ok && same_lfsr_result(a.lfsr_result, b.lfsr_result);
  return ok;
}

// Per-point invariants of a Complete mixed-scheme result on circuit `name`.
void check_point(const std::string& name, const MixedSchemeResult& r) {
  CHECK(r.state == PointState::Complete);
  // All emitted patterns were confirmed by the fault simulator against
  // their target faults, and every tail fault got exactly one verdict.
  CHECK(r.all_verified);
  CHECK_EQ(r.tail_faults, r.podem_detected + r.redundant + r.aborted);

  // 100% of detectable (non-redundant, non-aborted) collapsed faults: the
  // floor below is only reached if the emitted top-off set, re-simulated
  // from scratch, actually detects every PODEM-detected tail fault —
  // random fill may catch extra faults, never fewer.
  const FaultSimResult& lr = r.lfsr_result;
  const double floor_cov =
      double(lr.sim_faults - r.redundant - r.aborted) / double(lr.sim_faults);
  CHECK(r.final_coverage >= floor_cov);
  CHECK(r.final_coverage <= 1.0);
  CHECK(r.final_coverage_weighted <= 1.0);
  CHECK(r.final_coverage >= r.lfsr_coverage);
  CHECK(r.final_coverage_weighted >= r.lfsr_coverage_weighted);

  // The surrogates embed random-pattern-resistant detectors, so every phase
  // length here leaves a tail and keeps the top-off busy.
  if (name != "c17") {
    CHECK(r.tail_faults > 0u);
    CHECK(r.topoff_patterns > 0u);
  }
  CHECK(r.topoff_patterns <= r.topoff_before_compaction);
  CHECK_EQ(r.topoff.size(), r.topoff_patterns);

  // Weighted accounting stays glued to the enumerated-fault convention.
  CHECK_EQ(lr.total_weight, lr.total_faults);

  // C17 at a 64-pattern phase: everything is testable (C17 has no
  // redundant faults), so the scheme reaches full coverage.
  if (name == "c17" && r.lfsr_patterns == 64) {
    CHECK_EQ(r.redundant, 0u);
    CHECK_EQ(r.aborted, 0u);
    CHECK_EQ(r.final_coverage, 1.0);
    CHECK_EQ(r.final_coverage_weighted, 1.0);
  }
}

// Serialized sweep with the wall-clock fields zeroed (strip_volatile) and
// the one field that records the engine configuration itself — the LFSR
// pass's resolved worker count — set equal.
std::vector<std::uint8_t> sweep_bytes(MixedSweepResult sw) {
  JobReport jr;
  jr.sweep = std::move(sw);
  strip_volatile(jr);
  for (MixedSchemeResult& p : jr.sweep.points) p.lfsr_result.threads = 1;
  return serialize_sweep(jr.sweep);
}

// The fold audit splits faults over the fault simulator's pool, so the sweep
// must be byte-identical at every fsim thread count.  c499s's natural fold
// is clean at every point; c880s's has escapes at every point, so there the
// whole candidate family is evaluated and its escape counts reduced across
// workers.
void check_fsim_thread_invariance() {
  for (const std::string name : {"c499s", "c880s"}) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);
    const std::vector<std::size_t> lengths{1280, 640, 2560};
    MixedTpgOptions opt;
    opt.podem.backtrack_limit = 20;
    std::vector<std::uint8_t> ref;
    for (const unsigned threads : {1u, 2u, 8u}) {
      opt.fsim.threads = threads;
      const MixedSweepResult sw = run_mixed_sweep(k, fsim, lengths, opt);
      for (const MixedSchemeResult& p : sw.points) {
        CHECK(p.state == PointState::Complete);
        CHECK(p.comp.misr.enabled());
        CHECK_EQ(p.comp.misr.fold.empty(), name == "c499s");
      }
      const std::vector<std::uint8_t> bytes = sweep_bytes(sw);
      if (ref.empty())
        ref = bytes;
      else
        CHECK(bytes == ref);
    }
  }
}

}  // namespace

int main() {
  check_fsim_thread_invariance();

  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);

    // Unsorted with a duplicate: the engine must hand results back in caller
    // order regardless of its internal descending evaluation.  The deep
    // 7-point sweep down to a 64-pattern phase (large tails, so the
    // one-length references are expensive) runs on three small circuits; the
    // rest of the family gets 3 moderate lengths to keep the runtime sane.
    const bool deep = name == "c17" || name == "c432s" || name == "c880s";
    const std::vector<std::size_t> lengths =
        deep ? std::vector<std::size_t>{256, 64, 512, 128, 320, 448, 64}
             : std::vector<std::size_t>{384, 256, 512};
    const std::size_t min_pos = 1;  // the min length sits at index 1 in both

    MixedTpgOptions opt;
    // Small abort budget: the surrogate tails are mostly hard reconvergent
    // faults that burn the whole limit, so the one-length references' cost
    // scales with it; 20 keeps detected/redundant/aborted all represented.
    opt.podem.backtrack_limit = 20;
    opt.fsim.threads = 4;  // fsim engine knobs never change detection results

    // Prefix/tail helpers against an independent shorter run.
    {
      Lfsr lfsr = Lfsr::maximal(opt.lfsr_degree, opt.lfsr_seed);
      const auto blocks = lfsr.blocks(n.input_count(), 512);
      const FaultSimResult full = fsim.run(blocks, opt.fsim);
      const FaultSimResult sub =
          fsim.run(std::span<const PatternBlock>(blocks).first(256 / 64),
                   opt.fsim);
      const FaultSimResult pre = fsim.prefix_result(full, 256);
      CHECK(same_lfsr_result(pre, sub));
      CHECK_EQ(pre.detected, full.detected_at(256));
      const auto tail = full.tail_at(256);
      CHECK_EQ(tail.size(), full.sim_faults - pre.detected);
      for (const std::uint32_t idx : tail) {
        const std::int64_t fd = full.first_detected[idx];
        CHECK(fd < 0 || fd >= 256);
      }
      CHECK_EQ(full.tail_at(full.patterns).size(),
               full.sim_faults - full.detected);
    }

    // Independent per-length references: one-length sweeps, serial PODEM
    // reduction.  Duplicate lengths reuse the first computation — the
    // engine is deterministic.
    std::vector<MixedSchemeResult> ref;
    for (std::size_t p = 0; p < lengths.size(); ++p) {
      const auto prev = std::find(lengths.begin(), lengths.begin() + p, lengths[p]);
      if (prev != lengths.begin() + p) {
        ref.push_back(ref[prev - lengths.begin()]);
        continue;
      }
      MixedTpgOptions o = opt;
      o.podem_threads = 1;
      const std::size_t one[] = {lengths[p]};
      MixedSweepResult single = run_mixed_sweep(k, fsim, one, o);
      CHECK_EQ(single.points.size(), 1u);
      CHECK_EQ(single.stats.podem_cache_hits, 0u);
      check_point(name, single.points[0]);
      ref.push_back(std::move(single.points[0]));
    }

    for (const unsigned threads : {1u, 2u, 8u}) {
      MixedTpgOptions o = opt;
      o.podem_threads = threads;
      const MixedSweepResult sw = run_mixed_sweep(k, fsim, lengths, o);
      CHECK_EQ(sw.points.size(), lengths.size());
      CHECK_EQ(sw.lengths.size(), lengths.size());
      for (std::size_t p = 0; p < lengths.size(); ++p) {
        CHECK_EQ(sw.lengths[p], lengths[p]);
        CHECK(same_point(sw.points[p], ref[p]));
      }
      // Each distinct fault is generated at most once across the sweep: the
      // calls are exactly the largest tail (the one at the min length), and
      // calls + hits account for every distinct point's tail walk.
      CHECK_EQ(sw.stats.podem_calls, sw.points[min_pos].tail_faults);
      std::size_t distinct_tails = 0;
      for (std::size_t p = 0; p < lengths.size(); ++p)
        if (p == 0 ||
            std::find(lengths.begin(), lengths.begin() + p, lengths[p]) ==
                lengths.begin() + p)
          distinct_tails += sw.points[p].tail_faults;
      CHECK_EQ(sw.stats.podem_calls + sw.stats.podem_cache_hits,
               distinct_tails);
      CHECK_EQ(sw.stats.podem_threads, threads);
    }
  }

  return bist_test::summary();
}
