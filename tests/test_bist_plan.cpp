// Area model + scheduler: closed-form pricing sanity, knee selection on a
// synthetic trade-off curve, budget handling, weighted-cost limits, and the
// acceptance-critical stability guarantee — the chosen plan is identical for
// duplicated and unsorted sweep-length lists, both on synthetic families and
// on a real run_mixed_sweep.

#include <algorithm>
#include <vector>

#include "bist/area.hpp"
#include "bist/schedule.hpp"
#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"

using namespace bist;

namespace {

// Decoded-ROM row model for `rows` stored patterns: every row a fallback
// row, no seeds, no MISR.
CompressedTopoff decoded_rows(std::size_t rows) {
  CompressedTopoff c;
  c.degree = 32;
  c.fallback.assign(rows, 1);
  return c;
}

// Synthetic sweep point: only the fields the scheduler consumes.
MixedSchemeResult fake_point(std::size_t length, std::size_t topoff,
                             std::size_t width) {
  MixedSchemeResult r;
  r.lfsr_patterns = length;
  r.topoff_patterns = topoff;
  for (std::size_t j = 0; j < topoff; ++j) {
    BitVec p(width);
    for (std::size_t i = j % 2; i < width; i += 2) p.set(i, true);
    r.topoff.push_back(p);
  }
  r.comp = decoded_rows(topoff);
  r.final_coverage = 0.9 + 0.0001 * double(length);
  r.final_coverage_weighted = r.final_coverage;
  return r;
}

MixedSweepResult fake_sweep(const std::vector<std::size_t>& lengths,
                            const std::vector<std::size_t>& topoffs,
                            std::size_t width) {
  MixedSweepResult sw;
  sw.width = width;
  for (std::size_t p = 0; p < lengths.size(); ++p) {
    sw.lengths.push_back(lengths[p]);
    sw.points.push_back(fake_point(lengths[p], topoffs[p], width));
  }
  return sw;
}

bool same_plan(const BistPlan& a, const BistPlan& b) {
  return a.lfsr_patterns == b.lfsr_patterns &&
         a.topoff_patterns == b.topoff_patterns &&
         a.test_time == b.test_time && a.rom_bits == b.rom_bits &&
         a.cost == b.cost && a.topoff == b.topoff &&
         a.area.area_bits() == b.area.area_bits() &&
         a.area.total() == b.area.total();
}

}  // namespace

int main() {
  // --- area model ----------------------------------------------------------
  {
    const AreaModel m;
    CHECK_EQ(gate_area(m, GateType::Input, 0), 0.0);
    CHECK_EQ(gate_area(m, GateType::Nand, 2), m.and2);
    CHECK_EQ(gate_area(m, GateType::Nand, 5), 4 * m.and2);
    CHECK_EQ(gate_area(m, GateType::Xor, 3), 2 * m.xor2);
    CHECK_EQ(gate_area(m, GateType::Not, 1), m.not1);
    // C17 = six 2-input NANDs.
    CHECK_EQ(netlist_area(m, make_c17()), 6 * m.and2);

    CHECK_EQ(counter_width(1), std::size_t{1});
    CHECK_EQ(counter_width(2), std::size_t{1});
    CHECK_EQ(counter_width(3), std::size_t{2});
    CHECK_EQ(counter_width(4), std::size_t{2});
    CHECK_EQ(counter_width(5), std::size_t{3});
    CHECK_EQ(counter_width(1024), std::size_t{10});
    CHECK_EQ(counter_width(1025), std::size_t{11});

    const std::uint64_t taps = Lfsr::primitive_taps(32);
    const auto mk = [&](std::size_t t) {
      std::vector<BitVec> topoff(t, BitVec(16, true));
      return estimate_bist_area(m, 32, taps, 16, topoff, 1024,
                                decoded_rows(t));
    };
    const BistArea a0 = mk(0), a4 = mk(4), a8 = mk(8);
    CHECK_EQ(a0.rom_bits, std::size_t{0});
    CHECK_EQ(a4.rom_bits, std::size_t{64});
    CHECK_EQ(a8.rom_bits, std::size_t{128});
    CHECK(a4.total() > a0.total());
    CHECK(a8.total() > a4.total());
    CHECK(a8.area_bits() > a4.area_bits());
    CHECK_EQ(a4.state_bits, std::size_t{32 + counter_width(1028)});
    // Pluggability: re-pricing flip-flops moves only the state-bit terms.
    AreaModel heavy_ff = m;
    heavy_ff.flipflop = 10.0;
    std::vector<BitVec> t4(4, BitVec(16, true));
    const BistArea h =
        estimate_bist_area(heavy_ff, 32, taps, 16, t4, 1024, decoded_rows(4));
    CHECK(h.lfsr > a4.lfsr);
    CHECK_EQ(h.rom, a4.rom);
    CHECK_EQ(h.rom_bits, a4.rom_bits);
    // Row flags must cover the top-off set exactly, as in synthesis.
    CHECK_THROWS(estimate_bist_area(m, 32, taps, 16, t4, 1024, decoded_rows(3)));
  }

  // --- knee selection on a synthetic convex curve --------------------------
  const std::vector<std::size_t> L{100, 200, 300, 400, 500};
  const std::vector<std::size_t> T{80, 30, 12, 8, 6};
  const std::size_t W = 10;
  {
    const MixedSweepResult sw = fake_sweep(L, T, W);
    const BistPlan plan = schedule_bist(sw, W);
    CHECK_EQ(plan.lfsr_patterns, std::size_t{200});  // chord-distance knee
    CHECK_EQ(plan.topoff_patterns, std::size_t{30});
    CHECK_EQ(plan.test_time, std::size_t{230});
    CHECK_EQ(plan.rom_bits, std::size_t{300});
    CHECK_EQ(plan.candidates.size(), L.size());
    CHECK(std::is_sorted(plan.candidates.begin(), plan.candidates.end(),
                         [](const SchedulePoint& a, const SchedulePoint& b) {
                           return a.length < b.length;
                         }));
    for (const SchedulePoint& c : plan.candidates)
      CHECK(c.knee_distance <= plan.knee_distance + 1e-12);

    // Budget trims the candidate set but the knee logic is unchanged.
    ScheduleOptions budget;
    budget.test_time_budget = 350;
    CHECK_EQ(schedule_bist(sw, W, budget).lfsr_patterns, std::size_t{200});
    // Infeasible budget degrades to the fastest point.
    budget.test_time_budget = 150;
    const BistPlan fastest = schedule_bist(sw, W, budget);
    CHECK_EQ(fastest.lfsr_patterns, std::size_t{100});
    CHECK_EQ(fastest.test_time, std::size_t{180});

    // Weighted-cost limits: pure time weight picks the fastest test, pure
    // area weight the smallest stored/state footprint.
    ScheduleOptions wc;
    wc.objective = ScheduleObjective::WeightedCost;
    wc.time_weight = 1.0;
    wc.area_weight = 0.0;
    CHECK_EQ(schedule_bist(sw, W, wc).lfsr_patterns, std::size_t{100});
    wc.time_weight = 0.0;
    wc.area_weight = 1.0;
    CHECK_EQ(schedule_bist(sw, W, wc).lfsr_patterns, std::size_t{500});
    // The reported cost is the objective at the chosen point.
    wc.time_weight = 2.0;
    wc.area_weight = 3.0;
    const BistPlan p = schedule_bist(sw, W, wc);
    bool found = false;
    for (const SchedulePoint& c : p.candidates) {
      CHECK(p.cost <= c.cost + 1e-12);
      if (c.length == p.lfsr_patterns) {
        found = true;
        CHECK_EQ(p.cost, 2.0 * double(c.test_time) + 3.0 * double(c.area_bits));
      }
    }
    CHECK(found);
  }

  // --- stability under duplicated/unsorted length lists (synthetic) --------
  {
    const BistPlan ref = schedule_bist(fake_sweep(L, T, W), W);
    const std::vector<std::size_t> Ls{400, 100, 500, 200, 100, 300, 200};
    const std::vector<std::size_t> Ts{8, 80, 6, 30, 80, 12, 30};
    const BistPlan perm = schedule_bist(fake_sweep(Ls, Ts, W), W);
    CHECK(same_plan(ref, perm));
    CHECK_EQ(perm.candidates.size(), std::size_t{5});  // dups collapsed

    ScheduleOptions wc;
    wc.objective = ScheduleObjective::WeightedCost;
    CHECK(same_plan(schedule_bist(fake_sweep(L, T, W), W, wc),
                    schedule_bist(fake_sweep(Ls, Ts, W), W, wc)));
  }

  // --- degenerate families -------------------------------------------------
  {
    CHECK_THROWS(schedule_bist(MixedSweepResult{}, 4));
    // A width that does not match the sweep's pattern width is an error, not
    // an out-of-bounds read during ROM pricing — including on sweeps whose
    // every point has an empty topoff set (width recorded by the sweep).
    CHECK_THROWS(schedule_bist(fake_sweep(L, T, W), W + 7));
    CHECK_THROWS(schedule_bist(fake_sweep(L, {0, 0, 0, 0, 0}, W), W + 1));
    // Points built for another LFSR degree cannot regenerate the plan's
    // stream, decoded-ROM points included.
    ScheduleOptions other_degree;
    other_degree.lfsr_degree = 16;
    CHECK_THROWS(schedule_bist(fake_sweep(L, T, W), W, other_degree));
    // Single point: chosen trivially.
    const MixedSweepResult one = fake_sweep({128}, {7}, W);
    const BistPlan p1 = schedule_bist(one, W);
    CHECK_EQ(p1.lfsr_patterns, std::size_t{128});
    CHECK_EQ(p1.topoff_patterns, std::size_t{7});
    // Flat top-off curve: the shortest test wins.
    const BistPlan flat = schedule_bist(fake_sweep(L, {5, 5, 5, 5, 5}, W), W);
    CHECK_EQ(flat.lfsr_patterns, std::size_t{100});
  }

  // --- real sweep integration + stability ----------------------------------
  {
    const Netlist n = make_iscas85("c432s");
    const SimKernel k(n);
    MixedTpgOptions opt;
    opt.podem.backtrack_limit = 20;

    const std::vector<std::size_t> a{64, 128, 256, 320};
    const std::vector<std::size_t> b{256, 64, 320, 128, 64, 256};
    const MixedSweepResult swa = run_mixed_sweep(k, a, opt);
    const MixedSweepResult swb = run_mixed_sweep(k, b, opt);

    ScheduleOptions so;
    so.lfsr_degree = opt.lfsr_degree;
    so.lfsr_seed = opt.lfsr_seed;
    const BistPlan pa = schedule_bist(swa, n.input_count(), so);
    const BistPlan pb = schedule_bist(swb, n.input_count(), so);
    CHECK(same_plan(pa, pb));
    CHECK(std::find(a.begin(), a.end(), pa.lfsr_patterns) != a.end());

    // The plan is a faithful copy of its source point.
    const MixedSchemeResult& pt = swa.points[pa.point_index];
    CHECK_EQ(pa.lfsr_patterns, pt.lfsr_patterns);
    CHECK_EQ(pa.topoff_patterns, pt.topoff_patterns);
    CHECK(pa.topoff == pt.topoff);
    CHECK_EQ(pa.final_coverage, pt.final_coverage);
    // Compressed by default: decoded ROM holds only the fallback rows, the
    // seed ROM the reseeding schedules, and the plan carries the point's
    // compression artifacts verbatim.
    CHECK(pa.comp.misr.enabled());
    CHECK_EQ(pa.rom_bits, pa.comp.fallback_rows() * n.input_count());
    CHECK_EQ(pa.area.seed_rom_bits, pa.comp.seed_rom_bits());
    CHECK_EQ(pa.area.misr_bits,
             std::size_t{misr_spec_for(n.output_count()).degree});
    CHECK_EQ(pa.comp.fallback.size(), pt.topoff.size());
    CHECK(pa.rom_bits + pa.area.seed_rom_bits <=
          pt.topoff_patterns * n.input_count());
    CHECK_EQ(pa.lfsr_taps, Lfsr::primitive_taps(so.lfsr_degree));

    ScheduleOptions wc = so;
    wc.objective = ScheduleObjective::WeightedCost;
    CHECK(same_plan(schedule_bist(swa, n.input_count(), wc),
                    schedule_bist(swb, n.input_count(), wc)));

    // Decoded-ROM policy: the pre-compression accounting, bit for bit, as
    // the all-fallback, MISR-less case of the row model.
    MixedTpgOptions lopt = opt;
    lopt.compress = false;
    const MixedSweepResult swl = run_mixed_sweep(k, a, lopt);
    const BistPlan pl = schedule_bist(swl, n.input_count(), so);
    CHECK(pl.comp.seeds.empty());
    CHECK(!pl.comp.misr.enabled());
    CHECK_EQ(pl.comp.fallback_rows(), pl.topoff.size());
    const MixedSchemeResult& lp = swl.points[pl.point_index];
    CHECK_EQ(pl.rom_bits, lp.topoff_patterns * n.input_count());
    CHECK_EQ(pl.area.seed_rom_bits, std::size_t{0});
    CHECK_EQ(pl.area.misr_bits, std::size_t{0});
    CHECK_EQ(pl.topoff.size(), pl.topoff_patterns);
  }

  return bist_test::summary();
}
