#include "bist/schedule.hpp"

#include <algorithm>
#include <stdexcept>

#include "tpg/lfsr.hpp"

namespace bist {

BistPlan schedule_bist(const MixedSweepResult& sweep, std::size_t width,
                       const ScheduleOptions& opt) {
  if (sweep.points.empty())
    throw std::invalid_argument("schedule_bist: empty sweep");
  if (sweep.points.size() != sweep.lengths.size())
    throw std::invalid_argument("schedule_bist: lengths/points size mismatch");
  // A sweep from run_mixed_sweep records its pattern width; the per-point
  // topoff check below still covers hand-assembled sweeps that left it 0.
  if (sweep.width != 0 && sweep.width != width)
    throw std::invalid_argument(
        "schedule_bist: width does not match the sweep's pattern width");

  const std::uint64_t taps = Lfsr::primitive_taps(opt.lfsr_degree);

  // Anytime ladder: prefer Complete points; with none (a deadline gutted the
  // sweep) fall back to the LfsrOnly tier and mark the plan degraded.  A
  // sweep where everything was Skipped has no usable data at all.
  const bool any_complete = std::any_of(
      sweep.points.begin(), sweep.points.end(),
      [](const MixedSchemeResult& p) { return p.state == PointState::Complete; });
  const PointState tier =
      any_complete ? PointState::Complete : PointState::LfsrOnly;
  const bool degraded = !any_complete;
  if (degraded &&
      std::none_of(sweep.points.begin(), sweep.points.end(),
                   [](const MixedSchemeResult& p) {
                     return p.state == PointState::LfsrOnly;
                   }))
    throw std::invalid_argument(
        "schedule_bist: sweep has no usable point (all skipped)");

  // Canonical candidate list: first occurrence per distinct length,
  // ascending length — the selection below sees the same list for any
  // permutation/duplication of the caller's sweep lengths.
  std::vector<SchedulePoint> cand;
  for (std::size_t p = 0; p < sweep.points.size(); ++p) {
    const MixedSchemeResult& pt = sweep.points[p];
    if (pt.state != tier) continue;
    const bool dup = std::any_of(
        cand.begin(), cand.end(),
        [&](const SchedulePoint& c) { return c.length == pt.lfsr_patterns; });
    if (dup) continue;
    if (!pt.topoff.empty() && pt.topoff.front().size() != width)
      throw std::invalid_argument(
          "schedule_bist: width does not match the sweep's pattern width");
    if (pt.comp.degree != opt.lfsr_degree)
      throw std::invalid_argument(
          "schedule_bist: point LFSR degree does not match lfsr_degree");
    SchedulePoint c;
    c.point_index = p;
    c.length = pt.lfsr_patterns;
    c.topoff_patterns = pt.topoff_patterns;
    c.test_time = pt.lfsr_patterns + pt.topoff_patterns;
    const BistArea a =
        estimate_bist_area(opt.area, opt.lfsr_degree, taps, width, pt.topoff,
                           pt.lfsr_patterns, pt.comp);
    c.rom_bits = a.rom_bits;
    c.seed_rom_bits = a.seed_rom_bits;
    c.misr_bits = a.misr_bits;
    c.fallback_rows = pt.comp.fallback_rows();
    c.area_bits = a.area_bits();
    c.cost = opt.time_weight * double(c.test_time) +
             opt.area_weight * double(c.area_bits);
    c.within_budget =
        opt.test_time_budget == 0 || c.test_time <= opt.test_time_budget;
    c.final_coverage = pt.final_coverage;
    cand.push_back(c);
  }
  std::sort(cand.begin(), cand.end(),
            [](const SchedulePoint& a, const SchedulePoint& b) {
              return a.length < b.length;
            });

  // Budget filter; an infeasible budget degrades to the fastest point.
  std::vector<std::size_t> feas;
  for (std::size_t i = 0; i < cand.size(); ++i)
    if (cand[i].within_budget) feas.push_back(i);
  if (feas.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < cand.size(); ++i)
      if (cand[i].test_time < cand[best].test_time) best = i;
    feas.push_back(best);
  }

  // Knee of the stored-cost curve over the feasible candidates: normalize
  // both axes to [0,1] over the feasible range and measure each point's
  // distance below the chord joining the shortest and longest lengths.  The
  // y-axis is area_bits when the points carry a MISR (cost per stored
  // pattern varies under reseeding, so the knee must see the real storage)
  // and the pattern count otherwise — the pre-compression schedule.  Flat or
  // two-point curves have zero chord distance everywhere; the tie-break then
  // minimizes normalized length + stored cost (for a flat curve that is
  // simply the shortest test).
  const bool area_knee = std::any_of(
      cand.begin(), cand.end(), [&](const SchedulePoint& c) {
        return sweep.points[c.point_index].comp.misr.enabled();
      });
  auto stored = [&](const SchedulePoint& c) {
    return area_knee ? c.area_bits : c.topoff_patterns;
  };
  const std::size_t lo = feas.front(), hi = feas.back();
  const double lspan = double(cand[hi].length) - double(cand[lo].length);
  std::size_t tmin = stored(cand[feas[0]]), tmax = tmin;
  for (const std::size_t i : feas) {
    tmin = std::min(tmin, stored(cand[i]));
    tmax = std::max(tmax, stored(cand[i]));
  }
  const double tspan = double(tmax) - double(tmin);
  auto norm_x = [&](const SchedulePoint& c) {
    return lspan > 0 ? (double(c.length) - double(cand[lo].length)) / lspan
                     : 0.0;
  };
  auto norm_y = [&](const SchedulePoint& c) {
    return tspan > 0 ? (double(stored(c)) - double(tmin)) / tspan : 0.0;
  };
  const double y0 = norm_y(cand[lo]), y1 = norm_y(cand[hi]);
  for (const std::size_t i : feas) {
    const double x = norm_x(cand[i]);
    cand[i].knee_distance = (y0 + (y1 - y0) * x) - norm_y(cand[i]);
  }

  std::size_t chosen = feas[0];
  if (opt.objective == ScheduleObjective::WeightedCost) {
    for (const std::size_t i : feas)
      if (cand[i].cost < cand[chosen].cost ||
          (cand[i].cost == cand[chosen].cost &&
           cand[i].length < cand[chosen].length))
        chosen = i;
  } else {
    const double eps = 1e-12;
    auto better = [&](const SchedulePoint& a, const SchedulePoint& b) {
      if (a.knee_distance > b.knee_distance + eps) return true;
      if (b.knee_distance > a.knee_distance + eps) return false;
      const double sa = norm_x(a) + norm_y(a);
      const double sb = norm_x(b) + norm_y(b);
      if (sa + eps < sb) return true;
      if (sb + eps < sa) return false;
      return a.length < b.length;
    };
    for (const std::size_t i : feas)
      if (better(cand[i], cand[chosen])) chosen = i;
  }

  const SchedulePoint& c = cand[chosen];
  const MixedSchemeResult& pt = sweep.points[c.point_index];
  BistPlan plan;
  plan.point_index = c.point_index;
  plan.lfsr_patterns = c.length;
  plan.topoff_patterns = c.topoff_patterns;
  plan.test_time = c.test_time;
  plan.rom_bits = c.rom_bits;
  plan.cost = c.cost;
  plan.knee_distance = c.knee_distance;
  plan.area = estimate_bist_area(opt.area, opt.lfsr_degree, taps, width,
                                 pt.topoff, pt.lfsr_patterns, pt.comp);
  plan.area_model = opt.area;
  plan.lfsr_degree = opt.lfsr_degree;
  plan.lfsr_taps = taps;
  plan.lfsr_seed = opt.lfsr_seed;
  plan.width = width;
  plan.topoff = pt.topoff;
  plan.comp = pt.comp;
  plan.lfsr_coverage = pt.lfsr_coverage;
  plan.final_coverage = pt.final_coverage;
  plan.final_coverage_weighted = pt.final_coverage_weighted;
  plan.degraded = degraded;
  plan.candidates = std::move(cand);
  return plan;
}

}  // namespace bist
