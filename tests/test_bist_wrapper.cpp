// End-to-end differential check of the BIST hardware generator, for every
// circuit in the ISCAS85 surrogate family:
//
//   run_mixed_sweep -> schedule_bist -> synthesize_bist_wrapper ->
//   write_bench -> read_bench -> cycle-by-cycle self-simulation
//
// must reproduce the scheduled point exactly: the applied pseudo-random
// phase is bit-identical to the Lfsr stream, the applied ROM phase equals
// the stored top-off set (checked both in sequence and as a multiset), and
// fault-simulating the CUT over the applied patterns lands on the scheduled
// point's final coverage down to the double, under both accounting
// conventions.  Also checks the synthesizer's exact area accounting against
// netlist_area and the T=0 (no ROM) degenerate wrapper.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bist/area.hpp"
#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/sweep.hpp"

using namespace bist;

namespace {

// Multiset equality of two pattern lists (the set-identity form of the
// acceptance criterion; verify_wrapper already checks the stronger
// sequence identity).
bool set_identical(std::vector<BitVec> a, std::vector<BitVec> b) {
  auto key = [](const BitVec& v) { return v.to_string(); };
  std::vector<std::string> ka, kb;
  for (const BitVec& v : a) ka.push_back(key(v));
  for (const BitVec& v : b) kb.push_back(key(v));
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  return ka == kb;
}

void check_wrapper(const Netlist& cut, const BistPlan& plan,
                   const MixedSchemeResult& point) {
  const BistSynthResult syn = synthesize_bist_wrapper(cut, plan);
  const unsigned K = plan.comp.misr.degree;
  CHECK(syn.wrapper.frozen());
  CHECK(syn.bist_gates > 0);
  CHECK_EQ(syn.actual.rom_bits, plan.rom_bits);
  CHECK_EQ(syn.counter_bits, counter_width(plan.test_time));
  CHECK_EQ(syn.wrapper.input_count(),
           plan.lfsr_degree + syn.counter_bits + K);
  CHECK_EQ(syn.wrapper.output_count(), cut.output_count() + plan.lfsr_degree +
                                           syn.counter_bits + K +
                                           (K > 0 ? 1 : 0));
  // The wrapper is its state inputs, the BIST logic and the CUT copy and
  // nothing else — the bench derives bist_gates from that.
  CHECK_EQ(syn.wrapper.gate_count(),
           plan.area.state_bits + syn.bist_gates + cut.logic_gate_count());

  // The synthesizer's per-block accounting is exact: wrapper area minus the
  // CUT copy equals the emitted BIST logic (state bits are priced as
  // flip-flops on top of the combinational gates).
  const AreaModel& m = plan.area_model;
  const double bist_logic = syn.actual.total() -
                            double(syn.actual.state_bits) * m.flipflop;
  const double by_netlist =
      netlist_area(m, syn.wrapper) - netlist_area(m, cut);
  CHECK(std::abs(bist_logic - by_netlist) < 1e-6);

  // And the scheduler's closed-form estimate prices exactly that structure,
  // block by block.
  CHECK(std::abs(plan.area.lfsr - syn.actual.lfsr) < 1e-6);
  CHECK(std::abs(plan.area.rom - syn.actual.rom) < 1e-6);
  CHECK(std::abs(plan.area.seed_rom - syn.actual.seed_rom) < 1e-6);
  CHECK(std::abs(plan.area.controller - syn.actual.controller) < 1e-6);
  CHECK(std::abs(plan.area.mux - syn.actual.mux) < 1e-6);
  CHECK(std::abs(plan.area.misr - syn.actual.misr) < 1e-6);
  CHECK_EQ(plan.area.state_bits, syn.actual.state_bits);
  CHECK_EQ(plan.area.rom_bits, syn.actual.rom_bits);
  CHECK_EQ(plan.area.seed_rom_bits, syn.actual.seed_rom_bits);
  CHECK_EQ(plan.area.misr_bits, syn.actual.misr_bits);

  // The generated hardware survives its own serialization: write, re-parse,
  // and run the verification loop on the re-parsed netlist.
  const Netlist back = read_bench(write_bench(syn.wrapper), syn.wrapper.name());
  CHECK_EQ(compute_stats(back).gates, compute_stats(syn.wrapper).gates);

  const WrapperVerification v = verify_wrapper(back, cut, plan, point);
  CHECK(v.lfsr_phase_identical);
  CHECK(v.topoff_identical);
  CHECK(v.coverage_identical);
  CHECK(v.seeds_identical);
  CHECK(v.signature_identical);
  CHECK(v.ok());
  CHECK_EQ(v.cycles, plan.test_time);
  CHECK_EQ(v.achieved_coverage, point.final_coverage);
  CHECK_EQ(v.achieved_coverage_weighted, point.final_coverage_weighted);
  if (K > 0) {
    CHECK_EQ(v.misr_signature, plan.comp.golden);
    // Empirical aliasing audit: on the surrogate family no detected fault's
    // signature collides with the golden one.
    CHECK_EQ(v.aliasing.escapes, std::size_t{0});
    CHECK(v.aliasing.detected_checked > 0 || plan.final_coverage == 0.0);
    CHECK(v.aliasing.bound <= 1.0 / 65536.0);  // K >= 16
  }

  // Independent extraction: the raw simulation result splits into the two
  // phases, set-identical ROM phase included.
  const WrapperSimResult ws = simulate_wrapper(back, cut, plan);
  CHECK_EQ(ws.applied.size(), plan.test_time);
  std::vector<BitVec> rom_phase(ws.applied.begin() + plan.lfsr_patterns,
                                ws.applied.end());
  CHECK(set_identical(rom_phase, plan.topoff));

  // Without seed loads the LFSR free-runs through both phases: its final
  // state must match the software LFSR advanced test_time patterns.  With
  // reseeding the top-off phase overwrites the register (by design); the
  // applied-pattern identities above pin down everything observable.
  if (plan.comp.seeds.empty()) {
    Lfsr ref(plan.lfsr_degree, plan.lfsr_taps, plan.lfsr_seed);
    for (std::size_t t = 0; t < plan.test_time; ++t)
      ref.next_pattern(cut.input_count());
    CHECK_EQ(ws.final_lfsr_state, ref.state());
  }
}

}  // namespace

int main() {
  for (const std::string& name : iscas85_names()) {
    const Netlist cut = make_iscas85(name);
    const SimKernel k(cut);

    MixedTpgOptions opt;
    opt.podem.backtrack_limit = 20;
    opt.fsim.threads = 4;  // engine knobs never change detection results
    const std::vector<std::size_t> lengths{128, 256, 512};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);

    ScheduleOptions so;
    so.lfsr_degree = opt.lfsr_degree;
    so.lfsr_seed = opt.lfsr_seed;
    const BistPlan knee = schedule_bist(sw, cut.input_count(), so);
    check_wrapper(cut, knee, sw.points[knee.point_index]);

    // A second operating point with a different length exercises another
    // counter width / ROM shape (skip when the knee already chose it).
    ScheduleOptions wc = so;
    wc.objective = ScheduleObjective::WeightedCost;
    wc.time_weight = 1.0;
    wc.area_weight = 0.0;  // fastest test: the shortest total time point
    const BistPlan fast = schedule_bist(sw, cut.input_count(), wc);
    if (fast.lfsr_patterns != knee.lfsr_patterns)
      check_wrapper(cut, fast, sw.points[fast.point_index]);
  }

  // Legacy decoded-ROM wrapper (compress=false): the pre-refactor
  // architecture stays synthesizable and verified through the same loop.
  for (const std::string& name : {std::string("c432s"), std::string("c880s")}) {
    const Netlist cut = make_iscas85(name);
    const SimKernel k(cut);
    MixedTpgOptions opt;
    opt.compress = false;
    opt.podem.backtrack_limit = 20;
    const std::vector<std::size_t> lengths{128, 256};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);
    ScheduleOptions so;
    so.lfsr_degree = opt.lfsr_degree;
    so.lfsr_seed = opt.lfsr_seed;
    const BistPlan plan = schedule_bist(sw, cut.input_count(), so);
    CHECK(plan.comp.seeds.empty());
    CHECK(!plan.comp.misr.enabled());
    CHECK_EQ(plan.comp.fallback_rows(), plan.topoff.size());
    check_wrapper(cut, plan, sw.points[plan.point_index]);
  }

  // T=0 degenerate wrapper in both modes: c17's tail is empty at moderate
  // lengths, so the plan stores no ROM.  Compressed, that still carries a
  // MISR (golden over the pseudo-random phase alone); legacy it is LFSR +
  // counter + buffers only — and in both modes the closed-form estimate
  // matches the synthesized breakdown gate for gate (checked inside
  // check_wrapper).
  for (const bool compress : {true, false}) {
    const Netlist cut = make_iscas85("c17");
    const SimKernel k(cut);
    MixedTpgOptions opt;
    opt.compress = compress;
    const std::vector<std::size_t> lengths{256};
    const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);
    CHECK_EQ(sw.points[0].topoff_patterns, std::size_t{0});
    const BistPlan plan = schedule_bist(sw, cut.input_count());
    CHECK_EQ(plan.topoff_patterns, std::size_t{0});
    CHECK_EQ(plan.rom_bits, std::size_t{0});
    CHECK_EQ(plan.comp.misr.enabled(), compress);
    CHECK(plan.comp.seeds.empty());
    check_wrapper(cut, plan, sw.points[plan.point_index]);
  }

  return bist_test::summary();
}
