#include "bist/verify.hpp"

#include <stdexcept>
#include <string>

#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"

namespace bist {
namespace {

GateId require_net(const Netlist& n, const std::string& name) {
  const GateId g = n.find(name);
  if (g == kNoGate)
    throw std::runtime_error("wrapper net missing: " + name);
  return g;
}

}  // namespace

WrapperSimResult simulate_wrapper(const Netlist& wrapper, const Netlist& cut,
                                  const BistPlan& plan,
                                  const Deadline* deadline) {
  const unsigned D = plan.lfsr_degree;
  const std::size_t total = plan.test_time;
  const std::size_t C = counter_width(total);
  const std::size_t w = cut.input_count();
  const unsigned K = plan.comp.misr.degree;

  // Resolve every net the loop reads or drives, once.
  std::vector<GateId> lfsr_in(D), lfsr_out(D), cnt_in(C), cnt_out(C), cut_in(w);
  std::vector<GateId> misr_in(K), misr_out(K);
  GateId sign_ok = kNoGate;
  for (unsigned i = 0; i < D; ++i) {
    lfsr_in[i] = require_net(wrapper, "bist_lfsr_s" + std::to_string(i));
    lfsr_out[i] = require_net(wrapper, "bist_lfsr_n" + std::to_string(i));
  }
  for (std::size_t i = 0; i < C; ++i) {
    cnt_in[i] = require_net(wrapper, "bist_cnt_s" + std::to_string(i));
    cnt_out[i] = require_net(wrapper, "bist_cnt_n" + std::to_string(i));
  }
  for (unsigned i = 0; i < K; ++i) {
    misr_in[i] = require_net(wrapper, "bist_misr_s" + std::to_string(i));
    misr_out[i] = require_net(wrapper, "bist_misr_n" + std::to_string(i));
  }
  if (K > 0) sign_ok = require_net(wrapper, "bist_sign_ok");
  for (std::size_t i = 0; i < w; ++i)
    cut_in[i] =
        require_net(wrapper, "cut_" + cut.gate(cut.inputs()[i]).name);

  const SimKernel k(wrapper);
  KernelSim sim(k);

  const std::uint64_t mask =
      D == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << D) - 1);
  std::uint64_t lfsr_state = plan.lfsr_seed & mask;
  std::uint64_t counter = 0;
  std::uint64_t misr_state = 0;

  PatternBlock blk;
  blk.width = wrapper.input_count();
  blk.count = 1;
  blk.input_words.assign(blk.width, 0);

  WrapperSimResult r;
  r.applied.reserve(total);
  for (std::size_t cycle = 0; cycle < total; ++cycle) {
    // One wrapper evaluation per poll: bounded stop latency, and the applied
    // prefix stays exact (the checks read nothing the state depends on).
    if (deadline && deadline->should_stop()) {
      r.status = deadline->stop_status("simulate_wrapper");
      break;
    }
    for (auto& word : blk.input_words) word = 0;
    for (unsigned i = 0; i < D; ++i)
      if ((lfsr_state >> i) & 1)
        blk.input_words[wrapper.input_index(lfsr_in[i])] = 1;
    for (std::size_t i = 0; i < C; ++i)
      if ((counter >> i) & 1)
        blk.input_words[wrapper.input_index(cnt_in[i])] = 1;
    for (unsigned i = 0; i < K; ++i)
      if ((misr_state >> i) & 1)
        blk.input_words[wrapper.input_index(misr_in[i])] = 1;
    sim.simulate(blk);

    BitVec pat(w);
    for (std::size_t i = 0; i < w; ++i)
      pat.set(i, sim.value(cut_in[i]) & 1);
    r.applied.push_back(std::move(pat));

    std::uint64_t next_state = 0, next_counter = 0, next_misr = 0;
    for (unsigned i = 0; i < D; ++i)
      next_state |= std::uint64_t(sim.value(lfsr_out[i]) & 1) << i;
    for (std::size_t i = 0; i < C; ++i)
      next_counter |= std::uint64_t(sim.value(cnt_out[i]) & 1) << i;
    for (unsigned i = 0; i < K; ++i)
      next_misr |= std::uint64_t(sim.value(misr_out[i]) & 1) << i;
    lfsr_state = next_state;
    counter = next_counter;
    misr_state = next_misr;
    if (K > 0 && cycle + 1 == total) r.sign_ok = sim.value(sign_ok) & 1;
  }
  r.final_lfsr_state = lfsr_state;
  r.final_counter = counter;
  r.final_misr = misr_state;
  return r;
}

WrapperVerification verify_wrapper(const Netlist& wrapper, const Netlist& cut,
                                   const BistPlan& plan,
                                   const MixedSchemeResult& point,
                                   const FaultSimOptions& fopt,
                                   const Deadline* deadline) {
  const Deadline* dl = deadline ? deadline : fopt.deadline;
  const WrapperSimResult ws = simulate_wrapper(wrapper, cut, plan, dl);
  const std::size_t w = cut.input_count();
  const std::size_t L = plan.lfsr_patterns;

  WrapperVerification v;
  v.cycles = ws.applied.size();
  if (!ws.status.ok()) {
    // Stopped mid-simulation: no check below would be meaningful, and none
    // ran — report the stop.
    v.status = ws.status;
    return v;
  }

  // The pseudo-random phase must be the Lfsr class's stream, bit for bit
  // (the harness applies exactly test_time patterns by construction, so the
  // phase split L / topoff.size() is what the checks below pin down).
  Lfsr lfsr(plan.lfsr_degree, plan.lfsr_taps, plan.lfsr_seed);
  v.lfsr_phase_identical = L <= ws.applied.size();
  for (std::size_t t = 0; t < L && v.lfsr_phase_identical; ++t)
    v.lfsr_phase_identical = ws.applied[t] == lfsr.next_pattern(w);

  // The ROM phase must replay the stored set in application order (which is
  // in particular set-identical).
  v.topoff_identical = ws.applied.size() == L + plan.topoff.size();
  for (std::size_t j = 0; j < plan.topoff.size() && v.topoff_identical; ++j)
    v.topoff_identical = ws.applied[L + j] == plan.topoff[j];

  // Fault-simulating the CUT over the applied stream must land exactly on
  // the scheduled point's coverage: detection is pattern-set determined, so
  // the numerators (LFSR-phase detections + tail detections by the stored
  // set) agree integer for integer, and the doubles divide out identically.
  const SimKernel ck(cut);
  FaultSimulator fsim(ck);
  const std::vector<PatternBlock> blocks = pack_all(ws.applied, w);
  FaultSimOptions fo = fopt;
  fo.deadline = dl;
  const FaultSimResult fr = fsim.run(blocks, fo);
  if (!fr.status.ok()) {
    v.status = fr.status;
    return v;
  }
  v.achieved_coverage = fr.final_coverage();
  v.achieved_coverage_weighted = fr.final_coverage_weighted();
  v.coverage_identical = v.achieved_coverage == point.final_coverage &&
                         v.achieved_coverage_weighted ==
                             point.final_coverage_weighted;

  // Seed re-proof: every seeded (non-fallback) stored row must be the
  // software expansion of its seed schedule, bit for bit — the stored set
  // IS the seed expansion, not merely consistent with it.  An all-fallback
  // plan passes trivially.
  const CompressedTopoff& comp = plan.comp;
  v.seeds_identical = comp.fallback.size() == plan.topoff.size();
  std::vector<std::vector<SeedEvent>> by_row(plan.topoff.size());
  for (const SeedEvent& e : comp.seeds)
    if (e.row < by_row.size()) by_row[e.row].push_back(e);
  for (std::size_t j = 0; j < plan.topoff.size() && v.seeds_identical; ++j) {
    if (comp.fallback[j]) continue;
    v.seeds_identical =
        expand_row(by_row[j], plan.lfsr_degree, plan.lfsr_taps, w) ==
        plan.topoff[j];
  }

  // Signature: the gate-level MISR must land exactly on the golden state
  // and the synthesized comparator must say so on the final cycle; without
  // a MISR the wrapper must carry no signature at all.
  v.misr_signature = ws.final_misr;
  v.signature_identical = comp.misr.enabled()
                              ? ws.final_misr == comp.golden && ws.sign_ok
                              : ws.final_misr == 0 && !ws.sign_ok;

  // Empirical aliasing audit over the applied stream: does any detected
  // fault's signature collide with the golden one?
  if (comp.misr.enabled())
    v.aliasing = misr_aliasing_check(fsim, ck, blocks, ws.applied.size(),
                                     comp.misr, fr.first_detected);
  return v;
}

}  // namespace bist
