// Differential guard for the legacy fully decoded ROM architecture: with
// compression disabled the refactored pipeline must reproduce the
// pre-refactor output BIT FOR BIT.  The goldens below were captured from the
// tree immediately before the compression layer landed (same sweep lengths,
// PODEM budget, and scheduler weights): wrapper netlist hash, applied-stream
// hash, every area term, and the scheduled operating point.  Any drift here
// means the compress=false path stopped being the old path.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "circuits/iscas85_family.hpp"
#include "netlist/bench_io.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/sweep.hpp"

using namespace bist;

namespace {

bool close(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  const char* name;
  std::size_t lfsr_patterns, topoff, rom_bits, state_bits;
  double total, lfsr, rom, ctrl, mux;
  std::size_t bist_gates, wrapper_gates;
  std::uint64_t bench_hash, applied_hash;
  double coverage;
};

// Captured pre-refactor (sweep lengths {1280,2560,3840,5120,7680,10240},
// podem.backtrack_limit = 100, default scheduler weights).
const Golden kGoldens[] = {
    {"c432s", 5120, 5, 180, 45, 652.0, 360.0, 62.0, 159.5, 70.5, 212, 421,
     5681608153596609670ull, 8371076470544477252ull, 0.76138828633405642},
    {"c1355s", 3840, 20, 820, 44, 1083.0, 390.0, 281.0, 310.5, 101.5, 259,
     848, 13881867714176297235ull, 17467130251638338107ull,
     0.83927560837577819},
};

void check_circuit(const Golden& g) {
  std::printf("[legacy] %s\n", g.name);
  const Netlist cut = make_iscas85(g.name);
  const SimKernel k(cut);
  const std::vector<std::size_t> lengths = {1280, 2560, 3840,
                                            5120, 7680, 10240};
  MixedTpgOptions opt;
  opt.podem.backtrack_limit = 100;
  opt.compress = false;  // the whole point: legacy path, pre-refactor output
  const MixedSweepResult sw = run_mixed_sweep(k, lengths, opt);
  ScheduleOptions so;
  so.lfsr_degree = opt.lfsr_degree;
  so.lfsr_seed = opt.lfsr_seed;
  const BistPlan plan = schedule_bist(sw, sw.width, so);

  // Scheduled point and coverage.
  CHECK_EQ(plan.lfsr_patterns, g.lfsr_patterns);
  CHECK_EQ(plan.topoff.size(), g.topoff);
  CHECK(close(plan.final_coverage, g.coverage, 1e-15));

  // Legacy mode is the all-fallback, MISR-less case of the row model: every
  // stored row is decoded and every compressed-architecture field is inert.
  CHECK(plan.comp.seeds.empty());
  CHECK(!plan.comp.misr.enabled());
  CHECK_EQ(plan.comp.fallback_rows(), plan.topoff.size());
  CHECK_EQ(plan.area.seed_rom_bits, std::size_t{0});
  CHECK_EQ(plan.area.misr_bits, std::size_t{0});
  CHECK_EQ(plan.area.seed_rom, 0.0);
  CHECK_EQ(plan.area.misr, 0.0);

  // Area model, term by term.
  CHECK_EQ(plan.area.rom_bits, g.rom_bits);
  CHECK_EQ(plan.area.state_bits, g.state_bits);
  CHECK(close(plan.area.total(), g.total, 1e-9));
  CHECK(close(plan.area.lfsr, g.lfsr, 1e-9));
  CHECK(close(plan.area.rom, g.rom, 1e-9));
  CHECK(close(plan.area.controller, g.ctrl, 1e-9));
  CHECK(close(plan.area.mux, g.mux, 1e-9));

  // Synthesized wrapper: identical netlist text, identical applied stream.
  const BistSynthResult syn = synthesize_bist_wrapper(cut, plan);
  CHECK_EQ(syn.bist_gates, g.bist_gates);
  CHECK_EQ(std::size_t(syn.wrapper.gate_count()), g.wrapper_gates);
  const std::string bench = write_bench(syn.wrapper);
  CHECK_EQ(fnv1a(bench.data(), bench.size()), g.bench_hash);

  const WrapperSimResult ws = simulate_wrapper(syn.wrapper, cut, plan);
  std::uint64_t ph = 1469598103934665603ull;
  for (const BitVec& p : ws.applied)
    for (std::size_t i = 0; i < plan.width; ++i) {
      const unsigned char b = p.get(i);
      ph = fnv1a(&b, 1, ph);
    }
  CHECK_EQ(ph, g.applied_hash);

  const WrapperVerification v =
      verify_wrapper(syn.wrapper, cut, plan, sw.points[plan.point_index]);
  CHECK(v.ok());
}

}  // namespace

int main() {
  for (const Golden& g : kGoldens) check_circuit(g);
  return bist_test::summary();
}
