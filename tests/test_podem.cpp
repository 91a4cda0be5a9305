// PODEM golden tests on C17 (every collapsed fault testable, sensitization
// conditions of a hand-analyzed fault, redundancy recognition, abort
// reporting) plus the property test: every cube PODEM emits is confirmed by
// the PPSFP fault simulator to detect its target fault — under both all-0
// and all-1 completion of the don't-care bits.  Search pins fold every
// verdict over real LFSR tails into digests; engine reuse (any fault order)
// and PodemBatch (any worker count) must reproduce them; a decision path
// hundreds of thousands deep must not exhaust a thread's stack.

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault.hpp"
#include "fault/fault_sim.hpp"
#include "fault/podem.hpp"
#include "sim/kernel.hpp"
#include "test_util.hpp"
#include "tpg/lfsr.hpp"
#include "util/hash.hpp"

using namespace bist;

namespace {

BitVec fill(const std::vector<Ternary>& cube, bool x_value) {
  BitVec p(cube.size());
  for (std::size_t i = 0; i < cube.size(); ++i)
    p.set(i, cube[i] == Ternary::VX ? x_value : cube[i] == Ternary::V1);
  return p;
}

// Folds one verdict into a search digest (fault id, status, counts, cube).
void hash_result(Hasher& h, std::uint32_t fault, const PodemResult& r) {
  h.u32(fault).u8(static_cast<std::uint8_t>(r.status)).u32(r.backtracks)
      .u64(r.decisions).u32(static_cast<std::uint32_t>(r.cube.size()));
  for (const Ternary t : r.cube) h.u8(static_cast<std::uint8_t>(t));
}

bool same_result(const PodemResult& a, const PodemResult& b) {
  return a.status == b.status && a.cube == b.cube &&
         a.backtracks == b.backtracks && a.decisions == b.decisions;
}

// True iff `pattern` detects f, via the PPSFP propagate (single lane).
bool fault_sim_confirms(FaultSimulator& fsim, const SimKernel& k,
                        const Fault& f, const BitVec& pattern) {
  KernelSim sim(k);
  const PatternBlock blk = pack_patterns({&pattern, 1}, pattern.size());
  sim.simulate(blk);
  return (fsim.detect_lanes(f, sim.values(), blk.lane_mask()) & 1) != 0;
}

}  // namespace

int main() {
  // --- C17: every collapsed fault has a test, every cube is confirmed ----
  {
    const Netlist c17 = make_c17();
    const SimKernel k(c17);
    FaultSimulator fsim(k);
    Podem podem(k);
    for (const Fault& f : fsim.faults()) {
      const PodemResult r = podem.generate(f);
      CHECK_EQ(int(r.status), int(PodemStatus::Detected));
      if (r.status != PodemStatus::Detected) continue;
      CHECK_EQ(r.cube.size(), c17.input_count());
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, false)));
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, true)));
    }

    // Hand-analyzed fault: input "1" s-a-0.  Activation needs 1=1; the only
    // propagation path is 1 -> 10 -> 22, which requires 3=1 (sensitize gate
    // 10) and 16=1 at gate 22.  Every test cube must satisfy all three.
    const Fault f1sa0{c17.find("1"), -1, 0};
    const PodemResult r = podem.generate(f1sa0);
    CHECK_EQ(int(r.status), int(PodemStatus::Detected));
    const std::uint32_t pi1 = c17.input_index(c17.find("1"));
    const std::uint32_t pi3 = c17.input_index(c17.find("3"));
    CHECK_EQ(int(r.cube[pi1]), int(Ternary::V1));
    CHECK_EQ(int(r.cube[pi3]), int(Ternary::V1));
    // The cube leaves at least one of the five inputs unconstrained: PODEM
    // assigns only what the objective chain needed.
    std::size_t x_bits = 0;
    for (Ternary t : r.cube) x_bits += t == Ternary::VX;
    CHECK(x_bits >= 1);
  }

  // --- redundancy recognition -------------------------------------------
  // o = OR(a, NOT a) is constant 1: faults that only change o towards 1 are
  // untestable, while NOT-output s-a-0 makes o follow a and is testable.
  {
    Netlist n("const1");
    const GateId a = n.add_input("a");
    const GateId nb = n.add_gate(GateType::Not, {a}, "nb");
    const GateId o = n.add_gate(GateType::Or, {a, nb}, "o");
    n.add_output(o);
    n.freeze();
    const SimKernel k(n);
    Podem podem(k);

    CHECK_EQ(int(podem.generate({o, -1, 1}).status), int(PodemStatus::Redundant));
    CHECK_EQ(int(podem.generate({a, -1, 0}).status), int(PodemStatus::Redundant));
    CHECK_EQ(int(podem.generate({o, 0, 1}).status), int(PodemStatus::Redundant));

    const PodemResult det = podem.generate({nb, -1, 0});
    CHECK_EQ(int(det.status), int(PodemStatus::Detected));
    CHECK_EQ(int(det.cube[0]), int(Ternary::V0));  // needs a = 0

    // Proving redundancy takes at least one backtrack, so a zero backtrack
    // budget must abort instead of claiming redundancy.
    PodemOptions strict;
    strict.backtrack_limit = 0;
    const PodemResult ab = podem.generate({o, -1, 1}, strict);
    CHECK_EQ(int(ab.status), int(PodemStatus::Aborted));
    CHECK(ab.backtracks >= 1);
  }

  // --- property test across ISCAS85 surrogates ---------------------------
  // Take the LFSR-resistant tail of a short pseudo-random phase and PODEM a
  // sample of it; every emitted cube must be fault-sim confirmed under both
  // X completions.
  for (const std::string& name : {std::string("c432s"), std::string("c499s"),
                                  std::string("c880s"), std::string("c1908s")}) {
    const Netlist n = make_iscas85(name);
    const SimKernel k(n);
    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), 256));

    Podem podem(k);
    PodemOptions opt;
    opt.backtrack_limit = 100;  // keeps redundancy proofs cheap in this test
    std::size_t tried = 0, detected = 0;
    for (std::size_t i = 0;
         i < lr.first_detected.size() && detected < 10; ++i) {
      if (lr.first_detected[i] >= 0) continue;
      ++tried;
      const Fault& f = fsim.faults()[i];
      const PodemResult r = podem.generate(f, opt);
      if (r.status != PodemStatus::Detected) continue;
      ++detected;
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, false)));
      CHECK(fault_sim_confirms(fsim, k, f, fill(r.cube, true)));
    }
    CHECK(tried > 0);      // the short LFSR phase leaves a tail
    CHECK(detected > 0);   // and PODEM cracks LFSR-resistant faults
  }

  // --- search pin over a real LFSR tail ----------------------------------
  // Every verdict, cube, backtrack count and decision count PODEM produces
  // on c1355s's LFSR-resistant tail at backtrack limit 100, folded into one
  // digest.  The search is deterministic, so any change to the implication
  // engine, objective, backtrace or pruning that is meant to be
  // behaviour-preserving must leave this digest unchanged.
  {
    const Netlist n = make_iscas85("c1355s");
    const SimKernel k(n);
    FaultSimulator fsim(k);
    Lfsr lfsr = Lfsr::maximal(32, 0xACE1);
    const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), 1024));
    Podem podem(k);
    PodemOptions opt;
    opt.backtrack_limit = 100;
    Hasher h;
    std::size_t tail = 0;
    std::size_t status_count[3] = {0, 0, 0};
    for (const std::uint32_t i : lr.tail_at(lr.patterns)) {
      const PodemResult r = podem.generate(fsim.faults()[i], opt);
      ++tail;
      ++status_count[static_cast<int>(r.status) % 3];
      hash_result(h, i, r);
    }
    std::printf("c1355s tail %zu: %zu detected, %zu redundant, %zu aborted, "
                "digest %s\n",
                tail, status_count[0], status_count[1], status_count[2],
                h.digest().hex().c_str());
    CHECK_EQ(tail, std::size_t{367});
    CHECK_EQ(h.digest().hex(), std::string("b00d7119df4078a26fa1613d76353a5a"));
  }

  // --- search pins on the control-dominated surrogates --------------------
  // Same digest as above over every 4th fault of the c2670s and c3540s LFSR
  // tails (1280-pattern prefix, limit 100): these carry the deep searches
  // and most of the backtracks.  The same engine then replays the list in
  // reverse order — any state left behind by a previous fault (an undone
  // implication, a stale visited mark) would change a verdict — and
  // PodemBatch replays it at 1, 2 and 3 workers.
  {
    struct Pin {
      const char* circuit;
      std::size_t faults;
      const char* digest;
    };
    for (const Pin& pin :
         {Pin{"c2670s", 452, "07894d5c4a1a9a29b2c9bc6a27105e0b"},
          Pin{"c3540s", 566, "87886a99a74ee1d5843e39eca6ea0c09"}}) {
      const Netlist n = make_iscas85(pin.circuit);
      const SimKernel k(n);
      FaultSimulator fsim(k);
      Lfsr lfsr = Lfsr::maximal(32, 0xBADC0FFE);
      const FaultSimResult lr = fsim.run(lfsr.blocks(n.input_count(), 1280));
      const std::vector<std::uint32_t> tail = lr.tail_at(lr.patterns);
      std::vector<std::uint32_t> ids;
      std::vector<Fault> faults;
      for (std::size_t j = 0; j < tail.size(); j += 4) {
        ids.push_back(tail[j]);
        faults.push_back(fsim.faults()[tail[j]]);
      }
      PodemOptions opt;
      opt.backtrack_limit = 100;
      Podem podem(k);
      std::vector<PodemResult> forward;
      Hasher h;
      for (std::size_t j = 0; j < faults.size(); ++j) {
        forward.push_back(podem.generate(faults[j], opt));
        hash_result(h, ids[j], forward.back());
      }
      std::printf("%s every 4th tail fault: %zu, digest %s\n", pin.circuit,
                  faults.size(), h.digest().hex().c_str());
      CHECK_EQ(faults.size(), pin.faults);
      CHECK_EQ(h.digest().hex(), std::string(pin.digest));

      bool reverse_same = true;
      for (std::size_t j = faults.size(); j-- > 0;)
        reverse_same &= same_result(podem.generate(faults[j], opt), forward[j]);
      CHECK(reverse_same);

      for (const unsigned threads : {1u, 2u, 3u}) {
        PodemBatch batch(k, threads);
        const std::vector<PodemResult> got = batch.generate(faults, opt);
        bool batch_same = got.size() == forward.size();
        for (std::size_t j = 0; batch_same && j < got.size(); ++j)
          batch_same = same_result(got[j], forward[j]);
        CHECK(batch_same);
      }
    }
  }

  // --- fault site out of range ------------------------------------------
  {
    const Netlist c17 = make_c17();
    const SimKernel k(c17);
    Podem podem(k);
    for (const GateId bad : {static_cast<GateId>(c17.gate_count()), kNoGate}) {
      bool threw = false;
      try {
        podem.generate({bad, -1, 0});
      } catch (const std::out_of_range&) {
        threw = true;
      }
      CHECK(threw);
    }
  }

  // --- a decision path 400k deep ----------------------------------------
  // root = AND over 400k inputs through a fanin-64 tree.  Root s-a-0 needs
  // every input at 1, and every input is one decision on a single search
  // path (no backtracks).  The engine runs on a worker thread with the
  // default stack, where one call frame per decision would overflow.
  {
    constexpr std::size_t kInputs = 400000;
    Netlist n("and_tree");
    std::vector<GateId> layer;
    for (std::size_t i = 0; i < kInputs; ++i)
      layer.push_back(n.add_input("i" + std::to_string(i)));
    while (layer.size() > 1) {
      std::vector<GateId> next;
      for (std::size_t b = 0; b < layer.size(); b += 64) {
        const std::size_t e = std::min(layer.size(), b + 64);
        next.push_back(n.add_gate(
            GateType::And, std::span<const GateId>(layer).subspan(b, e - b)));
      }
      layer = std::move(next);
    }
    n.add_output(layer[0]);
    n.freeze();
    const SimKernel k(n);
    PodemResult r;
    std::string error;
    std::thread worker([&] {
      try {
        Podem podem(k);
        r = podem.generate({layer[0], -1, 0});
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    worker.join();
    CHECK_EQ(error, std::string());
    CHECK_EQ(int(r.status), int(PodemStatus::Detected));
    CHECK_EQ(r.decisions, std::uint64_t{kInputs});
    CHECK_EQ(r.backtracks, 0u);
    bool all_ones = r.cube.size() == kInputs;
    for (const Ternary t : r.cube) all_ones &= t == Ternary::V1;
    CHECK(all_ones);
  }

  return bist_test::summary();
}
