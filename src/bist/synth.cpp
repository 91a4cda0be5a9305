#include "bist/synth.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/builder.hpp"

namespace bist {
namespace {

std::string idx_name(const char* prefix, std::size_t i) {
  return std::string(prefix) + std::to_string(i);
}

std::string pair_name(const char* prefix, std::size_t i, std::size_t j) {
  return std::string(prefix) + std::to_string(i) + "_" + std::to_string(j);
}

}  // namespace

BistSynthResult synthesize_bist_wrapper(const Netlist& cut,
                                        const BistPlan& plan,
                                        const Deadline* deadline) {
  if (!cut.frozen())
    throw std::invalid_argument("synthesize_bist_wrapper: CUT not frozen");
  const std::size_t w = cut.input_count();
  if (w != plan.width)
    throw std::invalid_argument(
        "synthesize_bist_wrapper: plan width does not match the CUT");
  const std::size_t T = plan.topoff.size();
  const std::size_t total = plan.lfsr_patterns + T;
  if (total == 0)
    throw std::invalid_argument("synthesize_bist_wrapper: zero-cycle plan");
  const unsigned D = plan.lfsr_degree;
  const std::size_t C = counter_width(total);
  const CompressedTopoff& comp = plan.comp;
  const unsigned K = comp.misr.degree;
  if (comp.fallback.size() != T)
    throw std::invalid_argument(
        "synthesize_bist_wrapper: row flags do not match topoff");

  BistSynthResult res;
  res.counter_bits = C;
  const AreaModel& m = plan.area_model;
  NetlistBuilder b(cut.name() + "_bist");

  // Cooperative mid-stage stop: on a hit the caller gets the stop status and
  // an empty wrapper (the half-built NetlistBuilder is simply dropped —
  // forward references never get resolved because build() never runs).
  const auto stopped = [&] {
    if (!deadline || !deadline->should_stop()) return false;
    res.status = deadline->stop_status("synth");
    return true;
  };

  // Every emitted BIST gate goes through one of these, so res.actual is the
  // exact price of the generated test logic under the plan's model.
  auto emit = [&](double* bucket, std::string name, GateType t,
                  std::vector<std::string> fanins) {
    *bucket += gate_area(m, t, fanins.size());
    ++res.bist_gates;
    b.define(std::move(name), t, std::move(fanins));
  };

  // --- state inputs --------------------------------------------------------
  for (unsigned i = 0; i < D; ++i) b.input(idx_name("bist_lfsr_s", i));
  for (std::size_t i = 0; i < C; ++i) b.input(idx_name("bist_cnt_s", i));
  for (unsigned i = 0; i < K; ++i) b.input(idx_name("bist_misr_s", i));
  res.actual.state_bits = D + C + K;
  res.actual.misr_bits = K;
  res.actual.lfsr += double(D) * m.flipflop;
  res.actual.controller += double(C) * m.flipflop;
  res.actual.misr += double(K) * m.flipflop;

  // Reseed events grouped by unroll offset (rows within an offset keep seed
  // order, i.e. ascending row).  The load muxes below reference the row
  // decodes "bist_row<j>" by name before they are defined — NetlistBuilder
  // resolves forward references at build().
  std::map<std::uint32_t, std::vector<const SeedEvent*>> by_offset;
  for (const SeedEvent& e : comp.seeds) by_offset[e.offset].push_back(&e);

  // --- LFSR unrolling: w shifts, one feedback XOR each ---------------------
  // stage[j] holds the net currently occupying LFSR bit j; a shift renames
  // stage[j-1] -> stage[j] (wiring, no gate) and feeds the XOR of the tapped
  // stages into bit 0, exactly Lfsr::step().  Pattern bit t is the pre-shift
  // output stage (bit D-1) of step t.
  std::vector<std::string> stage(D);
  for (unsigned j = 0; j < D; ++j) stage[j] = idx_name("bist_lfsr_s", j);
  std::vector<std::string> pattern(w);
  for (std::size_t t = 0; t < w; ++t) {
    if (stopped()) return res;
    // Reseeding load mux: when any row reloads the register at this offset,
    // every register bit becomes OR(AND(sel', cur), seed_col) — the seed
    // column is an OR over the (one-hot) decodes of the rows whose seed bit
    // is set, so outside a load it is 0 and the keep leg passes the chain.
    if (const auto it = by_offset.find(static_cast<std::uint32_t>(t));
        it != by_offset.end()) {
      const std::vector<const SeedEvent*>& evs = it->second;
      std::string sel;
      if (evs.size() >= 2) {
        sel = idx_name("bist_ld", t);
        std::vector<std::string> rows;
        for (const SeedEvent* e : evs)
          rows.push_back(idx_name("bist_row", e->row));
        emit(&res.actual.controller, sel, GateType::Or, std::move(rows));
      } else {
        sel = idx_name("bist_row", evs[0]->row);
      }
      const std::string sel_inv = idx_name("bist_ldn", t);
      emit(&res.actual.controller, sel_inv, GateType::Not, {sel});
      for (unsigned bb = 0; bb < D; ++bb) {
        std::vector<std::string> seed_rows;
        for (const SeedEvent* e : evs)
          if ((e->seed >> bb) & 1)
            seed_rows.push_back(idx_name("bist_row", e->row));
        const std::string merged = pair_name("bist_ldm", t, bb);
        if (seed_rows.empty()) {
          emit(&res.actual.mux, merged, GateType::And, {sel_inv, stage[bb]});
        } else {
          const std::string leg = pair_name("bist_ldl", t, bb);
          emit(&res.actual.mux, leg, GateType::And, {sel_inv, stage[bb]});
          std::string seed_col;
          if (seed_rows.size() >= 2) {
            seed_col = pair_name("bist_seed", t, bb);
            emit(&res.actual.seed_rom, seed_col, GateType::Or,
                 std::move(seed_rows));
          } else {
            seed_col = seed_rows[0];
          }
          emit(&res.actual.mux, merged, GateType::Or, {leg, seed_col});
        }
        stage[bb] = merged;
      }
    }
    pattern[t] = stage[D - 1];
    std::vector<std::string> tapped;
    for (unsigned j = 0; j < D; ++j)
      if ((plan.lfsr_taps >> j) & 1) tapped.push_back(stage[j]);
    const std::string fb = idx_name("bist_lfsr_fb", t);
    if (tapped.size() >= 2) emit(&res.actual.lfsr, fb, GateType::Xor, tapped);
    else emit(&res.actual.lfsr, fb, GateType::Buf, tapped);
    for (unsigned j = D; j-- > 1;) stage[j] = stage[j - 1];
    stage[0] = fb;
  }
  for (unsigned j = 0; j < D; ++j)
    emit(&res.actual.lfsr, idx_name("bist_lfsr_n", j), GateType::Buf,
         {stage[j]});

  // --- cycle counter: ripple increment -------------------------------------
  std::vector<std::string> cnt(C), cnt_next(C);
  for (std::size_t i = 0; i < C; ++i) cnt[i] = idx_name("bist_cnt_s", i);
  cnt_next[0] = "bist_cnt_x0";
  emit(&res.actual.controller, cnt_next[0], GateType::Not, {cnt[0]});
  std::string carry = cnt[0];  // carry into bit 1 (wiring, no gate)
  for (std::size_t j = 1; j < C; ++j) {
    cnt_next[j] = idx_name("bist_cnt_x", j);
    emit(&res.actual.controller, cnt_next[j], GateType::Xor, {cnt[j], carry});
    if (j + 1 < C) {
      const std::string k = idx_name("bist_cnt_k", j);
      emit(&res.actual.controller, k, GateType::And, {cnt[j], carry});
      carry = k;
    }
  }
  for (std::size_t i = 0; i < C; ++i)
    emit(&res.actual.controller, idx_name("bist_cnt_n", i), GateType::Buf,
         {cnt_next[i]});

  // --- ROM rows + phase controller -----------------------------------------
  // Row j selects at counter value lfsr_patterns + j (equality decode over
  // the counter literals; inverters are created once per complemented bit).
  std::vector<std::string> rowsel(T);
  std::vector<std::string> cnt_inv(C);
  auto inv_of = [&](std::size_t i) {
    if (cnt_inv[i].empty()) {
      cnt_inv[i] = idx_name("bist_cnt_inv", i);
      emit(&res.actual.controller, cnt_inv[i], GateType::Not, {cnt[i]});
    }
    return cnt_inv[i];
  };
  for (std::size_t j = 0; j < T; ++j) {
    if (stopped()) return res;
    const std::size_t addr = plan.lfsr_patterns + j;
    std::vector<std::string> lits;
    for (std::size_t i = 0; i < C; ++i)
      lits.push_back((addr >> i) & 1 ? cnt[i] : inv_of(i));
    rowsel[j] = idx_name("bist_row", j);
    if (lits.size() >= 2)
      emit(&res.actual.controller, rowsel[j], GateType::And, std::move(lits));
    else
      emit(&res.actual.controller, rowsel[j], GateType::Buf, std::move(lits));
  }

  // Phase select: only the FALLBACK rows leave the chain for the decoded
  // ROM (a seeded row's pattern IS the chain, via its load muxes above).
  std::vector<std::string> det_rows;
  for (std::size_t j = 0; j < T; ++j)
    if (comp.fallback[j]) det_rows.push_back(rowsel[j]);
  std::string phase_inv;  // high outside the decoded-row cycles
  if (!det_rows.empty()) {
    if (det_rows.size() >= 2)
      emit(&res.actual.mux, "bist_det", GateType::Or, det_rows);
    else
      emit(&res.actual.mux, "bist_det", GateType::Buf, {det_rows[0]});
    phase_inv = "bist_pr";
    emit(&res.actual.mux, phase_inv, GateType::Not, {"bist_det"});
  }

  // --- pattern muxing into the CUT copy ------------------------------------
  // The mux output takes the CUT input's (prefixed) net name, so the copied
  // CUT gates below reference it without any remapping table.
  for (std::size_t i = 0; i < w; ++i) {
    if (stopped()) return res;
    const std::string cut_in =
        "cut_" + cut.gate(cut.inputs()[i]).name;
    if (det_rows.empty()) {
      emit(&res.actual.mux, cut_in, GateType::Buf, {pattern[i]});
      continue;
    }
    std::vector<std::string> rom_rows;
    for (std::size_t j = 0; j < T; ++j)
      if (comp.fallback[j] && plan.topoff[j].get(i))
        rom_rows.push_back(rowsel[j]);
    const std::string leg = idx_name("bist_sel", i);
    if (rom_rows.empty()) {
      // No stored pattern drives this input high; the gated LFSR leg IS the
      // CUT input (it is 0 throughout the ROM phase).
      emit(&res.actual.mux, cut_in, GateType::And, {phase_inv, pattern[i]});
      continue;
    }
    emit(&res.actual.mux, leg, GateType::And, {phase_inv, pattern[i]});
    std::string rom_col;
    if (rom_rows.size() >= 2) {
      rom_col = idx_name("bist_rom", i);
      emit(&res.actual.rom, rom_col, GateType::Or, std::move(rom_rows));
    } else {
      rom_col = rom_rows[0];
    }
    emit(&res.actual.mux, cut_in, GateType::Or, {leg, rom_col});
  }

  // --- CUT copy -------------------------------------------------------------
  // Poll every 4096 gates: one chunk of plain gate copies bounds the stop
  // latency, and a netlist large enough to matter hits many chunks.
  for (GateId g = 0; g < cut.gate_count(); ++g) {
    if ((g & 0xfff) == 0 && stopped()) return res;
    const Gate& gg = cut.gate(g);
    if (gg.type == GateType::Input) continue;  // driven by the mux above
    std::vector<std::string> fis;
    fis.reserve(gg.fanins.size());
    for (GateId f : gg.fanins) fis.push_back("cut_" + cut.gate(f).name);
    b.define("cut_" + gg.name, gg.type, std::move(fis));
  }

  // --- MISR + signature comparator (when the plan carries one) -------------
  // One MISR cycle per applied pattern: next state = shifted register (tap
  // parity into bit 0) XOR the folded CUT outputs (output o into stage
  // comp.misr.cls(o), the audited assignment).  bist_sign_ok compares the
  // next state against the plan's golden signature — meaningful on the last
  // test cycle.
  if (K > 0) {
    if (stopped()) return res;
    std::vector<std::string> tapped;
    for (unsigned j = 0; j < K; ++j)
      if ((comp.misr.taps >> j) & 1)
        tapped.push_back(idx_name("bist_misr_s", j));
    const std::string mfb = "bist_misr_fb";
    if (tapped.size() >= 2)
      emit(&res.actual.misr, mfb, GateType::Xor, std::move(tapped));
    else
      emit(&res.actual.misr, mfb, GateType::Buf, std::move(tapped));
    std::vector<std::string> misr_next(K);
    for (unsigned cc = 0; cc < K; ++cc) {
      std::vector<std::string> fis;
      fis.push_back(cc == 0 ? mfb : idx_name("bist_misr_s", cc - 1));
      for (std::size_t o = 0; o < cut.outputs().size(); ++o)
        if (comp.misr.cls(o) == cc)
          fis.push_back("cut_" + cut.gate(cut.outputs()[o]).name);
      misr_next[cc] = idx_name("bist_misr_n", cc);
      const GateType mt = fis.size() >= 2 ? GateType::Xor : GateType::Buf;
      emit(&res.actual.misr, misr_next[cc], mt, std::move(fis));
    }
    std::vector<std::string> lits(K);
    for (unsigned cc = 0; cc < K; ++cc) {
      if ((comp.golden >> cc) & 1) {
        lits[cc] = misr_next[cc];
      } else {
        lits[cc] = idx_name("bist_misr_cmp", cc);
        emit(&res.actual.misr, lits[cc], GateType::Not, {misr_next[cc]});
      }
    }
    emit(&res.actual.misr, "bist_sign_ok",
         K >= 2 ? GateType::And : GateType::Buf, std::move(lits));
  }

  // --- primary outputs ------------------------------------------------------
  for (GateId o : cut.outputs()) b.output("cut_" + cut.gate(o).name);
  for (unsigned j = 0; j < D; ++j) b.output(idx_name("bist_lfsr_n", j));
  for (std::size_t i = 0; i < C; ++i) b.output(idx_name("bist_cnt_n", i));
  for (unsigned j = 0; j < K; ++j) b.output(idx_name("bist_misr_n", j));
  if (K > 0) b.output("bist_sign_ok");

  res.actual.rom_bits = comp.fallback_rows() * w;
  res.actual.seed_rom_bits = comp.seed_rom_bits();
  res.wrapper = b.build();
  return res;
}

}  // namespace bist
