#include "jobs.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "bist/synth.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "sim/kernel.hpp"
#include "store/result_store.hpp"
#include "store/serialize.hpp"
#include "tpg/lfsr.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

void replace_all(std::string& s, const std::string& from,
                 const std::string& to) {
  if (from.empty() || from == to) return;
  for (std::size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size()))
    s.replace(pos, from.size(), to);
}

}  // namespace

std::string renamed_bench(const bist::Netlist& n, std::uint64_t seed) {
  std::vector<std::size_t> perm(n.gate_count());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  bist::Rng rng(seed, 0x5c7a3b1e);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.next_below(static_cast<std::uint32_t>(i))]);
  const auto name = [&perm](bist::GateId g) {
    return "n" + std::to_string(perm[g]);
  };
  // Same lines in the same order as write_bench, only the names differ.
  std::ostringstream os;
  for (const bist::GateId g : n.inputs()) os << "INPUT(" << name(g) << ")\n";
  for (const bist::GateId g : n.outputs()) os << "OUTPUT(" << name(g) << ")\n";
  for (bist::GateId id = 0; id < n.gate_count(); ++id) {
    const bist::Gate& g = n.gate(id);
    if (g.type == bist::GateType::Input) continue;
    os << name(id) << " = " << bist::gate_type_name(g.type) << "(";
    for (std::size_t i = 0; i < g.fanins.size(); ++i)
      os << (i ? ", " : "") << name(g.fanins[i]);
    os << ")\n";
  }
  return os.str();
}

std::string circuit_text(const std::string& circuit, std::uint64_t seed) {
  const bist::Netlist n = bist::make_iscas85(circuit);
  return seed == 0 ? bist::write_bench(n) : renamed_bench(n, seed);
}

bist::JobSpec make_spec(std::string name, std::string bench_text,
                        unsigned engine_threads, std::size_t budget) {
  bist::JobSpec spec;
  spec.name = std::move(name);
  spec.bench_text = std::move(bench_text);
  for (const double f : {0.125, 0.25, 0.375, 0.5, 0.75, 1.0})
    spec.sweep_lengths.push_back(
        static_cast<std::size_t>(double(kPatterns) * f));
  spec.tpg.lfsr_patterns = kPatterns;
  spec.tpg.fsim.threads = engine_threads;
  spec.tpg.fsim.word_width = bist::kMaxWordWidth;
  spec.tpg.podem.backtrack_limit = kBacktrackLimit;
  spec.tpg.podem_threads = engine_threads;
  spec.tpg.compress = true;
  spec.schedule.test_time_budget = budget;
  spec.schedule.lfsr_degree = spec.tpg.lfsr_degree;
  spec.schedule.lfsr_seed = spec.tpg.lfsr_seed;
  return spec;
}

std::string job_defect(const bist::JobReport& r) {
  if (!r.status.ok())
    return std::string(bist::stage_code_name(r.status.code)) + ": " +
           r.status.message;
  if (r.degraded) return "degraded plan";
  if (!r.wrapper_ok) return "wrapper does not verify";
  if (r.verification.aliasing.escapes != 0)
    return std::to_string(r.verification.aliasing.escapes) +
           " MISR aliasing escapes";
  return {};
}

std::string fingerprint(const bist::JobReport& r, const std::string& name) {
  bist::JobReport c = r;
  bist::strip_volatile(c);
  replace_all(c.wrapper_bench, c.name, name);
  c.name = name;
  const std::vector<std::uint8_t> bytes = bist::serialize_job_report(c);
  return bist::Hasher().bytes(bytes.data(), bytes.size()).digest().hex();
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  podem_s += o.podem_s;
  compact_s += o.compact_s;
  compress_s += o.compress_s;
  faults += o.faults;
  podem_calls += o.podem_calls;
  podem_cache_hits += o.podem_cache_hits;
  podem_detected += o.podem_detected;
  podem_aborted += o.podem_aborted;
  podem_redundant += o.podem_redundant;
  podem_backtracks += o.podem_backtracks;
  topoff_patterns += o.topoff_patterns;
  audit_faults += o.audit_faults;
  seed_count += o.seed_count;
  fallback_rows += o.fallback_rows;
  wrapper_gates += o.wrapper_gates;
  selfsim_cycles += o.selfsim_cycles;
  store_hits += o.store_hits;
  store_misses += o.store_misses;
  store_quarantined += o.store_quarantined;
  record_bytes += o.record_bytes;
  return *this;
}

bist::JobReport traced_job(const bist::JobSpec& spec, Tracer& tracer,
                           std::uint64_t job_id, LayerCounters& counters) {
  if (!spec.store) throw std::invalid_argument("traced_job needs a store");
  const Tracer::Scope job(tracer, "pipeline.job", job_id);
  bist::JobReport rep;
  rep.name = spec.name;
  const auto stage = [&rep](const char* name, bist::StageStatus st) {
    bist::StageReport sr;
    sr.name = name;
    sr.status = std::move(st);
    rep.stages.push_back(std::move(sr));
  };

  bist::Netlist cut;
  {
    const Tracer::Scope s(tracer, "netlist.parse", job_id);
    cut = bist::read_bench(spec.bench_text, spec.name, spec.limits);
  }
  stage("parse", {});

  bist::Digest128 key;
  {
    const Tracer::Scope s(tracer, "store.key", job_id);
    key = bist::sweep_cache_key(cut, spec.sweep_lengths, spec.tpg);
  }
  bist::ResultStore::SweepLookup lk;
  {
    const Tracer::Scope s(tracer, "store.load", job_id);
    lk = spec.store->load_sweep(key);
  }
  using Outcome = bist::ResultStore::SweepLookup::Outcome;
  if (lk.outcome == Outcome::Hit) {
    ++counters.store_hits;
    rep.sweep = std::move(lk.sweep);
  } else {
    ++(lk.outcome == Outcome::Quarantined ? counters.store_quarantined
                                          : counters.store_misses);
    std::unique_ptr<bist::SimKernel> kernel;
    std::unique_ptr<bist::FaultSimulator> fsim;
    {
      const Tracer::Scope s(tracer, "fault.build", job_id);
      kernel = std::make_unique<bist::SimKernel>(cut);
      fsim = std::make_unique<bist::FaultSimulator>(*kernel);
    }
    bist::FaultSimResult full;
    {
      const Tracer::Scope s(tracer, "fault.lfsr_sim", job_id);
      const std::size_t lmax = *std::max_element(spec.sweep_lengths.begin(),
                                                 spec.sweep_lengths.end());
      bist::Lfsr lfsr =
          bist::Lfsr::maximal(spec.tpg.lfsr_degree, spec.tpg.lfsr_seed);
      full = fsim->run(lfsr.blocks(kernel->inputs().size(), lmax),
                       spec.tpg.fsim);
    }
    {
      const Tracer::Scope s(tracer, "tpg.sweep", job_id);
      rep.sweep = bist::run_mixed_sweep(*kernel, *fsim, spec.sweep_lengths,
                                        spec.tpg, &full);
    }
    const bist::MixedSweepStats& st = rep.sweep.stats;
    counters.podem_s += st.podem_seconds;
    counters.compact_s += st.compact_seconds;
    counters.compress_s += st.solve_seconds;
    counters.faults += fsim->faults().size();
    counters.podem_calls += st.podem_calls;
    counters.podem_cache_hits += st.podem_cache_hits;
    // The shortest length's tail holds every fault PODEM ever saw, each
    // verdict counted once.
    const auto shortest = std::min_element(
        rep.sweep.points.begin(), rep.sweep.points.end(),
        [](const bist::MixedSchemeResult& a, const bist::MixedSchemeResult& b) {
          return a.lfsr_patterns < b.lfsr_patterns;
        });
    counters.podem_detected += shortest->podem_detected;
    counters.podem_aborted += shortest->aborted;
    counters.podem_redundant += shortest->redundant;
    counters.podem_backtracks += shortest->podem_backtracks;

    const bool canonical =
        rep.sweep.status.ok() &&
        std::all_of(rep.sweep.points.begin(), rep.sweep.points.end(),
                    [](const bist::MixedSchemeResult& p) {
                      return p.state == bist::PointState::Complete &&
                             p.status.ok();
                    });
    if (canonical) {
      const Tracer::Scope s(tracer, "store.publish", job_id);
      if (spec.store->store_sweep(key, rep.sweep)) {
        std::error_code ec;
        const auto size =
            std::filesystem::file_size(spec.store->sweep_path(key), ec);
        if (!ec) counters.record_bytes += size;
      }
    }
  }
  stage("sweep", rep.sweep.status);

  {
    const Tracer::Scope s(tracer, "bist.schedule", job_id);
    bist::ScheduleOptions so = spec.schedule;
    so.lfsr_degree = spec.tpg.lfsr_degree;
    so.lfsr_seed = spec.tpg.lfsr_seed;
    rep.plan = bist::schedule_bist(rep.sweep, rep.sweep.width, so);
    rep.degraded = rep.plan.degraded;
  }
  stage("schedule", {});

  bist::BistSynthResult syn;
  {
    const Tracer::Scope s(tracer, "bist.synth", job_id);
    syn = bist::synthesize_bist_wrapper(cut, rep.plan);
    if (!syn.status.ok()) throw std::runtime_error("synth stopped");
    rep.wrapper_bench = bist::write_bench(syn.wrapper);
  }
  stage("synth", {});

  {
    const Tracer::Scope s(tracer, "bist.verify", job_id);
    rep.verification = bist::verify_wrapper(
        syn.wrapper, cut, rep.plan, rep.sweep.points[rep.plan.point_index],
        spec.tpg.fsim);
  }
  rep.wrapper_ok = rep.verification.ok();
  stage("verify", rep.wrapper_ok ? bist::StageStatus{}
                                 : bist::StageStatus::error(
                                       "verify: wrapper does not match the plan"));
  for (const bist::StageReport& sr : rep.stages)
    if (!sr.status.ok()) {
      rep.status = bist::StageStatus::error("stage '" + sr.name +
                                            "' failed: " + sr.status.message);
      break;
    }

  counters.topoff_patterns += rep.plan.topoff_patterns;
  counters.audit_faults += rep.verification.aliasing.detected_checked;
  counters.seed_count += rep.plan.comp.seeds.size();
  counters.fallback_rows += rep.plan.comp.fallback_rows();
  counters.wrapper_gates += syn.bist_gates;
  counters.selfsim_cycles += rep.verification.cycles;
  return rep;
}

}  // namespace perfbench
