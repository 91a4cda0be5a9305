// Bench and front end of the BIST generator over the ISCAS85 surrogate
// family.  Three modes share one run config and one JobSpec builder
// (make_job_spec), so every mode plans a circuit through the same
// run_plan_job: parse -> sweep -> schedule -> synth -> verify.
//
// Default mode, per circuit: two throughput sections, then the plan job.
//  - logic_sim: gate-evals/sec of the SimKernel path at 64 lanes and at the
//    widest compiled word (W x 64 lanes) over the same LFSR blocks; the two
//    paths' PO checksums must agree or the run exits 1 ("kernel/wide output
//    mismatch!").
//  - fault_sim: the PPSFP fault simulator driven by a maximal-length LFSR:
//    collapsed faults, detected, coverage, faults-dropped/sec.
//  Both timed sections run one untimed warmup pass, then --reps timed
//  passes keeping the fastest (microsecond-scale sections are otherwise
//  scheduler noise); each carries `reps` and `seconds_best`.
//  - mixed_sweep + bist_plan: the circuit's JobReport.  The sweep runs the
//    mixed scheme (LFSR phase -> PODEM top-off -> compaction) at every
//    --sweep-lengths candidate; the scheduler picks the knee of the
//    length-vs-ROM trade-off (optionally under a --budget test-time cap);
//    the synthesizer emits the gate-level wrapper (LFSR + counter + stored
//    rows + MISR + muxed CUT copy) as <--wrapper-dir>/wrapper_<circuit>.bench;
//    the self-simulation harness drives the wrapper cycle by cycle and must
//    reproduce the scheduled point (wrapper_matches_plan).  wrapper_gates,
//    bist_gates and counter_bits are read off the report: the wrapper's
//    gate count, less its state inputs and the CUT copy, and the cycle
//    counter's width.  --plot adds the coverage-vs-patterns curve and the
//    scheduler's trade-off curves.  --no-sweep skips the job.
//
// --deadline-ms D becomes the job's anytime sweep deadline and
// --job-timeout-ms J its whole-job limit (JobSpec::sweep_deadline_s /
// job_timeout_s, as in --jobs); neither bounds the throughput sections.  A
// deadline-shaped job degrades instead of failing: the sweep yields
// LfsrOnly/Skipped points, the scheduler falls back to an LFSR-only plan,
// and the wrapper is still synthesized and self-verified; the JSON carries
// `state`/`status`/`degraded` fields so tooling can gate on them.
//
// The compressed test-data architecture is on by default: top-off cubes are
// stored as LFSR reseeding schedules (seed ROM) with decoded fallback rows,
// and a MISR compacts the CUT responses into one signature checked on-chip.
// --no-compress selects the paper's decoded ROM + per-pattern-compare
// architecture, the same row model with every row a decoded fallback row
// and no MISR: bist_plan then reports fallback_rows == topoff_patterns and
// zero seed/MISR fields.
//
// Batch (jobs) mode: --jobs runs one JobSpec per circuit through
// run_job_batch.  --cache-dir DIR (implies --jobs) attaches the durable
// content-addressed ResultStore: sweep results are served from / published
// to DIR, corrupt records quarantine and recompute, and the batch journals
// completed jobs to DIR/batch.manifest so --resume replays them after a
// crash (kill -9 mid-batch, rerun with --resume: finished circuits come
// back from the journal, the interrupted one recomputes, usually from the
// sweep cache).  --retries N arms bounded deterministic retry for transient
// stage failures.  Jobs mode emits BENCH JSON {"bench": "job_batch", ...}
// with per-job cache/stage/attempt detail and aggregate cache_stats.
//
// Either mode exits 1 when a job ends in an Error status or a wrapper file
// cannot be written ("error: could not write <file>").
//
// Usage: bench_fault_sim [--patterns N] [--reps N] [--threads N] [--width W]
//                        [--circuits c17,c6288s,...]
//                        [--podem-backtracks N] [--no-sweep]
//                        [--sweep-lengths a,b,c]
//                        [--no-compress] [--budget N] [--wrapper-dir DIR]
//                        [--deadline-ms D] [--job-timeout-ms J]
//                        [--jobs] [--cache-dir DIR] [--resume] [--retries N]
//                        [--serve] [--spool DIR] [--stream FILE]
//                        [--drain-ms N] [--queue-limit N] [--watchdog-ms N]
//                        [--grace-ms N] [--quarantine-after N]
//                        [--health FILE] [--health-period-ms N]
//                        [--chaos stage:circuit[:times[:transient|det]]]
//                        [--out FILE] [--plot]
//
// Numeric flag values must be whole tokens in range ("64x", "-1" for an
// unsigned count, or an overflowing value are rejected): a bad value prints
// "error: invalid value for --<flag>" and exits 1.  An unknown flag prints
// the usage and exits 2.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "bist/area.hpp"
#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"
#include "util/ascii_plot.hpp"
#include "util/strings.hpp"
#include "util/wallclock.hpp"

namespace {

using Clock = bist::WallClock;
using bist::seconds_since;

// Every knob of every mode; the flags parse straight into it.
struct RunConfig {
  std::vector<std::string> names = bist::iscas85_names();
  std::size_t patterns = 10240;
  int reps = 5;
  unsigned threads = 0;  // 0 = hardware concurrency
  unsigned width = bist::kMaxWordWidth;
  std::uint32_t podem_backtracks = 100;
  bool sweep = true;
  std::vector<std::size_t> sweep_lengths;  // empty = derive from patterns
  bool compress = true;     // compressed test data (seeds + MISR)
  std::size_t budget = 0;   // scheduler test-time budget, 0 = none
  std::string wrapper_dir;  // empty: "." by default, none with --jobs
  double deadline_ms = 0;     // anytime sweep deadline per job, 0 = off
  double job_timeout_ms = 0;  // wall-clock cap per job, 0 = off
  bool plot = false;
  std::string out_path;  // empty: BENCH_fault_sim.json / BENCH_job_batch.json
  bool jobs = false;     // run the fault-tolerant batch pipeline
  std::string cache_dir;  // durable sweep store root; implies --jobs
  bool resume = false;    // replay the manifest; implies --jobs
  unsigned retries = 1;   // stage attempts (1 = no retry)
  // --serve: the long-lived job service front end.
  bool serve = false;
  std::string spool_dir;  // empty = read submissions from stdin
  std::string stream_path = "BENCH_service.jsonl";
  std::string health_path = "BENCH_service_health.json";
  double health_period_ms = 500;
  std::size_t queue_limit = 64;
  double watchdog_ms = 0;
  double grace_ms = 250;
  int quarantine_after = 3;
  double drain_ms = 5000;
  std::string chaos;  // stage:circuit[:times[:transient|det]]
};

struct PathResult {
  double seconds = 0;
  std::uint64_t gate_evals = 0;
  double evals_per_sec = 0;
  std::uint64_t checksum = 0;  ///< XOR of PO words, cross-checked between paths
};

// Kernel path at W x 64 lanes per pass; W=1 is the classic KernelSim loop.
// One untimed warmup pass, then `reps` timed passes keeping the fastest.
template <unsigned W>
PathResult run_wide_path(const bist::SimKernel& k,
                         std::span<const bist::PatternBlock> blocks, int reps) {
  bist::WideSimT<W> sim(k);
  PathResult r;
  r.seconds = 1e30;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup, untimed
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (std::size_t bi = 0; bi < blocks.size();) {
      const std::size_t nb = bist::WideSimT<W>::group_size(blocks, bi);
      sim.simulate(blocks.subspan(bi, nb));
      for (bist::KIndex o : k.outputs()) {
        const auto v = sim.value_at(o);
        if constexpr (W == 1) {
          checksum ^= v & blocks[bi].lane_mask();
        } else {
          for (unsigned j = 0; j < nb; ++j)
            checksum ^= v.w[j] & blocks[bi + j].lane_mask();
        }
      }
      bi += nb;
    }
    if (rep >= 0) r.seconds = std::min(r.seconds, seconds_since(t0));
    r.checksum = checksum;
  }
  r.gate_evals = std::uint64_t(k.schedule().size() + k.constants().size()) *
                 64 * blocks.size();
  r.evals_per_sec = r.seconds > 0 ? double(r.gate_evals) / r.seconds : 0;
  return r;
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// User-supplied strings (circuit names, --wrapper-dir paths) are escaped so
// quotes, backslashes or control bytes cannot break the output.
std::string json_str(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\' << c;
    else if (static_cast<unsigned char>(c) < 0x20)
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    else os << c;
  }
  os << '"';
  return os.str();
}

const char* json_bool(bool b) { return b ? "true" : "false"; }

// Whole-token CLI number: the entire value must parse (no trailing bytes,
// no leading space), unsigned flags take no sign at all (std::from_chars
// accepts none), durations must be finite and non-negative, and anything
// outside T's range is an error — so "--patterns 64x" or "--threads -1" fail
// loudly instead of running as 64 or 4294967295.
template <typename T>
T parse_num(const std::string& flag, const std::string& tok) {
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [p, ec] = std::from_chars(tok.data(), end, v);
  bool ok = ec == std::errc{} && p == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v) && v >= 0;
  if (!ok)
    throw std::invalid_argument("invalid value for " + flag + ": '" + tok + "'");
  return v;
}

// Write `text` to `path`; a failed write prints the error and returns false.
bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  f.flush();
  if (f) return true;
  std::cerr << "error: could not write " << path << "\n";
  return false;
}

std::string wrapper_path(const std::string& dir, const std::string& name) {
  return dir + "/wrapper_" + name + ".bench";
}

// The one wrapper writer of the default and --jobs modes: the job's wrapper
// netlist, if it built one, lands in `dir`.
bool write_wrapper(const std::string& dir, const bist::JobReport& rep) {
  return rep.wrapper_bench.empty() ||
         write_file(wrapper_path(dir, rep.name), rep.wrapper_bench);
}

// Gates of a write_bench text: every line but the '#' comments and the
// OUTPUT(...) lines (which name existing gates) is one INPUT or one gate.
std::size_t bench_gate_count(std::string_view text) {
  std::size_t gates = 0;
  for (const std::string_view line : bist::split(text, "\n"))
    if (!line.starts_with('#') && !line.starts_with("OUTPUT(")) ++gates;
  return gates;
}

const bist::StageReport* find_stage(const bist::JobReport& rep,
                                    std::string_view stage) {
  for (const bist::StageReport& sr : rep.stages)
    if (sr.name == stage) return &sr;
  return nullptr;
}

double stage_seconds(const bist::JobReport& rep, std::string_view stage) {
  const bist::StageReport* sr = find_stage(rep, stage);
  return sr ? sr->seconds : 0;
}

// One job's report as a single-line JSON object — the shared shape of the
// --jobs per-job entries and the --serve JSONL stream, so a service stream
// and a cold batch are directly comparable.
std::string jobreport_jsonl(const bist::JobReport& rep) {
  std::ostringstream js;
  js << "{\"name\": " << json_str(rep.name) << ", \"status\": "
     << json_str(std::string(bist::stage_code_name(rep.status.code)))
     << ", \"status_message\": " << json_str(rep.status.message)
     << ", \"degraded\": " << json_bool(rep.degraded)
     << ", \"wrapper_ok\": " << json_bool(rep.wrapper_ok)
     << ", \"cache\": {\"consulted\": " << json_bool(rep.cache.consulted)
     << ", \"hit\": " << json_bool(rep.cache.hit)
     << ", \"stored\": " << json_bool(rep.cache.stored)
     << ", \"quarantined\": " << json_bool(rep.cache.quarantined)
     << ", \"manifest\": " << json_bool(rep.cache.manifest)
     << ", \"note\": " << json_str(rep.cache.note) << "}, \"stages\": [";
  for (std::size_t s = 0; s < rep.stages.size(); ++s) {
    const bist::StageReport& sr = rep.stages[s];
    js << (s ? ", " : "") << "{\"name\": " << json_str(sr.name)
       << ", \"status\": "
       << json_str(std::string(bist::stage_code_name(sr.status.code)))
       << ", \"attempts\": " << sr.attempts
       << ", \"seconds\": " << json_num(sr.seconds) << "}";
  }
  js << "], \"chosen_length\": " << rep.plan.lfsr_patterns
     << ", \"topoff_patterns\": " << rep.plan.topoff_patterns
     << ", \"test_time\": " << rep.plan.test_time
     << ", \"rom_bits\": " << rep.plan.rom_bits
     << ", \"area_bits\": " << rep.plan.area.area_bits()
     << ", \"final_coverage\": " << json_num(rep.plan.final_coverage)
     << ", \"selfsim_cycles\": " << rep.verification.cycles
     << ", \"selfsim_coverage\": "
     << json_num(rep.verification.achieved_coverage)
     << ", \"seconds\": " << json_num(rep.seconds) << "}";
  return js.str();
}

bist::FaultSimOptions fault_sim_options(const RunConfig& cfg) {
  bist::FaultSimOptions fopt;
  fopt.threads = cfg.threads;
  fopt.word_width = cfg.width;
  return fopt;
}

// One job for `name` over `bench_text` under the run-wide knobs of `cfg` —
// the spec every mode plans a circuit with.
bist::JobSpec make_job_spec(const RunConfig& cfg, const std::string& name,
                            std::string bench_text) {
  bist::JobSpec spec;
  spec.name = name;
  spec.bench_text = std::move(bench_text);
  spec.sweep_lengths = cfg.sweep_lengths;
  spec.tpg.lfsr_patterns = cfg.patterns;
  spec.tpg.fsim = fault_sim_options(cfg);
  spec.tpg.podem.backtrack_limit = cfg.podem_backtracks;
  spec.tpg.podem_threads = cfg.threads;
  spec.tpg.compress = cfg.compress;
  spec.schedule.test_time_budget = cfg.budget;
  spec.schedule.lfsr_degree = spec.tpg.lfsr_degree;
  spec.schedule.lfsr_seed = spec.tpg.lfsr_seed;
  spec.sweep_deadline_s = cfg.deadline_ms / 1000.0;
  spec.job_timeout_s = cfg.job_timeout_ms / 1000.0;
  spec.retry.attempts = std::max(1u, cfg.retries);
  return spec;
}

// --- Default mode: throughput sections + the plan job per circuit ----------

// The mixed_sweep and bist_plan JSON sections, the stdout lines and the
// trade-off plots of one circuit's plan job.  Sections the job did not
// reach are left out.  Returns false when the run must exit 1.
bool report_plan_job(const RunConfig& cfg, const bist::Netlist& cut,
                     const bist::JobReport& rep, const std::string& wrapper_dir,
                     std::ostream& js) {
  const std::string& name = rep.name;
  bool ok = write_wrapper(wrapper_dir, rep);

  const bist::MixedSweepResult& sw = rep.sweep;
  if (!sw.points.empty()) {
    bool sweep_verified = true;  // every point's top-off passed its check
    for (const auto& pt : sw.points)
      sweep_verified = sweep_verified && pt.all_verified;
    if (!sweep_verified) {
      std::cerr << "error: " << name
                << ": a top-off pattern failed its fault-sim check\n";
      ok = false;
    }
    const double sweep_secs = stage_seconds(rep, "sweep");
    std::cout << name << ": sweep " << cfg.sweep_lengths.size()
              << " lengths in " << bist::format_fixed(sweep_secs, 2)
              << "s (podem " << sw.stats.podem_calls << " calls + "
              << sw.stats.podem_cache_hits << " cache hits, "
              << sw.stats.podem_threads << " threads)\n";
    if (!sw.status.ok()) {
      std::cout << name << ": sweep degraded ("
                << bist::stage_code_name(sw.status.code) << "), points:";
      for (const auto& pt : sw.points)
        std::cout << " " << bist::point_state_name(pt.state);
      std::cout << "\n";
    }

    js << ",\n      \"mixed_sweep\": {\n        \"lengths\": [";
    for (std::size_t p = 0; p < cfg.sweep_lengths.size(); ++p)
      js << (p ? ", " : "") << cfg.sweep_lengths[p];
    js << "],\n        \"points\": [\n";
    for (std::size_t p = 0; p < sw.points.size(); ++p) {
      const bist::MixedSchemeResult& pt = sw.points[p];
      js << "          {\"length\": " << pt.lfsr_patterns
         << ", \"tail_faults\": " << pt.tail_faults
         << ", \"topoff_patterns\": " << pt.topoff_patterns
         << ", \"lfsr_coverage\": " << json_num(pt.lfsr_coverage)
         << ", \"final_coverage\": " << json_num(pt.final_coverage)
         << ", \"final_coverage_weighted\": "
         << json_num(pt.final_coverage_weighted) << ", \"state\": "
         << json_str(std::string(bist::point_state_name(pt.state))) << "}"
         << (p + 1 < sw.points.size() ? "," : "") << "\n";
    }
    js << "        ],\n"
       << "        \"podem_calls\": " << sw.stats.podem_calls << ",\n"
       << "        \"podem_cache_hits\": " << sw.stats.podem_cache_hits
       << ",\n"
       << "        \"podem_threads\": " << sw.stats.podem_threads << ",\n"
       << "        \"lfsr_seconds\": " << json_num(sw.stats.lfsr_seconds)
       << ",\n"
       << "        \"podem_seconds\": " << json_num(sw.stats.podem_seconds)
       << ",\n"
       << "        \"compact_seconds\": " << json_num(sw.stats.compact_seconds)
       << ",\n"
       << "        \"solve_seconds\": " << json_num(sw.stats.solve_seconds)
       << ",\n"
       << "        \"status\": "
       << json_str(std::string(bist::stage_code_name(sw.status.code))) << ",\n"
       << "        \"completed_points\": "
       << std::count_if(sw.points.begin(), sw.points.end(),
                        [](const bist::MixedSchemeResult& pt) {
                          return pt.state == bist::PointState::Complete;
                        })
       << ",\n"
       << "        \"patterns_verified\": " << json_bool(sweep_verified)
       << ",\n"
       << "        \"sweep_seconds\": " << json_num(sweep_secs) << ",\n"
       << "        \"deadline_ms\": " << json_num(cfg.deadline_ms)
       << "\n      }";
  }

  if (rep.status.code == bist::StageCode::Error) {
    std::cerr << "error: " << name << ": " << rep.status.message << "\n";
    ok = false;
  } else if (!rep.wrapper_ok) {
    std::cout << name << ": job " << bist::stage_code_name(rep.status.code)
              << " without a verified wrapper (" << rep.status.message
              << ")\n";
  }

  // The schedule stage has no soft stop: Ok means the plan exists.
  const bist::StageReport* schedule = find_stage(rep, "schedule");
  if (!schedule || !schedule->status.ok()) return ok;
  const bist::BistPlan& plan = rep.plan;
  const bist::WrapperVerification& wv = rep.verification;
  const std::string wrapper_file = wrapper_path(wrapper_dir, name);
  // The wrapper is the state inputs, the BIST logic and the CUT copy.
  const std::size_t wrapper_gates = bench_gate_count(rep.wrapper_bench);
  const std::size_t bist_gates =
      wrapper_gates ? wrapper_gates - plan.area.state_bits -
                          cut.logic_gate_count()
                    : 0;
  const double bist_secs = stage_seconds(rep, "schedule") +
                           stage_seconds(rep, "synth") +
                           stage_seconds(rep, "verify");
  const std::uint64_t decoded =
      std::uint64_t(plan.topoff_patterns) * cut.input_count();
  const std::uint64_t stored = plan.rom_bits + plan.area.seed_rom_bits;
  const double compression_ratio =
      stored ? double(decoded) / double(stored) : 0.0;

  std::cout << name << ": bist plan L=" << plan.lfsr_patterns << " + "
            << plan.topoff_patterns << " ROM patterns (" << plan.rom_bits
            << " ROM bits, " << plan.area.area_bits() << " area bits, "
            << bist::format_fixed(plan.area.total(), 1) << " GE), wrapper "
            << wrapper_gates << " gates -> " << wrapper_file << ", self-sim "
            << wv.cycles << " cycles coverage "
            << bist::format_fixed(100 * wv.achieved_coverage, 2) << "%"
            << (wv.ok() ? " == plan" : " [PLAN MISMATCH]") << " ("
            << bist::format_fixed(bist_secs, 2) << "s)"
            << (plan.degraded ? " [DEGRADED: LFSR-only tier]" : "") << "\n";
  if (cfg.compress) {
    std::cout << name << ": compressed data " << plan.comp.seeds.size()
              << " seeds (" << plan.comp.seed_rom_bits() << " seed-ROM bits) + "
              << plan.comp.fallback_rows() << " fallback rows ("
              << plan.rom_bits << " decoded bits) vs " << decoded
              << " bits fully decoded (x"
              << bist::format_fixed(compression_ratio, 2) << "), MISR K="
              << plan.comp.misr.degree << " aliasing " << wv.aliasing.escapes
              << "/" << wv.aliasing.detected_checked << " escapes\n";
  }

  js << ",\n      \"bist_plan\": {\n"
     << "        \"objective\": \"knee_under_budget\",\n"
     << "        \"degraded\": " << json_bool(plan.degraded) << ",\n"
     << "        \"status\": " << (wv.ok() ? "\"ok\"" : "\"error\"") << ",\n"
     << "        \"test_time_budget\": " << cfg.budget << ",\n"
     << "        \"chosen_length\": " << plan.lfsr_patterns << ",\n"
     << "        \"topoff_patterns\": " << plan.topoff_patterns << ",\n"
     << "        \"test_time\": " << plan.test_time << ",\n"
     << "        \"rom_bits\": " << plan.rom_bits << ",\n"
     << "        \"state_bits\": " << plan.area.state_bits << ",\n"
     << "        \"area_bits\": " << plan.area.area_bits() << ",\n"
     << "        \"compress\": " << json_bool(cfg.compress) << ",\n"
     << "        \"seed_rom_bits\": " << plan.area.seed_rom_bits << ",\n"
     << "        \"misr_bits\": " << plan.area.misr_bits << ",\n"
     << "        \"seed_count\": " << plan.comp.seeds.size() << ",\n"
     << "        \"fallback_rows\": " << plan.comp.fallback_rows() << ",\n"
     << "        \"decoded_rom_bits\": " << decoded << ",\n"
     << "        \"compression_ratio\": " << json_num(compression_ratio)
     << ",\n"
     << "        \"aliasing_escapes\": " << wv.aliasing.escapes << ",\n"
     << "        \"aliasing_checked\": " << wv.aliasing.detected_checked
     << ",\n"
     << "        \"aliasing_bound\": " << json_num(wv.aliasing.bound) << ",\n"
     << "        \"knee_distance\": " << json_num(plan.knee_distance) << ",\n"
     << "        \"final_coverage\": " << json_num(plan.final_coverage)
     << ",\n"
     << "        \"area_estimate_ge\": {\"lfsr\": " << json_num(plan.area.lfsr)
     << ", \"rom\": " << json_num(plan.area.rom)
     << ", \"seed_rom\": " << json_num(plan.area.seed_rom)
     << ", \"controller\": " << json_num(plan.area.controller)
     << ", \"mux\": " << json_num(plan.area.mux)
     << ", \"misr\": " << json_num(plan.area.misr)
     << ", \"total\": " << json_num(plan.area.total()) << "},\n"
     << "        \"wrapper_gates\": " << wrapper_gates << ",\n"
     << "        \"bist_gates\": " << bist_gates << ",\n"
     << "        \"counter_bits\": " << bist::counter_width(plan.test_time)
     << ",\n"
     << "        \"wrapper_file\": " << json_str(wrapper_file) << ",\n"
     << "        \"candidates\": [\n";
  for (std::size_t c = 0; c < plan.candidates.size(); ++c) {
    const bist::SchedulePoint& sp = plan.candidates[c];
    js << "          {\"length\": " << sp.length
       << ", \"topoff_patterns\": " << sp.topoff_patterns
       << ", \"test_time\": " << sp.test_time
       << ", \"rom_bits\": " << sp.rom_bits
       << ", \"area_bits\": " << sp.area_bits
       << ", \"knee_distance\": " << json_num(sp.knee_distance)
       << ", \"within_budget\": " << json_bool(sp.within_budget) << "}"
       << (c + 1 < plan.candidates.size() ? "," : "") << "\n";
  }
  js << "        ],\n"
     << "        \"selfsim_cycles\": " << wv.cycles << ",\n"
     << "        \"selfsim_coverage\": " << json_num(wv.achieved_coverage)
     << ",\n"
     << "        \"selfsim_coverage_weighted\": "
     << json_num(wv.achieved_coverage_weighted) << ",\n"
     << "        \"lfsr_phase_identical\": "
     << json_bool(wv.lfsr_phase_identical) << ",\n"
     << "        \"topoff_identical\": " << json_bool(wv.topoff_identical)
     << ",\n"
     << "        \"coverage_identical\": " << json_bool(wv.coverage_identical)
     << ",\n"
     << "        \"seeds_identical\": " << json_bool(wv.seeds_identical)
     << ",\n"
     << "        \"signature_identical\": "
     << json_bool(wv.signature_identical) << ",\n"
     << "        \"wrapper_matches_plan\": " << json_bool(wv.ok()) << ",\n"
     << "        \"schedule_seconds\": "
     << json_num(stage_seconds(rep, "schedule")) << ",\n"
     << "        \"synth_seconds\": " << json_num(stage_seconds(rep, "synth"))
     << ",\n"
     << "        \"selfsim_seconds\": "
     << json_num(stage_seconds(rep, "verify")) << "\n      }";

  // The scheduler's trade-off curves over the (deduplicated, sorted)
  // candidate set, so the knee the plan picked is visible in CI logs.
  if (cfg.plot && plan.candidates.size() >= 2) {
    bist::Series cov, rom, abits;
    cov.name = "final coverage %";
    rom.name = "topoff ROM patterns";
    abits.name = "area bits (ROM + state)";
    rom.marker = 'o';
    abits.marker = '+';
    for (const bist::SchedulePoint& sp : plan.candidates) {
      cov.x.push_back(double(sp.length));
      cov.y.push_back(100 * sp.final_coverage);
      rom.x.push_back(double(sp.length));
      rom.y.push_back(double(sp.topoff_patterns));
      abits.x.push_back(double(sp.length));
      abits.y.push_back(double(sp.area_bits));
    }
    const std::string knee =
        " (knee at L=" + std::to_string(plan.lfsr_patterns) + ")";
    bist::PlotOptions pc;
    pc.title = name + ": final coverage vs. LFSR length" + knee;
    pc.x_label = "LFSR length";
    pc.y_label = "%";
    std::cout << bist::ascii_plot({cov}, pc);
    bist::PlotOptions pr;
    pr.title = name + ": ROM cost vs. LFSR length" + knee;
    pr.x_label = "LFSR length";
    pr.y_label = "cost";
    pr.y_from_zero = true;
    std::cout << bist::ascii_plot({rom, abits}, pr);
  }
  return ok;
}

int run_bench(const RunConfig& cfg) {
  const std::string out_path =
      cfg.out_path.empty() ? "BENCH_fault_sim.json" : cfg.out_path;
  const std::string wrapper_dir =
      cfg.wrapper_dir.empty() ? "." : cfg.wrapper_dir;
  const bist::FaultSimOptions fopt = fault_sim_options(cfg);
  if (!cfg.sweep) {
    // --budget / --wrapper-dir would be silently dead otherwise.
    std::cerr << "note: --no-sweep skips the plan job (sweep, schedule, "
                 "synth, verify)\n";
  }

  std::ostringstream js;
  js << "{\n  \"bench\": \"fault_sim\",\n  \"patterns\": " << cfg.patterns
     << ",\n  \"circuits\": [\n";
  bool ok = true;
  for (std::size_t ci = 0; ci < cfg.names.size(); ++ci) {
    const std::string& name = cfg.names[ci];
    const bist::Netlist n = bist::make_iscas85(name);
    const bist::NetlistStats st = bist::compute_stats(n);
    const bist::SimKernel kernel(n);

    // One LFSR stream so both logic-sim paths see identical patterns.
    bist::Lfsr lfsr = bist::Lfsr::maximal(32, 0xBADC0FFEu);
    const auto blocks = lfsr.blocks(n.input_count(), cfg.patterns);

    const PathResult kern = run_wide_path<1>(kernel, blocks, cfg.reps);
    const PathResult wide =
        run_wide_path<bist::kMaxWordWidth>(kernel, blocks, cfg.reps);
    if (kern.checksum != wide.checksum) {
      std::cerr << name << ": kernel/wide output mismatch!\n";
      return 1;
    }

    // Fault-sim section: same warmup + best-of-N discipline.  Every rep
    // restarts from the full fault list and produces identical results, so
    // only the timing varies.
    bist::FaultSimulator fsim(kernel);
    bist::FaultSimResult fr = fsim.run(blocks, fopt);  // warmup (kept: results)
    double fsecs = 1e30;
    for (int rep = 0; rep < cfg.reps; ++rep) {
      const auto tf0 = Clock::now();
      fr = fsim.run(blocks, fopt);
      fsecs = std::min(fsecs, seconds_since(tf0));
    }

    std::cout << name << ": " << st.gates << " gates, kernel "
              << bist::format_fixed(kern.evals_per_sec / 1e6, 1)
              << " Mevals/s, wide[" << bist::kMaxWordWidth << "x64] "
              << bist::format_fixed(wide.evals_per_sec / 1e6, 1)
              << " Mevals/s, faults " << fr.detected << "/" << fr.sim_faults
              << " detected (cov "
              << bist::format_fixed(100 * fr.final_coverage(), 2) << "%, "
              << bist::format_fixed(fsecs ? fr.detected / fsecs : 0, 0)
              << " dropped/s, " << fr.threads << " threads, "
              << fr.word_width << "x64 lanes)\n";
    if (cfg.plot) {
      bist::Series s;
      s.name = name + " coverage";
      const std::size_t step = std::max<std::size_t>(1, fr.coverage.size() / 256);
      for (std::size_t p = 0; p < fr.coverage.size(); p += step) {
        s.x.push_back(double(p + 1));
        s.y.push_back(100 * fr.coverage[p]);
      }
      bist::PlotOptions po;
      po.title = name + ": stuck-at coverage vs. LFSR patterns";
      po.x_label = "patterns";
      po.y_label = "%";
      po.y_from_zero = true;
      std::cout << bist::ascii_plot({s}, po);
    }

    js << (ci ? ",\n" : "") << "    {\n      \"name\": " << json_str(name)
       << ",\n"
       << "      \"gates\": " << st.gates << ",\n"
       << "      \"inputs\": " << st.inputs << ",\n"
       << "      \"outputs\": " << st.outputs << ",\n"
       << "      \"depth\": " << st.depth << ",\n"
       << "      \"logic_sim\": {\n"
       << "        \"patterns\": " << cfg.patterns << ",\n"
       << "        \"reps\": " << cfg.reps << ",\n"
       << "        \"kernel\": {\"seconds_best\": " << json_num(kern.seconds)
       << ", \"gate_evals\": " << kern.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(kern.evals_per_sec) << "},\n"
       << "        \"kernel_wide\": {\"word_width\": " << bist::kMaxWordWidth
       << ", \"seconds_best\": " << json_num(wide.seconds)
       << ", \"gate_evals\": " << wide.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(wide.evals_per_sec) << "}\n"
       << "      },\n"
       << "      \"fault_sim\": {\n"
       << "        \"total_faults\": " << fr.total_faults << ",\n"
       << "        \"collapsed_faults\": " << fr.sim_faults << ",\n"
       << "        \"detected\": " << fr.detected << ",\n"
       << "        \"coverage\": " << json_num(fr.final_coverage()) << ",\n"
       << "        \"threads\": " << fr.threads << ",\n"
       << "        \"word_width\": " << fr.word_width << ",\n"
       << "        \"reps\": " << cfg.reps << ",\n"
       << "        \"seconds_best\": " << json_num(fsecs) << ",\n"
       << "        \"faults_dropped_per_sec\": "
       << json_num(fsecs > 0 ? fr.detected / fsecs : 0) << ",\n"
       << "        \"faulty_gate_evals\": " << fr.faulty_gate_evals << ",\n"
       << "        \"faulty_gate_evals_per_sec\": "
       << json_num(fsecs > 0 ? double(fr.faulty_gate_evals) / fsecs : 0) << "\n"
       << "      }";
    if (cfg.sweep) {
      const bist::JobReport rep =
          bist::run_plan_job(make_job_spec(cfg, name, bist::write_bench(n)));
      ok = report_plan_job(cfg, n, rep, wrapper_dir, js) && ok;
    }
    js << "\n    }";
  }
  js << "\n  ]\n}\n";

  if (!write_file(out_path, js.str())) return 1;
  std::cout << "wrote " << out_path << "\n";
  return ok ? 0 : 1;
}

// --- Jobs mode: fault-tolerant batch pipeline with durable caching ---------

int run_job_mode(const RunConfig& cfg) {
  const std::string out_path =
      cfg.out_path.empty() ? "BENCH_job_batch.json" : cfg.out_path;
  std::vector<bist::JobSpec> specs;
  specs.reserve(cfg.names.size());
  for (const std::string& name : cfg.names)
    specs.push_back(
        make_job_spec(cfg, name, bist::write_bench(bist::make_iscas85(name))));

  // The store and the manifest live side by side under --cache-dir; a batch
  // without one runs uncached (and --resume has nothing to replay from).
  std::unique_ptr<bist::ResultStore> store;
  bist::BatchOptions bo;
  bo.threads = cfg.threads;
  bo.resume = cfg.resume;
  if (!cfg.cache_dir.empty()) {
    bist::StoreOptions so;
    so.dir = cfg.cache_dir;
    store = std::make_unique<bist::ResultStore>(std::move(so));
    bo.store = store.get();
    bo.manifest_path = cfg.cache_dir + "/batch.manifest";
  } else if (cfg.resume) {
    std::cerr << "note: --resume without --cache-dir has no manifest to "
                 "replay; running cold\n";
  }

  const auto t0 = Clock::now();
  const bist::BatchResult batch = bist::run_job_batch(specs, bo);
  const double batch_secs = seconds_since(t0);

  bool any_error = false;
  bool wrappers_written = true;
  std::uint64_t retry_attempts = 0;  // extra tries beyond the first, all stages
  std::ostringstream js;
  js << "{\n  \"bench\": \"job_batch\",\n  \"patterns\": " << cfg.patterns
     << ",\n  \"retries\": " << cfg.retries
     << ",\n  \"resume\": " << json_bool(cfg.resume) << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    const bist::JobReport& rep = batch.reports[i];
    any_error = any_error || rep.status.code == bist::StageCode::Error;
    if (!cfg.wrapper_dir.empty())
      wrappers_written = write_wrapper(cfg.wrapper_dir, rep) && wrappers_written;

    const char* source = rep.cache.manifest ? "manifest"
                         : rep.cache.hit    ? "cache"
                                            : "computed";
    std::cout << rep.name << ": job "
              << bist::stage_code_name(rep.status.code) << " (" << source
              << "), L=" << rep.plan.lfsr_patterns << " + "
              << rep.plan.topoff_patterns << " ROM, coverage "
              << bist::format_fixed(100 * rep.plan.final_coverage, 2)
              << "%, wrapper "
              << (rep.wrapper_ok ? "ok" : "NOT VERIFIED")
              << (rep.degraded ? " [DEGRADED]" : "") << " ("
              << bist::format_fixed(rep.seconds, 2) << "s)\n";

    for (const bist::StageReport& sr : rep.stages)
      retry_attempts += sr.attempts > 0 ? sr.attempts - 1 : 0;
    js << (i ? ",\n" : "") << "    " << jobreport_jsonl(rep);
  }
  const bist::StoreStats ss =
      store ? store->stats() : bist::StoreStats{};
  js << "\n  ],\n  \"cache_stats\": {\"sweep_hits\": " << ss.hits
     << ", \"sweep_misses\": " << ss.misses << ", \"stored\": " << ss.stores
     << ", \"store_failures\": " << ss.store_failures
     << ", \"quarantined\": " << ss.quarantined
     << ", \"manifest_loaded\": " << batch.manifest_loaded
     << ", \"manifest_hits\": " << batch.manifest_hits
     << ", \"retry_attempts\": " << retry_attempts
     << "},\n  \"seconds\": " << json_num(batch_secs) << "\n}\n";

  if (!write_file(out_path, js.str())) return 1;
  std::cout << "batch: " << batch.reports.size() << " jobs in "
            << bist::format_fixed(batch_secs, 2) << "s — sweep cache "
            << ss.hits << " hits / " << ss.misses << " misses, " << ss.stores
            << " stored, " << ss.quarantined << " quarantined, manifest "
            << batch.manifest_hits << "/" << batch.manifest_loaded
            << " replayed, " << retry_attempts << " retries\n";
  std::cout << "wrote " << out_path << "\n";
  if (any_error) {
    std::cerr << "error: a job ended in an Error status\n";
    return 1;
  }
  return wrappers_written ? 0 : 1;
}

// --- Service mode: long-lived resilient job server -------------------------
//
// --serve runs the JobService front end: submissions arrive as text lines —
// `<circuit> [client=NAME] [priority=N]` — either from stdin (default, until
// EOF or a line reading `STOP`) or from a spool directory (--spool DIR:
// every *.job file is read line by line, submitted, and renamed to
// *.job.done; a `stop.ctl` sentinel file requests a full drain and exit;
// move files into the spool atomically).  Unknown circuit names become jobs
// whose bench text is the raw line, so a malformed submission is contained
// as a parse-stage Error report instead of killing the server.  Every
// submission streams exactly one JSONL report (--stream FILE, appended and
// flushed per line) rendered by jobreport_jsonl, like the --jobs per-job
// entries, so a service stream and a cold batch run are directly comparable
// once volatile fields (seconds, attempts, cache provenance) are stripped.
// SIGTERM/SIGINT trigger a graceful drain bounded by --drain-ms: in-flight
// work is cancelled at the deadline, queued work is dropped WITH a report,
// and the manifest journal under --cache-dir lets a restarted server
// (--resume) replay completed jobs at admission.  --chaos
// stage:circuit[:times[:transient|det]] arms the process-global fault
// injection hook for chaos runs.  A health snapshot JSON is published
// atomically to --health every --health-period-ms and once more at exit.

volatile std::sig_atomic_t g_stop_signal = 0;

void handle_stop_signal(int) { g_stop_signal = 1; }

int run_serve_mode(const RunConfig& cfg) {
  namespace fs = std::filesystem;

  if (!cfg.chaos.empty()) {
    std::vector<std::string> parts;
    for (auto tok : bist::split(cfg.chaos, ":")) parts.emplace_back(tok);
    if (parts.size() < 2) {
      std::cerr << "error: --chaos wants stage:circuit[:times[:transient]]\n";
      return 2;
    }
    const int times = parts.size() > 2 ? parse_num<int>("--chaos", parts[2]) : -1;
    const bool transient = parts.size() > 3 && parts[3] == "transient";
    bist::set_injected_failure(parts[0], parts[1], times, transient);
    std::cout << "chaos: injecting " << (transient ? "transient" : "sticky")
              << " failure at " << parts[0] << "/" << parts[1] << " x"
              << times << "\n";
  }

  std::unique_ptr<bist::ResultStore> store;
  bist::ServiceOptions so;
  so.threads = cfg.threads;
  so.queue_limit = cfg.queue_limit;
  so.watchdog_timeout_s = cfg.watchdog_ms / 1000.0;
  so.stuck_grace_s = cfg.grace_ms / 1000.0;
  so.quarantine_after = cfg.quarantine_after;
  so.health_path = cfg.health_path;
  so.health_period_s = cfg.health_period_ms / 1000.0;
  so.resume = cfg.resume;
  if (!cfg.cache_dir.empty()) {
    bist::StoreOptions sto;
    sto.dir = cfg.cache_dir;
    store = std::make_unique<bist::ResultStore>(std::move(sto));
    so.store = store.get();
    so.manifest_path = cfg.cache_dir + "/service.manifest";
  } else if (cfg.resume) {
    std::cerr << "note: --resume without --cache-dir has no manifest to "
                 "replay; running cold\n";
  }

  std::ofstream stream(cfg.stream_path, std::ios::app);
  if (!stream) {
    std::cerr << "error: could not open stream " << cfg.stream_path << "\n";
    return 1;
  }
  std::uint64_t streamed = 0;
  bist::JobService svc(so, [&](const bist::JobReport& rep) {
    stream << jobreport_jsonl(rep) << "\n";
    stream.flush();  // one durable line per report: tail-able and kill-safe
    ++streamed;      // sink calls are serialized by the service
  });

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  // One submission line: `<circuit> [client=NAME] [priority=N]`.  An
  // unknown circuit or a malformed/out-of-range priority ships the raw line
  // as the bench text, so the parse stage contains the failure as a per-job
  // Error report instead of a server fault.
  const auto submit_line = [&](const std::string& line) {
    std::istringstream is(line);
    std::string name, tok, client;
    int priority = 0;
    bool bad_field = false;
    if (!(is >> name) || name[0] == '#') return;  // blank / comment
    while (is >> tok) {
      if (tok.rfind("client=", 0) == 0) {
        client = tok.substr(7);
      } else if (tok.rfind("priority=", 0) == 0) {
        try {
          priority = parse_num<int>("priority", tok.substr(9));
        } catch (const std::invalid_argument&) {
          bad_field = true;
        }
      }
    }
    std::string bench_text = line;
    if (!bad_field) {
      try {
        bench_text = bist::write_bench(bist::make_iscas85(name));
      } catch (const std::exception&) {
        // unknown circuit: keep the raw line
      }
    }
    const bist::SubmitResult r = svc.submit(
        make_job_spec(cfg, name, std::move(bench_text)), client, priority);
    std::cout << "submit " << name << ": " << bist::submit_code_name(r.code)
              << " (ticket " << r.ticket << ")\n";
  };

  bool stop_requested = false;
  if (cfg.spool_dir.empty()) {
    // Stdin mode: one submission per line until EOF or STOP.  (Signals may
    // not interrupt a blocked read on every platform; the spool mode below
    // is the one CI drives SIGTERM against.)
    std::string line;
    while (!g_stop_signal && std::getline(std::cin, line)) {
      if (line == "STOP") {
        stop_requested = true;
        break;
      }
      submit_line(line);
    }
  } else {
    std::error_code ec;
    fs::create_directories(cfg.spool_dir, ec);
    std::cout << "serving from spool " << cfg.spool_dir << " (stop: SIGTERM"
              << " or stop.ctl)\n";
    while (!g_stop_signal && !stop_requested) {
      // Deterministic intake order: *.job files sorted by name.
      std::vector<fs::path> batch;
      for (const auto& ent : fs::directory_iterator(cfg.spool_dir, ec)) {
        if (ent.path().extension() == ".job") batch.push_back(ent.path());
      }
      std::sort(batch.begin(), batch.end());
      for (const fs::path& p : batch) {
        std::ifstream f(p);
        std::string line;
        while (std::getline(f, line)) submit_line(line);
        fs::rename(p, p.string() + ".done", ec);  // consume exactly once
      }
      if (fs::exists(fs::path(cfg.spool_dir) / "stop.ctl", ec)) {
        stop_requested = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  const char* why = g_stop_signal ? "signal" : stop_requested ? "stop.ctl"
                                                              : "eof";
  std::cout << "drain (" << why << "): deadline "
            << bist::format_fixed(cfg.drain_ms, 0) << "ms\n";
  // stop.ctl / EOF mean "finish everything"; a signal gets the bounded
  // deadline so shutdown cannot hang behind a wedged job.
  svc.drain(g_stop_signal ? cfg.drain_ms / 1000.0 : -1.0);
  bist::clear_injected_failure();

  const bist::ServiceHealth h = svc.health();
  std::cout << "service: " << h.submitted << " submitted, " << h.accepted
            << " accepted, " << h.replayed << " replayed, " << h.completed_ok
            << " ok, " << h.completed_error << " error, "
            << h.completed_stopped << " stopped, " << h.drain_dropped
            << " dropped, "
            << (h.rejected_overload + h.rejected_quarantine +
                h.rejected_stopping)
            << " rejected, " << h.watchdog_kills << " watchdog kills; "
            << streamed << " reports streamed to " << cfg.stream_path << "\n";
  // Accounting invariant: exactly one streamed report per submission.
  if (streamed != h.submitted) {
    std::cerr << "error: streamed " << streamed << " reports for "
              << h.submitted << " submissions\n";
    return 1;
  }
  return 0;
}


// Parse argv into `cfg`; an unknown flag or a missing value prints the
// usage and exits 2, a malformed number throws.
void parse_args(int argc, char** argv, RunConfig& cfg) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--patterns") {
      cfg.patterns = parse_num<std::size_t>(a, next());
    } else if (a == "--reps") {
      cfg.reps = parse_num<int>(a, next());
    } else if (a == "--threads") {
      cfg.threads = parse_num<unsigned>(a, next());
    } else if (a == "--width") {
      cfg.width = parse_num<unsigned>(a, next());
    } else if (a == "--out") {
      cfg.out_path = next();
    } else if (a == "--plot") {
      cfg.plot = true;
    } else if (a == "--podem-backtracks") {
      cfg.podem_backtracks = parse_num<std::uint32_t>(a, next());
    } else if (a == "--no-sweep") {
      cfg.sweep = false;
    } else if (a == "--no-compress") {
      cfg.compress = false;
    } else if (a == "--budget") {
      cfg.budget = parse_num<std::size_t>(a, next());
    } else if (a == "--wrapper-dir") {
      cfg.wrapper_dir = next();
    } else if (a == "--deadline-ms") {
      cfg.deadline_ms = parse_num<double>(a, next());
    } else if (a == "--job-timeout-ms") {
      cfg.job_timeout_ms = parse_num<double>(a, next());
    } else if (a == "--jobs") {
      cfg.jobs = true;
    } else if (a == "--cache-dir") {
      cfg.cache_dir = next();
      cfg.jobs = true;
    } else if (a == "--resume") {
      cfg.resume = true;
      cfg.jobs = true;
    } else if (a == "--retries") {
      cfg.retries = parse_num<unsigned>(a, next());
    } else if (a == "--serve") {
      cfg.serve = true;
    } else if (a == "--spool") {
      cfg.spool_dir = next();
      cfg.serve = true;
    } else if (a == "--stream") {
      cfg.stream_path = next();
      cfg.serve = true;
    } else if (a == "--drain-ms") {
      cfg.drain_ms = parse_num<double>(a, next());
    } else if (a == "--queue-limit") {
      cfg.queue_limit = parse_num<std::size_t>(a, next());
    } else if (a == "--watchdog-ms") {
      cfg.watchdog_ms = parse_num<double>(a, next());
    } else if (a == "--grace-ms") {
      cfg.grace_ms = parse_num<double>(a, next());
    } else if (a == "--quarantine-after") {
      cfg.quarantine_after = parse_num<int>(a, next());
    } else if (a == "--health") {
      cfg.health_path = next();
    } else if (a == "--health-period-ms") {
      cfg.health_period_ms = parse_num<double>(a, next());
    } else if (a == "--chaos") {
      cfg.chaos = next();
    } else if (a == "--sweep-lengths") {
      cfg.sweep_lengths.clear();
      const std::string list = next();  // keep alive: split returns views
      for (auto tok : bist::split(list, ","))
        cfg.sweep_lengths.push_back(parse_num<std::size_t>(a, std::string(tok)));
    } else if (a == "--circuits") {
      cfg.names.clear();
      const std::string list = next();
      for (auto tok : bist::split(list, ",")) cfg.names.emplace_back(tok);
    } else {
      std::cerr << "usage: bench_fault_sim [--patterns N] [--reps N] "
                   "[--threads N] [--width W] [--circuits a,b] "
                   "[--podem-backtracks N] [--no-sweep] "
                   "[--sweep-lengths a,b,c] "
                   "[--no-compress] [--budget N] [--wrapper-dir DIR] "
                   "[--deadline-ms D] [--job-timeout-ms J] "
                   "[--jobs] [--cache-dir DIR] [--resume] [--retries N] "
                   "[--serve] [--spool DIR] [--stream FILE] [--drain-ms N] "
                   "[--queue-limit N] [--watchdog-ms N] [--grace-ms N] "
                   "[--quarantine-after N] [--health FILE] "
                   "[--health-period-ms N] [--chaos stage:circuit[:n[:kind]]] "
                   "[--out FILE] [--plot]\n";
      std::exit(2);
    }
  }
  if (cfg.patterns == 0 || cfg.patterns % 64 != 0) {
    // Round up to whole 64-pattern blocks; a value whose round-up does not
    // fit in size_t is as invalid as a malformed one.
    if (cfg.patterns > std::numeric_limits<std::size_t>::max() - 64)
      throw std::invalid_argument("invalid value for --patterns: '" +
                                  std::to_string(cfg.patterns) + "'");
    cfg.patterns = ((cfg.patterns / 64) + 1) * 64;
  }
  if (cfg.reps < 1) cfg.reps = 1;
  if (cfg.sweep_lengths.empty()) {
    // Six points spanning the trade-off curve up to the full phase length.
    for (const double f : {0.125, 0.25, 0.375, 0.5, 0.75, 1.0}) {
      const auto len = static_cast<std::size_t>(double(cfg.patterns) * f);
      if (len && (cfg.sweep_lengths.empty() || cfg.sweep_lengths.back() != len))
        cfg.sweep_lengths.push_back(len);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    RunConfig cfg;
    parse_args(argc, argv, cfg);
    if (cfg.serve) return run_serve_mode(cfg);
    if (cfg.jobs) return run_job_mode(cfg);
    return run_bench(cfg);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
