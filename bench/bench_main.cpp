// Fault-simulation throughput bench: seed BitParSim loop vs. SimKernel path,
// plus the PPSFP fault simulator driven by a maximal-length LFSR, across the
// ISCAS85 surrogate family.  Emits BENCH_fault_sim.json with gate-evals/sec
// for both logic-sim paths (and their ratio), faults-dropped/sec for the
// fault simulator, and the mixed-scheme sweep per circuit (LFSR phase ->
// PODEM top-off -> compaction at every --sweep-lengths candidate): top-off
// pattern counts and final coverage under both fault-accounting conventions
// — the direct input for the scheduler and area model.
//
// Every timed section follows the same statistical hygiene: one untimed
// warmup pass (page in the scratch, warm the caches and the branch
// predictors), then N timed repetitions reporting the fastest (small-circuit
// sections are microseconds-scale, where min-of-N is the standard way to
// suppress scheduler noise).  Each JSON section carries `reps` and
// `seconds_best` so downstream comparisons know what they are looking at.
//
// The sweep section runs run_mixed_sweep — the one mixed-scheme engine —
// with its own rep count (--sweep-reps, since a pass is orders of magnitude
// more expensive than a logic-sim pass) and reports a per-phase breakdown
// (lfsr/podem/compact/solve seconds) plus the PODEM call / cache-hit split
// that makes the scheduler's length-vs-ROM trade-off search cheap.
//
// The bist_plan section closes the paper's loop: the scheduler picks the
// knee of the sweep's length-vs-ROM trade-off (optionally under a
// --budget test-time cap), the synthesizer emits the gate-level BIST
// wrapper (LFSR + counter + decoded-pattern ROM + muxed CUT copy) as
// wrapper_<circuit>.bench, and the self-simulation harness drives the
// wrapper cycle by cycle, proving the applied patterns and the achieved
// CUT coverage reproduce the scheduled point exactly
// (wrapper_matches_plan gates the run).  --plot adds the
// coverage-vs-length and ROM-vs-length trade-off curves so the knee is
// visible in CI logs.
//
// Robustness flags: --deadline-ms D arms a cooperative anytime deadline over
// each circuit's sweep section, and --job-timeout-ms J caps each circuit's
// whole pipeline; the tighter of the two drives the section's Deadline.
// Deadline-shaped runs degrade instead of failing — the sweep yields
// LfsrOnly/Skipped points per its anytime contract, the scheduler falls back
// to a degraded (LFSR-only) plan, and the wrapper is still synthesized and
// self-verified.  Because results are then wall-clock-shaped, each timed
// section runs exactly once (no warmup/best-of, which would mix deadline
// states); the JSON carries `state`/`status`/`degraded` fields so
// downstream tooling can gate on them.
//
// The compressed test-data architecture is on by default: top-off cubes are
// stored as LFSR reseeding schedules (seed ROM) with decoded fallback rows,
// and a MISR compacts the CUT responses into one signature checked on-chip.
// --no-compress selects the paper's decoded ROM + per-pattern-compare
// architecture, the same row model with every row a decoded fallback row
// and no MISR: the bist_plan section then reports fallback_rows ==
// topoff_patterns and zero seed/MISR fields.  Compressed runs report
// seed_rom_bits / misr_bits / fallback_rows, the compression ratio against
// the decoded encoding of the same top-off set, and the empirical aliasing
// audit (aliasing_escapes must be 0 for wrapper_matches_plan to hold).
//
// Batch (jobs) mode: --jobs switches to the fault-tolerant pipeline driver
// (run_job_batch) — one JobSpec per circuit, same knobs as the classic
// sections.  --cache-dir DIR (implies --jobs) attaches the durable
// content-addressed ResultStore: sweep results are served from / published
// to DIR, corrupt records quarantine and recompute, and the batch journals
// completed jobs to DIR/batch.manifest so --resume replays them after a
// crash (kill -9 mid-batch, rerun with --resume: finished circuits come
// back from the journal, the interrupted one recomputes, usually from the
// sweep cache).  --retries N arms bounded deterministic retry for transient
// stage failures.  Jobs mode emits BENCH JSON {"bench": "job_batch", ...}
// with per-job cache/stage/attempt detail and aggregate cache_stats, and
// exits nonzero if any job ends in an Error status.
//
// Usage: bench_fault_sim [--patterns N] [--reps N] [--threads N] [--width W]
//                        [--circuits c17,c6288s,...]
//                        [--podem-backtracks N] [--no-sweep]
//                        [--sweep-reps N] [--sweep-lengths a,b,c]
//                        [--no-bist] [--no-compress] [--budget N]
//                        [--wrapper-dir DIR]
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
// "error: invalid value for --<flag>" and exits 1.

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
#include <thread>
#include <type_traits>
#include <vector>

#include "bist/schedule.hpp"
#include "bist/synth.hpp"
#include "bist/verify.hpp"
#include "pipeline/job.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/stats.hpp"
#include "sim/bitpar_sim.hpp"
#include "sim/kernel.hpp"
#include "tpg/lfsr.hpp"
#include "tpg/mixed.hpp"
#include "tpg/sweep.hpp"
#include "util/ascii_plot.hpp"
#include "util/deadline.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/wallclock.hpp"

namespace {

using Clock = bist::WallClock;
using bist::seconds_since;

struct PathResult {
  double seconds = 0;
  std::uint64_t gate_evals = 0;
  double evals_per_sec = 0;
  std::uint64_t checksum = 0;  ///< XOR of PO words, cross-checked between paths
};

// Each path runs one untimed warmup pass, then `reps` timed passes keeping
// the fastest (the per-pass work is ~us..ms scale, so min-of-N suppresses
// scheduler jitter).
PathResult run_seed_path(const bist::Netlist& n,
                         std::span<const bist::PatternBlock> blocks, int reps) {
  bist::BitParSim sim(n);
  PathResult r;
  r.seconds = 1e30;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup, untimed
    std::uint64_t checksum = 0;
    const auto t0 = Clock::now();
    for (const auto& b : blocks) {
      sim.simulate(b);
      for (bist::GateId o : n.outputs()) checksum ^= sim.value(o) & b.lane_mask();
    }
    if (rep >= 0) r.seconds = std::min(r.seconds, seconds_since(t0));
    r.checksum = checksum;
  }
  r.gate_evals = std::uint64_t(n.logic_gate_count()) * 64 * blocks.size();
  r.evals_per_sec = r.seconds > 0 ? double(r.gate_evals) / r.seconds : 0;
  return r;
}

// Kernel path at W x 64 lanes per pass; W=1 is the classic KernelSim loop.
template <unsigned W>
PathResult run_wide_path(const bist::SimKernel& k,
                         std::span<const bist::PatternBlock> blocks, int reps) {
  bist::WideSimT<W> sim(k);
  PathResult r;
  r.seconds = 1e30;
  for (int rep = -1; rep < reps; ++rep) {
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

// The wrapper path is the one user-supplied string interpolated into the
// JSON; escape it so e.g. --wrapper-dir values with quotes or backslashes
// cannot break the output.
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

}  // namespace

namespace {

int run_bench(int argc, char** argv);

// --- Jobs mode: fault-tolerant batch pipeline with durable caching ---------
struct JobModeConfig {
  std::vector<std::string> names;
  std::size_t patterns = 0;
  std::vector<std::size_t> sweep_lengths;
  bist::FaultSimOptions fopt;
  unsigned threads = 0;
  std::uint32_t podem_backtracks = 100;
  bool compress = true;
  std::size_t budget = 0;
  std::string wrapper_dir;
  double deadline_ms = 0;
  double job_timeout_ms = 0;
  std::string cache_dir;
  bool resume = false;
  unsigned retries = 1;
  std::string out_path;
};

// One job's report as a single-line JSON object — the shared shape of the
// --jobs per-job entries and the --serve JSONL stream, so a service stream
// and a cold batch are directly comparable.
std::string jobreport_jsonl(const bist::JobReport& rep) {
  std::ostringstream js;
  js << "{\"name\": " << json_str(rep.name) << ", \"status\": "
     << json_str(std::string(bist::stage_code_name(rep.status.code)))
     << ", \"status_message\": " << json_str(rep.status.message)
     << ", \"degraded\": " << (rep.degraded ? "true" : "false")
     << ", \"wrapper_ok\": " << (rep.wrapper_ok ? "true" : "false")
     << ", \"cache\": {\"consulted\": "
     << (rep.cache.consulted ? "true" : "false")
     << ", \"hit\": " << (rep.cache.hit ? "true" : "false")
     << ", \"stored\": " << (rep.cache.stored ? "true" : "false")
     << ", \"quarantined\": " << (rep.cache.quarantined ? "true" : "false")
     << ", \"manifest\": " << (rep.cache.manifest ? "true" : "false")
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

// One job for `name` over `bench_text` under the run-wide knobs of `cfg` —
// the spec every --jobs entry and --serve submission is built from.
bist::JobSpec make_job_spec(const JobModeConfig& cfg, const std::string& name,
                            std::string bench_text) {
  bist::JobSpec spec;
  spec.name = name;
  spec.bench_text = std::move(bench_text);
  spec.sweep_lengths = cfg.sweep_lengths;
  spec.tpg.lfsr_patterns = cfg.patterns;
  spec.tpg.fsim = cfg.fopt;
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

int run_job_mode(const JobModeConfig& cfg) {
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
  std::uint64_t retry_attempts = 0;  // extra tries beyond the first, all stages
  std::ostringstream js;
  js << "{\n  \"bench\": \"job_batch\",\n  \"patterns\": " << cfg.patterns
     << ",\n  \"retries\": " << cfg.retries
     << ",\n  \"resume\": " << (cfg.resume ? "true" : "false")
     << ",\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < batch.reports.size(); ++i) {
    const bist::JobReport& rep = batch.reports[i];
    any_error = any_error || rep.status.code == bist::StageCode::Error;

    if (!rep.wrapper_bench.empty() && !cfg.wrapper_dir.empty()) {
      const std::string wf = cfg.wrapper_dir + "/wrapper_" + rep.name + ".bench";
      std::ofstream f(wf);
      f << rep.wrapper_bench;
      f.flush();
      if (!f) std::cerr << "warning: could not write " << wf << "\n";
    }

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

  std::ofstream out(cfg.out_path);
  out << js.str();
  out.flush();
  if (!out) {
    std::cerr << "error: could not write " << cfg.out_path << "\n";
    return 1;
  }
  std::cout << "batch: " << batch.reports.size() << " jobs in "
            << bist::format_fixed(batch_secs, 2) << "s — sweep cache "
            << ss.hits << " hits / " << ss.misses << " misses, " << ss.stores
            << " stored, " << ss.quarantined << " quarantined, manifest "
            << batch.manifest_hits << "/" << batch.manifest_loaded
            << " replayed, " << retry_attempts << " retries\n";
  std::cout << "wrote " << cfg.out_path << "\n";
  if (any_error) {
    std::cerr << "error: a job ended in an Error status\n";
    return 1;
  }
  return 0;
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

struct ServeConfig {
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
  JobModeConfig job;  // shared spec/store/manifest knobs
};

int run_serve_mode(const ServeConfig& cfg) {
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
  so.threads = cfg.job.threads;
  so.queue_limit = cfg.queue_limit;
  so.watchdog_timeout_s = cfg.watchdog_ms / 1000.0;
  so.stuck_grace_s = cfg.grace_ms / 1000.0;
  so.quarantine_after = cfg.quarantine_after;
  so.health_path = cfg.health_path;
  so.health_period_s = cfg.health_period_ms / 1000.0;
  so.resume = cfg.job.resume;
  if (!cfg.job.cache_dir.empty()) {
    bist::StoreOptions sto;
    sto.dir = cfg.job.cache_dir;
    store = std::make_unique<bist::ResultStore>(std::move(sto));
    so.store = store.get();
    so.manifest_path = cfg.job.cache_dir + "/service.manifest";
  } else if (cfg.job.resume) {
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
        make_job_spec(cfg.job, name, std::move(bench_text)), client, priority);
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

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_bench(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

namespace {

int run_bench(int argc, char** argv) {
  std::size_t patterns = 10240;
  int reps = 5;
  unsigned threads = 0;  // 0 = hardware concurrency
  unsigned width = bist::kMaxWordWidth;
  std::string out_path = "BENCH_fault_sim.json";
  std::vector<std::string> names = bist::iscas85_names();
  bool plot = false;
  std::uint32_t podem_backtracks = 100;
  bool sweep = true;
  int sweep_reps = 2;
  std::vector<std::size_t> sweep_lengths;  // empty = derive from --patterns
  bool run_bist = true;
  bool compress = true;            // compressed test data (seeds + MISR)
  std::size_t budget = 0;          // scheduler test-time budget, 0 = none
  std::string wrapper_dir = ".";   // where wrapper_<circuit>.bench lands
  double deadline_ms = 0;          // anytime deadline per timed section, 0 = off
  double job_timeout_ms = 0;       // wall-clock cap per circuit pipeline, 0 = off
  bool jobs_mode = false;          // run the fault-tolerant batch pipeline
  std::string cache_dir;           // durable sweep store root; implies jobs
  bool resume = false;             // replay the batch manifest; implies jobs
  unsigned retries = 1;            // stage attempts (1 = no retry)
  bool serve_mode = false;         // long-lived job service front end
  ServeConfig serve;               // --serve knobs (spool, stream, watchdog)

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
      patterns = parse_num<std::size_t>(a, next());
    } else if (a == "--reps") {
      reps = parse_num<int>(a, next());
    } else if (a == "--threads") {
      threads = parse_num<unsigned>(a, next());
    } else if (a == "--width") {
      width = parse_num<unsigned>(a, next());
    } else if (a == "--out") {
      out_path = next();
    } else if (a == "--plot") {
      plot = true;
    } else if (a == "--podem-backtracks") {
      podem_backtracks = parse_num<std::uint32_t>(a, next());
    } else if (a == "--no-sweep") {
      sweep = false;
    } else if (a == "--sweep-reps") {
      sweep_reps = parse_num<int>(a, next());
    } else if (a == "--no-bist") {
      run_bist = false;
    } else if (a == "--no-compress") {
      compress = false;
    } else if (a == "--budget") {
      budget = parse_num<std::size_t>(a, next());
    } else if (a == "--wrapper-dir") {
      wrapper_dir = next();
    } else if (a == "--deadline-ms") {
      deadline_ms = parse_num<double>(a, next());
    } else if (a == "--job-timeout-ms") {
      job_timeout_ms = parse_num<double>(a, next());
    } else if (a == "--jobs") {
      jobs_mode = true;
    } else if (a == "--cache-dir") {
      cache_dir = next();
      jobs_mode = true;
    } else if (a == "--resume") {
      resume = true;
      jobs_mode = true;
    } else if (a == "--retries") {
      retries = parse_num<unsigned>(a, next());
    } else if (a == "--serve") {
      serve_mode = true;
    } else if (a == "--spool") {
      serve.spool_dir = next();
      serve_mode = true;
    } else if (a == "--stream") {
      serve.stream_path = next();
      serve_mode = true;
    } else if (a == "--drain-ms") {
      serve.drain_ms = parse_num<double>(a, next());
    } else if (a == "--queue-limit") {
      serve.queue_limit = parse_num<std::size_t>(a, next());
    } else if (a == "--watchdog-ms") {
      serve.watchdog_ms = parse_num<double>(a, next());
    } else if (a == "--grace-ms") {
      serve.grace_ms = parse_num<double>(a, next());
    } else if (a == "--quarantine-after") {
      serve.quarantine_after = parse_num<int>(a, next());
    } else if (a == "--health") {
      serve.health_path = next();
    } else if (a == "--health-period-ms") {
      serve.health_period_ms = parse_num<double>(a, next());
    } else if (a == "--chaos") {
      serve.chaos = next();
    } else if (a == "--sweep-lengths") {
      sweep_lengths.clear();
      const std::string list = next();
      for (auto tok : bist::split(list, ","))
        sweep_lengths.push_back(parse_num<std::size_t>(a, std::string(tok)));
    } else if (a == "--circuits") {
      names.clear();
      const std::string list = next();  // keep alive: split returns views
      for (auto tok : bist::split(list, ","))
        names.emplace_back(tok);
    } else {
      std::cerr << "usage: bench_fault_sim [--patterns N] [--reps N] "
                   "[--threads N] [--width W] [--circuits a,b] "
                   "[--podem-backtracks N] [--no-sweep] [--sweep-reps N] "
                   "[--sweep-lengths a,b,c] "
                   "[--no-bist] [--no-compress] [--budget N] "
                   "[--wrapper-dir DIR] "
                   "[--deadline-ms D] [--job-timeout-ms J] "
                   "[--jobs] [--cache-dir DIR] [--resume] [--retries N] "
                   "[--serve] [--spool DIR] [--stream FILE] [--drain-ms N] "
                   "[--queue-limit N] [--watchdog-ms N] [--grace-ms N] "
                   "[--quarantine-after N] [--health FILE] "
                   "[--health-period-ms N] [--chaos stage:circuit[:n[:kind]]] "
                   "[--out FILE] [--plot]\n";
      return 2;
    }
  }
  if (patterns == 0 || patterns % 64 != 0) {
    // Round up to whole 64-pattern blocks; a value whose round-up does not
    // fit in size_t is as invalid as a malformed one.
    if (patterns > std::numeric_limits<std::size_t>::max() - 64)
      throw std::invalid_argument("invalid value for --patterns: '" +
                                  std::to_string(patterns) + "'");
    patterns = ((patterns / 64) + 1) * 64;
  }
  if (reps < 1) reps = 1;
  if (sweep_reps < 1) sweep_reps = 1;
  // Deadline-shaped runs are not repeatable measurements: a warmup or a
  // best-of-N rep would consume a different slice of the budget each pass and
  // compare apples to anytime oranges.  Each deadlined section runs exactly
  // once against a fresh Deadline.
  const bool anytime = deadline_ms > 0 || job_timeout_ms > 0;
  if (anytime) sweep_reps = 1;
  if (sweep_lengths.empty()) {
    // Six points spanning the trade-off curve up to the full phase length.
    for (const double f : {0.125, 0.25, 0.375, 0.5, 0.75, 1.0}) {
      const auto len = static_cast<std::size_t>(double(patterns) * f);
      if (len && (sweep_lengths.empty() || sweep_lengths.back() != len))
        sweep_lengths.push_back(len);
    }
  }

  bist::FaultSimOptions fopt;
  fopt.threads = threads;
  fopt.word_width = width;

  if (serve_mode) {
    serve.job.patterns = patterns;
    serve.job.sweep_lengths = sweep_lengths;
    serve.job.fopt = fopt;
    serve.job.threads = threads;
    serve.job.podem_backtracks = podem_backtracks;
    serve.job.compress = compress;
    serve.job.budget = budget;
    serve.job.deadline_ms = deadline_ms;
    serve.job.job_timeout_ms = job_timeout_ms;
    serve.job.cache_dir = cache_dir;
    serve.job.resume = resume;
    serve.job.retries = retries;
    return run_serve_mode(serve);
  }

  if (jobs_mode) {
    JobModeConfig cfg;
    cfg.names = names;
    cfg.patterns = patterns;
    cfg.sweep_lengths = sweep_lengths;
    cfg.fopt = fopt;
    cfg.threads = threads;
    cfg.podem_backtracks = podem_backtracks;
    cfg.compress = compress;
    cfg.budget = budget;
    cfg.wrapper_dir = wrapper_dir;
    cfg.deadline_ms = deadline_ms;
    cfg.job_timeout_ms = job_timeout_ms;
    cfg.cache_dir = cache_dir;
    cfg.resume = resume;
    cfg.retries = retries;
    cfg.out_path = out_path == "BENCH_fault_sim.json" ? "BENCH_job_batch.json"
                                                      : out_path;
    return run_job_mode(cfg);
  }

  std::ostringstream js;
  js << "{\n  \"bench\": \"fault_sim\",\n  \"patterns\": " << patterns
     << ",\n  \"circuits\": [\n";

  double c6288_speedup = 0;
  bool all_verified = true;
  bool wrappers_ok = true;
  bool first = true;
  for (const std::string& name : names) {
    // Per-circuit robustness budget: each deadlined section gets the tighter
    // of --deadline-ms and whatever --job-timeout-ms has left for this
    // circuit's pipeline (so a blown job budget degrades later sections
    // immediately instead of overrunning).
    const auto circuit_t0 = Clock::now();
    const auto section_budget = [&]() -> double {
      double s = -1;  // -1 = no deadline
      if (deadline_ms > 0) s = deadline_ms / 1000.0;
      if (job_timeout_ms > 0) {
        const double rem =
            std::max(0.0, job_timeout_ms / 1000.0 - seconds_since(circuit_t0));
        s = s < 0 ? rem : std::min(s, rem);
      }
      return s;
    };
    // The section deadline lives at circuit scope: the options struct holds
    // a raw pointer into it across the section's run.
    bist::Deadline sweep_dl;

    bist::Netlist n = bist::make_iscas85(name);
    const bist::NetlistStats st = bist::compute_stats(n);
    const bist::SimKernel kernel(n);

    // One LFSR stream per use so both logic-sim paths see identical patterns.
    const unsigned degree = 32;
    bist::Lfsr lfsr = bist::Lfsr::maximal(degree, 0xBADC0FFEu);
    const auto blocks = lfsr.blocks(n.input_count(), patterns);

    const PathResult seed = run_seed_path(n, blocks, reps);
    const PathResult kern = run_wide_path<1>(kernel, blocks, reps);
    const PathResult wide = run_wide_path<bist::kMaxWordWidth>(kernel, blocks, reps);
    if (seed.checksum != kern.checksum || seed.checksum != wide.checksum) {
      std::cerr << name << ": seed/kernel/wide output mismatch!\n";
      return 1;
    }
    const double speedup =
        kern.evals_per_sec > 0 && seed.evals_per_sec > 0
            ? kern.evals_per_sec / seed.evals_per_sec
            : 0;
    if (name.rfind("c6288", 0) == 0) c6288_speedup = speedup;

    // Fault-sim section: same warmup + best-of-N discipline.  Every rep
    // restarts from the full fault list and produces identical results, so
    // only the timing varies.
    bist::FaultSimulator fsim(kernel);
    bist::FaultSimResult fr = fsim.run(blocks, fopt);  // warmup (kept: results)
    double fsecs = 1e30;
    for (int rep = 0; rep < reps; ++rep) {
      const auto tf0 = Clock::now();
      fr = fsim.run(blocks, fopt);
      fsecs = std::min(fsecs, seconds_since(tf0));
    }

    std::cout << name << ": " << st.gates << " gates, seed "
              << bist::format_fixed(seed.evals_per_sec / 1e6, 1)
              << " Mevals/s, kernel "
              << bist::format_fixed(kern.evals_per_sec / 1e6, 1)
              << " Mevals/s (x" << bist::format_fixed(speedup, 2) << "), wide["
              << bist::kMaxWordWidth << "x64] "
              << bist::format_fixed(wide.evals_per_sec / 1e6, 1)
              << " Mevals/s, faults " << fr.detected << "/" << fr.sim_faults
              << " detected (cov "
              << bist::format_fixed(100 * fr.final_coverage(), 2) << "%, "
              << bist::format_fixed(fsecs ? fr.detected / fsecs : 0, 0)
              << " dropped/s, " << fr.threads << " threads, "
              << fr.word_width << "x64 lanes)\n";

    bist::MixedTpgOptions mopt;
    mopt.fsim = fopt;
    mopt.podem.backtrack_limit = podem_backtracks;
    mopt.podem_threads = threads;
    mopt.compress = compress;

    // --- Mixed-scheme sweep ----------------------------------------------
    bist::MixedSweepResult sw;
    double sweep_secs = 0;
    bool sweep_verified = true;  // every point's top-off passed its check
    if (sweep) {
      if (anytime) {
        sweep_dl = bist::Deadline::after(section_budget());
        mopt.deadline = &sweep_dl;
      }
      sweep_secs = 1e30;
      // anytime: no warmup pass — it would burn the (single) budget.
      for (int rep = anytime ? 0 : -1; rep < sweep_reps; ++rep) {
        const auto ts0 = Clock::now();
        bist::MixedSweepResult cur =
            bist::run_mixed_sweep(kernel, fsim, sweep_lengths, mopt);
        const double s = seconds_since(ts0);
        if (rep < 0 || s < sweep_secs) sw = std::move(cur);
        if (rep >= 0) sweep_secs = std::min(sweep_secs, s);
      }

      for (const auto& pt : sw.points)
        sweep_verified = sweep_verified && pt.all_verified;
      all_verified = all_verified && sweep_verified;
      std::cout << name << ": sweep " << sweep_lengths.size() << " lengths in "
                << bist::format_fixed(sweep_secs, 2) << "s (podem "
                << sw.stats.podem_calls << " calls + "
                << sw.stats.podem_cache_hits << " cache hits, "
                << sw.stats.podem_threads << " threads)\n";
      if (!sw.status.ok()) {
        std::cout << name << ": sweep degraded ("
                  << bist::stage_code_name(sw.status.code) << "), points:";
        for (const auto& pt : sw.points)
          std::cout << " " << bist::point_state_name(pt.state);
        std::cout << "\n";
      }
    }

    // --- BIST hardware plan: schedule -> synthesize -> self-verify --------
    bist::BistPlan plan;
    bist::BistSynthResult syn;
    bist::WrapperVerification wv;
    std::string wrapper_file;
    double sched_secs = 0, synth_secs = 0, selfsim_secs = 0;
    const bool do_bist = sweep && run_bist;
    if (!do_bist && run_bist && first) {
      // --budget / --wrapper-dir would be silently dead otherwise.
      std::cerr << "note: BIST plan skipped (--no-sweep disables the sweep it "
                   "schedules from)\n";
    }
    if (do_bist) {
      bist::ScheduleOptions so;
      so.test_time_budget = budget;
      so.lfsr_degree = mopt.lfsr_degree;
      so.lfsr_seed = mopt.lfsr_seed;
      const auto tp0 = Clock::now();
      plan = bist::schedule_bist(sw, n.input_count(), so);
      sched_secs = seconds_since(tp0);

      const auto ts0 = Clock::now();
      syn = bist::synthesize_bist_wrapper(n, plan);
      synth_secs = seconds_since(ts0);

      wrapper_file = wrapper_dir + "/wrapper_" + name + ".bench";
      std::ofstream wf(wrapper_file);
      wf << bist::write_bench(syn.wrapper);
      wf.flush();
      if (!wf) {
        std::cerr << "error: could not write " << wrapper_file << "\n";
        return 1;
      }

      const auto tv0 = Clock::now();
      wv = bist::verify_wrapper(syn.wrapper, n, plan,
                                sw.points[plan.point_index], fopt);
      selfsim_secs = seconds_since(tv0);
      wrappers_ok = wrappers_ok && wv.ok();

      std::cout << name << ": bist plan L=" << plan.lfsr_patterns << " + "
                << plan.topoff_patterns << " ROM patterns ("
                << plan.rom_bits << " ROM bits, "
                << plan.area.area_bits() << " area bits, "
                << bist::format_fixed(syn.actual.total(), 1)
                << " GE), wrapper " << syn.wrapper.gate_count() << " gates -> "
                << wrapper_file << ", self-sim " << wv.cycles
                << " cycles coverage "
                << bist::format_fixed(100 * wv.achieved_coverage, 2) << "%"
                << (wv.ok() ? " == plan" : " [PLAN MISMATCH]") << " ("
                << bist::format_fixed(sched_secs + synth_secs + selfsim_secs, 2)
                << "s)" << (plan.degraded ? " [DEGRADED: LFSR-only tier]" : "")
                << "\n";
      if (compress) {
        const std::uint64_t decoded =
            std::uint64_t(plan.topoff_patterns) * n.input_count();
        const std::uint64_t stored =
            plan.rom_bits + plan.comp.seed_rom_bits();
        std::cout << name << ": compressed data " << plan.comp.seeds.size()
                  << " seeds (" << plan.comp.seed_rom_bits()
                  << " seed-ROM bits) + " << plan.comp.fallback_rows()
                  << " fallback rows (" << plan.rom_bits
                  << " decoded bits) vs " << decoded
                  << " bits fully decoded (x"
                  << bist::format_fixed(
                         stored ? double(decoded) / double(stored) : 0, 2)
                  << "), MISR K=" << plan.comp.misr.degree << " aliasing "
                  << wv.aliasing.escapes << "/" << wv.aliasing.detected_checked
                  << " escapes\n";
      }
    }

    if (!first) js << ",\n";
    first = false;
    js << "    {\n      \"name\": \"" << name << "\",\n"
       << "      \"gates\": " << st.gates << ",\n"
       << "      \"inputs\": " << st.inputs << ",\n"
       << "      \"outputs\": " << st.outputs << ",\n"
       << "      \"depth\": " << st.depth << ",\n"
       << "      \"logic_sim\": {\n"
       << "        \"patterns\": " << patterns << ",\n"
       << "        \"reps\": " << reps << ",\n"
       << "        \"seed_bitpar\": {\"seconds_best\": " << json_num(seed.seconds)
       << ", \"gate_evals\": " << seed.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(seed.evals_per_sec) << "},\n"
       << "        \"kernel\": {\"seconds_best\": " << json_num(kern.seconds)
       << ", \"gate_evals\": " << kern.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(kern.evals_per_sec) << "},\n"
       << "        \"kernel_wide\": {\"word_width\": " << bist::kMaxWordWidth
       << ", \"seconds_best\": " << json_num(wide.seconds)
       << ", \"gate_evals\": " << wide.gate_evals
       << ", \"gate_evals_per_sec\": " << json_num(wide.evals_per_sec) << "},\n"
       << "        \"speedup_kernel_over_seed\": " << json_num(speedup) << "\n"
       << "      },\n"
       << "      \"fault_sim\": {\n"
       << "        \"total_faults\": " << fr.total_faults << ",\n"
       << "        \"collapsed_faults\": " << fr.sim_faults << ",\n"
       << "        \"detected\": " << fr.detected << ",\n"
       << "        \"coverage\": " << json_num(fr.final_coverage()) << ",\n"
       << "        \"threads\": " << fr.threads << ",\n"
       << "        \"word_width\": " << fr.word_width << ",\n"
       << "        \"reps\": " << reps << ",\n"
       << "        \"seconds_best\": " << json_num(fsecs) << ",\n"
       << "        \"faults_dropped_per_sec\": "
       << json_num(fsecs > 0 ? fr.detected / fsecs : 0) << ",\n"
       << "        \"faulty_gate_evals\": " << fr.faulty_gate_evals << ",\n"
       << "        \"faulty_gate_evals_per_sec\": "
       << json_num(fsecs > 0 ? double(fr.faulty_gate_evals) / fsecs : 0) << "\n"
       << "      }";
    if (sweep) {
      js << ",\n      \"mixed_sweep\": {\n        \"lengths\": [";
      for (std::size_t p = 0; p < sweep_lengths.size(); ++p)
        js << (p ? ", " : "") << sweep_lengths[p];
      js << "],\n        \"points\": [\n";
      for (std::size_t p = 0; p < sw.points.size(); ++p) {
        const bist::MixedSchemeResult& pt = sw.points[p];
        js << "          {\"length\": " << pt.lfsr_patterns
           << ", \"tail_faults\": " << pt.tail_faults
           << ", \"topoff_patterns\": " << pt.topoff_patterns
           << ", \"lfsr_coverage\": " << json_num(pt.lfsr_coverage)
           << ", \"final_coverage\": " << json_num(pt.final_coverage)
           << ", \"final_coverage_weighted\": "
           << json_num(pt.final_coverage_weighted)
           << ", \"state\": "
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
         << "        \"compact_seconds\": "
         << json_num(sw.stats.compact_seconds) << ",\n"
         << "        \"solve_seconds\": " << json_num(sw.stats.solve_seconds)
         << ",\n"
         << "        \"status\": "
         << json_str(std::string(bist::stage_code_name(sw.status.code)))
         << ",\n"
         << "        \"completed_points\": "
         << std::count_if(sw.points.begin(), sw.points.end(),
                          [](const bist::MixedSchemeResult& pt) {
                            return pt.state == bist::PointState::Complete;
                          })
         << ",\n"
         << "        \"patterns_verified\": "
         << (sweep_verified ? "true" : "false") << ",\n"
         << "        \"sweep_reps\": " << sweep_reps << ",\n"
         << "        \"sweep_seconds_best\": " << json_num(sweep_secs) << ",\n"
         << "        \"deadline_ms\": " << json_num(deadline_ms)
         << "\n      }";
    }
    if (do_bist) {
      js << ",\n      \"bist_plan\": {\n"
         << "        \"objective\": \"knee_under_budget\",\n"
         << "        \"degraded\": " << (plan.degraded ? "true" : "false")
         << ",\n"
         << "        \"status\": " << (wv.ok() ? "\"ok\"" : "\"error\"")
         << ",\n"
         << "        \"test_time_budget\": " << budget << ",\n"
         << "        \"chosen_length\": " << plan.lfsr_patterns << ",\n"
         << "        \"topoff_patterns\": " << plan.topoff_patterns << ",\n"
         << "        \"test_time\": " << plan.test_time << ",\n"
         << "        \"rom_bits\": " << plan.rom_bits << ",\n"
         << "        \"state_bits\": " << plan.area.state_bits << ",\n"
         << "        \"area_bits\": " << plan.area.area_bits() << ",\n"
         << "        \"compress\": " << (compress ? "true" : "false")
         << ",\n"
         << "        \"seed_rom_bits\": " << plan.area.seed_rom_bits << ",\n"
         << "        \"misr_bits\": " << plan.area.misr_bits << ",\n"
         << "        \"seed_count\": " << plan.comp.seeds.size() << ",\n"
         << "        \"fallback_rows\": " << plan.comp.fallback_rows() << ",\n"
         << "        \"decoded_rom_bits\": "
         << std::uint64_t(plan.topoff_patterns) * n.input_count() << ",\n"
         << "        \"compression_ratio\": "
         << json_num([&] {
              const double stored =
                  double(plan.rom_bits) + double(plan.area.seed_rom_bits);
              const double decoded =
                  double(plan.topoff_patterns) * double(n.input_count());
              return stored > 0 ? decoded / stored : 0.0;
            }())
         << ",\n"
         << "        \"aliasing_escapes\": " << wv.aliasing.escapes << ",\n"
         << "        \"aliasing_checked\": " << wv.aliasing.detected_checked
         << ",\n"
         << "        \"aliasing_bound\": " << json_num(wv.aliasing.bound)
         << ",\n"
         << "        \"knee_distance\": " << json_num(plan.knee_distance)
         << ",\n"
         << "        \"final_coverage\": " << json_num(plan.final_coverage)
         << ",\n"
         << "        \"area_estimate_ge\": {\"lfsr\": "
         << json_num(plan.area.lfsr)
         << ", \"rom\": " << json_num(plan.area.rom)
         << ", \"seed_rom\": " << json_num(plan.area.seed_rom)
         << ", \"controller\": " << json_num(plan.area.controller)
         << ", \"mux\": " << json_num(plan.area.mux)
         << ", \"misr\": " << json_num(plan.area.misr)
         << ", \"total\": " << json_num(plan.area.total()) << "},\n"
         << "        \"area_actual_ge\": {\"lfsr\": "
         << json_num(syn.actual.lfsr)
         << ", \"rom\": " << json_num(syn.actual.rom)
         << ", \"seed_rom\": " << json_num(syn.actual.seed_rom)
         << ", \"controller\": " << json_num(syn.actual.controller)
         << ", \"mux\": " << json_num(syn.actual.mux)
         << ", \"misr\": " << json_num(syn.actual.misr)
         << ", \"total\": " << json_num(syn.actual.total()) << "},\n"
         << "        \"wrapper_gates\": " << syn.wrapper.gate_count() << ",\n"
         << "        \"bist_gates\": " << syn.bist_gates << ",\n"
         << "        \"counter_bits\": " << syn.counter_bits << ",\n"
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
           << ", \"within_budget\": " << (sp.within_budget ? "true" : "false")
           << "}" << (c + 1 < plan.candidates.size() ? "," : "") << "\n";
      }
      js << "        ],\n"
         << "        \"selfsim_cycles\": " << wv.cycles << ",\n"
         << "        \"selfsim_coverage\": " << json_num(wv.achieved_coverage)
         << ",\n"
         << "        \"selfsim_coverage_weighted\": "
         << json_num(wv.achieved_coverage_weighted) << ",\n"
         << "        \"lfsr_phase_identical\": "
         << (wv.lfsr_phase_identical ? "true" : "false") << ",\n"
         << "        \"topoff_identical\": "
         << (wv.topoff_identical ? "true" : "false") << ",\n"
         << "        \"coverage_identical\": "
         << (wv.coverage_identical ? "true" : "false") << ",\n"
         << "        \"seeds_identical\": "
         << (wv.seeds_identical ? "true" : "false") << ",\n"
         << "        \"signature_identical\": "
         << (wv.signature_identical ? "true" : "false") << ",\n"
         << "        \"wrapper_matches_plan\": "
         << (wv.ok() ? "true" : "false") << ",\n"
         << "        \"schedule_seconds\": " << json_num(sched_secs) << ",\n"
         << "        \"synth_seconds\": " << json_num(synth_secs) << ",\n"
         << "        \"selfsim_seconds\": " << json_num(selfsim_secs)
         << "\n      }";
    }
    js << "\n    }";

    if (plot) {
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

      // The scheduler's trade-off curves over the (deduplicated, sorted)
      // candidate set, so the knee the plan picked is visible in CI logs.
      if (do_bist && plan.candidates.size() >= 2) {
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
        bist::PlotOptions pc;
        pc.title = name + ": final coverage vs. LFSR length (knee at L=" +
                   std::to_string(plan.lfsr_patterns) + ")";
        pc.x_label = "LFSR length";
        pc.y_label = "%";
        std::cout << bist::ascii_plot({cov}, pc);
        bist::PlotOptions pr;
        pr.title = name + ": ROM cost vs. LFSR length (knee at L=" +
                   std::to_string(plan.lfsr_patterns) + ")";
        pr.x_label = "LFSR length";
        pr.y_label = "cost";
        pr.y_from_zero = true;
        std::cout << bist::ascii_plot({rom, abits}, pr);
      }
    }
  }

  js << "\n  ],\n  \"c6288_speedup_kernel_over_seed\": "
     << json_num(c6288_speedup) << "\n}\n";

  std::ofstream out(out_path);
  out << js.str();
  out.flush();
  if (!out) {
    std::cerr << "error: could not write " << out_path << "\n";
    return 1;
  }
  std::cout << "wrote " << out_path << "\n";
  if (!all_verified) {
    std::cerr << "error: some top-off pattern failed fault-sim verification\n";
    return 1;
  }
  if (!wrappers_ok) {
    std::cerr << "error: a synthesized BIST wrapper failed to reproduce its "
                 "scheduled point\n";
    return 1;
  }
  return 0;
}

}  // namespace
