// Job-level benchmark of the BIST plan pipeline.
//
//   jobbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//   jobbench --selfcheck --workdir DIR
//
// Drives plan jobs through the calls users make (run_job_batch for the cold
// batch workloads, JobService::submit for the warm service workload), checks
// every report, and prints as its last line one JSON object with the keys
// correct, attempted, failed and metrics.  --trace 0 prints the end-to-end
// metrics; --trace 1 makes the separate traced run that splits the same jobs
// by layer (see perfbench/README.md for every metric).

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "jobs.hpp"
#include "service/service.hpp"
#include "store/result_store.hpp"
#include "util/rng.hpp"
#include "util/wallclock.hpp"

namespace fs = std::filesystem;
using bist::JobReport;
using bist::JobSpec;
using bist::seconds_since;
using bist::WallClock;

namespace perfbench {
namespace {

// ---- workloads --------------------------------------------------------------

struct Workload {
  std::string name;
  bool warm = false;
  std::vector<std::string> circuits;
  unsigned clients = 1;         ///< cold: jobs in flight, each closed loop
  unsigned engine_threads = 2;  ///< per job: fault-sim and PODEM workers
  unsigned workers = 2;         ///< warm: JobService worker threads
  double rate = 15.0;           ///< warm: submissions per second, open loop
  std::size_t submissions = 0;  ///< warm: 0 = rate x seconds
  std::size_t replay = 40;      ///< warm traced: submissions replayed
  int setup_reps = 9;           ///< set-ups per run; setup_s is their median
};

Workload find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "cold_ecc") {
    w.circuits = {"c499s", "c880s", "c1355s"};
  } else if (name == "cold_control") {
    w.circuits = {"c2670s", "c3540s"};
    w.clients = 2;
  } else if (name == "warm_serve") {
    w.warm = true;
    w.circuits = {"c17", "c432s", "c499s", "c880s", "c1355s"};
    w.engine_threads = 1;
    w.setup_reps = 2;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ---- helpers ------------------------------------------------------------------

/// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::int64_t now_ns() { return Tracer::now_ns(); }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Outcome of one run: the job accounting plus the metrics it printed.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> defects;  ///< first few, for the log
  std::vector<Metric> metrics;
  std::vector<Span> spans;  ///< traced runs only

  void count(const std::string& job, const std::string& defect) {
    ++attempted;
    if (defect.empty()) return;
    ++failed;
    if (defects.size() < 8) defects.push_back(job + ": " + defect);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  bool correct() const { return attempted > 0 && failed == 0; }
};

std::string result_json(const RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (r.correct() ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

/// Quality of the hardware the jobs produced.
struct Quality {
  double area_bits = 0;
  double test_cycles = 0;
  double coverage_sum = 0;
  std::size_t jobs = 0;

  void add(const JobReport& r) {
    area_bits += double(r.plan.area.area_bits());
    test_cycles += double(r.plan.test_time);
    coverage_sum += r.plan.final_coverage;
    ++jobs;
  }
  double coverage_pct() const {
    return jobs ? 100.0 * coverage_sum / double(jobs) : 0;
  }
};

/// Program-side pipeline numbers from untraced reports: job wall clock,
/// the part of it no stage accounts for, and retried stage attempts.
void add_pipeline_metrics(RunResult& out, const std::vector<double>& job_s,
                          double overhead_s, std::uint64_t retries) {
  out.add("pipeline.job_p50_s", median(job_s), "s");
  out.add("pipeline.job_max_s",
          job_s.empty() ? 0 : *std::max_element(job_s.begin(), job_s.end()),
          "s");
  out.add("pipeline.overhead_s", overhead_s, "s");
  out.add("pipeline.retries", double(retries), "count");
}

double stage_overhead(const JobReport& r) {
  double stages = 0;
  for (const bist::StageReport& s : r.stages) stages += s.seconds;
  return r.seconds - stages;
}

std::uint64_t stage_retries(const JobReport& r) {
  std::uint64_t n = 0;
  for (const bist::StageReport& s : r.stages) n += s.attempts - 1;
  return n;
}

/// Layer metrics of a traced pass.  Time metrics are self times summed over
/// the pass's jobs (tpg.sweep_s is the whole run_mixed_sweep call; the PODEM,
/// compaction and compression phases inside it come from the sweep's own
/// stats).  Service metrics are appended by the caller.
void add_layer_metrics(RunResult& out, const std::vector<Span>& spans,
                       const LayerCounters& c, double untraced_s,
                       double traced_s) {
  std::map<std::string, double> self = self_seconds(spans);
  const auto s = [&self](const char* n) { return self[n]; };
  out.add("netlist.parse_s", s("netlist.parse"), "s");
  out.add("fault.build_s", s("fault.build"), "s");
  out.add("fault.lfsr_sim_s", s("fault.lfsr_sim"), "s");
  out.add("fault.faults", double(c.faults), "count");
  out.add("fault.podem_s", c.podem_s, "s");
  out.add("fault.podem_calls", double(c.podem_calls), "count");
  out.add("fault.podem_cache_hits", double(c.podem_cache_hits), "count");
  out.add("fault.podem_aborted", double(c.podem_aborted), "count");
  out.add("fault.podem_redundant", double(c.podem_redundant), "count");
  out.add("fault.podem_backtracks", double(c.podem_backtracks), "count");
  out.add("fault.podem_detect_ratio",
          c.podem_calls ? double(c.podem_detected) / double(c.podem_calls) : 0,
          "ratio");
  out.add("tpg.sweep_s", s("tpg.sweep"), "s");
  out.add("tpg.compact_s", c.compact_s, "s");
  out.add("tpg.topoff_patterns", double(c.topoff_patterns), "count");
  out.add("bist.compress_s", c.compress_s, "s");
  out.add("bist.audit_faults", double(c.audit_faults), "count");
  out.add("bist.seed_count", double(c.seed_count), "count");
  out.add("bist.fallback_rows", double(c.fallback_rows), "count");
  out.add("bist.schedule_s", s("bist.schedule"), "s");
  out.add("bist.synth_s", s("bist.synth"), "s");
  out.add("bist.wrapper_gates", double(c.wrapper_gates), "count");
  out.add("bist.verify_s", s("bist.verify"), "s");
  out.add("bist.selfsim_cycles", double(c.selfsim_cycles), "cycles");
  out.add("store.key_s", s("store.key"), "s");
  out.add("store.load_s", s("store.load"), "s");
  out.add("store.hits", double(c.store_hits), "count");
  out.add("store.misses", double(c.store_misses), "count");
  out.add("store.quarantined", double(c.store_quarantined), "count");
  out.add("store.publish_s", s("store.publish"), "s");
  out.add("store.record_bytes", double(c.record_bytes), "bytes");
  out.add("trace.untraced_s", untraced_s, "s");
  out.add("trace.traced_s", traced_s, "s");
  out.add("trace.overhead_s", traced_s - untraced_s, "s");
  out.add("trace.spans", double(spans.size()), "count");
}

void add_service_metrics(RunResult& out, const std::vector<double>& queue_wait,
                         double submit_s, std::uint64_t rejected,
                         double late_s) {
  out.add("service.queue_wait_p50_s", percentile(queue_wait, 0.5), "s");
  out.add("service.queue_wait_p95_s", percentile(queue_wait, 0.95), "s");
  out.add("service.submit_s", submit_s, "s");
  out.add("service.rejected", double(rejected), "count");
  out.add("service.generator_late_s", late_s, "s");
}

// ---- cold workloads -----------------------------------------------------------
// Closed loop: the circuit list is planned through run_job_batch against a
// fresh, empty store, with `clients` jobs in flight (run_job_batch's pool
// size) and each job's engines on `engine_threads` threads.

struct ColdPass {
  double wall_s = 0;
  std::vector<JobReport> reports;
};

ColdPass cold_pass(const std::vector<JobSpec>& specs, unsigned clients,
                   const fs::path& dir) {
  fs::remove_all(dir);
  ColdPass p;
  {
    bist::ResultStore store({dir.string(), nullptr});
    bist::BatchOptions bo;
    bo.threads = clients;
    bo.store = &store;
    const auto t0 = WallClock::now();
    p.reports = bist::run_job_batch(specs, bo).reports;
    p.wall_s = seconds_since(t0);
  }
  fs::remove_all(dir);
  return p;
}

std::vector<JobSpec> cold_specs(const Workload& w, std::uint64_t seed) {
  std::vector<JobSpec> specs;
  for (const std::string& c : w.circuits)
    specs.push_back(make_spec(c, circuit_text(c, seed), w.engine_threads, 0));
  return specs;
}

RunResult run_cold(const Workload& w, std::uint64_t seed, double seconds,
                   bool trace, const fs::path& workdir) {
  RunResult out;
  std::vector<double> setup_s;
  std::vector<JobSpec> specs;
  for (int i = 0; i < w.setup_reps; ++i) {
    const auto t0 = WallClock::now();
    specs = cold_specs(w, seed);
    setup_s.push_back(seconds_since(t0));
  }

  // Every pass must reproduce the first pass's results exactly.
  std::vector<std::string> expect;
  const auto check = [&](const std::vector<JobReport>& reports) {
    for (std::size_t j = 0; j < reports.size(); ++j) {
      const std::string& name = w.circuits[j];
      const std::string fp = fingerprint(reports[j], name);
      std::string defect = job_defect(reports[j]);
      if (expect.size() < reports.size()) {
        expect.push_back(fp);
        const bist::BistPlan& p = reports[j].plan;
        std::cout << "fingerprint " << w.name << " " << name << " " << fp
                  << " L=" << p.lfsr_patterns << " topoff=" << p.topoff_patterns
                  << " area_bits=" << p.area.area_bits()
                  << " coverage=" << p.final_coverage << "\n";
      } else if (defect.empty() && fp != expect[j]) {
        defect = "result differs from the first pass";
      }
      out.count(name, defect);
    }
  };

  if (!trace) {
    std::vector<double> walls;
    std::vector<double> job_s;
    Quality q;
    const auto t0 = WallClock::now();
    do {
      ColdPass p = cold_pass(specs, w.clients, workdir / "store");
      walls.push_back(p.wall_s);
      const bool first = expect.empty();
      check(p.reports);
      for (const JobReport& r : p.reports) {
        job_s.push_back(r.seconds);
        if (first && job_defect(r).empty()) q.add(r);
      }
    } while (seconds_since(t0) < seconds);
    std::cout << "passes " << walls.size() << "\n";
    out.add("wall_s", median(walls), "s");
    out.add("latency_p50_s", percentile(job_s, 0.5), "s");
    out.add("latency_p95_s", percentile(job_s, 0.95), "s");
    out.add("ok_ratio", 1.0 - double(out.failed) / double(out.attempted),
            "ratio");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    out.add("area_bits", q.area_bits, "bits");
    out.add("test_cycles", q.test_cycles, "cycles");
    out.add("coverage_pct", q.coverage_pct(), "%");
    return out;
  }

  // Traced run: one untraced pass, then the same jobs decomposed and traced
  // against another fresh store; both must give the same results.
  const ColdPass untraced = cold_pass(specs, w.clients, workdir / "store");
  check(untraced.reports);
  Tracer tracer;
  const fs::path dir = workdir / "store_traced";
  fs::remove_all(dir);
  std::vector<LayerCounters> per_job(specs.size());
  std::vector<std::string> defects(specs.size());
  double traced_s = 0;
  {
    bist::ResultStore store({dir.string(), nullptr});
    std::atomic<std::size_t> next{0};
    // Each client takes the next job off the list, as run_job_batch does.
    const auto client = [&] {
      for (std::size_t j; (j = next.fetch_add(1)) < specs.size();) {
        JobSpec spec = specs[j];
        spec.store = &store;
        try {
          const JobReport r = traced_job(spec, tracer, j, per_job[j]);
          defects[j] = job_defect(r);
          if (defects[j].empty() && fingerprint(r, w.circuits[j]) != expect[j])
            defects[j] = "traced pipeline result differs from run_plan_job";
        } catch (const std::exception& e) {
          defects[j] = std::string("traced pipeline threw: ") + e.what();
        }
      }
    };
    const auto t0 = WallClock::now();
    {
      std::vector<std::jthread> others;
      for (unsigned c = 1; c < w.clients; ++c) others.emplace_back(client);
      client();
    }
    traced_s = seconds_since(t0);
  }
  fs::remove_all(dir);
  LayerCounters counters;
  for (std::size_t j = 0; j < specs.size(); ++j) {
    out.count(w.circuits[j] + " (traced)", defects[j]);
    counters += per_job[j];
  }

  out.spans = tracer.spans();
  add_layer_metrics(out, out.spans, counters, untraced.wall_s, traced_s);
  std::vector<double> job_s;
  double overhead = 0;
  std::uint64_t retries = 0;
  for (const JobReport& r : untraced.reports) {
    job_s.push_back(r.seconds);
    overhead += stage_overhead(r);
    retries += stage_retries(r);
  }
  add_pipeline_metrics(out, job_s, overhead, retries);
  add_service_metrics(out, {}, 0, 0, 0);
  return out;
}

// ---- warm service workload ----------------------------------------------------
// A JobService reading a store that set-up filled with every circuit's sweep.
// Submissions arrive open loop at a fixed rate; each draws its circuit and a
// scheduler test-time budget (none, or one of that circuit's sweep-point test
// times) from the workload seed.  Latency runs from a submission's due time
// to its streamed report.

/// Submissions per warm run at least, whatever --seconds says: enough to
/// leave 10 latency samples beyond the p95.
constexpr std::size_t kMinSubmissions = 200;

struct WarmSetup {
  std::vector<std::string> texts;                  ///< per circuit
  std::vector<std::vector<std::size_t>> budgets;   ///< per circuit, 0 first
  std::map<std::pair<std::size_t, std::size_t>, std::string> reference;
  Quality quality;  ///< over the reference jobs
};

/// One submission as it went through the service.
struct Slot {
  std::size_t circuit = 0;
  std::size_t budget = 0;
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t submitted_ns = 0;
  std::int64_t done_ns = -1;  ///< report streamed; -1 = never
  bool accepted = false;
  double job_s = 0;           ///< JobReport::seconds
  double overhead_s = 0;
  std::uint64_t retries = 0;
  std::string defect;
};

RunResult run_warm(const Workload& w, std::uint64_t seed, double seconds,
                   bool trace, const fs::path& workdir) {
  RunResult out;
  const std::size_t nc = w.circuits.size();

  // Set-up: generate the circuits and fill a fresh store with their sweeps
  // (batch jobs, 2 pool threads x 2 engine threads).  Repeated; the last
  // store serves the run.
  WarmSetup ws;
  std::vector<double> setup_s;
  std::vector<JobReport> filled;
  const fs::path store_dir = workdir / "warm_store";
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    fs::remove_all(store_dir);
    const auto t0 = WallClock::now();
    ws.texts.clear();
    std::vector<JobSpec> specs;
    for (const std::string& c : w.circuits) {
      ws.texts.push_back(circuit_text(c, seed));
      specs.push_back(make_spec(c, ws.texts.back(), 2, 0));
    }
    bist::ResultStore fill({store_dir.string(), nullptr});
    bist::BatchOptions bo;
    bo.threads = 2;
    bo.store = &fill;
    filled = bist::run_job_batch(specs, bo).reports;
    setup_s.push_back(seconds_since(t0));
    std::cout << "setup " << setup_s.back() << " s\n";
  }
  bist::ResultStore store({store_dir.string(), nullptr});

  // Budgets and the reference result of every (circuit, budget) job.
  ws.budgets.resize(nc);
  for (std::size_t c = 0; c < nc; ++c) {
    if (const std::string d = job_defect(filled[c]); !d.empty())
      throw std::runtime_error("set-up job " + w.circuits[c] + ": " + d);
    std::set<std::size_t> b;
    for (const bist::SchedulePoint& p : filled[c].plan.candidates)
      b.insert(p.test_time);
    ws.budgets[c].push_back(0);
    ws.budgets[c].insert(ws.budgets[c].end(), b.begin(), b.end());
    for (std::size_t k = 0; k < ws.budgets[c].size(); ++k) {
      JobSpec spec =
          make_spec(w.circuits[c], ws.texts[c], w.engine_threads,
                    ws.budgets[c][k]);
      spec.store = &store;
      const JobReport r = bist::run_plan_job(spec);
      if (const std::string d = job_defect(r); !d.empty())
        throw std::runtime_error("reference job " + w.circuits[c] + ": " + d);
      const std::string fp = fingerprint(r, w.circuits[c]);
      ws.reference[{c, k}] = fp;
      ws.quality.add(r);
      std::cout << "fingerprint " << w.name << " " << w.circuits[c]
                << ":budget=" << ws.budgets[c][k] << " " << fp << "\n";
    }
  }

  // The submission list.  Job names carry the submission index so each
  // streamed report maps back to its submission exactly.
  const std::size_t n =
      w.submissions ? w.submissions
                    : std::max<std::size_t>(
                          kMinSubmissions,
                          static_cast<std::size_t>(w.rate * seconds + 0.5));
  bist::Rng rng(seed, 0x57a7e);
  std::vector<Slot> slots(n);
  const auto job_name = [&](std::size_t i) {
    return w.circuits[slots[i].circuit] + "@" + std::to_string(i);
  };
  const auto job_spec = [&](std::size_t i) {
    const Slot& s = slots[i];
    return make_spec(job_name(i), ws.texts[s.circuit], w.engine_threads,
                     ws.budgets[s.circuit][s.budget]);
  };
  // Stratified draws keep the job mix the same at every seed, so the seed
  // moves the order of the work and not its amount: each run of nc
  // submissions holds every circuit once, and each circuit cycles through
  // all of its budgets, both in seeded order.
  const auto shuffled = [&rng](std::size_t size) {
    std::vector<std::size_t> v(size);
    std::iota(v.begin(), v.end(), std::size_t{0});
    for (std::size_t i = size; i > 1; --i)
      std::swap(v[i - 1], v[rng.next_below(static_cast<std::uint32_t>(i))]);
    return v;
  };
  std::vector<std::vector<std::size_t>> budget_cycle(nc);
  std::vector<std::size_t> circuit_block;
  std::vector<JobSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % nc == 0) circuit_block = shuffled(nc);
    const std::size_t c = circuit_block[i % nc];
    if (budget_cycle[c].empty()) budget_cycle[c] = shuffled(ws.budgets[c].size());
    slots[i].circuit = c;
    slots[i].budget = budget_cycle[c].back();
    budget_cycle[c].pop_back();
    specs.push_back(job_spec(i));
  }

  std::mutex slot_mu;  // guards slots[*] written by the sink
  const auto sink = [&](const JobReport& r) {
    const std::int64_t t = now_ns();
    const std::size_t at = r.name.rfind('@');
    const std::size_t i = std::stoul(r.name.substr(at + 1));
    std::string defect = job_defect(r);
    if (defect.empty() &&
        fingerprint(r, w.circuits[slots[i].circuit]) !=
            ws.reference.at({slots[i].circuit, slots[i].budget}))
      defect = "result differs from the reference job";
    std::lock_guard<std::mutex> lock(slot_mu);
    Slot& s = slots[i];
    s.done_ns = t;
    s.job_s = r.seconds;
    s.overhead_s = stage_overhead(r);
    s.retries = stage_retries(r);
    s.defect = std::move(defect);
  };

  const double period_ns = 1e9 / w.rate;
  std::int64_t t0 = 0;
  {
    bist::ServiceOptions so;
    so.threads = w.workers;
    so.queue_limit = 256;
    so.store = &store;
    bist::JobService svc(so, sink);
    t0 = now_ns() + 20'000'000;  // 20 ms lead before the first send
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t due =
          t0 + static_cast<std::int64_t>(double(i) * period_ns);
      const std::int64_t wait = due - now_ns();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      const std::int64_t sent = now_ns();
      const bist::SubmitResult sr = svc.submit(std::move(specs[i]), "bench");
      const std::int64_t submitted = now_ns();
      std::lock_guard<std::mutex> lock(slot_mu);
      slots[i].due_ns = due;
      slots[i].sent_ns = sent;
      slots[i].submitted_ns = submitted;
      slots[i].accepted = sr.code == bist::SubmitCode::Accepted;
    }
    svc.drain(-1);
  }

  // Accounting.  A rejected, failed or unanswered submission is a failure.
  std::vector<double> latency, queue_wait, job_s;
  double submit_s = 0, late_s = 0, overhead = 0, end_s = 0;
  std::uint64_t rejected = 0, retries = 0;
  {
    std::lock_guard<std::mutex> lock(slot_mu);
    for (std::size_t i = 0; i < n; ++i) {
      const Slot& s = slots[i];
      std::string defect = s.defect;
      if (!s.accepted) {
        ++rejected;
        if (defect.empty()) defect = "rejected at admission";
      }
      if (s.done_ns < 0) defect = "no report streamed";
      out.count(job_name(i), defect);
      submit_s += double(s.submitted_ns - s.sent_ns) * 1e-9;
      late_s = std::max(late_s, double(s.sent_ns - s.due_ns) * 1e-9);
      if (s.done_ns < 0) continue;
      const double lat = double(s.done_ns - s.due_ns) * 1e-9;
      latency.push_back(lat);
      queue_wait.push_back(lat - s.job_s);
      job_s.push_back(s.job_s);
      overhead += s.overhead_s;
      retries += s.retries;
      end_s = std::max(end_s, double(s.done_ns - t0) * 1e-9);
    }
  }
  for (std::size_t c = 0; c < nc; ++c) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < n; ++i)
      if (slots[i].circuit == c && slots[i].done_ns >= 0)
        lat.push_back(double(slots[i].done_ns - slots[i].due_ns) * 1e-9);
    std::cout << "latency " << w.circuits[c] << " n=" << lat.size()
              << " p5=" << percentile(lat, 0.05) << " p50=" << percentile(lat, 0.5)
              << " p95=" << percentile(lat, 0.95) << "\n";
  }
  const double mean_job_s =
      job_s.empty() ? 0
                    : std::accumulate(job_s.begin(), job_s.end(), 0.0) /
                          double(job_s.size());
  std::cout << "submissions " << n << " at " << w.rate << "/s, mean job "
            << mean_job_s << " s, utilization "
            << w.rate * mean_job_s / double(w.workers) << "\n";

  if (!trace) {
    out.add("wall_s", end_s, "s");
    out.add("latency_p50_s", percentile(latency, 0.5), "s");
    out.add("latency_p95_s", percentile(latency, 0.95), "s");
    out.add("ok_ratio", 1.0 - double(out.failed) / double(out.attempted),
            "ratio");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    const Quality& q = ws.quality;
    out.add("area_bits", q.area_bits / double(q.jobs), "bits");
    out.add("test_cycles", q.test_cycles / double(q.jobs), "cycles");
    out.add("coverage_pct", q.coverage_pct(), "%");
    fs::remove_all(store_dir);
    return out;
  }

  // Traced run: the service's own intervals as root spans, then the first
  // submissions replayed one at a time, each both through run_plan_job and
  // decomposed under spans (alternating which goes first).
  Tracer tracer;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    tracer.record("service.submit", s.sent_ns, s.submitted_ns, i);
    if (s.done_ns >= 0) tracer.record("service.request", s.due_ns, s.done_ns, i);
  }
  LayerCounters counters;
  double untraced_s = 0, traced_s = 0;
  const std::size_t m = std::min(n, w.replay);
  for (std::size_t i = 0; i < m; ++i) {
    JobSpec spec = job_spec(i);
    spec.store = &store;
    const std::string& ref =
        ws.reference.at({slots[i].circuit, slots[i].budget});
    const std::string& circuit = w.circuits[slots[i].circuit];
    for (int k = 0; k < 2; ++k) {
      const bool traced_turn = (k == 0) == (i % 2 == 1);
      std::string defect;
      const auto t = WallClock::now();
      try {
        const JobReport r = traced_turn
                                ? traced_job(spec, tracer, i, counters)
                                : bist::run_plan_job(spec);
        (traced_turn ? traced_s : untraced_s) += seconds_since(t);
        defect = job_defect(r);
        if (defect.empty() && fingerprint(r, circuit) != ref)
          defect = traced_turn
                       ? "traced pipeline result differs from run_plan_job"
                       : "replayed result differs from the reference job";
      } catch (const std::exception& e) {
        defect = std::string("traced pipeline threw: ") + e.what();
      }
      out.count(job_name(i) + (traced_turn ? " (traced)" : " (replay)"),
                defect);
    }
  }
  fs::remove_all(store_dir);

  out.spans = tracer.spans();
  add_layer_metrics(out, out.spans, counters, untraced_s, traced_s);
  add_pipeline_metrics(out, job_s, overhead, retries);
  add_service_metrics(out, queue_wait, submit_s, rejected, late_s);
  return out;
}

RunResult run_workload(const Workload& w, std::uint64_t seed, double seconds,
                       bool trace, const fs::path& workdir) {
  return w.warm ? run_warm(w, seed, seconds, trace, workdir)
                : run_cold(w, seed, seconds, trace, workdir);
}

// ---- self-check ---------------------------------------------------------------
// The benchmark on a tiny configuration: every workload shape untraced and
// traced (spans must nest with non-negative self times), and a failure armed
// through set_injected_failure must surface in ok_ratio and `failed`.

int selfcheck(const fs::path& workdir) {
  int bad = 0;
  const auto expect = [&bad](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++bad;
  };
  const auto metric = [](const RunResult& r, const std::string& name) {
    for (const Metric& m : r.metrics)
      if (m.name == name) return m.value;
    return -1.0;
  };

  Workload cold;
  cold.name = "tiny_cold";
  cold.circuits = {"c17", "c432s"};
  cold.setup_reps = 3;
  Workload warm;
  warm.name = "tiny_warm";
  warm.warm = true;
  warm.circuits = {"c17", "c432s"};
  warm.engine_threads = 1;
  warm.rate = 40;
  warm.submissions = 12;
  warm.replay = 4;
  warm.setup_reps = 1;

  for (const Workload* w : {&cold, &warm})
    for (const bool trace : {false, true}) {
      const RunResult r = run_workload(*w, 7, 0.1, trace, workdir);
      const std::string label = w->name + (trace ? " traced" : "");
      std::cout << "selfcheck " << label << " " << result_json(r) << "\n";
      expect(r.correct(), label + ": every job correct");
      if (!trace) continue;
      const std::string nest = check_nesting(r.spans);
      expect(nest.empty(), label + ": spans nest" +
                               (nest.empty() ? "" : " (" + nest + ")"));
      bool self_ok = true;
      for (const auto& [name, s] : self_seconds(r.spans))
        self_ok = self_ok && s >= 0;
      expect(self_ok, label + ": self times are non-negative");
      expect(metric(r, "trace.spans") > 0, label + ": spans recorded");
    }

  // Failure accounting: one of the two cold jobs fails its verify stage.
  bist::set_injected_failure("verify", "c432s");
  const RunResult inj = run_workload(cold, 7, 0.1, false, workdir);
  std::cout << "selfcheck injected " << result_json(inj) << "\n";
  expect(!inj.correct() && inj.failed == 1 && inj.attempted == 2,
         "injected failure is counted");
  expect(metric(inj, "ok_ratio") == 0.5, "injected failure halves ok_ratio");
  bist::clear_injected_failure();

  std::cout << "selfcheck " << (bad ? "failed" : "passed") << "\n";
  return bad ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  bool self = false;
  fs::path workdir;
  fs::path trace_out;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
        return argv[++i];
      };
      if (a == "--workload") workload = next();
      else if (a == "--seed") seed = std::stoull(next());
      else if (a == "--seconds") seconds = std::stod(next());
      else if (a == "--trace") trace = std::stoi(next()) != 0;
      else if (a == "--workdir") workdir = next();
      else if (a == "--trace-out") trace_out = next();
      else if (a == "--selfcheck") self = true;
      else throw std::invalid_argument("unknown argument " + a);
    }
    if (workdir.empty()) throw std::invalid_argument("--workdir is required");
    fs::create_directories(workdir);
    if (self) return selfcheck(workdir);

    const Workload w = find_workload(workload);
    const RunResult r = run_workload(w, seed, seconds, trace, workdir);
    for (const std::string& d : r.defects) std::cout << "failed job " << d << "\n";
    if (trace) {
      const std::string nest = check_nesting(r.spans);
      if (!nest.empty()) throw std::logic_error("span log: " + nest);
      if (!trace_out.empty()) {
        if (!write_trace_events(r.spans, trace_out.string()))
          throw std::runtime_error("cannot write " + trace_out.string());
        std::cout << "trace written to " << trace_out.string() << "\n";
      }
    }
    std::cout << result_json(r) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "jobbench: " << e.what() << "\n";
    return 1;
  }
}
