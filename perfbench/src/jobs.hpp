#pragma once
// The plan jobs the benchmark submits, the checks it applies to every
// report, and the decomposed, span-traced copy of the pipeline that the
// traced run uses to split a job's time by layer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pipeline/job.hpp"
#include "trace.hpp"

namespace perfbench {

/// Baseline job settings: 10240 LFSR patterns swept at 1/8 ... 1 of that
/// length, PODEM backtrack limit 100, compressed test-data architecture.
inline constexpr std::size_t kPatterns = 10240;
inline constexpr std::uint32_t kBacktrackLimit = 100;

/// .bench text of a circuit for a workload seed.  Seed 0 is the committed
/// surrogate family's text as write_bench emits it; any other seed renames
/// every net (renamed_bench), so each seed hands the program different bytes
/// for the same circuit.
std::string circuit_text(const std::string& circuit, std::uint64_t seed);

/// write_bench of `n` with every net renamed "n<k>" through a seeded
/// permutation.  Lines and their order are unchanged, so the circuit, its
/// pattern bit order and its output order are too.
std::string renamed_bench(const bist::Netlist& n, std::uint64_t seed);

/// A baseline JobSpec.  `engine_threads` drives both the fault simulator
/// and the PODEM batch; `budget` is the scheduler's test-time budget in
/// cycles (0 = none).
bist::JobSpec make_spec(std::string name, std::string bench_text,
                        unsigned engine_threads, std::size_t budget);

/// Why a report does not count as a good job, or "" when it does: the job
/// must be status Ok, not degraded and wrapper_ok (LFSR phase, top-off,
/// coverage, seeds and signature all identical to the plan), with zero
/// MISR aliasing escapes.
std::string job_defect(const bist::JobReport& r);

/// Digest of serialize_job_report after strip_volatile: equal for two
/// reports that did the same work with the same result.  `name` replaces
/// every occurrence of the report's job name first, so jobs that differ
/// only in their name compare equal.
std::string fingerprint(const bist::JobReport& r, const std::string& name);

/// Per-layer work counters summed over the jobs of a traced pass.  Sweep
/// counters are taken only from sweeps computed in the pass (a store hit
/// did no fault, PODEM or compression work).
struct LayerCounters {
  double podem_s = 0;    ///< MixedSweepStats::podem_seconds
  double compact_s = 0;  ///< MixedSweepStats::compact_seconds
  double compress_s = 0; ///< MixedSweepStats::solve_seconds
  std::uint64_t faults = 0;
  std::uint64_t podem_calls = 0;
  std::uint64_t podem_cache_hits = 0;
  std::uint64_t podem_detected = 0;
  std::uint64_t podem_aborted = 0;
  std::uint64_t podem_redundant = 0;
  std::uint64_t podem_backtracks = 0;
  std::uint64_t topoff_patterns = 0;  ///< chosen plans
  std::uint64_t audit_faults = 0;     ///< verify's aliasing audit, checked
  std::uint64_t seed_count = 0;
  std::uint64_t fallback_rows = 0;
  std::uint64_t wrapper_gates = 0;
  std::uint64_t selfsim_cycles = 0;
  std::uint64_t store_hits = 0;
  std::uint64_t store_misses = 0;
  std::uint64_t store_quarantined = 0;
  std::uint64_t record_bytes = 0;     ///< sweep records published

  LayerCounters& operator+=(const LayerCounters& o);
};

/// run_plan_job's five stages driven call by call through the layers'
/// public functions, each call inside a span of `tracer` under one
/// "pipeline.job" span: read_bench -> sweep_cache_key / load_sweep -> (on a
/// miss) SimKernel + FaultSimulator, one LFSR fault-sim pass handed to
/// run_mixed_sweep, store_sweep -> schedule_bist -> synthesize_bist_wrapper
/// + write_bench -> verify_wrapper.  Returns the JobReport run_plan_job
/// would have produced (timings, attempts and cache provenance aside), so
/// its fingerprint must equal the untraced job's.  Throws on a stage error.
/// `spec.store` must be set.
bist::JobReport traced_job(const bist::JobSpec& spec, Tracer& tracer,
                           std::uint64_t job_id, LayerCounters& counters);

}  // namespace perfbench
