#pragma once
// Content-addressed, integrity-checked result store for mixed-scheme sweep
// results — the durability layer of the corpus pipeline.
//
// Keying.  sweep_cache_key() folds exactly the inputs that determine a
// sweep's result payload: the store format version, the canonical netlist
// fingerprint, the sweep lengths, and every result-affecting MixedTpgOptions
// field.  Engine knobs that only change speed (fault-sim threads/word
// width, PODEM worker count) are deliberately EXCLUDED — the pipeline's
// bit-identical determinism contract makes their results interchangeable,
// so a record computed at 8 threads serves a 1-thread request.  Deadlines
// are excluded too, but that is safe for a different reason: only fully
// Complete, status-Ok sweeps are ever published (a deadline-shaped result
// is wall-clock-shaped, not canonical, and must not be served as one).
//
// Integrity.  Records are framed (store/record) and written atomically
// (util/fileio), so a reader sees an old record or a complete new one,
// never a torn write.  Every load re-verifies the frame; anything wrong —
// truncation, bit rot, version skew, a key mismatch, an undecodable
// payload — quarantines the file (renamed into quarantine/ with the
// verdict in its name, removed if even the rename fails) and reports a
// miss.  A corrupt store can cost recomputation, never correctness, and
// never a crash: no method of this class throws.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "netlist/netlist.hpp"
#include "store/record.hpp"
#include "tpg/sweep.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

namespace bist {

/// Cache key for run_mixed_sweep over a frozen netlist (see keying notes
/// above).  Pure function of its arguments; stable across hosts and runs.
Digest128 sweep_cache_key(const Netlist& n,
                          std::span<const std::size_t> lengths,
                          const MixedTpgOptions& opt);

/// Fold the result-affecting MixedTpgOptions fields into `h`: the one
/// canonical option set behind both sweep_cache_key and the batch
/// manifest's job_key.
void hash_tpg_options(Hasher& h, const MixedTpgOptions& opt);

struct StoreOptions {
  std::string dir;         ///< store root; created on first use
  FileOps* ops = nullptr;  ///< nullptr = FileOps::real(); tests inject shims
};

/// Counter snapshot for bench/CI reporting.
struct StoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< absent records (clean misses)
  std::uint64_t stores = 0;          ///< successful publishes
  std::uint64_t store_failures = 0;  ///< failed publishes (ENOSPC, ...)
  std::uint64_t quarantined = 0;     ///< corrupt records set aside
};

class ResultStore {
 public:
  explicit ResultStore(StoreOptions opt);

  struct SweepLookup {
    enum class Outcome : std::uint8_t { Hit, Miss, Quarantined };
    Outcome outcome = Outcome::Miss;
    MixedSweepResult sweep;  ///< valid only on Hit
    std::string note;        ///< human-readable verdict for StageReport
  };

  /// Look up a sweep by key.  Never throws; corruption quarantines and
  /// degrades to a miss (outcome tells the caller which, for reporting).
  /// Thread-safe: distinct keys never touch the same file and same-key
  /// publishes are atomic renames.
  SweepLookup load_sweep(const Digest128& key);

  /// Publish a sweep under `key` (atomic write; see fileio).  Returns false
  /// on I/O failure — the store simply stays cold for that key.  Never
  /// throws.  `note` receives a failure description when non-null.
  bool store_sweep(const Digest128& key, const MixedSweepResult& sweep,
                   std::string* note = nullptr);

  StoreStats stats() const;
  const std::string& dir() const { return dir_; }
  /// Record file path for a key ("<dir>/sweep_<32 hex>.bin").
  std::string sweep_path(const Digest128& key) const;

 private:
  /// Move a bad record aside (quarantine/<file>.<verdict>); remove on
  /// rename failure so the poison cannot be re-read forever.
  void quarantine(const std::string& path, std::string_view verdict);

  std::string dir_;
  FileOps* ops_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> store_failures_{0};
  std::atomic<std::uint64_t> quarantined_{0};
};

}  // namespace bist
