#include "store/result_store.hpp"

#include "netlist/fingerprint.hpp"
#include "store/serialize.hpp"

namespace bist {

Digest128 sweep_cache_key(const Netlist& n,
                          std::span<const std::size_t> lengths,
                          const MixedTpgOptions& opt) {
  Hasher h;
  h.str("bist-sweep-key");
  h.u32(kStoreFormatVersion);
  const Digest128 fp = netlist_fingerprint(n);
  h.u64(fp.hi).u64(fp.lo);
  h.u64(lengths.size());
  for (const std::size_t l : lengths) h.u64(l);
  hash_tpg_options(h, opt);
  return h.digest();
}

void hash_tpg_options(Hasher& h, const MixedTpgOptions& opt) {
  // lfsr_patterns is skipped (the sweep's lengths drive the stream);
  // fsim/podem_threads are skipped (engine-invariant results); deadline is
  // skipped (only Complete Ok sweeps are published, so deadline shaping can
  // never reach a record).
  h.u32(opt.lfsr_degree);
  h.u64(opt.lfsr_seed);
  h.u32(opt.podem.backtrack_limit);
  h.u64(opt.fill_seed);
  h.u8(opt.compress ? 1 : 0);
  h.u32(opt.misr_degree);
  h.u64(opt.misr_fold.size());
  for (const std::uint16_t f : opt.misr_fold) h.u16(f);
  h.u8(opt.compact ? 1 : 0);
  h.u8(opt.verify_patterns ? 1 : 0);
}

ResultStore::ResultStore(StoreOptions opt)
    : dir_(std::move(opt.dir)), ops_(opt.ops ? opt.ops : &FileOps::real()) {
  ops_->make_dirs(dir_);
}

std::string ResultStore::sweep_path(const Digest128& key) const {
  return dir_ + "/sweep_" + key.hex() + ".bin";
}

void ResultStore::quarantine(const std::string& path,
                             std::string_view verdict) {
  quarantined_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t slash = path.find_last_of('/');
  const std::string file =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::string qdir = dir_ + "/quarantine";
  const std::string qpath =
      qdir + "/" + file + "." + std::string(verdict);
  if (!ops_->make_dirs(qdir) || !ops_->rename_file(path, qpath))
    ops_->remove_file(path);
}

ResultStore::SweepLookup ResultStore::load_sweep(const Digest128& key) {
  SweepLookup out;
  const std::string path = sweep_path(key);
  std::vector<std::uint8_t> bytes;
  if (!ops_->read_file(path, bytes)) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    out.outcome = SweepLookup::Outcome::Miss;
    return out;
  }
  const ParsedRecord rec = parse_record(bytes, &key);
  if (rec.check != RecordCheck::Ok || rec.frame_size != bytes.size()) {
    const std::string_view verdict = rec.check == RecordCheck::Ok
                                         ? std::string_view("trailing_bytes")
                                         : record_check_name(rec.check);
    quarantine(path, verdict);
    out.outcome = SweepLookup::Outcome::Quarantined;
    out.note = "cache record quarantined (" + std::string(verdict) + ")";
    return out;
  }
  try {
    out.sweep = deserialize_sweep(rec.payload);
  } catch (const std::exception& e) {
    // Checksum-valid but undecodable: a buggy producer, not bit rot.  Same
    // treatment — set it aside and recompute.
    quarantine(path, "undecodable");
    out.outcome = SweepLookup::Outcome::Quarantined;
    out.note = std::string("cache record quarantined (undecodable: ") +
               e.what() + ")";
    return out;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  out.outcome = SweepLookup::Outcome::Hit;
  out.note = "cache hit";
  return out;
}

bool ResultStore::store_sweep(const Digest128& key,
                              const MixedSweepResult& sweep,
                              std::string* note) {
  std::vector<std::uint8_t> frame;
  try {
    frame = frame_record(key, serialize_sweep(sweep));
  } catch (const std::exception& e) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    if (note) *note = std::string("cache store failed (serialize: ") +
                      e.what() + ")";
    return false;
  }
  ops_->make_dirs(dir_);
  if (!atomic_write_file(*ops_, sweep_path(key), frame)) {
    store_failures_.fetch_add(1, std::memory_order_relaxed);
    if (note) *note = "cache store failed (write)";
    return false;
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

StoreStats ResultStore::stats() const {
  StoreStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.store_failures = store_failures_.load(std::memory_order_relaxed);
  s.quarantined = quarantined_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace bist
