// Persistence-layer unit tests: canonical hashing and the netlist
// fingerprint, the on-disk record framing (every corruption class maps to
// its RecordCheck verdict), serializer round trips, the layout pin on the
// serialized bytes, adversarial payloads (every truncation and single-byte
// XOR throws or round-trips exactly), and the ResultStore's contract that
// corruption quarantines and degrades to a miss — never a stale hit, never
// a crash — including under injected file-system failure (short writes,
// ENOSPC-shaped write_file, refused renames) via the FileOps shim.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/c17.hpp"
#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/fingerprint.hpp"
#include "pipeline/job.hpp"
#include "sim/kernel.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "store/serialize.hpp"
#include "test_util.hpp"
#include "tpg/sweep.hpp"
#include "util/fileio.hpp"
#include "util/hash.hpp"

using namespace bist;
namespace fs = std::filesystem;

namespace {

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::vector<std::uint8_t> out;
  CHECK(FileOps::real().read_file(path, out));
  return out;
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  CHECK(FileOps::real().write_file(path, bytes));
}

std::size_t quarantine_count(const std::string& dir) {
  const fs::path q = fs::path(dir) / "quarantine";
  if (!fs::exists(q)) return 0;
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(q)) {
    (void)e;
    ++n;
  }
  return n;
}

// ---------------------------------------------------------------------------
void test_hasher() {
  const Digest128 d = Hasher().str("hello").u32(7).digest();
  CHECK_EQ(d.hex().size(), 32u);
  // Deterministic and sensitive to every field.
  CHECK(d == Hasher().str("hello").u32(7).digest());
  CHECK(!(d == Hasher().str("hello").u32(8).digest()));
  // Length-prefixed strings: the field boundary is part of the hash, so
  // ("ab","c") and ("a","bc") must not collide by concatenation.
  CHECK(!(Hasher().str("ab").str("c").digest() ==
          Hasher().str("a").str("bc").digest()));
  // hi/lo lanes are independent (a collision in one lane should not imply
  // the other); weak smoke check: they differ for a nontrivial input.
  CHECK(d.hi != d.lo);
}

// ---------------------------------------------------------------------------
void test_fingerprint() {
  // The same structure built in two gate-insertion orders must fingerprint
  // identically: the fingerprint keys the store, and generators emit blocks
  // in whatever order is convenient.
  NetlistBuilder a("order_a");
  a.input("x");
  a.input("y");
  a.output("f");
  a.define("u", GateType::And, {"x", "y"});
  a.define("v", GateType::Nand, {"x", "u"});
  a.define("f", GateType::Xor, {"u", "v"});
  const Netlist na = a.build();

  NetlistBuilder b("order_b");  // distinct display name: must not matter
  b.input("x");
  b.input("y");
  b.output("f");
  b.define("f", GateType::Xor, {"u", "v"});  // forward refs, reversed order
  b.define("v", GateType::Nand, {"x", "u"});
  b.define("u", GateType::And, {"x", "y"});
  const Netlist nb = b.build();

  CHECK(netlist_fingerprint(na) == netlist_fingerprint(nb));

  // A structural change (gate type) must change the digest.
  NetlistBuilder c("order_c");
  c.input("x");
  c.input("y");
  c.output("f");
  c.define("u", GateType::Or, {"x", "y"});  // And -> Or
  c.define("v", GateType::Nand, {"x", "u"});
  c.define("f", GateType::Xor, {"u", "v"});
  CHECK(!(netlist_fingerprint(c.build()) == netlist_fingerprint(na)));

  // PI order is semantically meaningful (pattern bit order) -> included.
  NetlistBuilder d("order_d");
  d.input("y");
  d.input("x");
  d.output("f");
  d.define("u", GateType::And, {"x", "y"});
  d.define("v", GateType::Nand, {"x", "u"});
  d.define("f", GateType::Xor, {"u", "v"});
  CHECK(!(netlist_fingerprint(d.build()) == netlist_fingerprint(na)));

  // Fanin pin order hashes in pin order (the connection list is canonical).
  NetlistBuilder e("order_e");
  e.input("x");
  e.input("y");
  e.output("f");
  e.define("u", GateType::And, {"y", "x"});  // swapped pins
  e.define("v", GateType::Nand, {"x", "u"});
  e.define("f", GateType::Xor, {"u", "v"});
  CHECK(!(netlist_fingerprint(e.build()) == netlist_fingerprint(na)));

  // write_bench/read_bench round trip is fingerprint-identical for the whole
  // surrogate family, under any circuit_name the parser is handed.
  for (const std::string& name : iscas85_names()) {
    const Netlist n = make_iscas85(name);
    const Netlist rt = read_bench(write_bench(n), "reparsed_" + name);
    CHECK(netlist_fingerprint(n) == netlist_fingerprint(rt));
  }
}

// ---------------------------------------------------------------------------
void test_record_framing() {
  const Digest128 key = Hasher().str("record-test").digest();
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 57; ++i) payload.push_back(std::uint8_t(i * 37 + 1));

  const std::vector<std::uint8_t> frame = frame_record(key, payload);
  CHECK_EQ(frame.size(), kRecordHeaderSize + payload.size());

  // Clean parse: everything checks out, payload comes back byte-identical.
  {
    const ParsedRecord p = parse_record(frame, &key);
    CHECK(p.check == RecordCheck::Ok);
    CHECK_EQ(p.frame_size, frame.size());
    CHECK(p.key == key);
    CHECK_EQ(p.version, kStoreFormatVersion);
    CHECK(std::vector<std::uint8_t>(p.payload.begin(), p.payload.end()) ==
          payload);
  }

  // Empty payload is a legal record.
  {
    const auto f0 = frame_record(key, {});
    const ParsedRecord p = parse_record(f0, &key);
    CHECK(p.check == RecordCheck::Ok);
    CHECK_EQ(p.payload.size(), 0u);
  }

  // Trailing bytes after the frame are legal (manifest packing); frame_size
  // still reports only this record's extent.
  {
    auto padded = frame;
    padded.push_back(0xEE);
    padded.push_back(0xEE);
    const ParsedRecord p = parse_record(padded, &key);
    CHECK(p.check == RecordCheck::Ok);
    CHECK_EQ(p.frame_size, frame.size());
  }

  // Truncation at EVERY byte boundary: inside the header reads TooShort,
  // inside the payload reads BadLength.  Never Ok, never a crash.
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    const std::vector<std::uint8_t> t(frame.begin(), frame.begin() + cut);
    const ParsedRecord p = parse_record(t, &key);
    if (cut < kRecordHeaderSize) {
      CHECK(p.check == RecordCheck::TooShort);
    } else {
      CHECK(p.check == RecordCheck::BadLength);
    }
  }

  // Bad magic.
  {
    auto m = frame;
    m[0] ^= 0xFF;
    CHECK(parse_record(m, &key).check == RecordCheck::BadMagic);
  }

  // Version skew: a future (or past) format version must refuse to decode.
  {
    auto v = frame;
    v[4] += 1;
    CHECK(parse_record(v, &key).check == RecordCheck::BadVersion);
  }

  // Key mismatch: the header key is part of the contract.
  {
    const Digest128 other = Hasher().str("some-other-key").digest();
    CHECK(parse_record(frame, &other).check == RecordCheck::BadKey);
    // ...but an unkeyed parse (manifest walk) accepts it.
    CHECK(parse_record(frame, nullptr).check == RecordCheck::Ok);
  }

  // A single flipped bit anywhere in the payload fails the checksum.
  for (std::size_t i = 0; i < payload.size(); i += 13) {
    auto c = frame;
    c[kRecordHeaderSize + i] ^= 0x20;
    CHECK(parse_record(c, &key).check == RecordCheck::BadChecksum);
  }
  // ...as does a flipped checksum byte itself.
  {
    auto c = frame;
    c[16] ^= 0x01;
    CHECK(parse_record(c, &key).check == RecordCheck::BadChecksum);
  }

  CHECK(record_check_name(RecordCheck::BadChecksum) == "bad_checksum");
  CHECK(record_check_name(RecordCheck::Ok) == "ok");
}

// ---------------------------------------------------------------------------
MixedSweepResult small_sweep(const std::string& name, bool compress = true) {
  const Netlist n = make_iscas85(name);
  const SimKernel k(n);
  FaultSimulator fsim(k);
  MixedTpgOptions mopt;
  mopt.lfsr_patterns = 128;
  mopt.podem.backtrack_limit = 50;
  mopt.compress = compress;
  const std::vector<std::size_t> lengths = {32, 128};
  return run_mixed_sweep(k, fsim, lengths, mopt);
}

void test_serializer_roundtrip() {
  const MixedSweepResult sw = small_sweep("c432s");
  CHECK(sw.status.ok());

  const std::vector<std::uint8_t> bytes = serialize_sweep(sw);
  const MixedSweepResult back = deserialize_sweep(bytes);
  // Determinism makes serialized equality the equality oracle: a lossless
  // round trip re-serializes to the exact same bytes.
  CHECK(serialize_sweep(back) == bytes);
  CHECK_EQ(back.points.size(), sw.points.size());
  CHECK(back.points[0].topoff == sw.points[0].topoff);
  CHECK_EQ(back.stats.podem_calls, sw.stats.podem_calls);
}

// The decoded-ROM policy round-trips as the all-fallback, MISR-less case of
// the row model: the row flags survive, so a cached legacy sweep still feeds
// synthesis one flag per stored row.
void test_decoded_sweep_roundtrip() {
  const MixedSweepResult sw = small_sweep("c432s", false);
  CHECK(sw.status.ok());
  std::size_t rows = 0;
  for (const MixedSchemeResult& p : sw.points) {
    CHECK(p.comp.seeds.empty());
    CHECK(!p.comp.misr.enabled());
    CHECK_EQ(p.comp.fallback_rows(), p.topoff.size());
    rows += p.topoff.size();
  }
  CHECK(rows > 0);  // the flags under test are really there

  const std::vector<std::uint8_t> bytes = serialize_sweep(sw);
  const MixedSweepResult back = deserialize_sweep(bytes);
  CHECK(serialize_sweep(back) == bytes);
  CHECK_EQ(back.points.size(), sw.points.size());
  for (std::size_t i = 0; i < sw.points.size(); ++i) {
    const CompressedTopoff& a = sw.points[i].comp;
    const CompressedTopoff& b = back.points[i].comp;
    CHECK(back.points[i].topoff == sw.points[i].topoff);
    CHECK(b.fallback == a.fallback);
    CHECK_EQ(b.degree, a.degree);
    CHECK_EQ(b.cut_outputs, a.cut_outputs);
    CHECK(b.seeds.empty());
    CHECK(!b.misr.enabled());
  }
}

// ---------------------------------------------------------------------------
// Layout pin: hand-filled records, no engine run, so the bytes carry no
// wall-clock noise.  Every scalar gets its own non-default value and every
// vector one or two elements, so a dropped, swapped or resized field moves
// the digest.  A layout change must bump kStoreFormatVersion and re-capture
// these constants in the same commit; otherwise they never change.

struct Sentinel {
  std::uint64_t next = 0x1000;
  std::uint64_t n() { return next += 0x101; }
  double f() { return static_cast<double>(n()) + 0.25; }
  std::string s() { return "s" + std::to_string(n()); }
  StageStatus status(StageCode c) { return {c, s()}; }
  BitVec bits(std::size_t width) {
    BitVec v(width);
    for (std::size_t i = n() % 3; i < width; i += 3) v.set(i, true);
    return v;
  }
  Fault fault() {
    return {static_cast<GateId>(n()), static_cast<std::int16_t>(n() % 7), 1};
  }
  CompressedTopoff comp() {
    CompressedTopoff c;
    c.degree = static_cast<unsigned>(n());
    c.seeds = {{static_cast<std::uint32_t>(n()),
                static_cast<std::uint32_t>(n()), n()},
               {static_cast<std::uint32_t>(n()),
                static_cast<std::uint32_t>(n()), n()}};
    c.fallback = {1, 0};
    c.misr.degree = static_cast<unsigned>(n());
    c.misr.taps = n();
    c.misr.fold = {static_cast<std::uint16_t>(n()),
                   static_cast<std::uint16_t>(n())};
    c.golden = n();
    c.cut_outputs = n();
    c.solve_seconds = f();
    return c;
  }
};

MixedSweepResult sentinel_sweep(Sentinel& s) {
  MixedSweepResult r;
  r.lengths = {s.n(), s.n()};
  r.width = s.n();
  r.stats.podem_calls = s.n();
  r.stats.podem_cache_hits = s.n();
  r.stats.podem_threads = static_cast<unsigned>(s.n());
  r.stats.lfsr_seconds = s.f();
  r.stats.podem_seconds = s.f();
  r.stats.compact_seconds = s.f();
  r.stats.solve_seconds = s.f();
  r.status = s.status(StageCode::DeadlineExceeded);

  MixedSchemeResult p;
  p.lfsr_patterns = s.n();
  p.tail_faults = s.n();
  p.podem_detected = s.n();
  p.redundant = s.n();
  p.aborted = s.n();
  p.podem_backtracks = s.n();
  p.podem_decisions = s.n();
  p.topoff_before_compaction = s.n();
  p.topoff_patterns = s.n();
  p.topoff = {s.bits(70), s.bits(70)};
  p.comp = s.comp();
  p.redundant_faults = {s.fault()};
  p.aborted_faults = {s.fault(), s.fault()};
  p.lfsr_coverage = s.f();
  p.lfsr_coverage_weighted = s.f();
  p.final_coverage = s.f();
  p.final_coverage_weighted = s.f();
  p.all_verified = false;
  FaultSimResult& fr = p.lfsr_result;
  fr.total_faults = s.n();
  fr.sim_faults = s.n();
  fr.detected = s.n();
  fr.detected_weight = s.n();
  fr.total_weight = s.n();
  fr.patterns = s.n();
  fr.status = s.status(StageCode::Cancelled);
  fr.threads = static_cast<unsigned>(s.n());
  fr.word_width = static_cast<unsigned>(s.n());
  fr.first_detected = {static_cast<std::int64_t>(s.n()), -1};
  fr.coverage = {s.f(), s.f()};
  fr.coverage_weighted = {s.f()};
  fr.faulty_gate_evals = s.n();
  p.lfsr_seconds = s.f();
  p.podem_seconds = s.f();
  p.compact_seconds = s.f();
  p.solve_seconds = s.f();
  p.state = PointState::LfsrOnly;
  p.status = s.status(StageCode::Error);
  r.points = {p};
  return r;
}

JobReport sentinel_report() {
  Sentinel s;
  JobReport r;
  r.name = s.s();
  r.status = s.status(StageCode::Rejected);
  r.degraded = true;
  r.wrapper_ok = true;
  r.stages = {{s.s(), s.status(StageCode::Error), s.f(),
               static_cast<unsigned>(s.n()), s.s()},
              {s.s(), s.status(StageCode::Cancelled), s.f(),
               static_cast<unsigned>(s.n()), s.s()}};
  r.sweep = sentinel_sweep(s);

  BistPlan& p = r.plan;
  p.point_index = s.n();
  p.lfsr_patterns = s.n();
  p.topoff_patterns = s.n();
  p.test_time = s.n();
  p.rom_bits = s.n();
  p.cost = s.f();
  p.knee_distance = s.f();
  p.area = {s.f(), s.f(), s.f(), s.f(), s.f(), s.f(),
            s.n(), s.n(), s.n(), s.n()};
  p.area_model = {s.f(), s.f(), s.f(), s.f(), s.f()};
  p.lfsr_degree = static_cast<unsigned>(s.n());
  p.lfsr_taps = s.n();
  p.lfsr_seed = s.n();
  p.width = s.n();
  p.topoff = {s.bits(5)};
  p.comp = s.comp();
  p.lfsr_coverage = s.f();
  p.final_coverage = s.f();
  p.final_coverage_weighted = s.f();
  p.degraded = true;
  p.candidates = {{s.n(), s.n(), s.n(), s.n(), s.n(), s.n(), s.n(), s.n(),
                   s.n(), s.f(), s.f(), false, s.f()}};

  WrapperVerification& v = r.verification;
  v.lfsr_phase_identical = true;
  v.topoff_identical = true;
  v.coverage_identical = true;
  v.seeds_identical = true;
  v.signature_identical = true;
  v.cycles = s.n();
  v.achieved_coverage = s.f();
  v.achieved_coverage_weighted = s.f();
  v.misr_signature = s.n();
  v.aliasing = {s.n(), s.n(), s.f()};
  v.status = s.status(StageCode::DeadlineExceeded);

  r.solve_seconds = s.f();
  r.wrapper_bench = s.s();
  r.seconds = s.f();
  r.cache = {true, true, true, true, true, s.s()};
  return r;
}

void test_layout_pin() {
  Sentinel s;
  const MixedSweepResult sweep = sentinel_sweep(s);
  const JobReport report = sentinel_report();
  const std::vector<std::uint8_t> sweep_bytes = serialize_sweep(sweep);
  const std::vector<std::uint8_t> report_bytes = serialize_job_report(report);
  CHECK(serialize_sweep(deserialize_sweep(sweep_bytes)) == sweep_bytes);
  CHECK(serialize_job_report(deserialize_job_report(report_bytes)) ==
        report_bytes);

  JobSpec spec;
  spec.name = "c17";
  spec.bench_text = c17_bench_text();
  spec.sweep_lengths = {256, 64};
  spec.tpg.podem.backtrack_limit = 77;
  spec.tpg.misr_fold = {1, 0};
  spec.tpg.compact = false;
  const Netlist n = read_bench(spec.bench_text, "c17");

  CHECK_EQ(kStoreFormatVersion, 3u);
  CHECK_EQ(sweep_bytes.size(), 597u);
  CHECK_EQ(fnv1a64(sweep_bytes), 0xf28a746be0da77a1ull);
  CHECK_EQ(report_bytes.size(), 1324u);
  CHECK_EQ(fnv1a64(report_bytes), 0x621d3d86fd3e3392ull);
  CHECK_EQ(sweep_cache_key(n, spec.sweep_lengths, spec.tpg).hex(),
           std::string("a26264a0144467dd262499995951dafe"));
  CHECK_EQ(job_key(spec).hex(),
           std::string("3dadd3222a26dd52284d5b18b5f88cad"));
}

// Adversarial bytes: every truncation and every single-byte XOR of a valid
// payload must either throw or decode to a value that re-serializes to
// exactly the mutated bytes — nothing is ever misdecoded silently.
void test_malformed_payloads() {
  const std::vector<std::uint8_t> good =
      serialize_job_report(sentinel_report());
  const auto throws_or_exact = [](const std::vector<std::uint8_t>& bytes) {
    try {
      return serialize_job_report(deserialize_job_report(bytes)) == bytes;
    } catch (const std::runtime_error&) {
      return true;
    }
  };
  std::size_t bad = 0;
  for (std::size_t cut = 0; cut < good.size(); ++cut)
    if (!throws_or_exact({good.begin(), good.begin() + cut})) ++bad;
  std::vector<std::uint8_t> t = good;
  for (std::size_t i = 0; i < t.size(); ++i) {
    for (unsigned x = 1; x < 256; ++x) {
      t[i] = static_cast<std::uint8_t>(good[i] ^ x);
      if (!throws_or_exact(t)) ++bad;
    }
    t[i] = good[i];
  }
  CHECK_EQ(bad, 0u);
  // A payload is exactly one record: trailing bytes are rejected.
  t.push_back(0);
  CHECK_THROWS(deserialize_job_report(t));

  // A bit-vector length near 2^64 must not wrap the reader's word count
  // into an empty vector that claims 2^64 - 1 bits.
  {
    MixedSweepResult sw;
    sw.points.resize(1);
    const std::vector<std::uint8_t> without = serialize_sweep(sw);
    sw.points[0].topoff = {BitVec()};
    std::vector<std::uint8_t> with = serialize_sweep(sw);
    const auto count_at =
        std::mismatch(without.begin(), without.end(), with.begin()).first -
        without.begin();
    std::fill_n(with.begin() + count_at + 8, 8, 0xFF);
    CHECK_THROWS(deserialize_sweep(with));
  }
}

// ---------------------------------------------------------------------------
void test_result_store() {
  const std::string dir = "store_test_dir";
  fs::remove_all(dir);

  ResultStore store({dir, nullptr});
  const MixedSweepResult sw = small_sweep("c432s");
  const Netlist n = make_iscas85("c432s");
  MixedTpgOptions mopt;
  mopt.lfsr_patterns = 128;
  mopt.podem.backtrack_limit = 50;
  const std::vector<std::size_t> lengths = {32, 128};
  const Digest128 key = sweep_cache_key(n, lengths, mopt);

  // Engine-speed knobs must NOT move the key; result-affecting knobs must.
  {
    MixedTpgOptions fast = mopt;
    fast.podem_threads = 8;
    fast.fsim.threads = 8;
    CHECK(sweep_cache_key(n, lengths, fast) == key);
    MixedTpgOptions other = mopt;
    other.podem.backtrack_limit = 51;
    CHECK(!(sweep_cache_key(n, lengths, other) == key));
    const std::vector<std::size_t> other_lengths = {32, 64};
    CHECK(!(sweep_cache_key(n, other_lengths, mopt) == key));
  }

  // Cold store: clean miss.
  CHECK(store.load_sweep(key).outcome ==
        ResultStore::SweepLookup::Outcome::Miss);
  CHECK_EQ(store.stats().misses, 1u);

  // Publish + hit: the loaded sweep is byte-identical to the stored one.
  CHECK(store.store_sweep(key, sw));
  {
    ResultStore::SweepLookup lk = store.load_sweep(key);
    CHECK(lk.outcome == ResultStore::SweepLookup::Outcome::Hit);
    CHECK(serialize_sweep(lk.sweep) == serialize_sweep(sw));
    CHECK(!lk.note.empty());
  }
  CHECK_EQ(store.stats().hits, 1u);
  CHECK_EQ(store.stats().stores, 1u);

  const std::string path = store.sweep_path(key);
  const std::vector<std::uint8_t> good = slurp(path);

  // Every corruption class: load quarantines (file moved aside, original
  // gone) and reports it; the NEXT load is a clean miss — the poison cannot
  // be re-read forever — and a re-publish restores service for the key.
  using Mangle = std::vector<std::uint8_t> (*)(std::vector<std::uint8_t>);
  const Mangle cases[] = {
      // truncated inside the header
      [](std::vector<std::uint8_t> b) {
        b.resize(kRecordHeaderSize / 2);
        return b;
      },
      // truncated inside the payload
      [](std::vector<std::uint8_t> b) {
        b.resize(b.size() - 1);
        return b;
      },
      // single flipped payload bit
      [](std::vector<std::uint8_t> b) {
        b[kRecordHeaderSize] ^= 0x01;
        return b;
      },
      // written by a future format version
      [](std::vector<std::uint8_t> b) {
        b[4] += 1;
        return b;
      },
      // trailing bytes (store records are exactly one frame)
      [](std::vector<std::uint8_t> b) {
        b.push_back(0xAB);
        return b;
      },
  };
  std::uint64_t quarantines = 0;
  for (const Mangle mangle : cases) {
    dump(path, mangle(good));
    ResultStore::SweepLookup lk = store.load_sweep(key);
    CHECK(lk.outcome == ResultStore::SweepLookup::Outcome::Quarantined);
    CHECK(!lk.note.empty());
    CHECK(!fs::exists(path));
    ++quarantines;
    CHECK_EQ(store.stats().quarantined, quarantines);
    CHECK(store.load_sweep(key).outcome ==
          ResultStore::SweepLookup::Outcome::Miss);
    CHECK(store.store_sweep(key, sw));
    CHECK(store.load_sweep(key).outcome ==
          ResultStore::SweepLookup::Outcome::Hit);
  }

  // Checksum-valid frame whose payload does not decode: quarantined too.
  {
    const std::vector<std::uint8_t> junk(64, 0xFF);
    dump(path, frame_record(key, junk));
    ResultStore::SweepLookup lk = store.load_sweep(key);
    CHECK(lk.outcome == ResultStore::SweepLookup::Outcome::Quarantined);
    CHECK(lk.note.find("undecodable") != std::string::npos);
    ++quarantines;
    CHECK(store.store_sweep(key, sw));
  }

  // A misfiled record (intact frame under the wrong file name) must not
  // hit: the key in the header disagrees with the requested one.
  {
    MixedTpgOptions other = mopt;
    other.podem.backtrack_limit = 51;
    const Digest128 key2 = sweep_cache_key(n, lengths, other);
    dump(store.sweep_path(key2), good);
    CHECK(store.load_sweep(key2).outcome ==
          ResultStore::SweepLookup::Outcome::Quarantined);
    ++quarantines;
  }

  CHECK_EQ(quarantine_count(dir), quarantines);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// FileOps shim: fail writes (whole or short) or renames on demand.
struct FlakyOps : FileOps {
  bool fail_writes = false;
  bool short_writes = false;
  bool fail_renames = false;

  bool write_file(const std::string& path,
                  std::span<const std::uint8_t> data) override {
    if (fail_writes) return false;  // ENOSPC-shaped: nothing lands
    if (short_writes) {
      // Disk filled mid-write: half the payload lands, the call fails.
      FileOps::write_file(path, data.subspan(0, data.size() / 2));
      return false;
    }
    return FileOps::write_file(path, data);
  }
  bool rename_file(const std::string& from, const std::string& to) override {
    if (fail_renames) return false;
    return FileOps::rename_file(from, to);
  }
};

void test_store_io_failure() {
  const std::string dir = "store_test_flaky";
  fs::remove_all(dir);

  FlakyOps ops;
  ResultStore store({dir, &ops});
  const MixedSweepResult sw = small_sweep("c432s");
  const Digest128 key = Hasher().str("flaky-key").digest();

  // ENOSPC-shaped write failure: publish reports false, key stays cold.
  ops.fail_writes = true;
  std::string note;
  CHECK(!store.store_sweep(key, sw, &note));
  CHECK(!note.empty());
  CHECK_EQ(store.stats().store_failures, 1u);
  CHECK(store.load_sweep(key).outcome ==
        ResultStore::SweepLookup::Outcome::Miss);

  // Short write: the temp file got half the bytes before the failure; the
  // atomic-publish contract means the FINAL path must never see them.
  ops.fail_writes = false;
  ops.short_writes = true;
  CHECK(!store.store_sweep(key, sw, &note));
  CHECK(store.load_sweep(key).outcome ==
        ResultStore::SweepLookup::Outcome::Miss);
  CHECK(!fs::exists(store.sweep_path(key)));

  // Refused rename: payload written in full but never promoted.
  ops.short_writes = false;
  ops.fail_renames = true;
  CHECK(!store.store_sweep(key, sw, &note));
  CHECK(store.load_sweep(key).outcome ==
        ResultStore::SweepLookup::Outcome::Miss);

  // Recovery: the same store object publishes fine once I/O heals.
  ops.fail_renames = false;
  CHECK(store.store_sweep(key, sw));
  CHECK(store.load_sweep(key).outcome ==
        ResultStore::SweepLookup::Outcome::Hit);

  fs::remove_all(dir);
}

}  // namespace

int main() {
  test_hasher();
  test_fingerprint();
  test_record_framing();
  test_serializer_roundtrip();
  test_decoded_sweep_roundtrip();
  test_layout_pin();
  test_malformed_payloads();
  test_result_store();
  test_store_io_failure();
  return bist_test::summary();
}
