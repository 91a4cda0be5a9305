// Persistence-layer unit tests: canonical hashing and the netlist
// fingerprint, the on-disk record framing (every corruption class maps to
// its RecordCheck verdict), serializer round trips with full bounds
// checking, and the ResultStore's contract that corruption quarantines and
// degrades to a miss — never a stale hit, never a crash — including under
// injected file-system failure (short writes, ENOSPC-shaped write_file,
// refused renames) via the FileOps shim.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/iscas85_family.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/fingerprint.hpp"
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

  // Bounds checking: any truncation must throw, not read wild.
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::uint8_t> t(bytes.begin(), bytes.begin() + cut);
    CHECK_THROWS(deserialize_sweep(t));
  }
  // Trailing garbage must throw too (a payload is exactly one sweep).
  {
    auto t = bytes;
    t.push_back(0);
    CHECK_THROWS(deserialize_sweep(t));
  }
  // A maliciously huge vector count must be rejected by the remaining-bytes
  // bound, not allocate petabytes: saturate the leading count field.
  {
    auto t = bytes;
    for (std::size_t i = 0; i < 8 && i < t.size(); ++i) t[i] = 0xFF;
    CHECK_THROWS(deserialize_sweep(t));
  }
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
  test_result_store();
  test_store_io_failure();
  return bist_test::summary();
}
