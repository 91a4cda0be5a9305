#include "store/serialize.hpp"

#include <bit>
#include <cstring>

namespace bist {
namespace {

// ---------------------------------------------------------------------------
// Primitive writer / bounds-checked reader
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  std::vector<std::uint8_t> take() { return std::move(out_); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void b(bool v) { u8(v ? 1 : 0); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i16(std::int16_t v) { u16(static_cast<std::uint16_t>(v)); }
  void sz(std::size_t v) { u64(v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    sz(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void bitvec(const BitVec& v) {
    sz(v.size());
    for (std::size_t w = 0; w < v.word_count(); ++w) u64(v.word(w));
  }

 private:
  std::vector<std::uint8_t> out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("store payload: ") + what);
  }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  void need(std::size_t n) const {
    if (remaining() < n) fail("truncated payload");
  }

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }
  bool b() {
    const std::uint8_t v = u8();
    if (v > 1) fail("bad bool");
    return v != 0;
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) v |= std::uint16_t(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t(bytes_[pos_++]) << (8 * i);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::int16_t i16() { return static_cast<std::int16_t>(u16()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::size_t sz() {
    const std::uint64_t v = u64();
    if (v > std::size_t(-1)) fail("size overflow");
    return static_cast<std::size_t>(v);
  }
  /// Element count for a vector whose elements take >= `elem_bytes` each —
  /// bounded by the bytes actually present, so a corrupted count can never
  /// drive a huge allocation.
  std::size_t count(std::size_t elem_bytes) {
    const std::size_t n = sz();
    if (elem_bytes > 0 && n > remaining() / elem_bytes) fail("bad count");
    return n;
  }
  std::string str() {
    const std::size_t n = count(1);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  BitVec bitvec() {
    const std::size_t n = sz();
    const std::size_t words = (n + 63) / 64;
    if (words > remaining() / 8) fail("bad bitvec");
    BitVec v(n);
    for (std::size_t w = 0; w < words; ++w) {
      const std::uint64_t word = u64();
      if (w + 1 == words && n % 64 != 0 &&
          (word >> (n % 64)) != 0)
        fail("bitvec tail bits set");
      v.word(w) = word;
    }
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Field walks (writer and reader kept adjacent per type)
// ---------------------------------------------------------------------------

void put_status(ByteWriter& w, const StageStatus& s) {
  w.u8(static_cast<std::uint8_t>(s.code));
  w.str(s.message);
}

StageStatus get_status(ByteReader& r) {
  StageStatus s;
  const std::uint8_t code = r.u8();
  if (code > static_cast<std::uint8_t>(StageCode::Rejected)) r.fail("bad code");
  s.code = static_cast<StageCode>(code);
  s.message = r.str();
  return s;
}

void put_misr(ByteWriter& w, const MisrSpec& m) {
  w.u32(m.degree);
  w.u64(m.taps);
  w.sz(m.fold.size());
  for (const std::uint16_t f : m.fold) w.u16(f);
}

MisrSpec get_misr(ByteReader& r) {
  MisrSpec m;
  m.degree = r.u32();
  m.taps = r.u64();
  m.fold.resize(r.count(2));
  for (auto& f : m.fold) f = r.u16();
  return m;
}

void put_comp(ByteWriter& w, const CompressedTopoff& c) {
  w.u32(c.degree);
  w.sz(c.seeds.size());
  for (const SeedEvent& e : c.seeds) {
    w.u32(e.row);
    w.u32(e.offset);
    w.u64(e.seed);
  }
  w.sz(c.fallback.size());
  for (const std::uint8_t f : c.fallback) w.u8(f);
  put_misr(w, c.misr);
  w.u64(c.golden);
  w.sz(c.cut_outputs);
  w.f64(c.solve_seconds);
}

CompressedTopoff get_comp(ByteReader& r) {
  CompressedTopoff c;
  c.degree = r.u32();
  c.seeds.resize(r.count(16));
  for (auto& e : c.seeds) {
    e.row = r.u32();
    e.offset = r.u32();
    e.seed = r.u64();
  }
  c.fallback.resize(r.count(1));
  for (auto& f : c.fallback) f = r.u8();
  c.misr = get_misr(r);
  c.golden = r.u64();
  c.cut_outputs = r.sz();
  c.solve_seconds = r.f64();
  return c;
}

void put_faults(ByteWriter& w, const std::vector<Fault>& fs) {
  w.sz(fs.size());
  for (const Fault& f : fs) {
    w.u32(f.gate);
    w.i16(f.pin);
    w.u8(f.stuck);
  }
}

std::vector<Fault> get_faults(ByteReader& r) {
  std::vector<Fault> fs(r.count(7));
  for (auto& f : fs) {
    f.gate = r.u32();
    f.pin = r.i16();
    f.stuck = r.u8();
  }
  return fs;
}

void put_fsim(ByteWriter& w, const FaultSimResult& f) {
  w.sz(f.total_faults);
  w.sz(f.sim_faults);
  w.sz(f.detected);
  w.u64(f.detected_weight);
  w.u64(f.total_weight);
  w.sz(f.patterns);
  put_status(w, f.status);
  w.u32(f.threads);
  w.u32(f.word_width);
  w.sz(f.first_detected.size());
  for (const std::int64_t v : f.first_detected) w.i64(v);
  w.sz(f.coverage.size());
  for (const double v : f.coverage) w.f64(v);
  w.sz(f.coverage_weighted.size());
  for (const double v : f.coverage_weighted) w.f64(v);
  w.u64(f.faulty_gate_evals);
}

FaultSimResult get_fsim(ByteReader& r) {
  FaultSimResult f;
  f.total_faults = r.sz();
  f.sim_faults = r.sz();
  f.detected = r.sz();
  f.detected_weight = r.u64();
  f.total_weight = r.u64();
  f.patterns = r.sz();
  f.status = get_status(r);
  f.threads = r.u32();
  f.word_width = r.u32();
  f.first_detected.resize(r.count(8));
  for (auto& v : f.first_detected) v = r.i64();
  f.coverage.resize(r.count(8));
  for (auto& v : f.coverage) v = r.f64();
  f.coverage_weighted.resize(r.count(8));
  for (auto& v : f.coverage_weighted) v = r.f64();
  f.faulty_gate_evals = r.u64();
  return f;
}

void put_point(ByteWriter& w, const MixedSchemeResult& p) {
  w.sz(p.lfsr_patterns);
  w.sz(p.tail_faults);
  w.sz(p.podem_detected);
  w.sz(p.redundant);
  w.sz(p.aborted);
  w.u64(p.podem_backtracks);
  w.u64(p.podem_decisions);
  w.sz(p.topoff_before_compaction);
  w.sz(p.topoff_patterns);
  w.sz(p.topoff.size());
  for (const BitVec& t : p.topoff) w.bitvec(t);
  put_comp(w, p.comp);
  put_faults(w, p.redundant_faults);
  put_faults(w, p.aborted_faults);
  w.f64(p.lfsr_coverage);
  w.f64(p.lfsr_coverage_weighted);
  w.f64(p.final_coverage);
  w.f64(p.final_coverage_weighted);
  w.b(p.all_verified);
  put_fsim(w, p.lfsr_result);
  w.f64(p.lfsr_seconds);
  w.f64(p.podem_seconds);
  w.f64(p.compact_seconds);
  w.f64(p.solve_seconds);
  w.u8(static_cast<std::uint8_t>(p.state));
  put_status(w, p.status);
}

MixedSchemeResult get_point(ByteReader& r) {
  MixedSchemeResult p;
  p.lfsr_patterns = r.sz();
  p.tail_faults = r.sz();
  p.podem_detected = r.sz();
  p.redundant = r.sz();
  p.aborted = r.sz();
  p.podem_backtracks = r.u64();
  p.podem_decisions = r.u64();
  p.topoff_before_compaction = r.sz();
  p.topoff_patterns = r.sz();
  p.topoff.resize(r.count(8));
  for (auto& t : p.topoff) t = r.bitvec();
  p.comp = get_comp(r);
  p.redundant_faults = get_faults(r);
  p.aborted_faults = get_faults(r);
  p.lfsr_coverage = r.f64();
  p.lfsr_coverage_weighted = r.f64();
  p.final_coverage = r.f64();
  p.final_coverage_weighted = r.f64();
  p.all_verified = r.b();
  p.lfsr_result = get_fsim(r);
  p.lfsr_seconds = r.f64();
  p.podem_seconds = r.f64();
  p.compact_seconds = r.f64();
  p.solve_seconds = r.f64();
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(PointState::Skipped))
    r.fail("bad point state");
  p.state = static_cast<PointState>(state);
  p.status = get_status(r);
  return p;
}

void put_sweep(ByteWriter& w, const MixedSweepResult& s) {
  w.sz(s.lengths.size());
  for (const std::size_t l : s.lengths) w.sz(l);
  w.sz(s.width);
  w.sz(s.stats.podem_calls);
  w.sz(s.stats.podem_cache_hits);
  w.u32(s.stats.podem_threads);
  w.f64(s.stats.lfsr_seconds);
  w.f64(s.stats.podem_seconds);
  w.f64(s.stats.compact_seconds);
  w.f64(s.stats.solve_seconds);
  put_status(w, s.status);
  w.sz(s.points.size());
  for (const MixedSchemeResult& p : s.points) put_point(w, p);
}

MixedSweepResult get_sweep(ByteReader& r) {
  MixedSweepResult s;
  s.lengths.resize(r.count(8));
  for (auto& l : s.lengths) l = r.sz();
  s.width = r.sz();
  s.stats.podem_calls = r.sz();
  s.stats.podem_cache_hits = r.sz();
  s.stats.podem_threads = r.u32();
  s.stats.lfsr_seconds = r.f64();
  s.stats.podem_seconds = r.f64();
  s.stats.compact_seconds = r.f64();
  s.stats.solve_seconds = r.f64();
  s.status = get_status(r);
  const std::size_t n = r.count(1);
  s.points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) s.points.push_back(get_point(r));
  return s;
}

void put_area(ByteWriter& w, const BistArea& a) {
  w.f64(a.lfsr);
  w.f64(a.rom);
  w.f64(a.seed_rom);
  w.f64(a.controller);
  w.f64(a.mux);
  w.f64(a.misr);
  w.sz(a.rom_bits);
  w.sz(a.seed_rom_bits);
  w.sz(a.misr_bits);
  w.sz(a.state_bits);
}

BistArea get_area(ByteReader& r) {
  BistArea a;
  a.lfsr = r.f64();
  a.rom = r.f64();
  a.seed_rom = r.f64();
  a.controller = r.f64();
  a.mux = r.f64();
  a.misr = r.f64();
  a.rom_bits = r.sz();
  a.seed_rom_bits = r.sz();
  a.misr_bits = r.sz();
  a.state_bits = r.sz();
  return a;
}

void put_plan(ByteWriter& w, const BistPlan& p) {
  w.sz(p.point_index);
  w.sz(p.lfsr_patterns);
  w.sz(p.topoff_patterns);
  w.sz(p.test_time);
  w.sz(p.rom_bits);
  w.f64(p.cost);
  w.f64(p.knee_distance);
  put_area(w, p.area);
  w.f64(p.area_model.and2);
  w.f64(p.area_model.xor2);
  w.f64(p.area_model.not1);
  w.f64(p.area_model.buf1);
  w.f64(p.area_model.flipflop);
  w.u32(p.lfsr_degree);
  w.u64(p.lfsr_taps);
  w.u64(p.lfsr_seed);
  w.sz(p.width);
  w.sz(p.topoff.size());
  for (const BitVec& t : p.topoff) w.bitvec(t);
  put_comp(w, p.comp);
  w.f64(p.lfsr_coverage);
  w.f64(p.final_coverage);
  w.f64(p.final_coverage_weighted);
  w.b(p.degraded);
  w.sz(p.candidates.size());
  for (const SchedulePoint& c : p.candidates) {
    w.sz(c.point_index);
    w.sz(c.length);
    w.sz(c.topoff_patterns);
    w.sz(c.test_time);
    w.sz(c.rom_bits);
    w.sz(c.seed_rom_bits);
    w.sz(c.misr_bits);
    w.sz(c.fallback_rows);
    w.sz(c.area_bits);
    w.f64(c.cost);
    w.f64(c.knee_distance);
    w.b(c.within_budget);
    w.f64(c.final_coverage);
  }
}

BistPlan get_plan(ByteReader& r) {
  BistPlan p;
  p.point_index = r.sz();
  p.lfsr_patterns = r.sz();
  p.topoff_patterns = r.sz();
  p.test_time = r.sz();
  p.rom_bits = r.sz();
  p.cost = r.f64();
  p.knee_distance = r.f64();
  p.area = get_area(r);
  p.area_model.and2 = r.f64();
  p.area_model.xor2 = r.f64();
  p.area_model.not1 = r.f64();
  p.area_model.buf1 = r.f64();
  p.area_model.flipflop = r.f64();
  p.lfsr_degree = r.u32();
  p.lfsr_taps = r.u64();
  p.lfsr_seed = r.u64();
  p.width = r.sz();
  p.topoff.resize(r.count(8));
  for (auto& t : p.topoff) t = r.bitvec();
  p.comp = get_comp(r);
  p.lfsr_coverage = r.f64();
  p.final_coverage = r.f64();
  p.final_coverage_weighted = r.f64();
  p.degraded = r.b();
  p.candidates.resize(r.count(8 * 9 + 8 * 3 + 1));
  for (auto& c : p.candidates) {
    c.point_index = r.sz();
    c.length = r.sz();
    c.topoff_patterns = r.sz();
    c.test_time = r.sz();
    c.rom_bits = r.sz();
    c.seed_rom_bits = r.sz();
    c.misr_bits = r.sz();
    c.fallback_rows = r.sz();
    c.area_bits = r.sz();
    c.cost = r.f64();
    c.knee_distance = r.f64();
    c.within_budget = r.b();
    c.final_coverage = r.f64();
  }
  return p;
}

void put_verification(ByteWriter& w, const WrapperVerification& v) {
  w.b(v.lfsr_phase_identical);
  w.b(v.topoff_identical);
  w.b(v.coverage_identical);
  w.b(v.seeds_identical);
  w.b(v.signature_identical);
  w.sz(v.cycles);
  w.f64(v.achieved_coverage);
  w.f64(v.achieved_coverage_weighted);
  w.u64(v.misr_signature);
  w.sz(v.aliasing.detected_checked);
  w.sz(v.aliasing.escapes);
  w.f64(v.aliasing.bound);
  put_status(w, v.status);
}

WrapperVerification get_verification(ByteReader& r) {
  WrapperVerification v;
  v.lfsr_phase_identical = r.b();
  v.topoff_identical = r.b();
  v.coverage_identical = r.b();
  v.seeds_identical = r.b();
  v.signature_identical = r.b();
  v.cycles = r.sz();
  v.achieved_coverage = r.f64();
  v.achieved_coverage_weighted = r.f64();
  v.misr_signature = r.u64();
  v.aliasing.detected_checked = r.sz();
  v.aliasing.escapes = r.sz();
  v.aliasing.bound = r.f64();
  v.status = get_status(r);
  return v;
}

void put_report(ByteWriter& w, const JobReport& rep) {
  w.str(rep.name);
  put_status(w, rep.status);
  w.b(rep.degraded);
  w.b(rep.wrapper_ok);
  w.sz(rep.stages.size());
  for (const StageReport& s : rep.stages) {
    w.str(s.name);
    put_status(w, s.status);
    w.f64(s.seconds);
    w.u32(s.attempts);
    w.str(s.note);
  }
  put_sweep(w, rep.sweep);
  put_plan(w, rep.plan);
  put_verification(w, rep.verification);
  w.f64(rep.solve_seconds);
  w.str(rep.wrapper_bench);
  w.f64(rep.seconds);
  w.b(rep.cache.consulted);
  w.b(rep.cache.hit);
  w.b(rep.cache.stored);
  w.b(rep.cache.quarantined);
  w.b(rep.cache.manifest);
  w.str(rep.cache.note);
}

JobReport get_report(ByteReader& r) {
  JobReport rep;
  rep.name = r.str();
  rep.status = get_status(r);
  rep.degraded = r.b();
  rep.wrapper_ok = r.b();
  rep.stages.resize(r.count(1));
  for (auto& s : rep.stages) {
    s.name = r.str();
    s.status = get_status(r);
    s.seconds = r.f64();
    s.attempts = r.u32();
    s.note = r.str();
  }
  rep.sweep = get_sweep(r);
  rep.plan = get_plan(r);
  rep.verification = get_verification(r);
  rep.solve_seconds = r.f64();
  rep.wrapper_bench = r.str();
  rep.seconds = r.f64();
  rep.cache.consulted = r.b();
  rep.cache.hit = r.b();
  rep.cache.stored = r.b();
  rep.cache.quarantined = r.b();
  rep.cache.manifest = r.b();
  rep.cache.note = r.str();
  return rep;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> serialize_sweep(const MixedSweepResult& r) {
  ByteWriter w;
  put_sweep(w, r);
  return w.take();
}

MixedSweepResult deserialize_sweep(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  MixedSweepResult s = get_sweep(r);
  if (!r.done()) r.fail("trailing bytes");
  return s;
}

std::vector<std::uint8_t> serialize_job_report(const JobReport& r) {
  ByteWriter w;
  put_report(w, r);
  return w.take();
}

JobReport deserialize_job_report(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  JobReport rep = get_report(r);
  if (!r.done()) r.fail("trailing bytes");
  return rep;
}

void strip_volatile(JobReport& r) {
  r.seconds = 0;
  r.solve_seconds = 0;
  for (StageReport& s : r.stages) {
    s.seconds = 0;
    s.attempts = 1;
    s.note.clear();
  }
  r.cache = {};
  r.sweep.stats.lfsr_seconds = 0;
  r.sweep.stats.podem_seconds = 0;
  r.sweep.stats.compact_seconds = 0;
  r.sweep.stats.solve_seconds = 0;
  for (MixedSchemeResult& p : r.sweep.points) {
    p.lfsr_seconds = 0;
    p.podem_seconds = 0;
    p.compact_seconds = 0;
    p.solve_seconds = 0;
    p.comp.solve_seconds = 0;
  }
  r.plan.comp.solve_seconds = 0;
}

}  // namespace bist
