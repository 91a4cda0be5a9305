#include "store/serialize.hpp"

#include <bit>
#include <concepts>
#include <type_traits>

namespace bist {
namespace {

// Every integer field travels at its in-memory width; `unsigned` fields
// (degrees, thread counts, word widths, attempts) are pinned to u32 here.
static_assert(sizeof(unsigned) == 4, "unsigned fields travel as u32");
// Sizes travel as u64, so every wire value fits a size_t.
static_assert(sizeof(std::size_t) == 8, "sizes travel as u64");

// ---------------------------------------------------------------------------
// Writer / bounds-checked reader with the same typed entry points: io(field)
// for scalars, strings, bit vectors, vectors and records (a record goes
// through its walk below), io.enum_u8(field, max) for enums.
// ---------------------------------------------------------------------------

class ByteWriter {
 public:
  std::vector<std::uint8_t> take() { return std::move(out_); }

  template <std::integral T>
  void operator()(T v) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out_.push_back(static_cast<std::uint8_t>(u >> (8 * i)));
  }
  void operator()(bool v) { (*this)(static_cast<std::uint8_t>(v)); }
  void operator()(double v) { (*this)(std::bit_cast<std::uint64_t>(v)); }
  void operator()(const std::string& s) {
    (*this)(s.size());
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void operator()(const BitVec& v) {
    (*this)(v.size());
    for (std::size_t w = 0; w < v.word_count(); ++w) (*this)(v.word(w));
  }
  template <class T>
  void operator()(const std::vector<T>& v) {
    (*this)(v.size());
    for (const T& e : v) (*this)(e);
  }
  template <class T>
    requires std::is_class_v<T>
  void operator()(const T& rec) {
    walk(*this, rec);
  }
  template <class E>
  void enum_u8(E v, E /*max*/) {
    (*this)(static_cast<std::uint8_t>(v));
  }

 private:
  std::vector<std::uint8_t> out_;
};

template <class T>
std::vector<std::uint8_t> encode(const T& v) {
  ByteWriter w;
  w(v);
  return w.take();
}

/// Wire size of a default-constructed T: every variable-length part is
/// empty, so no encoded T is smaller.  The reader bounds a vector's element
/// count by it, so a corrupted count can never drive a huge allocation.
template <class T>
std::size_t min_wire_size() {
  static const std::size_t n = encode(T{}).size();
  return n;
}

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("store payload: ") + what);
  }
  bool done() const { return pos_ == bytes_.size(); }

  template <std::integral T>
  void operator()(T& v) {
    need(sizeof(T));
    std::make_unsigned_t<T> u = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i)
      u |= static_cast<decltype(u)>(bytes_[pos_++]) << (8 * i);
    v = static_cast<T>(u);
  }
  void operator()(bool& v) {
    std::uint8_t u = 0;
    (*this)(u);
    if (u > 1) fail("bad bool");
    v = u != 0;
  }
  void operator()(double& v) {
    std::uint64_t u = 0;
    (*this)(u);
    v = std::bit_cast<double>(u);
  }
  void operator()(std::string& s) {
    const std::size_t n = count(1);
    s.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
  }
  void operator()(BitVec& v) {
    std::size_t n = 0;
    (*this)(n);
    const std::size_t words = n / 64 + (n % 64 != 0);
    if (words > remaining() / 8) fail("bad bitvec");
    v = BitVec(n);
    for (std::size_t w = 0; w < words; ++w) {
      (*this)(v.word(w));
      if (w + 1 == words && n % 64 != 0 && (v.word(w) >> (n % 64)) != 0)
        fail("bitvec tail bits set");
    }
  }
  template <class T>
  void operator()(std::vector<T>& v) {
    v.resize(count(min_wire_size<T>()));
    for (T& e : v) (*this)(e);
  }
  template <class T>
    requires std::is_class_v<T>
  void operator()(T& rec) {
    walk(*this, rec);
  }
  template <class E>
  void enum_u8(E& v, E max) {
    std::uint8_t u = 0;
    (*this)(u);
    if (u > static_cast<std::uint8_t>(max)) fail("bad enum");
    v = static_cast<E>(u);
  }

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }
  void need(std::size_t n) const {
    if (remaining() < n) fail("truncated payload");
  }
  std::size_t count(std::size_t elem_bytes) {
    std::size_t n = 0;
    (*this)(n);
    if (n > remaining() / elem_bytes) fail("bad count");
    return n;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

template <class T>
T decode(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  T v;
  r(v);
  if (!r.done()) r.fail("trailing bytes");
  return v;
}

// ---------------------------------------------------------------------------
// One field walk per persisted type, shared by both directions: the record
// is const for the writer and mutable for the reader.  The order here IS the
// wire layout.
// ---------------------------------------------------------------------------

template <class T, class Record>
concept Is = std::same_as<std::remove_const_t<T>, Record>;

template <class IO, class... F>
void fields(IO& io, F&... f) {
  (io(f), ...);
}

template <class IO>
void walk(IO& io, Is<StageStatus> auto& s) {
  io.enum_u8(s.code, StageCode::Rejected);
  io(s.message);
}

template <class IO>
void walk(IO& io, Is<MisrSpec> auto& m) {
  fields(io, m.degree, m.taps, m.fold);
}

template <class IO>
void walk(IO& io, Is<SeedEvent> auto& e) {
  fields(io, e.row, e.offset, e.seed);
}

template <class IO>
void walk(IO& io, Is<CompressedTopoff> auto& c) {
  fields(io, c.degree, c.seeds, c.fallback, c.misr, c.golden, c.cut_outputs,
         c.solve_seconds);
}

template <class IO>
void walk(IO& io, Is<Fault> auto& f) {
  fields(io, f.gate, f.pin, f.stuck);
}

template <class IO>
void walk(IO& io, Is<FaultSimResult> auto& f) {
  fields(io, f.total_faults, f.sim_faults, f.detected, f.detected_weight,
         f.total_weight, f.patterns, f.status, f.threads, f.word_width,
         f.first_detected, f.coverage, f.coverage_weighted,
         f.faulty_gate_evals);
}

template <class IO>
void walk(IO& io, Is<MixedSchemeResult> auto& p) {
  fields(io, p.lfsr_patterns, p.tail_faults, p.podem_detected, p.redundant,
         p.aborted, p.podem_backtracks, p.podem_decisions,
         p.topoff_before_compaction, p.topoff_patterns, p.topoff, p.comp,
         p.redundant_faults, p.aborted_faults, p.lfsr_coverage,
         p.lfsr_coverage_weighted, p.final_coverage,
         p.final_coverage_weighted, p.all_verified, p.lfsr_result,
         p.lfsr_seconds, p.podem_seconds, p.compact_seconds, p.solve_seconds);
  io.enum_u8(p.state, PointState::Skipped);
  io(p.status);
}

template <class IO>
void walk(IO& io, Is<MixedSweepStats> auto& s) {
  fields(io, s.podem_calls, s.podem_cache_hits, s.podem_threads,
         s.lfsr_seconds, s.podem_seconds, s.compact_seconds, s.solve_seconds);
}

template <class IO>
void walk(IO& io, Is<MixedSweepResult> auto& s) {
  fields(io, s.lengths, s.width, s.stats, s.status, s.points);
}

template <class IO>
void walk(IO& io, Is<BistArea> auto& a) {
  fields(io, a.lfsr, a.rom, a.seed_rom, a.controller, a.mux, a.misr,
         a.rom_bits, a.seed_rom_bits, a.misr_bits, a.state_bits);
}

template <class IO>
void walk(IO& io, Is<AreaModel> auto& m) {
  fields(io, m.and2, m.xor2, m.not1, m.buf1, m.flipflop);
}

template <class IO>
void walk(IO& io, Is<SchedulePoint> auto& c) {
  fields(io, c.point_index, c.length, c.topoff_patterns, c.test_time,
         c.rom_bits, c.seed_rom_bits, c.misr_bits, c.fallback_rows,
         c.area_bits, c.cost, c.knee_distance, c.within_budget,
         c.final_coverage);
}

template <class IO>
void walk(IO& io, Is<BistPlan> auto& p) {
  fields(io, p.point_index, p.lfsr_patterns, p.topoff_patterns, p.test_time,
         p.rom_bits, p.cost, p.knee_distance, p.area, p.area_model,
         p.lfsr_degree, p.lfsr_taps, p.lfsr_seed, p.width, p.topoff, p.comp,
         p.lfsr_coverage, p.final_coverage, p.final_coverage_weighted,
         p.degraded, p.candidates);
}

template <class IO>
void walk(IO& io, Is<AliasingReport> auto& a) {
  fields(io, a.detected_checked, a.escapes, a.bound);
}

template <class IO>
void walk(IO& io, Is<WrapperVerification> auto& v) {
  fields(io, v.lfsr_phase_identical, v.topoff_identical, v.coverage_identical,
         v.seeds_identical, v.signature_identical, v.cycles,
         v.achieved_coverage, v.achieved_coverage_weighted, v.misr_signature,
         v.aliasing, v.status);
}

template <class IO>
void walk(IO& io, Is<StageReport> auto& s) {
  fields(io, s.name, s.status, s.seconds, s.attempts, s.note);
}

template <class IO>
void walk(IO& io, Is<CacheOutcome> auto& c) {
  fields(io, c.consulted, c.hit, c.stored, c.quarantined, c.manifest, c.note);
}

template <class IO>
void walk(IO& io, Is<JobReport> auto& r) {
  fields(io, r.name, r.status, r.degraded, r.wrapper_ok, r.stages, r.sweep,
         r.plan, r.verification, r.solve_seconds, r.wrapper_bench, r.seconds,
         r.cache);
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> serialize_sweep(const MixedSweepResult& r) {
  return encode(r);
}

MixedSweepResult deserialize_sweep(std::span<const std::uint8_t> bytes) {
  return decode<MixedSweepResult>(bytes);
}

std::vector<std::uint8_t> serialize_job_report(const JobReport& r) {
  return encode(r);
}

JobReport deserialize_job_report(std::span<const std::uint8_t> bytes) {
  return decode<JobReport>(bytes);
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
