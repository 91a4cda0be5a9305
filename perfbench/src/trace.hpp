#pragma once
// Bench-side span recorder.  The benchmark wraps each call it makes into a
// layer of the program in a span (name, start, end, parent, job id); spans
// stay in memory and are written out once, when the run ends.  The program
// itself is not instrumented: everything here measures from the outside.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index into Tracer::spans(), -1 for a root
  std::uint64_t job = 0;     ///< spans of one job share this id

  double seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

/// Thread-safe span log.  Nesting follows each thread's open spans, so a
/// span opened while another is open on the same thread becomes its child.
class Tracer {
 public:
  /// RAII scope: opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  /// Record an already finished span as a root (for intervals whose ends are
  /// seen on different threads, such as a request's due time and its reply).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t job);

  std::vector<Span> spans() const;

  static std::int64_t now_ns();

 private:
  int open(const char* name, std::uint64_t job);
  void close(int index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Self time per span name: each span's duration minus the time its direct
/// children cover, summed by name.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

/// Structural check of a span log: every span is closed, no self time is
/// negative, and every child lies inside its parent and shares its job id.
/// Returns an empty string when the log is sound, else the first defect.
std::string check_nesting(const std::vector<Span>& spans);

/// Write the log as Chrome trace-event JSON (one complete event per span,
/// one track per job).  Returns false on I/O failure.
bool write_trace_events(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
