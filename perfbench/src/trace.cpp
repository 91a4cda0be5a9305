#include "trace.hpp"

#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.  Scopes are strictly
// nested, so the innermost entry is the parent of the next span opened here.
thread_local std::vector<std::pair<const Tracer*, int>> tl_open;

}  // namespace

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::uint64_t job)
    : t_(t), index_(t.open(name, job)) {}

Tracer::Scope::~Scope() { t_.close(index_); }

int Tracer::open(const char* name, std::uint64_t job) {
  int parent = -1;
  if (!tl_open.empty() && tl_open.back().first == this)
    parent = tl_open.back().second;
  Span s;
  s.name = name;
  s.parent = parent;
  s.job = job;
  std::lock_guard<std::mutex> lock(mu_);
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  tl_open.emplace_back(this, index);
  return index;
}

void Tracer::close(int index) {
  const std::int64_t t = now_ns();
  tl_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t job) {
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.job = job;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].seconds();
  for (const Span& s : spans)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::string check_nesting(const std::vector<Span>& spans) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string where = "span " + std::to_string(i) + " (" + s.name + ")";
    if (s.end_ns < s.start_ns) return where + " is not closed";
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i)
      return where + " has a parent recorded after it";
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns)
      return where + " lies outside its parent " + p.name;
    if (s.job != p.job) return where + " has another job id than its parent";
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (child_ns[i] > spans[i].end_ns - spans[i].start_ns)
      return "span " + std::to_string(i) + " (" + spans[i].name +
             ") has a negative self time";
  return {};
}

bool write_trace_events(const std::vector<Span>& spans,
                        const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  os << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.job
       << ", \"ts\": " << double(s.start_ns - t0) * 1e-3
       << ", \"dur\": " << double(s.end_ns - s.start_ns) * 1e-3 << "}";
  }
  os << "\n]}\n";
  return bool(os);
}

}  // namespace perfbench
