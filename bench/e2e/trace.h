// Span recorder for the end-to-end benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around calls into the
// engine's public APIs (never from inside the engine), into a buffer that is
// allocated once up front, and written out as Chrome trace_event JSON when
// the run ends. A disabled tracer records nothing and reads no clock, so the
// untraced runs that produce the end-to-end numbers pay one branch per span.
//
// The tracer is single-threaded: every span must be opened and closed on the
// one thread that drives the workload.
#ifndef DX_BENCH_E2E_TRACE_H_
#define DX_BENCH_E2E_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dxbench {

class Tracer {
 public:
  static constexpr int kMaxArgs = 8;

  // Aggregates of every span with one name.
  struct NameStats {
    int64_t count = 0;
    double total_s = 0.0;  // Summed durations.
    double self_s = 0.0;   // Summed durations minus time covered by child spans.
  };

  // `capacity` spans are allocated now; spans beyond it are counted as
  // dropped, never reallocated.
  Tracer(bool enabled, size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open span. Returns its slot, or
  // -1 when disabled or full. `name` must outlive the tracer (a literal, or a
  // pointer from Intern).
  int Begin(const char* name);
  void End(int id);
  // Attaches a numeric argument (shown in the trace viewer) to an open span.
  void Arg(int id, const char* key, double value);

  // Stable copy of a run-time name, for Begin.
  const char* Intern(const std::string& name);

  size_t size() const { return next_; }
  size_t dropped() const { return dropped_; }

  // Per-name aggregates over every closed span.
  std::map<std::string, NameStats> Stats() const;

  // Chrome trace_event JSON ("X" complete events, microseconds); opens in
  // Perfetto and chrome://tracing. Returns false when the file cannot be
  // written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;  // -1 while open.
    int parent;
    int nargs;
    const char* arg_keys[kMaxArgs];
    double arg_values[kMaxArgs];
  };

  int64_t NowNs() const;

  bool enabled_;
  size_t capacity_;
  std::unique_ptr<Span[]> spans_;
  size_t next_ = 0;
  size_t dropped_ = 0;
  std::vector<int> open_;  // Slots of the open spans, innermost last.
  std::chrono::steady_clock::time_point origin_;
  std::deque<std::string> interned_;
};

// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Arg(const char* key, double value) { tracer_.Arg(id_, key, value); }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace dxbench

#endif  // DX_BENCH_E2E_TRACE_H_
