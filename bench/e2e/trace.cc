#include "bench/e2e/trace.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace dxbench {
namespace {

// Spans nest at most a few levels deep in the benchmark.
constexpr size_t kMaxDepth = 32;

void WriteEscaped(std::FILE* out, const char* s) {
  std::fputc('"', out);
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') {
      std::fputc('\\', out);
    }
    std::fputc(*s, out);
  }
  std::fputc('"', out);
}

}  // namespace

Tracer::Tracer(bool enabled, size_t capacity)
    : enabled_(enabled),
      capacity_(enabled ? capacity : 0),
      // Default-initialized: the pages are touched only as spans land.
      spans_(enabled ? new Span[capacity] : nullptr),
      origin_(std::chrono::steady_clock::now()) {
  open_.reserve(kMaxDepth);
}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  if (next_ >= capacity_) {
    ++dropped_;
    return -1;
  }
  const int slot = static_cast<int>(next_++);
  Span& span = spans_[static_cast<size_t>(slot)];
  span.name = name;
  span.end_ns = -1;
  span.parent = open_.empty() ? -1 : open_.back();
  span.nargs = 0;
  open_.push_back(slot);
  span.start_ns = NowNs();
  return slot;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

void Tracer::Arg(int id, const char* key, double value) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  if (span.nargs < kMaxArgs) {
    span.arg_keys[span.nargs] = key;
    span.arg_values[span.nargs] = value;
    ++span.nargs;
  }
}

const char* Tracer::Intern(const std::string& name) {
  for (const std::string& s : interned_) {
    if (s == name) {
      return s.c_str();
    }
  }
  interned_.push_back(name);
  return interned_.back().c_str();
}

std::map<std::string, Tracer::NameStats> Tracer::Stats() const {
  const size_t n = size();
  std::vector<double> child_s(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (span.end_ns >= 0 && span.parent >= 0) {
      child_s[static_cast<size_t>(span.parent)] += (span.end_ns - span.start_ns) * 1e-9;
    }
  }
  std::map<std::string, NameStats> stats;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) {
      continue;
    }
    const double dur = (span.end_ns - span.start_ns) * 1e-9;
    NameStats& s = stats[span.name];
    ++s.count;
    s.total_s += dur;
    s.self_s += dur - child_s[i];
  }
  return stats;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", out);
  bool first = true;
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) {
      continue;
    }
    std::fputs(first ? "\n" : ",\n", out);
    first = false;
    std::fputs("{\"name\":", out);
    WriteEscaped(out, span.name);
    // Category = the layer, i.e. the name up to its first dot.
    std::string cat(span.name);
    cat = cat.substr(0, cat.find('.'));
    std::fputs(",\"cat\":", out);
    WriteEscaped(out, cat.c_str());
    std::fprintf(out, ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                 span.start_ns * 1e-3, (span.end_ns - span.start_ns) * 1e-3);
    std::fputs("\"parent\":", out);
    WriteEscaped(out, span.parent >= 0 ? spans_[static_cast<size_t>(span.parent)].name : "");
    for (int a = 0; a < span.nargs; ++a) {
      std::fputc(',', out);
      WriteEscaped(out, span.arg_keys[a]);
      const double v = span.arg_values[a];
      std::fprintf(out, ":%.9g", std::isfinite(v) ? v : 0.0);
    }
    std::fputs("}}", out);
  }
  std::fprintf(out, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n", dropped());
  const bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

}  // namespace dxbench
