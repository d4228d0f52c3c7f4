// In-memory span recorder for the benchmark's traced run.
//
// The benchmark times calls into each library layer from the outside: a
// Scope opened around a public call records one span (name, start, end,
// parent span, op id). Spans stay in memory and are written once, at exit.
// With tracing off a Scope costs one branch, so the untraced run and the
// untraced rounds of a traced run execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace blinkbench {

struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;     // index into the span list, -1 for a top-level span
  std::int64_t op = -1;  // the op (request, step, job) this span belongs to
};

// Busy time, self time and count of one span name.
struct LayerTotals {
  double busy_ms = 0.0;  // summed span durations
  double self_ms = 0.0;  // busy time minus the time child spans cover
  std::int64_t count = 0;
};

class Tracer {
 public:
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  // Op id attached to spans opened from now on.
  void set_op(std::int64_t op) { op_ = op; }

  int open(const char* name);
  void close(int index);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  // Per span name: busy, self and count. Spans still open are skipped.
  // With |inside_op|, only spans named "op" and the spans nested in them.
  std::map<std::string, LayerTotals> totals(bool inside_op = false) const;
  // Writes every span as JSON lines; returns false when the file cannot be
  // written.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int64_t op_ = -1;
  int current_ = -1;
  std::vector<SpanRecord> spans_;
};

// The process-wide tracer; the benchmark is single-client, so spans are only
// ever opened from the client thread.
Tracer& tracer();

// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(const char* name)
      : index_(tracer().enabled() ? tracer().open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

}  // namespace blinkbench
