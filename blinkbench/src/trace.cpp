#include "trace.h"

#include <cstdio>
#include <cstring>

namespace blinkbench {

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

int Tracer::open(const char* name) {
  SpanRecord span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = current_;
  span.op = op_;
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int index) {
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;
}

std::map<std::string, LayerTotals> Tracer::totals(bool inside_op) const {
  // Children nest strictly inside their parent on the single client thread
  // and follow it in the list, so one pass sums child time and op nesting.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  std::vector<char> in_op(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    const auto parent = static_cast<std::size_t>(span.parent);
    in_op[i] = std::strcmp(span.name, "op") == 0 ||
               (span.parent >= 0 && in_op[parent] != 0);
    if (span.parent >= 0 && span.end_ns > 0) {
      child_ns[parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.end_ns == 0 || (inside_op && in_op[i] == 0)) continue;
    LayerTotals& t = out[span.name];
    const double busy = static_cast<double>(span.end_ns - span.start_ns);
    t.busy_ms += busy * 1e-6;
    t.self_ms += (busy - static_cast<double>(child_ns[i])) * 1e-6;
    ++t.count;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%d,\"op\":%lld}\n",
                 i, s.name, static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - t0) * 1e-3, s.parent,
                 static_cast<long long>(s.op));
  }
  return std::fclose(f) == 0;
}

}  // namespace blinkbench
