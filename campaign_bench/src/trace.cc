#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace campaign {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t ThreadTrace::Open(const char* name, int64_t ordinal) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.ordinal = ordinal;
  span.start_ns = NowNs();
  spans_.push_back(span);
  open_.push_back(static_cast<int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void ThreadTrace::Close(size_t index) {
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == static_cast<int32_t>(index)) {
    open_.pop_back();
  }
}

ThreadTrace* Tracer::NewThread(const std::string& role) {
  std::lock_guard<std::mutex> lock(mutex_);
  threads_.push_back(std::make_unique<ThreadTrace>(role));
  return threads_.back().get();
}

double LayerTotals::MinCoverage() const {
  double lowest = 1.0;
  for (const Coverage& reporter : reporters) {
    if (reporter.wall_ns == 0) continue;
    lowest = std::min(lowest, static_cast<double>(reporter.covered_ns) /
                                  static_cast<double>(reporter.wall_ns));
  }
  return lowest;
}

void Tracer::FoldInto(LayerTotals* totals) const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t reporter = 0;
  for (const auto& thread : threads_) {
    const std::vector<Span>& spans = thread->spans();
    std::vector<uint64_t> child_ns(spans.size(), 0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    uint64_t covered_ns = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const uint64_t total = spans[i].end_ns - spans[i].start_ns;
      const uint64_t self = total - std::min(total, child_ns[i]);
      totals->self_ns[spans[i].name] += self;
      covered_ns += self;
    }
    if (thread->role() == "reporter") {
      if (totals->reporters.size() <= reporter) {
        totals->reporters.resize(reporter + 1);
      }
      LayerTotals::Coverage& coverage = totals->reporters[reporter++];
      coverage.covered_ns += covered_ns;
      coverage.wall_ns += thread->end_ns() - thread->begin_ns();
    }
  }
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t origin = UINT64_MAX;
  for (const auto& thread : threads_) {
    for (const Span& span : thread->spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t t = 0; t < threads_.size(); ++t) {
    for (const Span& span : threads_[t]->spans()) {
      std::fprintf(out,
                   "{\"thread\": %zu, \"role\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %d, "
                   "\"ordinal\": %lld}\n",
                   t, threads_[t]->role().c_str(), span.name,
                   static_cast<unsigned long long>(span.start_ns - origin),
                   static_cast<unsigned long long>(span.end_ns - origin),
                   span.parent, static_cast<long long>(span.ordinal));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace campaign
