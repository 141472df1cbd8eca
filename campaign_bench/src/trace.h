// In-memory span recorder for the campaign benchmark's traced mode.
//
// Every thread that does benchmark work (a reporter thread, the campaign
// coordinator) owns one ThreadTrace and appends spans to it without
// locking. A span carries its name, start and end on the steady clock, the
// index of its parent span on the same thread (-1 at top level) and the
// reporter ordinal it served (-1 when none). Nothing is written while a
// campaign runs; the spans are folded into per-layer totals after it and
// written out as JSON lines at exit.
//
// A null ThreadTrace turns every ScopedSpan into a no-op without clock
// reads, which is how the untraced runs measure end-to-end metrics.

#ifndef CAMPAIGN_BENCH_TRACE_H_
#define CAMPAIGN_BENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace campaign {

/// Nanoseconds on the steady clock.
uint64_t NowNs();

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  int64_t ordinal = -1;
};

/// One thread's spans, appended only by that thread.
class ThreadTrace {
 public:
  explicit ThreadTrace(std::string role) : role_(std::move(role)) {}

  /// Marks the thread's wall-clock bounds (coverage denominator).
  void BeginThread() { begin_ns_ = NowNs(); }
  void EndThread() { end_ns_ = NowNs(); }

  /// Opens a span nested in the innermost open one; returns its index.
  size_t Open(const char* name, int64_t ordinal);
  void Close(size_t index);

  const std::string& role() const { return role_; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t begin_ns() const { return begin_ns_; }
  uint64_t end_ns() const { return end_ns_; }

 private:
  std::string role_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t begin_ns_ = 0;
  uint64_t end_ns_ = 0;
};

/// RAII span; a no-op when `trace` is null.
class ScopedSpan {
 public:
  ScopedSpan(ThreadTrace* trace, const char* name, int64_t ordinal = -1)
      : trace_(trace), index_(trace ? trace->Open(name, ordinal) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadTrace* trace_;
  size_t index_;
};

/// Per-name self time, summed over folded campaigns.
struct LayerTotals {
  std::map<std::string, uint64_t> self_ns;
  /// Per reporter thread (the campaign's i-th, so one connection's), its
  /// spans' self time and its wall time, summed over folded campaigns: a
  /// thread of a short campaign descheduled once between two spans would
  /// otherwise decide the coverage alone.
  struct Coverage {
    uint64_t covered_ns = 0;
    uint64_t wall_ns = 0;
  };
  std::vector<Coverage> reporters;

  /// Lowest share of a reporter thread's wall time covered by its spans'
  /// self time (1 when none).
  double MinCoverage() const;
};

/// The threads of one campaign.
class Tracer {
 public:
  /// A new thread log; the pointer stays valid for the tracer's lifetime.
  ThreadTrace* NewThread(const std::string& role);

  /// Adds this campaign's self times and reporter coverage to `totals`.
  /// Reporter threads are those whose role is "reporter".
  void FoldInto(LayerTotals* totals) const;

  /// Writes one JSON object per span: thread, role, name, start/end (ns
  /// from the earliest span), parent index and ordinal.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

}  // namespace campaign

#endif  // CAMPAIGN_BENCH_TRACE_H_
