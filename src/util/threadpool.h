// A small fixed-size thread pool with a ParallelFor helper. Used by the
// simulation harnesses to perturb large user populations concurrently; each
// chunk receives its own forked Rng so results stay deterministic for a fixed
// seed and thread count.
//
// Besides the plain FIFO queue, the pool offers keyed *serial queues*
// (SubmitSerial / WaitSerial): tasks sharing a key run one at a time in
// submission order, while tasks under different keys run concurrently. This
// is the primitive behind concurrent intra-epoch shard ingestion — each open
// shard of an api::ServerSession is a serial queue keyed by its shard id, so
// per-shard byte order (and therefore the decoded stream) is preserved no
// matter how many workers the pool runs.

#ifndef LDP_UTIL_THREADPOOL_H_
#define LDP_UTIL_THREADPOOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace ldp {

/// Fixed-size worker pool executing submitted closures FIFO.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(unsigned num_threads)
      : ThreadPool(num_threads, obs::PoolMetrics()) {}

  /// Instrumented pool: `metrics` (obs/metrics.h) tracks queue depth, task
  /// count, and task service time. Submitted closures are wrapped with the
  /// timing probe at submit time, so an un-instrumented pool pays nothing.
  ThreadPool(unsigned num_threads, const obs::PoolMetrics& metrics);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Enqueues a task on the serial queue `key`: tasks under one key execute
  /// one at a time in submission order (FIFO), tasks under different keys
  /// execute concurrently. A serial queue occupies at most one worker at a
  /// time, so long-running queues cannot starve each other as long as keys
  /// do not outnumber workers.
  void SubmitSerial(uint64_t key, std::function<void()> task);

  /// Blocks until every task submitted on serial queue `key` has finished.
  /// Returns immediately for keys that were never used. New SubmitSerial
  /// calls on `key` from other threads during the wait postpone the return.
  void WaitSerial(uint64_t key);

  /// Blocks until every submitted task has finished (serial queues
  /// included).
  void Wait();

  /// Number of worker threads.
  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()); }

 private:
  /// Wraps `task` with the queue-depth decrement and service-time probe
  /// (identity when the pool is un-instrumented). Applied to user tasks
  /// only — serial-queue drainers are bookkeeping, not work.
  std::function<void()> Instrument(std::function<void()> task);

  /// Runs serial queue `key` until it is momentarily empty. Executes on a
  /// worker; at most one drainer per key is ever in flight.
  void DrainSerial(uint64_t key);

  void WorkerLoop();

  /// One keyed serial queue: its pending tasks, and whether a drainer task
  /// is currently claiming a worker for it.
  struct SerialQueue {
    std::queue<std::function<void()>> pending;
    bool running = false;
  };

  obs::PoolMetrics metrics_;
  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::unordered_map<uint64_t, SerialQueue> serial_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::condition_variable serial_done_;
  uint64_t in_flight_ = 0;
  bool shutting_down_ = false;
};

/// A half-open index range [begin, end).
struct IndexRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits [0, n) into at most `max_chunks` contiguous, roughly equal,
/// non-empty ranges in ascending order. This is the canonical chunking used
/// by ParallelFor and by the stream sharding tools.
std::vector<IndexRange> SplitRange(uint64_t n, uint64_t max_chunks);

/// The number of chunks ParallelFor will use for `n` items on `pool` (1 for
/// a null or single-threaded pool).
uint64_t ParallelForChunkCount(const ThreadPool* pool, uint64_t n);

/// Splits [0, n) into SplitRange(n, ParallelForChunkCount(...)) chunks and
/// runs `body(chunk_index, begin, end)` across `pool`'s workers, blocking
/// until all chunks finish. With a null pool the body runs inline (single
/// chunk). Chunk indices are dense: 0 .. ParallelForChunkCount(...)-1.
void ParallelFor(ThreadPool* pool, uint64_t n,
                 const std::function<void(unsigned, uint64_t, uint64_t)>& body);

}  // namespace ldp

#endif  // LDP_UTIL_THREADPOOL_H_
