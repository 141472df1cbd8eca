// Dependency-free telemetry primitives for the collection pipeline: a
// registry of named, labeled counters, gauges, and log2 latency histograms.
//
// Design constraints, in order of importance:
//
//  1. The ingest hot path (stream::ShardIngester::Feed) is zero-allocation
//     and must stay that way with telemetry enabled. Every mutation here is
//     allocation-free: Counter::Add is one relaxed fetch_add on a
//     thread-local shard, Histogram::Observe is two relaxed fetch_adds,
//     Gauge updates are single atomic stores or CAS loops. Allocation and
//     locking happen only at registration time (get-or-create) and at
//     exposition time (snapshot) — both off the data path.
//
//  2. Telemetry must never perturb results. Nothing in this file feeds back
//     into aggregation; instrumented layers only *write* metrics, so
//     snapshots and estimates are bit-identical with telemetry on or off
//     (proven by ObsServer.SnapshotBitIdenticalWithTelemetry).
//
//  3. Counters are per-thread-sharded across cache-line-padded atomic slots
//     so concurrent writers (pool workers, acceptor threads) never contend
//     on one cache line. Reads sum the shards; totals are exact because
//     every increment lands in exactly one slot.
//
// The registry hands out stable pointers: instrumented layers resolve their
// handles once (cold path, mutex) and thereafter mutate through raw
// pointers with no registry involvement.

#ifndef LDP_OBS_METRICS_H_
#define LDP_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ldp::obs {

/// Nanoseconds on the monotonic clock (latency measurement).
uint64_t SteadyNowNs();

/// Nanoseconds since the Unix epoch on the wall clock (event stamping).
int64_t WallNowNs();

/// Monotonically increasing exact counter, per-thread-sharded. Writers pay
/// one relaxed fetch_add on a cache-line-private slot; Value() sums the
/// slots. Sharding trades a slightly stale cross-shard read (fine for
/// exposition) for a contention-free write path.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    shards_[ThreadShard()].value.fetch_add(delta, std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr unsigned kShards = 16;

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Round-robin slot assignment, fixed per thread for its lifetime.
  static unsigned ThreadShard();

  Shard shards_[kShards];
};

/// A double-valued instantaneous measurement (queue depth, pending bytes,
/// epsilon spent). Set() is a relaxed store; Add() is a CAS loop — gauge
/// updates happen at chunk/control-plane granularity, never per report.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double value);
  void Add(double delta);
  double Value() const;

 private:
  std::atomic<uint64_t> bits_{0};  // bit pattern of the double
};

/// Fixed-bucket log2 latency histogram. Bucket 0 holds the value 0; bucket
/// b in [1, kBuckets-2] holds values in [2^(b-1), 2^b); the last bucket is
/// the overflow. With microsecond observations the covered range tops out
/// above 2^37 us ≈ 38 hours. Observe() is two relaxed fetch_adds — no
/// allocation, no locking, safe on the hot path.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 40;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Index of the bucket `value` falls into.
  static unsigned BucketIndex(uint64_t value);

  /// Inclusive upper bound of bucket `b` (`le` in Prometheus terms); the
  /// last bucket returns UINT64_MAX (+Inf).
  static uint64_t UpperBound(unsigned b);

  uint64_t Count() const;
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(unsigned b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (q in [0,1]) by linear interpolation inside the
  /// log2 bucket holding the rank. Returns 0 for an empty histogram.
  double Quantile(double q) const;

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> sum_{0};
};

/// Sorted (key, value) label pairs; part of a metric's identity.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricType { kCounter, kGauge, kHistogram };

/// One exposition row: the frozen state of a metric at snapshot time.
struct MetricSample {
  std::string name;
  LabelSet labels;
  MetricType type = MetricType::kCounter;
  uint64_t counter = 0;                 // kCounter
  double gauge = 0.0;                   // kGauge
  uint64_t count = 0;                   // kHistogram
  uint64_t sum = 0;                     // kHistogram
  std::vector<uint64_t> buckets;        // kHistogram, kBuckets entries
};

/// Named metric store. Get-or-create takes a mutex (cold path only); the
/// returned pointers are stable for the registry's lifetime, so every
/// subsequent mutation is lock-free. Identity is (name, sorted labels);
/// requesting an existing name with a different type aborts (programmer
/// error). Snapshot order is deterministic: sorted by name, then labels.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name, const LabelSet& labels = {});
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {});
  Histogram* GetHistogram(const std::string& name,
                          const LabelSet& labels = {});

  /// Frozen, deterministically ordered view of every registered metric.
  std::vector<MetricSample> Snapshot() const;

 private:
  struct Entry {
    MetricType type = MetricType::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* GetOrCreate(const std::string& name, const LabelSet& labels,
                     MetricType type);

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, LabelSet>, Entry> entries_;
};

// ---------------------------------------------------------------------------
// Per-layer handle bundles.
//
// Instrumented layers carry one of these structs (all-null by default =
// telemetry off; every update site is guarded by a null check on its
// handle). ForRegistry resolves the bundle against a registry and is the
// single place the metric-name vocabulary lives — README's "Observability"
// section documents exactly these names.

/// stream::ShardIngester — one shared bundle for every shard of a session;
/// the ingester flushes stat deltas once per Feed/Finish call, so the
/// per-frame accept loop touches no atomics at all.
struct IngestMetrics {
  Counter* bytes = nullptr;     ///< ldp_ingest_bytes_total
  Counter* frames = nullptr;    ///< ldp_ingest_frames_total
  Counter* accepted = nullptr;  ///< ldp_ingest_reports_accepted_total
  Counter* rejected = nullptr;  ///< ldp_ingest_reports_rejected_total
  bool enabled() const { return bytes != nullptr; }
  static IngestMetrics ForRegistry(MetricsRegistry* registry);
};

/// api::ServerSession — shard lifecycle, backpressure, budget accounting.
struct SessionMetrics {
  Counter* shards_opened = nullptr;     ///< ldp_session_shards_opened_total
  Counter* shards_closed = nullptr;     ///< ldp_session_shards_closed_total
  Counter* shards_abandoned = nullptr;  ///< ldp_session_shards_abandoned_total
  Counter* epochs_opened = nullptr;     ///< ldp_session_epochs_opened_total
  Counter* budget_refusals = nullptr;   ///< ldp_session_budget_refusals_total
  Gauge* pending_feed_bytes = nullptr;  ///< ldp_session_pending_feed_bytes
  Gauge* epsilon_spent = nullptr;       ///< ldp_session_epsilon_spent
  Histogram* backpressure_wait_us = nullptr;
  ///< ldp_session_backpressure_wait_us
  Histogram* close_wait_us = nullptr;   ///< ldp_session_close_wait_us
  bool enabled() const { return shards_opened != nullptr; }
  static SessionMetrics ForRegistry(MetricsRegistry* registry);
};

/// relay::RelayForwarder — upstream snapshot shipping.
struct RelayMetrics {
  Counter* snapshots_forwarded = nullptr;
  ///< ldp_relay_snapshots_forwarded_total
  Counter* forward_failures = nullptr;
  ///< ldp_relay_forward_failures_total
  Counter* reconnects = nullptr;  ///< ldp_relay_upstream_reconnects_total
  Counter* bytes_forwarded = nullptr;  ///< ldp_relay_bytes_forwarded_total
  Histogram* forward_us = nullptr;     ///< ldp_relay_forward_us
  bool enabled() const { return snapshots_forwarded != nullptr; }
  static RelayMetrics ForRegistry(MetricsRegistry* registry);
};

/// relay::FrameWal — write-ahead frame log appends and crash replay.
struct WalMetrics {
  Counter* records = nullptr;          ///< ldp_wal_records_total
  Counter* bytes = nullptr;            ///< ldp_wal_bytes_total
  Counter* replayed_frames = nullptr;  ///< ldp_wal_replayed_frames_total
  Counter* replayed_bytes = nullptr;   ///< ldp_wal_replayed_bytes_total
  Counter* replayed_shards = nullptr;  ///< ldp_wal_replayed_shards_total
  Counter* resumed_shards = nullptr;   ///< ldp_wal_resumed_shards_total
  Counter* torn_tails = nullptr;       ///< ldp_wal_torn_tails_total
  Counter* corrupt_shards = nullptr;   ///< ldp_wal_corrupt_shards_total
  Histogram* append_us = nullptr;      ///< ldp_wal_append_us
  bool enabled() const { return records != nullptr; }
  static WalMetrics ForRegistry(MetricsRegistry* registry);
};

/// net::ReportServer — connection lifecycle and wire latency.
struct NetServerMetrics {
  Counter* connections = nullptr;      ///< ldp_net_connections_total
  Counter* hello_accepted = nullptr;   ///< ldp_net_hello_accepted_total
  Counter* hello_refused = nullptr;    ///< ldp_net_hello_refused_total
  Counter* hello_unauthenticated = nullptr;
  ///< ldp_net_hello_unauthenticated_total
  Counter* data_messages = nullptr;    ///< ldp_net_data_messages_total
  Counter* slow_loris_reaped = nullptr;
  ///< ldp_net_slow_loris_reaped_total
  Counter* protocol_errors = nullptr;  ///< ldp_net_protocol_errors_total
  Counter* shards_merged = nullptr;    ///< ldp_net_shards_merged_total
  Counter* shards_discarded = nullptr;
  ///< ldp_net_shards_discarded_total
  Counter* shards_abandoned = nullptr;
  ///< ldp_net_shards_abandoned_total
  Counter* snapshots_accepted = nullptr;
  ///< ldp_net_snapshots_accepted_total
  Counter* snapshots_stale = nullptr;
  ///< ldp_net_snapshots_stale_total
  Counter* snapshots_refused = nullptr;
  ///< ldp_net_snapshots_refused_total
  Histogram* data_read_us = nullptr;   ///< ldp_net_data_read_us
  Histogram* merge_barrier_wait_us = nullptr;
  ///< ldp_net_merge_barrier_wait_us: a CLOSE_SHARD's wait in the close
  ///< queue, from Submit to the start of its close
  bool enabled() const { return connections != nullptr; }
  static NetServerMetrics ForRegistry(MetricsRegistry* registry);
};

/// util::ThreadPool — queue depth and task service time.
struct PoolMetrics {
  Gauge* queue_depth = nullptr;   ///< ldp_pool_queue_depth
  Counter* tasks = nullptr;       ///< ldp_pool_tasks_total
  Histogram* task_us = nullptr;   ///< ldp_pool_task_us
  bool enabled() const { return tasks != nullptr; }
  static PoolMetrics ForRegistry(MetricsRegistry* registry);
};

}  // namespace ldp::obs

#endif  // LDP_OBS_METRICS_H_
