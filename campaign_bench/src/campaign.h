// One collection campaign of the paper's deployment, run in process through
// the library's public API: census rows (pre-encoded, or read live from CSV
// slices) go through net::CollectorClient into a net::ReportServer over a
// Unix-domain socket, into an api::ServerSession (optionally journalled by
// relay::FrameWal, optionally relayed to a root collector by
// relay::RelayForwarder), and end at Estimate. See NOTES.md for why each
// workload exists and which layer each metric reads.

#ifndef CAMPAIGN_BENCH_CAMPAIGN_H_
#define CAMPAIGN_BENCH_CAMPAIGN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/schema.h"
#include "obs/metrics.h"
#include "trace.h"
#include "util/result.h"
#include "util/threadpool.h"

namespace campaign {

enum class Workload { kBulkWal, kFleet10k, kLiveRelay };

const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);

/// Campaign size. `reporters` shards with ordinals 0..reporters-1, each
/// `reports_per_reporter` users; the load generator serves them from
/// `connections` threads, one connection each.
struct Scale {
  size_t reporters = 0;
  uint64_t reports_per_reporter = 0;
  size_t connections = 0;
  /// Closes a connection may leave awaiting their verdict before it waits
  /// for the oldest (0 = wait for each verdict before the next shard).
  size_t close_window = 0;
  /// Every close_sample_every-th shard of a connection awaits its own
  /// verdict right after CloseShardBegin, and only those shards are close
  /// latency samples: a verdict left in the window is read late, so its
  /// wait would measure the window, not the close.
  size_t close_sample_every = 1;
};

/// The full-size campaign of each workload.
Scale DefaultScale(Workload workload);

/// A few reporters and reports: the corrupted-shard self-check.
Scale TinyScale(Workload workload);

/// Everything a campaign consumes, built once per process by Setup and
/// reused by every campaign of the run.
struct Inputs {
  Inputs(Workload workload_in, Scale scale_in, ldp::data::Schema schema_in,
         ldp::api::Pipeline pipeline_in)
      : workload(workload_in),
        scale(scale_in),
        schema(std::move(schema_in)),
        pipeline(std::move(pipeline_in)) {}

  Workload workload;
  Scale scale;
  ldp::data::Schema schema;
  ldp::api::Pipeline pipeline;
  /// Master seed of the per-user randomness: api::UserRng(user_seed, row).
  uint64_t user_seed = 0;
  /// Global row range of each reporter ordinal (SplitRange boundaries).
  std::vector<ldp::IndexRange> rows;
  /// Frame bytes (no stream header) of each ordinal's shard, encoded from
  /// the generated rows. Bulk and fleet reporters send these pooled bytes;
  /// for live_relay they are only the reference the live encode must match.
  std::vector<std::string> shards;
  /// live_relay: each ordinal's CSV slice, relative to the run directory.
  std::vector<std::string> csv_paths;
  /// Workloads without a WAL: each ordinal's report stream file (header and
  /// the pooled frames), as `ldp_report --out` writes it; recovery ingests
  /// these the way `ldp_aggregate` does.
  std::vector<std::string> stream_paths;
  uint64_t total_reports = 0;
  /// The reference: session snapshot and estimates of the same bytes fed to
  /// a synchronous ServerSession in ordinal order (folded into a root
  /// session for live_relay), as a file-based ldp_aggregate run computes
  /// them.
  std::string reference_snapshot;
  ldp::api::PipelineEstimates reference_estimates;
};

/// Generates the census rows from `seed`, encodes the pooled shards and
/// writes under `dir` the CSV slices (live_relay) and the report stream
/// files (workloads without a WAL). Does not compute the reference (see
/// ComputeReference).
ldp::Result<std::unique_ptr<Inputs>> Setup(Workload workload,
                                           const Scale& scale, uint64_t seed,
                                           const std::string& dir);

/// Builds the reference; fills the reference fields.
ldp::Status ComputeReference(Inputs* inputs);

/// Returns freed memory to the OS and restarts the process's peak resident
/// memory (VmHWM) count. Returns the resident memory it restarts from, in
/// KiB.
double ResetPeakRss();

struct CampaignOptions {
  /// Telemetry and spans; both null for the untraced end-to-end runs.
  ldp::obs::MetricsRegistry* registry = nullptr;
  Tracer* tracer = nullptr;
  /// Self-check: flip one byte in this ordinal's stream (-1 = none).
  int64_t corrupt_ordinal = -1;
  /// Unique per campaign: names its sockets and WAL directory.
  std::string tag;
};

struct CampaignResult {
  /// First connect to estimates in hand.
  double wall_s = 0.0;
  /// Process CPU time (all threads) over the same window.
  double cpu_s = 0.0;
  /// The process's peak resident memory (VmHWM) at the end of the timed
  /// window, in KiB.
  double peak_rss_kib = 0.0;
  uint64_t reports_accepted = 0;
  std::vector<double> admit_us;  ///< HELLO -> HELLO_OK per shard.
  /// CloseShardBegin -> verdict of the sampled shards (see
  /// Scale::close_sample_every).
  std::vector<double> close_ms;
  /// Last verdict to estimates returned.
  double result_lag_ms = 0.0;
  /// Reports per second rebuilding the final state from disk, one sample
  /// per recovery: ReplayWalDir + Estimate over the edge's WAL (bulk_wal),
  /// ServerSession::IngestInputs + Estimate over the reporters' stream
  /// files otherwise (plus the root merge on live_relay).
  std::vector<double> recover_per_s;
  /// Operations attempted (HELLOs + shards + reports) and failed (refused
  /// HELLOs, abandoned or discarded shards, rejected or lost reports, and
  /// correctness-gate mismatches).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool gate_ok = false;
  std::string gate_error;

  // --- traced campaigns only -------------------------------------------
  double snapshot_ms = 0.0;     ///< Final session Snapshot().
  double estimate_ms = 0.0;     ///< Final session Estimate().
  double drain_ms = 0.0;        ///< Stop(drain) of every tier.
  double fold_ms = 0.0;         ///< Root FoldRelaySnapshots (live_relay).
  /// The synchronous re-feed of the traced campaign: Feed + CloseShard
  /// time, and reports fed.
  double decode_fold_s = 0.0;
  uint64_t decode_fold_reports = 0;
  double replay_s = 0.0;        ///< ReplayWalDir alone (bulk_wal).
  uint64_t replay_bytes = 0;    ///< WAL payload bytes replayed.
  uint64_t bytes_sent = 0;      ///< Frame bytes the reporters sent.
  double queue_depth_sum = 0.0;  ///< Pool queue depth sampled at each Send.
  uint64_t queue_depth_samples = 0;
  uint64_t rows_read = 0;       ///< live_relay CSV rows.
};

CampaignResult RunCampaign(const Inputs& inputs,
                           const CampaignOptions& options);

}  // namespace campaign

#endif  // CAMPAIGN_BENCH_CAMPAIGN_H_
