#include "api/server_session.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "core/wire.h"
#include "obs/journal.h"
#include "stream/snapshot.h"
#include "util/check.h"

namespace ldp::api {

namespace {

using internal_api::PipelineState;
using internal_wire::PutF64;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU64;
using internal_wire::PutU8;
using internal_wire::Reader;

// Matches core/accountant.cc kSlack: absorbs floating-point drift when the
// plan spends exactly the lifetime budget.
constexpr double kBudgetSlack = 1e-12;

// Distinct reporter ids that get their own labeled metric series before new
// ids collapse into {reporter="_other"} — keeps a campaign with millions of
// reporters from exploding the exposition.
constexpr size_t kMaxLabeledReporters = 8;

// Exposition-safe label value: reporter ids are opaque bytes, label values
// must stay printable.
std::string SanitizeReporterLabel(const std::string& reporter_id) {
  std::string label = reporter_id;
  for (char& c : label) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                      c == '-';
    if (!safe) c = '_';
  }
  return label;
}

// Parses and validates the fixed-size session preamble, leaving `reader`
// positioned at the first epoch section.
Result<SessionSnapshotConfig> ReadSessionPreamble(Reader* reader) {
  uint32_t magic = 0;
  LDP_ASSIGN_OR_RETURN(magic, reader->U32());
  if (magic != kSessionSnapshotMagic) {
    return Status::InvalidArgument("not a session snapshot (bad magic)");
  }
  uint16_t version = 0;
  LDP_ASSIGN_OR_RETURN(version, reader->U16());
  if (version != kSessionSnapshotVersion) {
    return Status::InvalidArgument("unsupported session snapshot version " +
                                   std::to_string(version));
  }
  uint8_t kind = 0, mechanism = 0, oracle = 0;
  LDP_ASSIGN_OR_RETURN(kind, reader->U8());
  LDP_ASSIGN_OR_RETURN(mechanism, reader->U8());
  LDP_ASSIGN_OR_RETURN(oracle, reader->U8());
  if (kind != 0) {
    return Status::InvalidArgument(
        "unsupported stream kind in session snapshot");
  }
  if (mechanism > static_cast<uint8_t>(MechanismKind::kHybrid)) {
    return Status::InvalidArgument(
        "unknown mechanism kind in session snapshot");
  }
  if (oracle > static_cast<uint8_t>(FrequencyOracleKind::kThe)) {
    return Status::InvalidArgument("unknown oracle kind in session snapshot");
  }
  SessionSnapshotConfig config;
  config.mechanism = static_cast<MechanismKind>(mechanism);
  config.oracle = static_cast<FrequencyOracleKind>(oracle);
  LDP_ASSIGN_OR_RETURN(config.schema_hash, reader->U64());
  LDP_ASSIGN_OR_RETURN(config.epsilon, reader->F64());
  LDP_ASSIGN_OR_RETURN(config.epochs, reader->U32());
  if (config.epochs == 0) {
    return Status::InvalidArgument("session snapshot carries no epochs");
  }
  return config;
}

// Sums the num_reports fields of a session snapshot's epoch sections by
// reading only their preambles (stats display; the actual merge
// re-validates everything).
uint64_t SessionSnapshotReportCount(const std::string& bytes) {
  Reader reader(bytes.data(), bytes.size());
  Result<SessionSnapshotConfig> preamble = ReadSessionPreamble(&reader);
  if (!preamble.ok()) return 0;
  uint64_t total = 0;
  for (uint32_t e = 0; e < preamble.value().epochs; ++e) {
    const Result<uint64_t> size = reader.U64();
    if (!size.ok()) return total;
    const char* inner = reader.TakeBytes(size.value());
    if (inner == nullptr) return total;
    const Result<stream::SnapshotConfig> config =
        stream::DecodeSnapshotConfig(std::string_view(inner, size.value()));
    if (config.ok()) total += config.value().num_reports;
  }
  return total;
}

// One IngestInputs input after its load: a report stream's aggregate, or a
// session snapshot's bytes (merged epoch by epoch), or the reason it
// failed.
struct LoadedInput {
  Status status = Status::OK();
  stream::ShardIngester::Stats stats;
  std::optional<MixedAggregator> aggregate;
  std::string session_bytes;
};

// Opens `path` once and loads it by its magic. Runs on a pool worker, so it
// touches no session state.
LoadedInput LoadInput(const MixedTupleCollector* collector,
                      const std::string& path,
                      const stream::ShardIngester::Options& options) {
  LoadedInput input;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    input.status = Status::IoError("cannot open input file");
    return input;
  }
  char magic_bytes[4] = {0, 0, 0, 0};
  in.read(magic_bytes, 4);
  if (in.gcount() != 4) {
    input.status = Status::InvalidArgument("input shorter than a magic");
    return input;
  }
  const uint32_t magic = internal_wire::LoadLittleEndian<uint32_t>(magic_bytes);
  if (magic == stream::kStreamMagic) {
    stream::ShardIngester ingester(collector, options);
    input.status = ingester.Feed(magic_bytes, 4);
    if (input.status.ok()) input.status = ingester.IngestStream(in);
    input.stats = ingester.stats();
    if (input.status.ok()) input.aggregate = ingester.ReleaseAggregator();
  } else if (magic == kSessionSnapshotMagic) {
    std::ostringstream contents;
    contents.write(magic_bytes, 4);
    contents << in.rdbuf();
    if (in.bad()) {
      input.status = Status::IoError("read error on input file");
      return input;
    }
    input.session_bytes = contents.str();
    input.stats.bytes = input.session_bytes.size();
    input.stats.accepted = SessionSnapshotReportCount(input.session_bytes);
  } else {
    input.status = Status::InvalidArgument(
        "input is neither a report stream nor a session snapshot");
  }
  return input;
}

}  // namespace

Result<SessionSnapshotConfig> DecodeSessionSnapshotConfig(
    const std::string& bytes) {
  Reader reader(bytes.data(), bytes.size());
  return ReadSessionPreamble(&reader);
}

Status CheckSessionSnapshotCompatible(const SessionSnapshotConfig& config,
                                      const stream::StreamHeader& expected) {
  if (config.mechanism != expected.mechanism ||
      config.oracle != expected.oracle) {
    return Status::FailedPrecondition(
        "session snapshot mechanism/oracle kinds do not match the protocol");
  }
  if (config.schema_hash != expected.schema_hash) {
    return Status::FailedPrecondition(
        "session snapshot schema hash does not match the protocol");
  }
  if (config.epsilon != expected.epsilon) {
    return Status::FailedPrecondition(
        "session snapshot epsilon does not match the protocol");
  }
  return Status::OK();
}

Result<ServerSession> Pipeline::NewServer() const {
  return NewServer(ServerSessionOptions());
}

Result<ServerSession> Pipeline::NewServer(ServerSessionOptions options) const {
  if (state_->config.baseline.has_value()) {
    return Status::FailedPrecondition(
        "baseline pipelines are simulation-only and have no wire sessions");
  }
  LDP_RETURN_IF_ERROR(CheckWireEncodable(*state_->collector));
  Result<PrivacyAccountant> accountant =
      PrivacyAccountant::Create(state_->lifetime_budget);
  if (!accountant.ok()) return accountant.status();
  // Opening a session opens epoch 0: its budget is committed to the
  // population (the anonymous plan ledger) up front.
  Result<ChargeOutcome> charged = accountant.value().Charge(
      kAnonymousReporter, /*epoch=*/0, state_->config.epsilon);
  if (!charged.ok()) return charged.status();
  if (!charged.value().accepted) {
    return Status::FailedPrecondition(
        "charge would exceed the user's lifetime budget");
  }
  return ServerSession(state_, std::move(accountant).value(),
                       std::move(options));
}

ServerSession::ServerSession(
    std::shared_ptr<const internal_api::PipelineState> state,
    PrivacyAccountant accountant, ServerSessionOptions options)
    : state_(std::move(state)),
      accountant_(std::move(accountant)),
      options_(std::move(options)),
      mutex_(std::make_unique<std::mutex>()) {
  epochs_.emplace_back(&*state_->collector);
  // A zero bound would make the backpressure wait unsatisfiable (nothing
  // would ever be queued for workers to consume).
  options_.max_pending_feed_bytes =
      std::max<size_t>(1, options_.max_pending_feed_bytes);
  // Resolve telemetry handles once; every shard ingester shares the same
  // counter bundle, and the owned pool reports through the same registry.
  metrics_ = obs::SessionMetrics::ForRegistry(options_.metrics);
  options_.ingest.metrics = obs::IngestMetrics::ForRegistry(options_.metrics);
  if (metrics_.enabled()) {
    metrics_.epochs_opened->Increment();  // epoch 0, charged by NewServer
    metrics_.epsilon_spent->Set(accountant_.Spent(kAnonymousReporter));
  }
  if (options_.ingest_threads >= 2) {
    pool_ = std::make_unique<ThreadPool>(
        options_.ingest_threads,
        obs::PoolMetrics::ForRegistry(options_.metrics));
  }
}

Status ServerSession::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(*mutex_);
  return AdvanceEpochLocked();
}

Status ServerSession::AdvanceEpochLocked() {
  if (open_shards_ > 0) {
    return Status::FailedPrecondition(
        "close every shard before advancing the epoch");
  }
  const Result<ChargeOutcome> charged =
      accountant_.Charge(kAnonymousReporter,
                         static_cast<uint32_t>(epochs_.size()),
                         state_->config.epsilon);
  if (!charged.ok()) return charged.status();
  if (!charged.value().accepted) {
    if (metrics_.enabled()) metrics_.budget_refusals->Increment();
    if (options_.journal != nullptr) {
      options_.journal->Record(obs::EventKind::kAccountantRefuse,
                               epochs_.size() - 1);
    }
    return Status::FailedPrecondition(
        "charge would exceed the user's lifetime budget");
  }
  epochs_.emplace_back(&*state_->collector);
  if (metrics_.enabled()) {
    metrics_.epochs_opened->Increment();
    metrics_.epsilon_spent->Set(accountant_.Spent(kAnonymousReporter));
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kEpochAdvance, epochs_.size() - 1);
  }
  // Closed shards stay as tombstones so shard ids are never reused: a stale
  // id held across the epoch boundary gets "already closed", not somebody
  // else's shard.
  return Status::OK();
}

double ServerSession::epsilon_spent() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return accountant_.Spent(kAnonymousReporter);
}

ServerSession::ReporterMetricHandles ServerSession::ReporterMetrics(
    const std::string& reporter_id) {
  ReporterMetricHandles handles;
  if (options_.metrics == nullptr) return handles;
  std::string label = SanitizeReporterLabel(reporter_id);
  if (labeled_reporters_.count(label) == 0) {
    if (labeled_reporters_.size() >= kMaxLabeledReporters) {
      label = "_other";
    } else {
      labeled_reporters_.insert(label);
    }
  }
  handles.refusals = options_.metrics->GetCounter(
      "ldp_session_budget_refusals_total", {{"reporter", label}});
  handles.spent = options_.metrics->GetGauge(
      "ldp_session_reporter_epsilon_spent", {{"reporter", label}});
  return handles;
}

size_t ServerSession::OpenShard() {
  std::lock_guard<std::mutex> lock(*mutex_);
  return OpenShardLocked();
}

Result<size_t> ServerSession::OpenShard(const std::string& reporter_id) {
  std::lock_guard<std::mutex> lock(*mutex_);
  if (!reporter_id.empty()) {
    // Charge the reporter's own ledger before anything opens. Idempotent
    // per (reporter, epoch): reconnects and extra shards within the epoch
    // are already paid for.
    const Result<ChargeOutcome> charged = accountant_.Charge(
        reporter_id, static_cast<uint32_t>(epochs_.size()) - 1,
        state_->config.epsilon);
    if (!charged.ok()) return charged.status();
    const ReporterMetricHandles handles = ReporterMetrics(reporter_id);
    if (!charged.value().accepted) {
      if (metrics_.enabled()) metrics_.budget_refusals->Increment();
      if (handles.refusals != nullptr) handles.refusals->Increment();
      if (options_.journal != nullptr) {
        options_.journal->Record(obs::EventKind::kAccountantRefuse,
                                 epochs_.size() - 1);
      }
      return Status::FailedPrecondition(
          "reporter's lifetime budget cannot afford this epoch");
    }
    if (handles.spent != nullptr) handles.spent->Set(charged.value().spent);
  }
  return OpenShardLocked();
}

size_t ServerSession::OpenShardLocked() {
  ShardState shard;
  shard.ingester = std::make_unique<stream::ShardIngester>(
      &*state_->collector, options_.ingest);
  if (pool_ != nullptr) {
    shard.async = std::make_shared<AsyncShardState>();
  }
  shards_.push_back(std::move(shard));
  ++open_shards_;
  const size_t id = shards_.size() - 1;
  if (metrics_.enabled()) metrics_.shards_opened->Increment();
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kShardOpen, id,
                             epochs_.size() - 1);
  }
  return id;
}

void ServerSession::DrainShard(size_t shard) const {
  if (pool_ != nullptr) pool_->WaitSerial(shard);
}

Status ServerSession::Feed(size_t shard, const char* data, size_t size) {
  // pool_ is immutable after construction, so the mode check needs no lock.
  if (pool_ == nullptr) {
    std::lock_guard<std::mutex> lock(*mutex_);
    return FeedLocked(shard, data, size);
  }
  // Concurrent path: the chunk copy — what lets the caller reuse its buffer
  // immediately — happens before the session lock, so producers feeding
  // different shards only serialize on the O(1) enqueue, not the memcpy.
  std::string chunk(data, size);
  // Grab the shard's flow-control block (and fail fast on a bad id).
  std::shared_ptr<AsyncShardState> async;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    if (shard >= shards_.size()) {
      return Status::OutOfRange("unknown shard id");
    }
    if (shards_[shard].ingester == nullptr) {
      return Status::FailedPrecondition("shard is already closed");
    }
    async = shards_[shard].async;
  }
  // Backpressure, outside every session lock so other shards keep flowing:
  // wait until the shard's queued bytes drop below the bound (workers only
  // consume, so the wait always terminates — a drain or poisoned stream
  // empties the queue quickly).
  {
    std::unique_lock<std::mutex> flow(async->mutex);
    const bool would_block =
        async->pending_bytes >= options_.max_pending_feed_bytes;
    // Only an actual block is worth two clock reads; the common non-blocked
    // Feed stays untimed.
    const uint64_t wait_started_ns =
        would_block && metrics_.enabled() ? obs::SteadyNowNs() : 0;
    async->capacity.wait(flow, [&] {
      return async->pending_bytes < options_.max_pending_feed_bytes;
    });
    if (wait_started_ns != 0) {
      metrics_.backpressure_wait_us->Observe(
          (obs::SteadyNowNs() - wait_started_ns) / 1000);
    }
    // Surface a previously recorded worker-side framing error (sticky,
    // like the synchronous Feed).
    if (!async->status.ok()) return async->status;
  }
  std::lock_guard<std::mutex> lock(*mutex_);
  // Re-validate: the shard may have been closed while we waited.
  ShardState& state = shards_[shard];
  if (state.ingester == nullptr) {
    return Status::FailedPrecondition("shard is already closed");
  }
  stream::ShardIngester* ingester = state.ingester.get();
  obs::Gauge* pending_gauge = metrics_.pending_feed_bytes;
  {
    std::lock_guard<std::mutex> flow(async->mutex);
    if (!async->status.ok()) return async->status;
    async->pending_bytes += chunk.size();
  }
  if (pending_gauge != nullptr) {
    pending_gauge->Add(static_cast<double>(chunk.size()));
  }
  // Enqueue on the shard's serial queue — per-shard FIFO keeps the byte
  // stream intact.
  pool_->SubmitSerial(
      shard, [ingester, async, pending_gauge, chunk = std::move(chunk)] {
        const Status fed = ingester->Feed(chunk.data(), chunk.size());
        if (pending_gauge != nullptr) {
          pending_gauge->Add(-static_cast<double>(chunk.size()));
        }
        std::lock_guard<std::mutex> flow(async->mutex);
        if (!fed.ok() && async->status.ok()) async->status = fed;
        async->pending_bytes -= chunk.size();
        async->capacity.notify_all();
      });
  return Status::OK();
}

Status ServerSession::FeedLocked(size_t shard, const char* data, size_t size) {
  if (shard >= shards_.size()) {
    return Status::OutOfRange("unknown shard id");
  }
  ShardState& state = shards_[shard];
  if (state.ingester == nullptr) {
    return Status::FailedPrecondition("shard is already closed");
  }
  return state.ingester->Feed(data, size);
}

Status ServerSession::CloseShard(size_t shard) {
  // Close latency covers the queued-chunk drain plus the merge — the
  // interval a caller awaiting the verdict actually waits on.
  const uint64_t close_started_ns =
      metrics_.enabled() ? obs::SteadyNowNs() : 0;
  std::unique_lock<std::mutex> lock(*mutex_);
  if (shard >= shards_.size()) {
    return Status::OutOfRange("unknown shard id");
  }
  // Detach the ingester first: racing Feed calls on this shard now get
  // "already closed" instead of enqueueing behind the drain, so after
  // DrainShard the ingester is quiescent and owned by this thread. The
  // shard still counts as open (AdvanceEpoch keeps refusing) until the
  // merge below commits.
  std::unique_ptr<stream::ShardIngester> ingester =
      std::move(shards_[shard].ingester);
  if (ingester == nullptr) {
    return Status::FailedPrecondition("shard is already closed");
  }
  if (pool_ != nullptr) {
    // Drain without the session lock: other shards' producers keep
    // enqueueing while this shard's backlog decodes.
    lock.unlock();
    DrainShard(shard);
    lock.lock();
  }
  // Finish() reports any framing error a worker hit (the ingester's status
  // is sticky).
  const Status finished = ingester->Finish();
  shards_[shard].final_stats = ingester->stats();
  // A failed shard contributes nothing: its aggregate is discarded so one
  // poisoned stream cannot corrupt the epoch.
  Status merged = Status::OK();
  if (finished.ok()) {
    merged = epochs_.back().Merge(ingester->aggregator());
  }
  --open_shards_;
  if (metrics_.enabled()) {
    metrics_.shards_closed->Increment();
    metrics_.close_wait_us->Observe(
        (obs::SteadyNowNs() - close_started_ns) / 1000);
  }
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kShardClose, shard,
                             epochs_.size() - 1);
  }
  if (!finished.ok()) return finished;
  return merged;
}

Result<stream::ShardIngester::Stats> ServerSession::AbandonShard(
    size_t shard) {
  std::unique_lock<std::mutex> lock(*mutex_);
  if (shard >= shards_.size()) {
    return Status::OutOfRange("unknown shard id");
  }
  // Detach-then-drain, exactly like CloseShard: racing Feed calls get
  // "already closed", and after the drain the ingester is quiescent.
  std::unique_ptr<stream::ShardIngester> ingester =
      std::move(shards_[shard].ingester);
  if (ingester == nullptr) {
    return Status::FailedPrecondition("shard is already closed");
  }
  if (pool_ != nullptr) {
    lock.unlock();
    DrainShard(shard);
    lock.lock();
  }
  shards_[shard].final_stats = ingester->stats();
  --open_shards_;
  if (metrics_.enabled()) metrics_.shards_abandoned->Increment();
  if (options_.journal != nullptr) {
    options_.journal->Record(obs::EventKind::kShardAbandon, shard,
                             epochs_.size() - 1);
  }
  return shards_[shard].final_stats;
}

Result<stream::ShardIngester::Stats> ServerSession::ShardStats(
    size_t shard) const {
  std::unique_lock<std::mutex> lock(*mutex_);
  if (shard >= shards_.size()) {
    return Status::OutOfRange("unknown shard id");
  }
  if (shards_[shard].ingester == nullptr) {
    return shards_[shard].final_stats;
  }
  if (pool_ != nullptr) {
    // Drain without the session lock (other shards keep flowing), then
    // re-check: the shard may have been closed while unlocked.
    lock.unlock();
    DrainShard(shard);
    lock.lock();
    if (shards_[shard].ingester == nullptr) {
      return shards_[shard].final_stats;
    }
  }
  return shards_[shard].ingester->stats();
}

Status ServerSession::IngestInputs(const std::vector<std::string>& paths,
                                   ThreadPool* pool,
                                   stream::MultiShardSummary* summary) {
  if (paths.empty()) {
    return Status::InvalidArgument("no inputs to ingest");
  }
  // Holds the session mutex end to end: inputs load on pool workers that
  // never touch session state, and the merges below must see a stable
  // epoch table.
  std::lock_guard<std::mutex> lock(*mutex_);
  if (pool == nullptr) pool = pool_.get();
  // Phase 1, concurrent: each worker opens its inputs and loads them.
  const size_t n = paths.size();
  std::vector<LoadedInput> loaded(n);
  ParallelFor(pool, n, [&](unsigned /*chunk*/, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      loaded[i] = LoadInput(&*state_->collector, paths[i], options_.ingest);
    }
  });

  stream::MultiShardSummary local_summary;
  for (size_t i = 0; i < n; ++i) {
    local_summary.total_reports += loaded[i].stats.accepted;
    local_summary.total_rejected += loaded[i].stats.rejected;
    local_summary.total_bytes += loaded[i].stats.bytes;
    local_summary.shards.push_back({paths[i], loaded[i].status,
                                    loaded[i].stats});
  }
  if (summary != nullptr) *summary = std::move(local_summary);

  // Phase 2: merge, only once every input has loaded. The sums are exact,
  // so the order is immaterial. Report streams land in the epoch that was
  // current at the call (an index: a session snapshot may grow epochs_);
  // session snapshots align by epoch.
  auto named = [&paths](size_t i, const Status& status) {
    return Status(status.code(),
                  "input '" + paths[i] + "': " + status.message());
  };
  for (size_t i = 0; i < n; ++i) {
    if (!loaded[i].status.ok()) return named(i, loaded[i].status);
  }
  const size_t target = epochs_.size() - 1;
  for (size_t i = 0; i < n; ++i) {
    const Status merged = loaded[i].aggregate.has_value()
                              ? epochs_[target].Merge(*loaded[i].aggregate)
                              : MergeLocked(loaded[i].session_bytes);
    if (!merged.ok()) return named(i, merged);
  }
  return Status::OK();
}

Status ServerSession::Merge(const std::string& snapshot_bytes) {
  std::lock_guard<std::mutex> lock(*mutex_);
  return MergeLocked(snapshot_bytes);
}

Status ServerSession::MergeLocked(const std::string& snapshot_bytes) {
  Reader reader(snapshot_bytes.data(), snapshot_bytes.size());
  SessionSnapshotConfig peer;
  LDP_ASSIGN_OR_RETURN(peer, ReadSessionPreamble(&reader));
  LDP_RETURN_IF_ERROR(CheckSessionSnapshotCompatible(peer, state_->header));
  const uint32_t peer_epochs = peer.epochs;

  // Cheap refusals first (nothing decoded yet), then stage every epoch
  // section added to ours, so a malformed snapshot or an overflowing merge
  // mutates nothing, then commit.
  if (peer_epochs > epochs_.size()) {
    if (open_shards_ > 0) {
      return Status::FailedPrecondition(
          "close every shard before merging a longer session");
    }
    const double extra =
        static_cast<double>(peer_epochs - epochs_.size()) *
        state_->config.epsilon;
    if (accountant_.Remaining(kAnonymousReporter) + kBudgetSlack < extra) {
      return Status::FailedPrecondition(
          "merging the session would exceed the lifetime budget");
    }
  }
  std::vector<MixedAggregator> staged;
  staged.reserve(peer_epochs);
  for (uint32_t e = 0; e < peer_epochs; ++e) {
    uint64_t inner_size = 0;
    LDP_ASSIGN_OR_RETURN(inner_size, reader.U64());
    const char* inner = reader.TakeBytes(inner_size);
    if (inner == nullptr) {
      return Status::InvalidArgument("truncated session snapshot epoch");
    }
    Result<MixedAggregator> decoded = stream::DecodeAggregatorSnapshot(
        std::string_view(inner, inner_size), &*state_->collector);
    if (!decoded.ok()) return decoded.status();
    staged.push_back(e < epochs_.size() ? epochs_[e]
                                        : MixedAggregator(&*state_->collector));
    LDP_RETURN_IF_ERROR(staged.back().Merge(decoded.value()));
  }
  // Stage the per-reporter ledger section before anything commits, so
  // a truncated snapshot mutates nothing.
  struct StagedLedger {
    std::string reporter;
    uint64_t refusals = 0;
    std::vector<std::pair<uint32_t, double>> entries;
  };
  std::vector<StagedLedger> staged_ledgers;
  uint32_t num_reporters = 0;
  LDP_ASSIGN_OR_RETURN(num_reporters, reader.U32());
  staged_ledgers.reserve(std::min<size_t>(num_reporters, 1u << 16));
  for (uint32_t r = 0; r < num_reporters; ++r) {
    StagedLedger ledger;
    uint16_t id_length = 0;
    LDP_ASSIGN_OR_RETURN(id_length, reader.U16());
    const char* id = reader.TakeBytes(id_length);
    if (id == nullptr) {
      return Status::InvalidArgument(
          "truncated reporter ledger in session snapshot");
    }
    ledger.reporter.assign(id, id_length);
    LDP_ASSIGN_OR_RETURN(ledger.refusals, reader.U64());
    uint32_t num_entries = 0;
    LDP_ASSIGN_OR_RETURN(num_entries, reader.U32());
    // 12 bytes per entry bounds a hostile count against the payload.
    if (num_entries > (snapshot_bytes.size() / 12) + 1) {
      return Status::InvalidArgument(
          "reporter ledger entry count exceeds snapshot size");
    }
    ledger.entries.reserve(num_entries);
    for (uint32_t i = 0; i < num_entries; ++i) {
      uint32_t epoch = 0;
      double spent = 0.0;
      LDP_ASSIGN_OR_RETURN(epoch, reader.U32());
      LDP_ASSIGN_OR_RETURN(spent, reader.F64());
      ledger.entries.emplace_back(epoch, spent);
    }
    staged_ledgers.push_back(std::move(ledger));
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after session snapshot");
  }
  for (uint32_t e = 0; e < peer_epochs; ++e) {
    if (e >= epochs_.size()) LDP_RETURN_IF_ERROR(AdvanceEpochLocked());
    epochs_[e] = std::move(staged[e]);
  }
  // Union the peer's ledgers by (reporter, epoch): a reporter both edges
  // saw in an epoch is restored once, not summed — the exactly-once
  // guarantee across relay edges. Refusal counters add.
  for (const StagedLedger& ledger : staged_ledgers) {
    for (const auto& [epoch, spent] : ledger.entries) {
      LDP_RETURN_IF_ERROR(
          accountant_.RestoreCharge(ledger.reporter, epoch, spent));
    }
    accountant_.RestoreRefusals(ledger.reporter, ledger.refusals);
  }
  return Status::OK();
}

std::string ServerSession::Snapshot() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  std::string out;
  PutU32(&out, kSessionSnapshotMagic);
  PutU16(&out, kSessionSnapshotVersion);
  PutU8(&out, 0);  // kind: mixed reports, the only kind
  PutU8(&out, static_cast<uint8_t>(state_->header.mechanism));
  PutU8(&out, static_cast<uint8_t>(state_->header.oracle));
  PutU64(&out, state_->header.schema_hash);
  PutF64(&out, state_->config.epsilon);
  PutU32(&out, static_cast<uint32_t>(epochs_.size()));
  for (const MixedAggregator& epoch : epochs_) {
    const std::string inner = stream::EncodeAggregatorSnapshot(epoch);
    PutU64(&out, inner.size());
    out.append(inner);
  }
  // Ledger section: every reporter's spend history, in ascending id
  // order (std::map iteration), so two sessions that saw the same charges
  // serialize bit-identically.
  const auto& ledgers = accountant_.ledgers();
  PutU32(&out, static_cast<uint32_t>(ledgers.size()));
  for (const auto& [reporter, ledger] : ledgers) {
    PutU16(&out, static_cast<uint16_t>(reporter.size()));
    out.append(reporter);
    PutU64(&out, ledger.refusals);
    PutU32(&out, static_cast<uint32_t>(ledger.epoch_spend.size()));
    for (const auto& [epoch, spent] : ledger.epoch_spend) {
      PutU32(&out, epoch);
      PutF64(&out, spent);
    }
  }
  return out;
}

uint32_t ServerSession::current_epoch() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return static_cast<uint32_t>(epochs_.size()) - 1;
}

uint32_t ServerSession::num_epochs() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return static_cast<uint32_t>(epochs_.size());
}

Status ServerSession::CheckEpoch(uint32_t epoch) const {
  if (epoch >= epochs_.size()) {
    return Status::OutOfRange("epoch has not been opened");
  }
  return Status::OK();
}

Result<uint64_t> ServerSession::num_reports(uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  LDP_RETURN_IF_ERROR(CheckEpoch(epoch));
  return epochs_[epoch].num_reports();
}

Result<double> ServerSession::EstimateMean(uint32_t attribute,
                                           uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  LDP_RETURN_IF_ERROR(CheckEpoch(epoch));
  return epochs_[epoch].EstimateMean(attribute);
}

Result<std::vector<double>> ServerSession::EstimateFrequencies(
    uint32_t attribute, uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  LDP_RETURN_IF_ERROR(CheckEpoch(epoch));
  return epochs_[epoch].EstimateFrequencies(attribute);
}

Result<PipelineEstimates> ServerSession::Estimate(uint32_t epoch) const {
  std::lock_guard<std::mutex> lock(*mutex_);
  LDP_RETURN_IF_ERROR(CheckEpoch(epoch));
  PipelineEstimates estimates;
  estimates.num_reports = epochs_[epoch].num_reports();
  const std::vector<MixedAttribute>& attributes = state_->config.attributes;
  for (uint32_t j = 0; j < attributes.size(); ++j) {
    if (attributes[j].type == AttributeType::kNumeric) {
      double mean = 0.0;
      LDP_ASSIGN_OR_RETURN(mean, epochs_[epoch].EstimateMean(j));
      estimates.numeric_attributes.push_back(j);
      estimates.means.push_back(mean);
    } else {
      std::vector<double> freqs;
      LDP_ASSIGN_OR_RETURN(freqs, epochs_[epoch].EstimateFrequencies(j));
      estimates.categorical_attributes.push_back(j);
      estimates.frequencies.push_back(std::move(freqs));
    }
  }
  return estimates;
}

}  // namespace ldp::api
