#include "campaign.h"

#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "data/census.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "relay/forwarder.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "util/random.h"

namespace campaign {

using ldp::MixedTuple;
using ldp::Result;
using ldp::Rng;
using ldp::Status;
namespace api = ldp::api;
namespace data = ldp::data;
namespace net = ldp::net;
namespace obs = ldp::obs;
namespace relay = ldp::relay;
namespace stream = ldp::stream;

namespace {

constexpr double kEpsilon = 4.0;
/// Rows a live reporter reads, then encodes, then sends as one batch.
constexpr size_t kCsvBatchRows = 256;
/// Bound on every socket wait and merge turn, so a failed reporter costs
/// the run seconds, not a hang.
constexpr int kTimeoutMs = 20000;
/// Recovery measurements per campaign, each one recover_reports_per_s
/// sample: a recovery is short, so one sample per campaign left its
/// run-to-run spread wide.
constexpr int kRecoverSamples = 2;
/// Set-up threads encoding shards and writing CSV slices.
constexpr size_t kSetupThreads = 4;

double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

/// A /proc/self/status field in KiB (VmRSS, VmHWM).
double StatusKib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr);
    }
  }
  return 0.0;
}

double MsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

/// One census row in the layout data::CsvRowReader produces, so pooled and
/// live reporters normalize through the same api::RowToTuple.
void RowVectors(const data::Dataset& dataset, uint64_t row,
                std::vector<double>* numeric, std::vector<uint32_t>* category) {
  const data::Schema& schema = dataset.schema();
  numeric->assign(schema.num_columns(), 0.0);
  category->assign(schema.num_columns(), 0);
  for (uint32_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column(c).type == data::ColumnType::kNumeric) {
      (*numeric)[c] = dataset.numeric(row, c);
    } else {
      (*category)[c] = dataset.category(row, c);
    }
  }
}

/// Perturbs user `row` and appends its frame to `out`.
Status EncodeTuple(const api::ClientSession& client, uint64_t user_seed,
                   uint64_t row, const MixedTuple& tuple, std::string* out) {
  Rng rng = api::UserRng(user_seed, row);
  Result<std::string> payload = client.EncodeReport(tuple, &rng);
  if (!payload.ok()) return payload.status();
  return stream::AppendFrame(payload.value(), out);
}

/// Flips one byte of the first frame in `frames`: the sign bit of its value
/// when the frame is a numeric entry (accepted, but the aggregate moves),
/// otherwise the low byte of its categorical payload count (rejected).
/// Layout: u32 length, u16 entries, u32 attribute, u8 kind, f64 value.
void FlipOneByte(std::string* frames) {
  if (frames->size() < 19) return;
  const size_t kind_at = 4 + 2 + 4;
  if ((*frames)[kind_at] == 0) {
    (*frames)[kind_at + 1 + 7] ^= static_cast<char>(0x80);
  } else {
    (*frames)[kind_at + 1] ^= 0x01;
  }
}

bool SameEstimates(const api::PipelineEstimates& a,
                   const api::PipelineEstimates& b) {
  return a.num_reports == b.num_reports &&
         a.numeric_attributes == b.numeric_attributes &&
         a.categorical_attributes == b.categorical_attributes &&
         a.means == b.means && a.frequencies == b.frequencies;
}

/// Makes `head` + `body` the whole content of `path`, overwriting in place.
/// Every set-up after the first rewrites the same files with the same bytes;
/// truncating first made the file system free and reallocate their blocks,
/// the slowest and noisiest part of fleet_10k's set-up (see NOTES.md).
Status WriteInPlace(const std::string& path, const std::string& head,
                    const std::string& body) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Status::IoError("cannot open " + path);
  bool ok = true;
  for (const std::string* part : {&head, &body}) {
    size_t sent = 0;
    while (ok && sent < part->size()) {
      const ssize_t wrote =
          ::write(fd, part->data() + sent, part->size() - sent);
      ok = wrote > 0;
      if (ok) sent += static_cast<size_t>(wrote);
    }
  }
  const off_t size = static_cast<off_t>(head.size() + body.size());
  ok = ok && ::ftruncate(fd, size) == 0;
  ok = ::close(fd) == 0 && ok;
  return ok ? Status::OK() : Status::IoError("cannot write " + path);
}

void RemoveDir(const std::string& dir) {
  if (DIR* handle = ::opendir(dir.c_str())) {
    while (dirent* entry = ::readdir(handle)) {
      const std::string name = entry->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(handle);
  }
  ::rmdir(dir.c_str());
}

/// The reference rebuild: every ordinal's bytes fed to a fresh synchronous
/// session in ordinal order, plus the single-node root fold for live_relay.
struct Rebuilt {
  std::string snapshot;
  api::PipelineEstimates estimates;
  double decode_fold_s = 0.0;  ///< Feed + CloseShard only.
};

Result<Rebuilt> Rebuild(const Inputs& inputs) {
  Rebuilt out;
  Result<api::ServerSession> session = inputs.pipeline.NewServer();
  if (!session.ok()) return session.status();
  const std::string header =
      stream::EncodeStreamHeader(inputs.pipeline.header());
  uint64_t decode_ns = 0;
  for (const std::string& bytes : inputs.shards) {
    const size_t shard = session.value().OpenShard();
    const uint64_t fed_ns = NowNs();
    Status status = session.value().Feed(shard, header);
    if (status.ok()) status = session.value().Feed(shard, bytes);
    if (status.ok()) status = session.value().CloseShard(shard);
    decode_ns += NowNs() - fed_ns;
    if (!status.ok()) return status;
  }
  const api::ServerSession* final_session = &session.value();
  std::optional<api::ServerSession> root;
  if (inputs.workload == Workload::kLiveRelay) {
    Result<api::ServerSession> fresh = inputs.pipeline.NewServer();
    if (!fresh.ok()) return fresh.status();
    root.emplace(std::move(fresh).value());
    const Status merged = root->Merge(session.value().Snapshot());
    if (!merged.ok()) return merged;
    final_session = &*root;
  }
  Result<api::PipelineEstimates> estimates = final_session->Estimate(0);
  if (!estimates.ok()) return estimates.status();
  out.decode_fold_s = static_cast<double>(decode_ns) / 1e9;
  out.estimates = std::move(estimates).value();
  out.snapshot = final_session->Snapshot();
  return out;
}

// --- load generator ---------------------------------------------------------

/// What one load-generator thread saw.
struct ReporterLog {
  ThreadTrace* trace = nullptr;
  std::vector<double> admit_us;
  std::vector<double> close_ms;
  uint64_t last_verdict_ns = 0;
  uint64_t admitted = 0;
  uint64_t reports_accepted = 0;  ///< From merged shards' close summaries.
  uint64_t bytes_sent = 0;
  uint64_t rows_read = 0;
  double queue_depth_sum = 0.0;
  uint64_t queue_depth_samples = 0;
};

/// One connection's worth of reporters: admits shards (the first over a
/// fresh connection, later ones as extra channels), sends, and keeps the
/// closes it has begun until their verdicts are awaited.
class Reporter {
 public:
  Reporter(const Inputs& inputs, const net::Endpoint& endpoint,
           const obs::Gauge* queue_depth, ReporterLog* log)
      : inputs_(inputs),
        endpoint_(endpoint),
        queue_depth_(queue_depth),
        log_(log) {}

  /// HELLO for `ordinal`; nullopt when refused or the connection failed.
  std::optional<uint32_t> Admit(uint64_t ordinal) {
    ScopedSpan span(log_->trace, "net.client.hello",
                    static_cast<int64_t>(ordinal));
    const uint64_t started_ns = NowNs();
    std::optional<uint32_t> channel;
    if (!client_) {
      net::CollectorClientOptions options;
      options.idle_timeout_ms = kTimeoutMs;
      Result<net::CollectorClient> connected = net::CollectorClient::Connect(
          endpoint_, inputs_.pipeline.header(), ordinal, options);
      if (connected.ok()) {
        client_.emplace(std::move(connected).value());
        channel = 0;
      } else {
        Report("connect", ordinal, connected.status());
      }
    } else {
      Result<uint32_t> opened =
          client_->OpenShard(inputs_.pipeline.header(), ordinal);
      if (opened.ok()) {
        channel = opened.value();
      } else {
        Report("hello", ordinal, opened.status());
      }
    }
    if (channel) {
      log_->admit_us.push_back(static_cast<double>(NowNs() - started_ns) /
                               1e3);
      ++log_->admitted;
    }
    return channel;
  }

  bool Send(uint32_t channel, uint64_t ordinal, const std::string& bytes) {
    Status sent;
    {
      ScopedSpan span(log_->trace, "net.client.send",
                      static_cast<int64_t>(ordinal));
      sent = client_->Send(channel, bytes.data(), bytes.size());
    }
    if (queue_depth_ != nullptr) {
      log_->queue_depth_sum += queue_depth_->Value();
      ++log_->queue_depth_samples;
    }
    if (!sent.ok()) {
      Report("send", ordinal, sent);
      return false;
    }
    log_->bytes_sent += bytes.size();
    return true;
  }

  /// Declares end-of-stream. A sampled close awaits its own verdict at once
  /// and records CloseShardBegin -> verdict; any other joins the closes
  /// pending in the window, unrecorded.
  bool Close(uint32_t channel, uint64_t ordinal, bool sampled) {
    const Pending close{channel, ordinal};
    uint64_t began_ns = 0;
    {
      ScopedSpan span(log_->trace, "net.client.close_begin",
                      static_cast<int64_t>(ordinal));
      began_ns = NowNs();
      const Status begun = client_->CloseShardBegin(channel);
      if (!begun.ok()) {
        Report("close", ordinal, begun);
        return false;
      }
    }
    if (!sampled) {
      pending_.push_back(close);
      return true;
    }
    return Await(close, began_ns);
  }

  /// Awaits the oldest pending verdicts until at most `window` remain.
  bool AwaitDownTo(size_t window) {
    while (pending_.size() > window) {
      const Pending close = pending_.front();
      pending_.pop_front();
      if (!Await(close, /*began_ns=*/0)) return false;
    }
    return true;
  }

 private:
  struct Pending {
    uint32_t channel = 0;
    uint64_t ordinal = 0;
  };

  /// Reads `close`'s verdict; a non-zero `began_ns` records its latency.
  bool Await(const Pending& close, uint64_t began_ns) {
    std::optional<Result<net::ShardCloseSummary>> awaited;
    {
      ScopedSpan span(log_->trace, "net.client.close_await",
                      static_cast<int64_t>(close.ordinal));
      awaited.emplace(client_->AwaitShardClosed(close.channel));
    }
    const Result<net::ShardCloseSummary>& summary = *awaited;
    const uint64_t now_ns = NowNs();
    if (!summary.ok()) {
      Report("await", close.ordinal, summary.status());
      return false;
    }
    if (began_ns != 0) {
      log_->close_ms.push_back(static_cast<double>(now_ns - began_ns) / 1e6);
    }
    log_->last_verdict_ns = std::max(log_->last_verdict_ns, now_ns);
    if (summary.value().status.ok()) {
      log_->reports_accepted += summary.value().stats.accepted;
    } else {
      Report("verdict", close.ordinal, summary.value().status);
    }
    return true;
  }

  static void Report(const char* what, uint64_t ordinal,
                     const Status& status) {
    std::fprintf(stderr, "reporter %llu: %s: %s\n",
                 static_cast<unsigned long long>(ordinal), what,
                 status.ToString().c_str());
  }

  const Inputs& inputs_;
  const net::Endpoint& endpoint_;
  const obs::Gauge* queue_depth_;
  ReporterLog* log_;
  std::optional<net::CollectorClient> client_;
  std::deque<Pending> pending_;
};

/// Sends ordinal `ordinal`'s pooled shard (bulk_wal, fleet_10k).
bool SendPooled(const Inputs& inputs, Reporter* reporter, uint32_t channel,
                uint64_t ordinal, bool corrupt) {
  if (!corrupt) {
    return reporter->Send(channel, ordinal, inputs.shards[ordinal]);
  }
  std::string bytes = inputs.shards[ordinal];
  FlipOneByte(&bytes);
  return reporter->Send(channel, ordinal, bytes);
}

/// Reads ordinal `ordinal`'s CSV slice and sends it batch by batch: CSV
/// read and RowToTuple, then perturb+encode, then Send (live_relay).
bool SendLive(const Inputs& inputs, const api::ClientSession& client,
              Reporter* reporter, ReporterLog* log, uint32_t channel,
              uint64_t ordinal, bool corrupt) {
  const int64_t tag = static_cast<int64_t>(ordinal);
  const uint32_t d = inputs.schema.num_columns();
  std::optional<data::CsvRowReader> reader;
  {
    ScopedSpan span(log->trace, "data.csv", tag);
    Result<data::CsvRowReader> opened =
        data::CsvRowReader::Open(inputs.schema, inputs.csv_paths[ordinal]);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return false;
    }
    reader.emplace(std::move(opened).value());
  }
  std::vector<double> numeric;
  std::vector<uint32_t> category;
  std::vector<MixedTuple> batch(kCsvBatchRows, MixedTuple(d));
  std::string frames;
  uint64_t row = inputs.rows[ordinal].begin;
  const uint64_t end = inputs.rows[ordinal].end;
  bool more = true;
  while (more) {
    size_t filled = 0;
    {
      ScopedSpan span(log->trace, "data.csv", tag);
      while (filled < kCsvBatchRows) {
        Result<bool> next = reader->NextRow(&numeric, &category);
        if (!next.ok()) {
          std::fprintf(stderr, "%s\n", next.status().ToString().c_str());
          return false;
        }
        if (!next.value()) {
          more = false;
          break;
        }
        api::RowToTuple(inputs.schema, numeric, category, &batch[filled]);
        ++filled;
      }
    }
    if (filled == 0) break;
    if (row + filled > end) return false;  // the slice grew
    frames.clear();
    {
      ScopedSpan span(log->trace, "api.client.encode", tag);
      for (size_t i = 0; i < filled; ++i) {
        const Status encoded =
            EncodeTuple(client, inputs.user_seed, row + i, batch[i], &frames);
        if (!encoded.ok()) {
          std::fprintf(stderr, "%s\n", encoded.ToString().c_str());
          return false;
        }
      }
    }
    if (corrupt && row == inputs.rows[ordinal].begin) FlipOneByte(&frames);
    log->rows_read += filled;
    row += filled;
    if (!reporter->Send(channel, ordinal, frames)) return false;
  }
  return row == end;
}

/// Campaign start order. Load-generator threads wait for the timed window
/// to open (so thread creation stays out of it), then connect one at a
/// time, and start streaming once every connection has its first shard
/// admitted: a campaign-start HELLO measures the collector's admission, not
/// a queue behind the benchmark's own simultaneous connects and bulk DATA.
class StartOrder {
 public:
  explicit StartOrder(size_t threads) : threads_(threads) {}

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    turn_cv_.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mutex_);
    turn_cv_.wait(lock, [&] { return open_; });
  }
  /// Blocks until threads 0..thread-1 have their first shard admitted.
  void WaitTurn(size_t thread) {
    std::unique_lock<std::mutex> lock(mutex_);
    turn_cv_.wait(lock, [&] { return admitted_ == thread; });
  }
  /// This thread's first HELLO is answered (or failed); waits for the rest.
  void AdmittedAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++admitted_;
    turn_cv_.notify_all();
    turn_cv_.wait(lock, [&] { return admitted_ == threads_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable turn_cv_;
  const size_t threads_;
  size_t admitted_ = 0;
  bool open_ = false;
};

/// One load-generator thread: serves ordinals first, first + stride, ...
/// over one connection, closed loop (at most `close_window` verdicts
/// outstanding, every `close_sample_every`-th close awaited at once).
void RunReporterThread(const Inputs& inputs, const CampaignOptions& options,
                       const net::Endpoint& endpoint,
                       const obs::Gauge* queue_depth, size_t first,
                       StartOrder* start, ReporterLog* log) {
  start->WaitOpen();
  if (log->trace != nullptr) log->trace->BeginThread();
  {
    ScopedSpan span(log->trace, "bench.start_turn");
    start->WaitTurn(first);
  }
  const Scale& scale = inputs.scale;
  Result<api::ClientSession> client = inputs.pipeline.NewClient();
  Reporter reporter(inputs, endpoint, queue_depth, log);
  bool started = false;
  auto start_streaming = [&] {
    if (started) return;
    started = true;
    ScopedSpan span(log->trace, "bench.start_turn");
    start->AdmittedAndWait();
  };
  size_t served = 0;
  for (size_t ordinal = first; client.ok() && ordinal < scale.reporters;
       ordinal += scale.connections, ++served) {
    const std::optional<uint32_t> channel = reporter.Admit(ordinal);
    start_streaming();
    if (!channel) break;
    const bool corrupt =
        static_cast<int64_t>(ordinal) == options.corrupt_ordinal;
    const bool sent =
        inputs.workload == Workload::kLiveRelay
            ? SendLive(inputs, client.value(), &reporter, log, *channel,
                       ordinal, corrupt)
            : SendPooled(inputs, &reporter, *channel, ordinal, corrupt);
    const bool sampled = served % scale.close_sample_every == 0;
    if (!sent || !reporter.Close(*channel, ordinal, sampled) ||
        !reporter.AwaitDownTo(scale.close_window)) {
      break;
    }
  }
  start_streaming();  // a thread that admitted nothing must not hold others
  reporter.AwaitDownTo(0);
  if (log->trace != nullptr) log->trace->EndThread();
}

net::Endpoint UnixEndpoint(const std::string& path) {
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = path;
  return endpoint;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kBulkWal:
      return "bulk_wal";
    case Workload::kFleet10k:
      return "fleet_10k";
    case Workload::kLiveRelay:
      return "live_relay";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w :
       {Workload::kBulkWal, Workload::kFleet10k, Workload::kLiveRelay}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

Scale DefaultScale(Workload workload) {
  switch (workload) {
    case Workload::kBulkWal:
      return {4, 40000, 4, 0};
    case Workload::kFleet10k:
      return {10000, 100, 4, 64, 32};
    case Workload::kLiveRelay:
      return {64, 1000, 3, 0};
  }
  return {};
}

Scale TinyScale(Workload workload) {
  switch (workload) {
    case Workload::kBulkWal:
      return {4, 50, 4, 0};
    case Workload::kFleet10k:
      return {40, 10, 4, 4, 2};
    case Workload::kLiveRelay:
      return {8, 40, 4, 0};
  }
  return {};
}

Result<std::unique_ptr<Inputs>> Setup(Workload workload, const Scale& scale,
                                      uint64_t seed, const std::string& dir) {
  const uint64_t n = scale.reporters * scale.reports_per_reporter;
  Result<data::Dataset> dataset = data::MakeBrazilCensus(n, seed);
  if (!dataset.ok()) return dataset.status();
  const data::Dataset& rows = dataset.value();
  Result<api::PipelineConfig> config =
      api::PipelineConfig::FromSchema(rows.schema(), kEpsilon);
  if (!config.ok()) return config.status();
  config.value().mechanism = ldp::MechanismKind::kHybrid;
  config.value().oracle = ldp::FrequencyOracleKind::kOue;
  Result<api::Pipeline> pipeline =
      api::Pipeline::Create(std::move(config).value());
  if (!pipeline.ok()) return pipeline.status();
  Result<api::ClientSession> client = pipeline.value().NewClient();
  if (!client.ok()) return client.status();

  auto inputs = std::make_unique<Inputs>(workload, scale, rows.schema(),
                                         std::move(pipeline).value());
  inputs->user_seed = seed ^ 0x9e3779b97f4a7c15ull;
  inputs->rows = ldp::SplitRange(n, scale.reporters);
  inputs->shards.resize(inputs->rows.size());
  const bool live = workload == Workload::kLiveRelay;
  const bool files = workload != Workload::kBulkWal;
  const std::string header =
      stream::EncodeStreamHeader(inputs->pipeline.header());
  if (files) {
    ::mkdir(dir.c_str(), 0755);
    for (size_t o = 0; o < inputs->rows.size(); ++o) {
      const std::string stem = dir + "/reporter-" + std::to_string(o);
      inputs->stream_paths.push_back(stem + ".ldps");
      if (live) inputs->csv_paths.push_back(stem + ".csv");
    }
  }

  // Each set-up thread encodes (and writes) every kSetupThreads-th ordinal;
  // per-user randomness is keyed by row, so the split is free.
  std::vector<Status> statuses(kSetupThreads);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < kSetupThreads; ++w) {
    workers.emplace_back([&, w] {
      std::vector<double> numeric;
      std::vector<uint32_t> category;
      MixedTuple tuple(rows.schema().num_columns());
      for (size_t o = w; o < inputs->rows.size(); o += kSetupThreads) {
        const ldp::IndexRange range = inputs->rows[o];
        std::string& bytes = inputs->shards[o];
        for (uint64_t row = range.begin; row < range.end; ++row) {
          RowVectors(rows, row, &numeric, &category);
          api::RowToTuple(rows.schema(), numeric, category, &tuple);
          const Status encoded =
              EncodeTuple(client.value(), inputs->user_seed, row, tuple,
                          &bytes);
          if (!encoded.ok()) {
            statuses[w] = encoded;
            return;
          }
        }
        if (files) {
          const Status wrote =
              WriteInPlace(inputs->stream_paths[o], header, bytes);
          if (!wrote.ok()) {
            statuses[w] = wrote;
            return;
          }
        }
        if (live) {
          std::vector<uint64_t> slice;
          for (uint64_t row = range.begin; row < range.end; ++row) {
            slice.push_back(row);
          }
          const Status wrote =
              data::WriteCsv(rows.Take(slice), inputs->csv_paths[o]);
          if (!wrote.ok()) {
            statuses[w] = wrote;
            return;
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  inputs->total_reports = n;
  return inputs;
}

double ResetPeakRss() {
  ::malloc_trim(0);
  if (FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
  return StatusKib("VmRSS");
}

Status ComputeReference(Inputs* inputs) {
  Result<Rebuilt> rebuilt = Rebuild(*inputs);
  if (!rebuilt.ok()) return rebuilt.status();
  inputs->reference_snapshot = std::move(rebuilt.value().snapshot);
  inputs->reference_estimates = std::move(rebuilt.value().estimates);
  return Status::OK();
}

CampaignResult RunCampaign(const Inputs& inputs,
                           const CampaignOptions& options) {
  CampaignResult result;
  const Scale& scale = inputs.scale;
  const bool wal_on = inputs.workload == Workload::kBulkWal;
  const bool relay_on = inputs.workload == Workload::kLiveRelay;
  const stream::StreamHeader& header = inputs.pipeline.header();
  ThreadTrace* coordinator =
      options.tracer ? options.tracer->NewThread("coordinator") : nullptr;
  // Any set-up failure: nothing was attempted beyond what failed.
  auto abort_run = [&](const char* what, const Status& status) {
    result.gate_ok = false;
    result.gate_error = std::string(what) + ": " + status.ToString();
    result.attempted = std::max<uint64_t>(result.attempted, 1);
    result.failed = std::max<uint64_t>(result.failed, 1);
    return result;
  };

  api::ServerSessionOptions session_options;
  session_options.ingest_threads = 2;
  session_options.metrics = options.registry;
  Result<api::ServerSession> edge = inputs.pipeline.NewServer(session_options);
  if (!edge.ok()) return abort_run("edge session", edge.status());

  const std::string wal_dir = "wal-" + options.tag;
  std::unique_ptr<relay::FrameWal> wal;
  if (wal_on) {
    relay::FrameWal::Options wal_options;
    wal_options.expected = &header;
    wal_options.metrics = options.registry;
    Result<std::unique_ptr<relay::FrameWal>> opened = relay::FrameWal::Open(
        wal_dir, &edge.value(), wal_options, nullptr);
    if (!opened.ok()) return abort_run("wal", opened.status());
    wal = std::move(opened).value();
  }

  // live_relay's upstream tier: a root collector taking relay snapshots.
  Result<api::ServerSession> root_session = inputs.pipeline.NewServer();
  if (!root_session.ok()) return abort_run("root session",
                                           root_session.status());
  std::unique_ptr<net::ReportServer> root;
  if (relay_on) {
    net::ReportServerOptions root_options;
    root_options.accept_snapshots = true;
    root_options.idle_timeout_ms = kTimeoutMs;
    Result<std::unique_ptr<net::ReportServer>> started =
        net::ReportServer::Start(&root_session.value(), header,
                                 UnixEndpoint("root-" + options.tag + ".sock"),
                                 root_options);
    if (!started.ok()) return abort_run("root server", started.status());
    root = std::move(started).value();
  }

  net::ReportServerOptions server_options;
  server_options.acceptors = 2;
  server_options.expected_shards = scale.reporters;
  server_options.idle_timeout_ms = kTimeoutMs;
  server_options.merge_turn_timeout_ms = kTimeoutMs;
  server_options.metrics = options.registry;
  server_options.wal = wal.get();
  Result<std::unique_ptr<net::ReportServer>> server = net::ReportServer::Start(
      &edge.value(), header, UnixEndpoint("edge-" + options.tag + ".sock"),
      server_options);
  if (!server.ok()) return abort_run("edge server", server.status());
  const net::Endpoint endpoint = server.value()->endpoint();

  std::unique_ptr<relay::RelayForwarder> forwarder;
  if (relay_on) {
    relay::RelayForwarderOptions forward_options;
    // Quiet cadence: only the final drain flush ships.
    forward_options.interval_ms = 3600 * 1000;
    forward_options.idle_timeout_ms = kTimeoutMs;
    forward_options.flush_timeout_ms = kTimeoutMs;
    forward_options.metrics = options.registry;
    Result<std::unique_ptr<relay::RelayForwarder>> started =
        relay::RelayForwarder::Start(&edge.value(), root->endpoint(),
                                     forward_options);
    if (!started.ok()) return abort_run("forwarder", started.status());
    forwarder = std::move(started).value();
  }

  const obs::Gauge* queue_depth =
      options.registry != nullptr
          ? obs::PoolMetrics::ForRegistry(options.registry).queue_depth
          : nullptr;
  std::vector<ReporterLog> logs(scale.connections);
  for (ReporterLog& log : logs) {
    log.trace = options.tracer ? options.tracer->NewThread("reporter")
                               : nullptr;
  }

  StartOrder start(scale.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < scale.connections; ++c) {
    threads.emplace_back(RunReporterThread, std::cref(inputs),
                         std::cref(options), std::cref(endpoint), queue_depth,
                         c, &start, &logs[c]);
  }

  // --- the timed window: first connect to estimates in hand --------------
  const double cpu_started = ProcessCpuSeconds();
  const uint64_t started_ns = NowNs();
  start.Open();
  for (std::thread& thread : threads) thread.join();

  uint64_t drain_started_ns = NowNs();
  {
    ScopedSpan span(coordinator, "net.server.drain");
    server.value()->Stop(/*drain=*/true);
  }
  api::ServerSession* final_session = &edge.value();
  Status tier_status = Status::OK();
  if (relay_on) {
    {
      ScopedSpan span(coordinator, "relay.flush");
      tier_status = forwarder->Stop(/*final_flush=*/true);
    }
    {
      ScopedSpan span(coordinator, "relay.root_drain");
      root->Stop(/*drain=*/true);
    }
    result.drain_ms = MsSince(drain_started_ns);
    const uint64_t fold_started_ns = NowNs();
    {
      ScopedSpan span(coordinator, "relay.fold");
      if (tier_status.ok()) tier_status = root->FoldRelaySnapshots();
    }
    result.fold_ms = MsSince(fold_started_ns);
    final_session = &root_session.value();
  } else {
    result.drain_ms = MsSince(drain_started_ns);
  }
  const uint64_t estimate_started_ns = NowNs();
  std::optional<Result<api::PipelineEstimates>> estimated;
  {
    ScopedSpan span(coordinator, "api.session.estimate");
    estimated.emplace(final_session->Estimate(0));
  }
  const Result<api::PipelineEstimates>& estimates = *estimated;
  const uint64_t finished_ns = NowNs();
  result.cpu_s = ProcessCpuSeconds() - cpu_started;
  result.wall_s = static_cast<double>(finished_ns - started_ns) / 1e9;
  result.estimate_ms =
      static_cast<double>(finished_ns - estimate_started_ns) / 1e6;
  result.peak_rss_kib = StatusKib("VmHWM");
  // --- end of the timed window ------------------------------------------

  uint64_t last_verdict_ns = 0;
  uint64_t admitted = 0;
  for (const ReporterLog& log : logs) {
    last_verdict_ns = std::max(last_verdict_ns, log.last_verdict_ns);
    admitted += log.admitted;
    result.reports_accepted += log.reports_accepted;
    result.admit_us.insert(result.admit_us.end(), log.admit_us.begin(),
                           log.admit_us.end());
    result.close_ms.insert(result.close_ms.end(), log.close_ms.begin(),
                           log.close_ms.end());
    result.bytes_sent += log.bytes_sent;
    result.rows_read += log.rows_read;
    result.queue_depth_sum += log.queue_depth_sum;
    result.queue_depth_samples += log.queue_depth_samples;
  }
  if (last_verdict_ns != 0) {
    result.result_lag_ms =
        static_cast<double>(finished_ns - last_verdict_ns) / 1e6;
  }

  // Exact failure accounting: every shard is one HELLO, one shard and its
  // reports; anything short of a merged shard whose reports were all
  // accepted is a failure.
  const net::ReportServerStats stats = server.value()->stats();
  const uint64_t shards = scale.reporters;
  result.attempted = shards + shards + inputs.total_reports;
  result.failed = (shards - std::min(shards, admitted)) +
                  (shards - std::min(shards, stats.shards_merged)) +
                  (inputs.total_reports -
                   std::min(inputs.total_reports, result.reports_accepted));

  // --- correctness gate (untimed) ---------------------------------------
  std::string snapshot;
  {
    ScopedSpan span(coordinator, "api.session.snapshot");
    const uint64_t snapshot_started_ns = NowNs();
    snapshot = final_session->Snapshot();
    result.snapshot_ms = MsSince(snapshot_started_ns);
  }
  result.gate_ok = true;
  auto mismatch = [&](const std::string& why) {
    if (result.gate_ok) result.gate_error = why;
    result.gate_ok = false;
    ++result.failed;
  };
  if (!tier_status.ok()) mismatch("relay tier: " + tier_status.ToString());
  if (!estimates.ok()) {
    mismatch("estimate: " + estimates.status().ToString());
  } else if (!SameEstimates(estimates.value(), inputs.reference_estimates)) {
    mismatch("estimates differ from the reference");
  }
  if (snapshot != inputs.reference_snapshot) {
    mismatch("session snapshot differs from the reference");
  }

  forwarder.reset();
  server.value().reset();
  root.reset();
  wal.reset();

  // Recovery, kRecoverSamples times: rebuild the final state from disk into
  // a fresh session. bulk_wal replays the edge's WAL with ReplayWalDir; the
  // other workloads ingest the reporters' stream files with
  // ServerSession::IngestInputs, as ldp_aggregate does, and live_relay
  // merges the result into a fresh root. Either must equal the live final
  // session bit for bit.
  api::ServerSessionOptions recover_options = session_options;
  recover_options.metrics = nullptr;  // the registry covers the campaign
  auto recover_once = [&] {
    Result<api::ServerSession> recovered =
        inputs.pipeline.NewServer(recover_options);
    if (!recovered.ok()) {
      mismatch("recovery session: " + recovered.status().ToString());
      return;
    }
    const uint64_t recover_started_ns = NowNs();
    Status status = Status::OK();
    if (wal_on) {
      relay::WalReplaySummary summary;
      {
        ScopedSpan span(coordinator, "relay.wal.replay");
        status = relay::ReplayWalDir(wal_dir, &recovered.value(), &header,
                                     nullptr, &summary);
      }
      result.replay_s +=
          static_cast<double>(NowNs() - recover_started_ns) / 1e9;
      result.replay_bytes += summary.bytes_replayed;
    } else {
      ScopedSpan span(coordinator, "api.session.ingest_inputs");
      status = recovered.value().IngestInputs(inputs.stream_paths, nullptr);
    }
    const api::ServerSession* recovered_final = &recovered.value();
    std::optional<api::ServerSession> recovered_root;
    if (status.ok() && relay_on) {
      ScopedSpan span(coordinator, "relay.fold");
      Result<api::ServerSession> fresh = inputs.pipeline.NewServer();
      status = fresh.status();
      if (status.ok()) {
        recovered_root.emplace(std::move(fresh).value());
        status = recovered_root->Merge(recovered.value().Snapshot());
        recovered_final = &*recovered_root;
      }
    }
    std::optional<Result<api::PipelineEstimates>> recover_estimated;
    {
      ScopedSpan span(coordinator, "api.session.estimate");
      recover_estimated.emplace(recovered_final->Estimate(0));
    }
    const double recover_s =
        static_cast<double>(NowNs() - recover_started_ns) / 1e9;
    const Result<api::PipelineEstimates>& recover_estimates =
        *recover_estimated;
    if (!status.ok()) {
      mismatch("recovery: " + status.ToString());
    } else if (!recover_estimates.ok()) {
      mismatch("recovery estimate: " + recover_estimates.status().ToString());
    } else if (recovered_final->Snapshot() != snapshot) {
      mismatch("recovered session differs from the live final session");
    } else {
      result.recover_per_s.push_back(
          static_cast<double>(recover_estimates.value().num_reports) /
          recover_s);
    }
  };
  for (int i = 0; i < kRecoverSamples; ++i) recover_once();
  if (wal_on) RemoveDir(wal_dir);

  // Traced campaigns add the decode+fold floor: the run's bytes re-fed
  // through a synchronous session.
  if (options.tracer != nullptr) {
    std::optional<Result<Rebuilt>> rebuilt_or;
    {
      ScopedSpan span(coordinator, "stream.refeed");
      rebuilt_or.emplace(Rebuild(inputs));
    }
    const Result<Rebuilt>& rebuilt = *rebuilt_or;
    if (!rebuilt.ok()) {
      mismatch("re-feed: " + rebuilt.status().ToString());
    } else if (rebuilt.value().snapshot != inputs.reference_snapshot) {
      mismatch("synchronous re-feed differs from the reference");
    } else {
      result.decode_fold_s = rebuilt.value().decode_fold_s;
      result.decode_fold_reports = inputs.total_reports;
    }
  }
  return result;
}

}  // namespace campaign
