// campaign_bench: whole collection campaigns, timed end to end and layer by
// layer.
//
//   campaign_bench --workload bulk_wal|fleet_10k|live_relay --seed N
//                  --seconds S --trace 0|1 [--trace-out FILE]
//
// Writes its sockets, WAL directories, CSV slices and report stream files
// into the current directory (run.py gives every run a fresh one and
// removes it). One run:
//
//   1. set-up, repeated kSetupRepeats times (setup_s is the median): census
//      rows generated from --seed, pooled shards encoded, CSV slices and
//      report stream files written;
//   2. the reference (the pooled bytes fed to a synchronous session in
//      ordinal order), and the corrupted-shard self-check at tiny scale (an
//      untouched tiny campaign must pass the gate, one with a flipped byte
//      must fail it);
//   3. the RSS peak is reset, then one warm-up campaign runs: discarded for
//      every timing, its footprint is campaign_rss_mib;
//   4. campaigns back to back for --seconds, each checked bit for bit
//      against the reference. With --trace 1 the first half runs untraced
//      and the second half with the metrics registry and spans on.
//
// Rates (throughput, recovery) are reported as the upper quartile over the
// run's campaigns, other per-campaign figures (CPU, result lag) as the
// interquartile mean, latencies as percentiles of every sample the run
// took. The last stdout line is one
// JSON object: correct, attempted, failed and the end-to-end (--trace 0) or
// per-layer (--trace 1) metrics. The exit status is non-zero when the
// result is not correct.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "campaign.h"
#include "obs/metrics.h"
#include "trace.h"

namespace {

using campaign::CampaignOptions;
using campaign::CampaignResult;
using campaign::Inputs;
using campaign::Workload;
namespace obs = ldp::obs;

constexpr int kSetupRepeats = 5;
/// A campaign count floor, whatever --seconds says.
constexpr size_t kMinCampaigns = 3;

struct Args {
  Workload workload = Workload::kBulkWal;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "campaign_bench: %s\nusage: campaign_bench --workload "
               "bulk_wal|fleet_10k|live_relay --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!campaign::ParseWorkload(value, &args.workload)) {
        Usage("unknown workload");
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
      if (!(args.seconds > 0.0)) Usage("--seconds must be positive");
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (!have_workload) Usage("--workload is required");
  return args;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Mean of the middle half of `values`: as robust as the median to a
/// burst of slow campaigns, and steadier when campaigns fall into two modes.
double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Campaigns of one phase (untraced or traced) and what they add up to.
struct Phase {
  std::vector<CampaignResult> campaigns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Add(CampaignResult result) {
    attempted += result.attempted;
    failed += result.failed;
    if (!result.gate_ok) {
      correct = false;
      std::fprintf(stderr, "correctness gate: %s\n",
                   result.gate_error.c_str());
    }
    campaigns.push_back(std::move(result));
  }

  std::vector<double> Each(double (*pick)(const CampaignResult&)) const {
    std::vector<double> values;
    for (const CampaignResult& c : campaigns) values.push_back(pick(c));
    return values;
  }
  double MedianOf(double (*pick)(const CampaignResult&)) const {
    return Median(Each(pick));
  }
  double InterquartileMeanOf(double (*pick)(const CampaignResult&)) const {
    return InterquartileMean(Each(pick));
  }

  std::vector<double> Pooled(
      const std::vector<double> CampaignResult::*field) const {
    std::vector<double> all;
    for (const CampaignResult& c : campaigns) {
      all.insert(all.end(), (c.*field).begin(), (c.*field).end());
    }
    return all;
  }

  /// The upper quartile of per-campaign throughput. Other tenants of a
  /// shared host only ever slow a campaign, and on fleet_10k, whose HELLO
  /// round trips wait on thread wake-ups, a noisy stretch halved the
  /// interquartile mean of whole runs while the fast quartile held.
  double ReportsPerSecond() const {
    return Percentile(Each([](const CampaignResult& c) {
                        return static_cast<double>(c.reports_accepted) /
                               c.wall_s;
                      }),
                      0.75);
  }
};

/// Runs campaigns until `seconds` have passed (at least kMinCampaigns).
void RunPhase(const Inputs& inputs, double seconds, CampaignOptions options,
              const std::string& tag, Phase* phase,
              campaign::LayerTotals* totals,
              std::unique_ptr<campaign::Tracer>* last_trace) {
  const uint64_t started_ns = campaign::NowNs();
  for (size_t i = 0;; ++i) {
    const double elapsed =
        static_cast<double>(campaign::NowNs() - started_ns) / 1e9;
    if (i >= kMinCampaigns && elapsed >= seconds) break;
    std::unique_ptr<campaign::Tracer> tracer;
    if (totals != nullptr) {
      tracer = std::make_unique<campaign::Tracer>();
      options.tracer = tracer.get();
    }
    options.tag = tag + std::to_string(i);
    phase->Add(campaign::RunCampaign(inputs, options));
    if (tracer) {
      tracer->FoldInto(totals);
      *last_trace = std::move(tracer);
    }
  }
}

/// The corrupted-shard self-check: at tiny scale, an untouched campaign
/// passes the gate and one with a single flipped byte fails it.
bool SelfCheck(Workload workload, uint64_t seed) {
  auto tiny = campaign::Setup(workload, campaign::TinyScale(workload), seed,
                              "selfcheck-csv");
  if (!tiny.ok() || !campaign::ComputeReference(tiny.value().get()).ok()) {
    std::fprintf(stderr, "self-check: set-up failed\n");
    return false;
  }
  CampaignOptions options;
  options.tag = "selfcheck-clean";
  const CampaignResult clean = campaign::RunCampaign(*tiny.value(), options);
  options.tag = "selfcheck-flip";
  options.corrupt_ordinal = 0;
  const CampaignResult flipped = campaign::RunCampaign(*tiny.value(), options);
  const bool ok = clean.gate_ok && clean.failed == 0 && !flipped.gate_ok &&
                  flipped.failed > 0;
  std::printf("self-check: clean campaign %s, flipped-byte campaign %s (%s)\n",
              clean.gate_ok ? "passed" : "FAILED",
              flipped.gate_ok ? "PASSED (gate is blind)" : "failed the gate",
              flipped.gate_error.c_str());
  return ok;
}

std::vector<Metric> EndToEndMetrics(const Phase& phase, double setup_s,
                                    double rss_mib) {
  return {
      {"setup_s", setup_s, "s"},
      {"reports_per_s", phase.ReportsPerSecond(), "1/s"},
      {"cpu_us_per_report",
       phase.InterquartileMeanOf([](const CampaignResult& c) {
         return c.cpu_s * 1e6 / static_cast<double>(c.reports_accepted);
       }),
       "us"},
      {"campaign_rss_mib", rss_mib, "MiB"},
      {"recover_reports_per_s",
       Percentile(phase.Pooled(&CampaignResult::recover_per_s), 0.75),
       "1/s"},
  };
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> PerLayerMetrics(const Phase& traced,
                                    const campaign::LayerTotals& totals,
                                    obs::MetricsRegistry* registry,
                                    double untraced_rps) {
  double reports = 0, bytes = 0, rows = 0, decode_s = 0, decode_reports = 0,
         replay_s = 0, replay_bytes = 0, depth_sum = 0, depth_samples = 0;
  for (const CampaignResult& c : traced.campaigns) {
    reports += static_cast<double>(c.reports_accepted);
    bytes += static_cast<double>(c.bytes_sent);
    rows += static_cast<double>(c.rows_read);
    decode_s += c.decode_fold_s;
    decode_reports += static_cast<double>(c.decode_fold_reports);
    replay_s += c.replay_s;
    replay_bytes += static_cast<double>(c.replay_bytes);
    depth_sum += c.queue_depth_sum;
    depth_samples += static_cast<double>(c.queue_depth_samples);
  }
  auto self_ns = [&](const char* name) {
    const auto it = totals.self_ns.find(name);
    return it == totals.self_ns.end() ? 0.0
                                      : static_cast<double>(it->second);
  };
  const auto net = obs::NetServerMetrics::ForRegistry(registry);
  const auto session = obs::SessionMetrics::ForRegistry(registry);
  const auto ingest = obs::IngestMetrics::ForRegistry(registry);
  const auto pool = obs::PoolMetrics::ForRegistry(registry);
  const auto wal = obs::WalMetrics::ForRegistry(registry);
  const auto relay = obs::RelayMetrics::ForRegistry(registry);
  auto count = [](const obs::Counter* counter) {
    return static_cast<double>(counter->Value());
  };
  // Registry totals span every traced campaign; per campaign they compare
  // across runs that fit a different number of campaigns.
  const double campaigns = static_cast<double>(traced.campaigns.size());
  auto per_campaign = [&](const obs::Counter* counter) {
    return Ratio(count(counter), campaigns);
  };
  const double traced_rps = traced.ReportsPerSecond();
  return {
      {"data.csv.row_us", Ratio(self_ns("data.csv") / 1e3, rows), "us"},
      {"api.client.encode_us",
       Ratio(self_ns("api.client.encode") / 1e3, rows), "us"},
      {"api.client.bytes_per_report", Ratio(bytes, reports), "B"},
      {"net.client.send_ns_per_report",
       Ratio(self_ns("net.client.send"), reports), "ns"},
      {"net.server.data_read_us.p50", net.data_read_us->Quantile(0.5), "us"},
      {"net.server.data_read_us.p99", net.data_read_us->Quantile(0.99), "us"},
      {"net.server.reports_per_data_msg",
       Ratio(count(ingest.accepted), count(net.data_messages)), "count"},
      {"net.server.barrier_wait_us.p50",
       net.merge_barrier_wait_us->Quantile(0.5), "us"},
      {"net.server.barrier_wait_us.p99",
       net.merge_barrier_wait_us->Quantile(0.99), "us"},
      {"net.server.hello_accepted", per_campaign(net.hello_accepted),
       "1/campaign"},
      {"net.server.hello_refused", per_campaign(net.hello_refused),
       "1/campaign"},
      {"net.server.shards_merged", per_campaign(net.shards_merged),
       "1/campaign"},
      {"net.server.shards_abandoned", per_campaign(net.shards_abandoned),
       "1/campaign"},
      {"net.server.shards_discarded", per_campaign(net.shards_discarded),
       "1/campaign"},
      {"net.server.protocol_errors", per_campaign(net.protocol_errors),
       "1/campaign"},
      {"api.session.backpressure_wait_us.p99",
       session.backpressure_wait_us->Quantile(0.99), "us"},
      {"api.session.close_wait_us.p99",
       session.close_wait_us->Quantile(0.99), "us"},
      {"api.session.snapshot_ms",
       traced.MedianOf([](const CampaignResult& c) { return c.snapshot_ms; }),
       "ms"},
      {"api.session.estimate_ms",
       traced.MedianOf([](const CampaignResult& c) { return c.estimate_ms; }),
       "ms"},
      {"stream.ingest.accepted", per_campaign(ingest.accepted), "1/campaign"},
      {"stream.ingest.rejected", per_campaign(ingest.rejected), "1/campaign"},
      {"stream.ingest.bytes", per_campaign(ingest.bytes), "B/campaign"},
      {"stream.decode_fold_ns_per_report",
       Ratio(decode_s * 1e9, decode_reports),
       "ns"},
      {"util.pool.task_us.p99", pool.task_us->Quantile(0.99), "us"},
      {"util.pool.queue_depth", Ratio(depth_sum, depth_samples), "count"},
      {"relay.wal.append_us.p50", wal.append_us->Quantile(0.5), "us"},
      {"relay.wal.append_us.p99", wal.append_us->Quantile(0.99), "us"},
      {"relay.wal.bytes_per_report", Ratio(count(wal.bytes), reports), "B"},
      {"relay.wal.replay_mib_per_s",
       Ratio(replay_bytes / (1024.0 * 1024.0), replay_s), "MiB/s"},
      {"relay.forward_us",
       Ratio(static_cast<double>(relay.forward_us->Sum()),
             static_cast<double>(relay.forward_us->Count())),
       "us"},
      {"relay.drain_ms",
       traced.MedianOf([](const CampaignResult& c) { return c.drain_ms; }),
       "ms"},
      {"relay.fold_ms",
       traced.MedianOf([](const CampaignResult& c) { return c.fold_ms; }),
       "ms"},
      {"result_lag_ms",
       traced.InterquartileMeanOf(
           [](const CampaignResult& c) { return c.result_lag_ms; }),
       "ms"},
      {"net.client.admit_us.p50",
       Percentile(traced.Pooled(&CampaignResult::admit_us), 0.5), "us"},
      {"net.client.admit_us.p90",
       Percentile(traced.Pooled(&CampaignResult::admit_us), 0.9), "us"},
      {"net.client.admit_us.p99",
       Percentile(traced.Pooled(&CampaignResult::admit_us), 0.99), "us"},
      {"net.client.close_ms.p50",
       Percentile(traced.Pooled(&CampaignResult::close_ms), 0.5), "ms"},
      {"net.client.close_ms.p90",
       Percentile(traced.Pooled(&CampaignResult::close_ms), 0.9), "ms"},
      {"net.client.close_ms.p99",
       Percentile(traced.Pooled(&CampaignResult::close_ms), 0.99), "ms"},
      {"failed_ops_share",
       Ratio(static_cast<double>(traced.failed),
             static_cast<double>(traced.attempted)),
       "share"},
      {"trace.overhead_pct",
       untraced_rps > 0.0 ? (untraced_rps - traced_rps) / untraced_rps * 100.0
                          : 0.0,
       "%"},
      {"trace.coverage", totals.MinCoverage(), "share"},
  };
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload workload = args.workload;
  const char* name = campaign::WorkloadName(workload);

  // 1. Set-up, timed and repeated; the last one is kept.
  std::vector<double> setup_times;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    inputs.reset();
    const uint64_t started_ns = campaign::NowNs();
    auto built = campaign::Setup(workload, campaign::DefaultScale(workload),
                                 args.seed, "csv");
    setup_times.push_back(
        static_cast<double>(campaign::NowNs() - started_ns) / 1e9);
    if (!built.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    inputs = std::move(built).value();
  }
  const double setup_s = Median(setup_times);

  // 2. Reference and self-check (untimed).
  const ldp::Status reference = campaign::ComputeReference(inputs.get());
  if (!reference.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 reference.ToString().c_str());
    return 1;
  }
  const bool self_check = SelfCheck(workload, args.seed);

  // 3. Warm-up (its gate still counts). The peak restarts here, so the
  // warm-up's peak by the end of its timed window, above the resident
  // memory set-up leaves, is the footprint of one campaign in a process
  // fresh from set-up (campaign_rss_mib). The measured campaigns then run
  // on the heap it leaves, as a long-lived collector's would.
  const double baseline_kib = campaign::ResetPeakRss();
  Phase warmup;
  CampaignOptions untraced;
  untraced.tag = "warmup";
  warmup.Add(campaign::RunCampaign(*inputs, untraced));
  const double rss_mib =
      (warmup.campaigns.front().peak_rss_kib - baseline_kib) / 1024.0;

  // 4. Measured campaigns.
  Phase plain;
  Phase traced;
  obs::MetricsRegistry registry;
  campaign::LayerTotals totals;
  std::unique_ptr<campaign::Tracer> last_trace;
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  RunPhase(*inputs, plain_seconds, untraced, "c", &plain, nullptr, nullptr);
  if (args.trace) {
    CampaignOptions options;
    options.registry = &registry;
    RunPhase(*inputs, args.seconds / 2, options, "t", &traced, &totals,
             &last_trace);
    if (!args.trace_out.empty() && last_trace &&
        !last_trace->WriteJsonLines(args.trace_out)) {
      std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
    }
  }

  const bool correct = self_check && warmup.correct && plain.correct &&
                       traced.correct && warmup.failed == 0 &&
                       plain.failed == 0 && traced.failed == 0;
  const Phase& counted = args.trace ? traced : plain;
  std::printf("workload %s seed %llu: %zu measured campaigns of %llu "
              "reports (%zu reporters), %zu admit and %zu close samples, "
              "%llu failed of %llu attempted ops\n",
              name, static_cast<unsigned long long>(args.seed),
              plain.campaigns.size(),
              static_cast<unsigned long long>(inputs->total_reports),
              inputs->scale.reporters,
              plain.Pooled(&CampaignResult::admit_us).size(),
              plain.Pooled(&CampaignResult::close_ms).size(),
              static_cast<unsigned long long>(counted.failed),
              static_cast<unsigned long long>(counted.attempted));
  std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(traced, totals, &registry,
                                   plain.ReportsPerSecond())
                 : EndToEndMetrics(plain, setup_s, rss_mib);
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %16.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit);
  }
  PrintJson(correct, counted.attempted, counted.failed, metrics);
  // A failed gate or self-check fails the exit status too, not only the
  // JSON's "correct".
  return correct ? 0 : 3;
}
