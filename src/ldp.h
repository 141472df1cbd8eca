// Umbrella header: the library's public API in one include.
//
//   #include "ldp.h"
//
// Pulls in the session facade (api::Pipeline — the recommended entry point
// for collection: one config covers mixed and all-numeric tuples, in-process
// simulation, wire sessions, streaming shards, and multi-epoch privacy
// accounting), the scalar mechanisms (PM, HM and the baselines), the
// multidimensional collectors (Algorithm 4 and the Section IV-C mixed
// collector, whose one report format carries both on the wire), the
// frequency oracles, the dataset/encoding substrate, the
// network transport (net::ReportServer / net::CollectorClient — the
// TCP/UDS collector edge), the telemetry subsystem (obs::MetricsRegistry,
// obs::EventJournal and the obs::MetricsServer scrape endpoint), and the
// LDP-SGD trainer. Individual headers remain includable on their own for
// faster builds.

#ifndef LDP_LDP_H_
#define LDP_LDP_H_

#include "aggregate/confidence.h"
#include "api/pipeline.h"
#include "api/server_session.h"
#include "aggregate/estimators.h"
#include "aggregate/metrics.h"
#include "baselines/duchi_multi_dim.h"
#include "baselines/duchi_one_dim.h"
#include "baselines/laplace.h"
#include "baselines/scdf.h"
#include "baselines/staircase.h"
#include "core/accountant.h"
#include "core/hybrid.h"
#include "core/mechanism.h"
#include "core/mixed_collector.h"
#include "core/piecewise.h"
#include "core/sampled_numeric.h"
#include "core/scaler.h"
#include "core/variance.h"
#include "core/wire.h"
#include "data/census.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/encode.h"
#include "data/generators.h"
#include "data/schema.h"
#include "data/split.h"
#include "frequency/frequency_oracle.h"
#include "frequency/grr.h"
#include "frequency/histogram_encoding.h"
#include "frequency/histogram.h"
#include "frequency/olh.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "ml/evaluate.h"
#include "ml/ldp_sgd.h"
#include "ml/loss.h"
#include "ml/sgd.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "obs/exposition.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "stream/report_stream.h"
#include "stream/shard_ingester.h"
#include "stream/snapshot.h"
#include "util/build_info.h"
#include "util/random.h"
#include "util/result.h"
#include "util/sampling.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/threadpool.h"

#endif  // LDP_LDP_H_
