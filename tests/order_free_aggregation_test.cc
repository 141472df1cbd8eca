// Order-free aggregation: every accumulated quantity is an integer, so the
// session state depends only on which reports were folded. A BR census is
// split into shards at boundaries no SplitRange produces, and every way of
// putting them back together — shard close order, relay snapshot merge
// order, IngestInputs argument order, Collect pool size, a networked
// campaign whose reporters close in reverse ordinal order — must give the
// same Snapshot() bytes (or, for Collect, the same estimate bits).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "data/census.h"
#include "data/encode.h"
#include "net/client.h"
#include "net/report_server.h"
#include "stream/report_stream.h"
#include "test_util.h"
#include "util/threadpool.h"

namespace ldp {
namespace {

constexpr double kEpsilon = 4.0;
constexpr uint64_t kSeed = 29;
constexpr uint64_t kRows = 3000;
// Six shards of 37 to 890 rows: unlike any SplitRange chunking, whose
// chunks are all one size but the last.
const std::vector<uint64_t> kCuts = {0, 37, 700, 1234, 2000, 2890, kRows};

class OrderFreeAggregationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto census = data::MakeBrazilCensus(kRows, 5);
    ASSERT_TRUE(census.ok());
    dataset_.emplace(data::NormalizeNumeric(census.value()));
    auto config =
        api::PipelineConfig::FromSchema(dataset_->schema(), kEpsilon);
    ASSERT_TRUE(config.ok());
    auto pipeline = api::Pipeline::Create(std::move(config).value());
    ASSERT_TRUE(pipeline.ok());
    pipeline_.emplace(std::move(pipeline).value());
    auto client = pipeline_->NewClient();
    ASSERT_TRUE(client.ok());
    const data::Schema& schema = dataset_->schema();
    MixedTuple tuple(schema.num_columns());
    for (size_t s = 0; s + 1 < kCuts.size(); ++s) {
      std::string frames;
      for (uint64_t row = kCuts[s]; row < kCuts[s + 1]; ++row) {
        for (uint32_t col = 0; col < schema.num_columns(); ++col) {
          if (schema.column(col).type == data::ColumnType::kNumeric) {
            tuple[col].numeric = dataset_->numeric(row, col);
          } else {
            tuple[col].category = dataset_->category(row, col);
          }
        }
        Rng rng = api::UserRng(kSeed, row);
        ASSERT_TRUE(client.value().AppendFrame(tuple, &rng, &frames).ok());
      }
      frames_.push_back(std::move(frames));
    }
    header_ = client.value().EncodeHeader();
    // The reference: every report in one shard.
    auto whole = pipeline_->NewServer();
    ASSERT_TRUE(whole.ok());
    const size_t shard = whole.value().OpenShard();
    ASSERT_TRUE(whole.value().Feed(shard, header_).ok());
    for (const std::string& frames : frames_) {
      ASSERT_TRUE(whole.value().Feed(shard, frames).ok());
    }
    ASSERT_TRUE(whole.value().CloseShard(shard).ok());
    reference_ = whole.value().Snapshot();
    auto estimates = whole.value().Estimate(0);
    ASSERT_TRUE(estimates.ok());
    reference_estimates_ = std::move(estimates).value();
  }

  // The session snapshot of the shards in `order`, each opened up front
  // and closed in that order.
  std::string CloseInOrder(const std::vector<size_t>& order) const {
    auto session = pipeline_->NewServer();
    EXPECT_TRUE(session.ok());
    std::vector<size_t> ids;
    for (const std::string& frames : frames_) {
      ids.push_back(session.value().OpenShard());
      EXPECT_TRUE(session.value().Feed(ids.back(), header_ + frames).ok());
    }
    for (const size_t s : order) {
      EXPECT_TRUE(session.value().CloseShard(ids[s]).ok());
    }
    return session.value().Snapshot();
  }

  std::vector<size_t> Identity() const {
    std::vector<size_t> order(frames_.size());
    for (size_t s = 0; s < order.size(); ++s) order[s] = s;
    return order;
  }

  std::optional<data::Dataset> dataset_;
  std::optional<api::Pipeline> pipeline_;
  std::string header_;
  std::vector<std::string> frames_;  // per shard, without the header
  std::string reference_;
  api::PipelineEstimates reference_estimates_;
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_F(OrderFreeAggregationTest, EveryCloseOrderGivesTheSameSnapshot) {
  EXPECT_EQ(CloseInOrder(Identity()), reference_);
  std::vector<size_t> order = Identity();
  for (uint32_t seed = 0; seed < 50; ++seed) {
    std::mt19937 shuffle(seed);
    std::shuffle(order.begin(), order.end(), shuffle);
    EXPECT_EQ(CloseInOrder(order), reference_) << "shuffle seed " << seed;
  }
}

TEST_F(OrderFreeAggregationTest, EveryRelayMergeOrderGivesTheSameSnapshot) {
  // One edge session per shard, folded by a root in every rotation and in
  // reverse; and a two-level tree (edges of three and three shards).
  std::vector<std::string> edges;
  for (size_t s = 0; s < frames_.size(); ++s) {
    auto edge = pipeline_->NewServer();
    ASSERT_TRUE(edge.ok());
    const size_t shard = edge.value().OpenShard();
    ASSERT_TRUE(edge.value().Feed(shard, header_ + frames_[s]).ok());
    ASSERT_TRUE(edge.value().CloseShard(shard).ok());
    edges.push_back(edge.value().Snapshot());
  }
  auto fold = [&](const std::vector<std::string>& snapshots) {
    auto root = pipeline_->NewServer();
    EXPECT_TRUE(root.ok());
    for (const std::string& snapshot : snapshots) {
      EXPECT_TRUE(root.value().Merge(snapshot).ok());
    }
    return root.value().Snapshot();
  };
  for (size_t r = 0; r < edges.size(); ++r) {
    std::vector<std::string> rotated = edges;
    std::rotate(rotated.begin(), rotated.begin() + r, rotated.end());
    EXPECT_EQ(fold(rotated), reference_) << "rotation " << r;
    std::reverse(rotated.begin(), rotated.end());
    EXPECT_EQ(fold(rotated), reference_) << "reversed rotation " << r;
  }
  const std::string upper = fold({edges[5], edges[1], edges[3]});
  const std::string lower = fold({edges[4], edges[0], edges[2]});
  EXPECT_EQ(fold({upper, lower}), reference_);
  EXPECT_EQ(fold({lower, upper}), reference_);
}

TEST_F(OrderFreeAggregationTest, EveryIngestArgumentOrderGivesTheSameSnapshot) {
  const ldp::testing::ScopedTempDir dir("ldp_order_free_");
  std::vector<std::string> paths;
  for (size_t s = 0; s < frames_.size(); ++s) {
    paths.push_back(dir.path() + "/shard-" + std::to_string(s) + ".ldps");
    std::ofstream out(paths.back(), std::ios::binary);
    out << header_ << frames_[s];
  }
  ThreadPool pool(3);
  std::vector<size_t> order = Identity();
  for (uint32_t seed = 0; seed < 10; ++seed) {
    std::vector<std::string> permuted;
    for (const size_t s : order) permuted.push_back(paths[s]);
    auto session = pipeline_->NewServer();
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(session.value().IngestInputs(permuted, &pool).ok());
    EXPECT_EQ(session.value().Snapshot(), reference_) << "seed " << seed;
    std::mt19937 shuffle(seed);
    std::shuffle(order.begin(), order.end(), shuffle);
  }
}

TEST_F(OrderFreeAggregationTest, EveryCollectPoolSizeGivesTheSameEstimates) {
  for (const unsigned threads : {0u, 1u, 2u, 3u, 4u, 7u}) {
    std::optional<ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    auto collected =
        pipeline_->Collect(*dataset_, kSeed, pool ? &*pool : nullptr);
    ASSERT_TRUE(collected.ok());
    EXPECT_TRUE(SameBits(collected.value().estimated_means,
                         reference_estimates_.means))
        << threads << " threads";
    ASSERT_EQ(collected.value().estimated_frequencies.size(),
              reference_estimates_.frequencies.size());
    for (size_t c = 0; c < reference_estimates_.frequencies.size(); ++c) {
      EXPECT_TRUE(SameBits(collected.value().estimated_frequencies[c],
                           reference_estimates_.frequencies[c]))
          << threads << " threads, attribute " << c;
    }
  }
}

TEST_F(OrderFreeAggregationTest, NetworkedReverseCloseGivesTheSameSnapshot) {
  // All six shards multiplex over one connection, so the server reads —
  // and merges — their CLOSEs in the order sent: highest ordinal first.
  auto session = pipeline_->NewServer();
  ASSERT_TRUE(session.ok());
  net::ReportServerOptions options;
  options.expected_shards = frames_.size();
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = ldp::testing::TestSocketPath("order_free");
  auto server = net::ReportServer::Start(&session.value(), pipeline_->header(),
                                         endpoint, options);
  ASSERT_TRUE(server.ok());
  auto client = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline_->header(), /*ordinal=*/0);
  ASSERT_TRUE(client.ok());
  std::vector<uint32_t> channels = {0};
  for (uint64_t ordinal = 1; ordinal < frames_.size(); ++ordinal) {
    auto channel = client.value().OpenShard(pipeline_->header(), ordinal);
    ASSERT_TRUE(channel.ok()) << channel.status().ToString();
    channels.push_back(channel.value());
  }
  for (size_t s = 0; s < frames_.size(); ++s) {
    ASSERT_TRUE(client.value()
                    .Send(channels[s], frames_[s].data(), frames_[s].size())
                    .ok());
  }
  for (size_t s = frames_.size(); s-- > 0;) {
    ASSERT_TRUE(client.value().CloseShardBegin(channels[s]).ok());
  }
  for (size_t s = frames_.size(); s-- > 0;) {
    auto verdict = client.value().AwaitShardClosed(channels[s]);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    EXPECT_TRUE(verdict.value().status.ok())
        << verdict.value().status.ToString();
  }
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().shards_merged, frames_.size());
  EXPECT_EQ(session.value().Snapshot(), reference_);
}

}  // namespace
}  // namespace ldp
