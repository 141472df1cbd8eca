// Network collector example: the full deployment loop of the paper's
// collection model in one process — an ldp::net::ReportServer listening on
// a loopback Unix-domain socket, three concurrent "device fleets" streaming
// privatized reports at it through ldp::net::CollectorClient, and the
// determinism contract checked at the end: the networked session is
// byte-identical to a session fed the same shards directly through
// ServerSession::Feed, because shards merge in client ordinal order
// regardless of which connection finishes first.
//
// Run: ./network_collector   (also registered as a ctest smoke test)

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ldp.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"

using namespace ldp;  // NOLINT: example binary

namespace {

constexpr uint64_t kUsers = 3000;
constexpr size_t kFleets = 3;
constexpr uint64_t kSeed = 2026;

// One device fleet's shard: every user's row perturbed on-device and
// framed, exactly the bytes ldp_report would ship.
std::string EncodeFleetShard(const api::ClientSession& client,
                             const IndexRange& range) {
  std::string bytes;
  for (uint64_t row = range.begin; row < range.end; ++row) {
    MixedTuple tuple(3);
    tuple[0] = AttributeValue::Numeric((row % 200) / 100.0 - 1.0);  // usage
    tuple[1] = AttributeValue::Categorical(row % 5);                // platform
    tuple[2] = AttributeValue::Numeric((row % 50) / 25.0 - 1.0);    // battery
    Rng rng = api::UserRng(kSeed, row);
    if (!client.AppendFrame(tuple, &rng, &bytes).ok()) {
      std::fprintf(stderr, "encode failed\n");
      std::exit(1);
    }
  }
  return bytes;
}

}  // namespace

int main() {
  // The protocol: 3 attributes, ε = 2 per user.
  api::PipelineConfig config;
  config.attributes = {MixedAttribute::Numeric(), MixedAttribute::Categorical(5),
                       MixedAttribute::Numeric()};
  config.epsilon = 2.0;
  auto pipeline = api::Pipeline::Create(config);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto client = pipeline.value().NewClient();
  auto networked = pipeline.value().NewServer();
  auto direct = pipeline.value().NewServer();
  if (!client.ok() || !networked.ok() || !direct.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }

  // Every fleet's bytes, encoded once so both sessions see the same wire.
  const std::vector<IndexRange> ranges = SplitRange(kUsers, kFleets);
  std::vector<std::string> shards;
  for (const IndexRange& range : ranges) {
    shards.push_back(EncodeFleetShard(client.value(), range));
  }

  // The collector: one UDS listener, one acceptor per fleet.
  const net::Endpoint endpoint = {net::Endpoint::Kind::kUnix, "", 0,
                                  "/tmp/ldp_network_collector_" +
                                      std::to_string(::getpid()) + ".sock"};
  net::ReportServerOptions options;
  options.acceptors = static_cast<unsigned>(kFleets);
  // The fleet size makes ordinal-ordered merging a strict barrier: the
  // byte-equality check below holds no matter how the threads race.
  options.expected_shards = kFleets;
  auto server = net::ReportServer::Start(
      &networked.value(), pipeline.value().header(), endpoint, options);
  if (!server.ok()) {
    std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
    return 1;
  }
  std::printf("collector listening on %s\n",
              server.value()->endpoint().ToString().c_str());

  // Three concurrent reporters, deliberately racing: fleet f HELLOs
  // ordinal f, so merge order is deterministic anyway.
  std::vector<std::thread> fleets;
  for (size_t f = 0; f < kFleets; ++f) {
    fleets.emplace_back([&, f] {
      auto connection = net::CollectorClient::Connect(
          endpoint, pipeline.value().header(), /*ordinal=*/f);
      if (!connection.ok()) {
        std::fprintf(stderr, "fleet %zu: %s\n", f,
                     connection.status().ToString().c_str());
        std::exit(1);
      }
      // The HELLO already negotiated the stream header on channel 0; ship
      // only frames.
      if (!connection.value()
               .Send(/*channel=*/0, shards[f].data(), shards[f].size())
               .ok()) {
        std::fprintf(stderr, "fleet %zu: send failed\n", f);
        std::exit(1);
      }
      auto summary = connection.value().CloseShard(/*channel=*/0);
      if (!summary.ok() || !summary.value().status.ok()) {
        std::fprintf(stderr, "fleet %zu: close failed\n", f);
        std::exit(1);
      }
      std::printf("fleet %zu: %llu reports accepted\n", f,
                  static_cast<unsigned long long>(
                      summary.value().stats.accepted));
    });
  }
  for (std::thread& fleet : fleets) fleet.join();
  server.value()->Stop(/*drain=*/true);

  // The reference: the same shard bytes fed straight into a session (with
  // the header prepended, as a file shard would carry it).
  for (const std::string& bytes : shards) {
    const size_t shard = direct.value().OpenShard();
    if (!direct.value().Feed(shard, client.value().EncodeHeader()).ok() ||
        !direct.value().Feed(shard, bytes).ok() ||
        !direct.value().CloseShard(shard).ok()) {
      std::fprintf(stderr, "direct feed failed\n");
      return 1;
    }
  }

  if (networked.value().Snapshot() != direct.value().Snapshot()) {
    std::fprintf(stderr,
                 "networked session diverged from the direct session\n");
    return 1;
  }
  std::printf("networked session == direct session (byte-identical)\n");

  auto estimates = networked.value().Estimate(0);
  if (!estimates.ok()) {
    std::fprintf(stderr, "%s\n", estimates.status().ToString().c_str());
    return 1;
  }
  std::printf("collected %llu reports; mean(usage) = %.4f, "
              "mean(battery) = %.4f\nplatform frequencies:",
              static_cast<unsigned long long>(estimates.value().num_reports),
              estimates.value().means[0], estimates.value().means[1]);
  for (const double f : estimates.value().frequencies[0]) {
    std::printf(" %.4f", f);
  }
  std::printf("\n");
  return 0;
}
