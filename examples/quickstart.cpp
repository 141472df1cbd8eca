// Quickstart: the 60-second tour of the library.
//
// Three scenarios on simulated users:
//   1. one numeric value per user  → estimate its mean with the Hybrid
//      Mechanism (the paper's headline primitive);
//   2. one categorical value per user → estimate value frequencies with the
//      OUE frequency oracle;
//   3. a mixed multidimensional tuple per user → estimate everything at once
//      with the api::Pipeline session facade (Algorithm 4 + OUE) under ONE
//      budget, reports crossing a real wire between a ClientSession and a
//      ServerSession.
//
// Build and run:   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "core/mechanism.h"
#include "frequency/histogram.h"
#include "frequency/oue.h"
#include "util/random.h"

int main() {
  const double epsilon = 1.0;  // the privacy budget every user enjoys
  const int num_users = 100000;
  ldp::Rng rng(42);  // all randomness is seeded → reproducible output

  // ------------------------------------------------------------------
  // 1. Mean of a numeric value in [-1, 1] under ε-LDP.
  // ------------------------------------------------------------------
  auto mechanism =
      ldp::MakeScalarMechanism(ldp::MechanismKind::kHybrid, epsilon);
  if (!mechanism.ok()) {
    std::fprintf(stderr, "%s\n", mechanism.status().ToString().c_str());
    return 1;
  }
  double true_sum = 0.0, noisy_sum = 0.0;
  for (int i = 0; i < num_users; ++i) {
    const double secret = rng.Uniform(-0.2, 0.8);  // this user's true value
    // Everything before this line happens on the user's device; only the
    // perturbed value crosses the wire.
    const double report = mechanism.value()->Perturb(secret, &rng);
    true_sum += secret;
    noisy_sum += report;
  }
  std::printf("1) numeric mean:   true %+.4f   estimated %+.4f   (HM, eps=%g)\n",
              true_sum / num_users, noisy_sum / num_users, epsilon);

  // ------------------------------------------------------------------
  // 2. Frequencies of a categorical value under ε-LDP.
  // ------------------------------------------------------------------
  const uint32_t domain = 4;  // e.g. {Chrome, Firefox, Safari, Other}
  const ldp::OueOracle oracle(epsilon, domain);
  ldp::FrequencyEstimator estimator(&oracle);
  std::vector<double> true_counts(domain, 0.0);
  for (int i = 0; i < num_users; ++i) {
    const auto secret = static_cast<uint32_t>(rng.Bernoulli(0.55)  ? 0
                                              : rng.Bernoulli(0.6) ? 1
                                              : rng.Bernoulli(0.5) ? 2
                                                                   : 3);
    true_counts[secret] += 1.0;
    estimator.Add(oracle.Perturb(secret, &rng));
  }
  const std::vector<double> frequencies = estimator.ProjectedEstimate();
  std::printf("2) frequencies:  ");
  for (uint32_t v = 0; v < domain; ++v) {
    std::printf("  v%u true %.3f est %.3f", v, true_counts[v] / num_users,
                frequencies[v]);
  }
  std::printf("   (OUE, eps=%g)\n", epsilon);

  // ------------------------------------------------------------------
  // 3. A whole tuple — 2 numeric + 1 categorical — under ONE budget,
  //    through the Pipeline session API (reports cross a real wire).
  // ------------------------------------------------------------------
  ldp::api::PipelineConfig config;
  config.attributes = {ldp::MixedAttribute::Numeric(),
                       ldp::MixedAttribute::Numeric(),
                       ldp::MixedAttribute::Categorical(3)};
  config.epsilon = epsilon;
  auto pipeline = ldp::api::Pipeline::Create(config);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  auto client = pipeline.value().NewClient();   // runs on each device
  auto server = pipeline.value().NewServer();   // runs at the aggregator
  if (!client.ok() || !server.ok()) {
    std::fprintf(stderr, "session setup failed\n");
    return 1;
  }
  const size_t shard = server.value().OpenShard();
  if (!server.value().Feed(shard, client.value().EncodeHeader()).ok()) {
    std::fprintf(stderr, "header rejected\n");
    return 1;
  }
  double true_mean0 = 0.0;
  for (int i = 0; i < num_users; ++i) {
    ldp::MixedTuple tuple(3);
    tuple[0] = ldp::AttributeValue::Numeric(rng.Uniform(-1.0, 0.0));
    tuple[1] = ldp::AttributeValue::Numeric(rng.Uniform(0.0, 0.5));
    tuple[2] = ldp::AttributeValue::Categorical(
        static_cast<uint32_t>(rng.UniformIndex(3)));
    true_mean0 += tuple[0].numeric / num_users;
    // Everything above happens on the device; only this frame crosses the
    // wire to the server.
    std::string frame;
    if (!client.value().AppendFrame(tuple, &rng, &frame).ok() ||
        !server.value().Feed(shard, frame).ok()) {
      std::fprintf(stderr, "report rejected\n");
      return 1;
    }
  }
  if (!server.value().CloseShard(shard).ok()) {
    std::fprintf(stderr, "shard close failed\n");
    return 1;
  }
  std::printf(
      "3) mixed tuple:    attr0 true %+.4f estimated %+.4f;   "
      "attr2 frequencies:",
      true_mean0, server.value().EstimateMean(0, /*epoch=*/0).value());
  const std::vector<double> attr2_frequencies =
      server.value().EstimateFrequencies(2, /*epoch=*/0).value();
  for (const double f : attr2_frequencies) {
    std::printf(" %.3f", f);
  }
  std::printf("\n   (each user reported only %u of 3 attributes at eps/%u; "
              "eps spent this epoch: %g)\n",
              pipeline.value().k(), pipeline.value().k(),
              server.value().epsilon_spent());
  return 0;
}
