// Throughput microbenchmarks (google-benchmark): perturbation cost of every
// scalar mechanism, the multidimensional collectors, the frequency oracles,
// and the end-to-end aggregation path. These quantify the "simple and easy
// to implement" claim of Section IV — Algorithm 4 does O(k) work per user
// versus Algorithm 3's O(d).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/duchi_multi_dim.h"
#include "core/mechanism.h"
#include "core/mixed_collector.h"
#include "core/sampled_numeric.h"
#include "frequency/frequency_oracle.h"
#include "frequency/histogram.h"
#include "util/random.h"

namespace {

using namespace ldp;  // NOLINT: benchmark binary

void BM_ScalarPerturb(benchmark::State& state) {
  const auto kind = static_cast<MechanismKind>(state.range(0));
  auto mech = MakeScalarMechanism(kind, 1.0);
  Rng rng(1);
  double t = 0.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.value()->Perturb(t, &rng));
    t = -t;
  }
  state.SetLabel(MechanismKindToString(kind));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScalarPerturb)
    ->Arg(static_cast<int>(MechanismKind::kLaplace))
    ->Arg(static_cast<int>(MechanismKind::kScdf))
    ->Arg(static_cast<int>(MechanismKind::kStaircase))
    ->Arg(static_cast<int>(MechanismKind::kDuchi))
    ->Arg(static_cast<int>(MechanismKind::kPiecewise))
    ->Arg(static_cast<int>(MechanismKind::kHybrid));

void BM_DuchiMultiPerturb(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  const DuchiMultiDimMechanism mech(1.0, d);
  Rng rng(2);
  std::vector<double> tuple(d, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.Perturb(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DuchiMultiPerturb)->Arg(8)->Arg(32)->Arg(128);

void BM_SampledNumericPerturb(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  auto mech = SampledNumericMechanism::Create(MechanismKind::kHybrid, 1.0, d);
  Rng rng(3);
  std::vector<double> tuple(d, 0.25);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mech.value().Perturb(tuple, &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SampledNumericPerturb)->Arg(8)->Arg(32)->Arg(128);

void BM_MixedCollectorPerturb(benchmark::State& state) {
  const uint32_t d = static_cast<uint32_t>(state.range(0));
  std::vector<MixedAttribute> schema;
  MixedTuple tuple;
  for (uint32_t j = 0; j < d; ++j) {
    if (j % 2 == 0) {
      schema.push_back(MixedAttribute::Numeric());
      tuple.push_back(AttributeValue::Numeric(0.25));
    } else {
      schema.push_back(MixedAttribute::Categorical(8));
      tuple.push_back(AttributeValue::Categorical(j % 8));
    }
  }
  auto collector = MixedTupleCollector::Create(schema, 1.0);
  Rng rng(4);
  std::string report;
  for (auto _ : state) {
    report.clear();
    collector.value().AppendReport(tuple, &rng, &report);
    benchmark::DoNotOptimize(report.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MixedCollectorPerturb)->Arg(8)->Arg(32);

void BM_FrequencyOraclePerturb(benchmark::State& state) {
  const auto kind = static_cast<FrequencyOracleKind>(state.range(0));
  const uint32_t domain = static_cast<uint32_t>(state.range(1));
  auto oracle = MakeFrequencyOracle(kind, 1.0, domain);
  Rng rng(5);
  std::string words(4 * oracle.value()->MaxReportSize(), '\0');
  uint32_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        oracle.value()->PerturbInto(v, &rng, words.data()));
    v = (v + 1) % domain;
  }
  state.SetLabel(FrequencyOracleKindToString(kind));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrequencyOraclePerturb)
    ->Args({static_cast<int>(FrequencyOracleKind::kGrr), 32})
    ->Args({static_cast<int>(FrequencyOracleKind::kSue), 32})
    ->Args({static_cast<int>(FrequencyOracleKind::kOue), 32})
    ->Args({static_cast<int>(FrequencyOracleKind::kOlh), 32});

void BM_OueAggregate(benchmark::State& state) {
  auto oracle = MakeFrequencyOracle(FrequencyOracleKind::kOue, 1.0, 32);
  Rng rng(6);
  // Pre-generate reports so only the server half is timed.
  std::vector<FrequencyOracle::Report> reports;
  for (int i = 0; i < 4096; ++i) {
    reports.push_back(oracle.value()->Perturb(i % 32, &rng));
  }
  size_t next = 0;
  FrequencyEstimator estimator(oracle.value().get());
  for (auto _ : state) {
    estimator.Add(reports[next]);
    next = (next + 1) % reports.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OueAggregate);

}  // namespace

// Like BENCHMARK_MAIN(), but defaults --benchmark_out to
// BENCH_perf_mechanisms.json (JSON format) so every run leaves a
// machine-readable record for performance-trend tracking; explicit
// --benchmark_out flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out", 15) == 0) has_out = true;
  }
  static char out_flag[] = "--benchmark_out=BENCH_perf_mechanisms.json";
  static char format_flag[] = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag);
    args.push_back(format_flag);
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
