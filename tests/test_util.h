// Shared helpers for the test suite: Monte-Carlo moment estimation with
// sample-size-aware tolerances, small numeric utilities, and scratch
// directories that clean up after themselves.

#ifndef LDP_TESTS_TEST_UTIL_H_
#define LDP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/un.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "util/random.h"
#include "util/stats.h"

namespace ldp::testing {

/// Draws `n` samples from `sample` and returns their running statistics.
inline RunningStats SampleStats(uint64_t n, Rng* rng,
                                const std::function<double(Rng*)>& sample) {
  RunningStats stats;
  for (uint64_t i = 0; i < n; ++i) stats.Add(sample(rng));
  return stats;
}

/// A z-test-style tolerance for a Monte-Carlo mean: `sigmas` standard errors
/// plus a small absolute floor for exact-zero cases.
inline double MeanTolerance(const RunningStats& stats, double sigmas = 5.0) {
  return sigmas * stats.StdError() + 1e-9;
}

/// Relative-error tolerance for a Monte-Carlo variance estimate: the
/// variance of the sample variance is ~ (kurtosis-ish)·σ⁴/n; a generous
/// multiple of 1/√n covers all distributions used in these tests.
inline double VarianceRelTolerance(uint64_t n, double factor = 12.0) {
  return factor / std::sqrt(static_cast<double>(n));
}

/// Numerically integrates `f` over [lo, hi] with the composite Simpson rule
/// (`intervals` must be even). Used to validate closed-form densities.
inline double Integrate(const std::function<double(double)>& f, double lo,
                        double hi, int intervals = 20000) {
  const double h = (hi - lo) / intervals;
  double sum = f(lo) + f(hi);
  for (int i = 1; i < intervals; ++i) {
    sum += f(lo + i * h) * ((i % 2 == 1) ? 4.0 : 2.0);
  }
  return sum * h / 3.0;
}

/// A fresh, empty directory under the test temp dir, named `prefix` plus a
/// unique suffix, removed with everything in it when the object goes out of
/// scope. Declare it before whatever writes into it (a WAL, a server), so
/// those close first.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    std::string pattern = ::testing::TempDir() + prefix + "XXXXXX";
    if (::mkdtemp(pattern.data()) != nullptr) path_ = pattern;
    EXPECT_FALSE(path_.empty()) << "mkdtemp failed for " << pattern;
  }

  ~ScopedTempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A Unix socket path for `name`, in a directory of this test process's own
/// that is removed, with every socket in it, when the process exits. The
/// path must fit sockaddr_un's sun_path.
inline std::string TestSocketPath(const std::string& name) {
  static const ScopedTempDir dir("ldp_sock_");
  const std::string path = dir.path() + "/" + name + ".sock";
  EXPECT_LT(path.size(), sizeof(sockaddr_un{}.sun_path)) << path;
  return path;
}

}  // namespace ldp::testing

#endif  // LDP_TESTS_TEST_UTIL_H_
