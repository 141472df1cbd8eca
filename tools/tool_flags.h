// Shared CLI flag parsers for the tools. `--oracle`, `--mechanism`, and the
// campaign-identity flags (`--reporter-id`, `--campaign-key`, `--node-id`)
// must accept exactly the same vocabulary in every binary (ldp_collect,
// ldp_report, ldp_serve); one parser per flag keeps a new oracle kind — or
// an identity validation rule — from being silently unreachable or
// different in one tool. Every count and real-valued flag of the five tools
// goes through ParseCountFlag / ParseRealFlag.

#ifndef LDP_TOOLS_TOOL_FLAGS_H_
#define LDP_TOOLS_TOOL_FLAGS_H_

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "core/mechanism.h"
#include "frequency/frequency_oracle.h"
#include "net/protocol.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "util/build_info.h"

namespace ldp::tools {

/// Uniform `--version` handling: if the flag is present anywhere on the
/// command line, print the build-info line and return true (callers exit 0).
/// Scanned before normal flag parsing so `ldp_x --version` never trips the
/// required-flag checks.
inline bool HandleVersionFlag(int argc, char** argv, const char* tool_name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", BuildInfoVersionLine(tool_name).c_str());
      return true;
    }
  }
  return false;
}

/// Writes the registry's JSON exposition to `path` for `--metrics-out`.
/// Returns false (with a message on stderr) on write failure.
inline bool WriteMetricsFile(const std::string& path,
                             const obs::MetricsRegistry& registry) {
  std::ofstream out(path, std::ios::trunc);
  const std::string json = obs::ToJson(registry);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "write error on %s\n", path.c_str());
    return false;
  }
  return true;
}

/// Cap on `--threads` and `--acceptors`: each value starts that many
/// threads, so a typo must not ask for billions of them.
constexpr uint64_t kMaxThreadsFlag = 1024;

/// Parses a count flag's operand into `*out`: the whole string must be
/// decimal digits (no sign, no space, not empty) and the value at most
/// `max`, which defaults to the largest `T`. Leaves `*out` alone and
/// returns false otherwise; callers exit 2 with their usage text.
template <typename T>
bool ParseCountFlag(const char* text, T* out,
                    uint64_t max = std::numeric_limits<T>::max()) {
  const char* end = text + std::strlen(text);
  uint64_t value = 0;
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || value > max) return false;
  *out = static_cast<T>(value);
  return true;
}

/// Parses a real flag's operand: strtod must take the whole non-empty
/// string, with no leading space.
inline bool ParseRealFlag(const char* text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' ||
      std::isspace(static_cast<unsigned char>(*text))) {
    return false;
  }
  *out = value;
  return true;
}

/// "oue" | "grr" | "sue" | "olh" | "he" | "the".
inline bool ParseOracleFlag(const std::string& name,
                            FrequencyOracleKind* kind) {
  if (name == "oue") *kind = FrequencyOracleKind::kOue;
  else if (name == "grr") *kind = FrequencyOracleKind::kGrr;
  else if (name == "sue") *kind = FrequencyOracleKind::kSue;
  else if (name == "olh") *kind = FrequencyOracleKind::kOlh;
  else if (name == "he") *kind = FrequencyOracleKind::kHe;
  else if (name == "the") *kind = FrequencyOracleKind::kThe;
  else return false;
  return true;
}

/// "hm" | "pm".
inline bool ParseMechanismFlag(const std::string& name, MechanismKind* kind) {
  if (name == "hm") *kind = MechanismKind::kHybrid;
  else if (name == "pm") *kind = MechanismKind::kPiecewise;
  else return false;
  return true;
}

/// The campaign-identity flags (`--reporter-id`, `--campaign-key`,
/// `--node-id`) parsed through one table so the validation rules — the
/// protocol's reporter-id length bound, strict numeric node ids — cannot
/// drift between ldp_report, ldp_serve, and ldp_collect.
struct IdentityFlags {
  std::string reporter_id;   ///< stable per-user id carried in v3 HELLOs
  std::string campaign_key;  ///< shared HMAC secret; enables protocol v3
  uint64_t node_id = 0;      ///< relay edge identity for snapshot folding
};

/// Which identity flags a given tool accepts (OR of these bits).
enum IdentityFlagMask : unsigned {
  kFlagReporterId = 1u << 0,
  kFlagCampaignKey = 1u << 1,
  kFlagNodeId = 1u << 2,
};

/// Consumes `arg` when it is one of the identity flags enabled in `allowed`,
/// pulling the operand through the tool's `next()` callback. Returns false
/// when `arg` is not an enabled identity flag (the caller keeps matching its
/// own flags). On a malformed operand the flag is still consumed and *error
/// says why; callers print it and exit with usage.
template <typename NextFn>
bool ParseIdentityFlag(const std::string& arg, NextFn&& next, unsigned allowed,
                       IdentityFlags* flags, std::string* error) {
  if (arg == "--reporter-id" && (allowed & kFlagReporterId) != 0) {
    const std::string value = next();
    if (value.empty()) {
      *error = "--reporter-id must be non-empty";
    } else if (value.size() > net::kMaxReporterIdBytes) {
      *error = "--reporter-id exceeds the " +
               std::to_string(net::kMaxReporterIdBytes) +
               "-byte protocol bound";
    } else {
      flags->reporter_id = value;
    }
    return true;
  }
  if (arg == "--campaign-key" && (allowed & kFlagCampaignKey) != 0) {
    const std::string value = next();
    if (value.empty()) {
      *error = "--campaign-key must be non-empty";
    } else {
      flags->campaign_key = value;
    }
    return true;
  }
  if (arg == "--node-id" && (allowed & kFlagNodeId) != 0) {
    if (!ParseCountFlag(next(), &flags->node_id)) {
      *error = "--node-id must be a non-negative integer";
    }
    return true;
  }
  return false;
}

/// Reporter-side pairing rule: the campaign key signs HELLOs *for* a
/// reporter id, and an id without the key would leave the wire
/// unauthenticated — both halves must be given together.
inline bool CheckReporterIdentity(const IdentityFlags& flags,
                                  std::string* error) {
  if (flags.campaign_key.empty() == flags.reporter_id.empty()) return true;
  *error = flags.campaign_key.empty()
               ? "--reporter-id requires --campaign-key"
               : "--campaign-key requires --reporter-id";
  return false;
}

}  // namespace ldp::tools

#endif  // LDP_TOOLS_TOOL_FLAGS_H_
