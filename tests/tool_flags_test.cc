// Table-driven coverage of the shared CLI flag parsers (tools/tool_flags.h).
// The tools all parse `--oracle`/`--mechanism` and the campaign
// identity flags through these helpers; the tables here pin the exact
// vocabulary and validation rules so a drift in any one binary would have to
// change a shared parser and fail this test.

#include "tool_flags.h"

#include <gtest/gtest.h>

#include <string>

namespace ldp::tools {
namespace {

constexpr unsigned kAllIdentityFlags =
    kFlagReporterId | kFlagCampaignKey | kFlagNodeId;

struct IdentityCase {
  const char* flag;
  std::string value;
  unsigned allowed;
  bool consumed;  // recognized as an enabled identity flag
  bool valid;     // no validation error
};

TEST(IdentityFlagTest, Table) {
  const std::string max_id(net::kMaxReporterIdBytes, 'a');
  const IdentityCase kCases[] = {
      {"--reporter-id", "user-7", kAllIdentityFlags, true, true},
      {"--reporter-id", max_id, kAllIdentityFlags, true, true},
      {"--reporter-id", max_id + "a", kAllIdentityFlags, true, false},
      {"--reporter-id", "", kAllIdentityFlags, true, false},
      // A tool that does not enable the flag must leave it unparsed.
      {"--reporter-id", "user-7", kFlagCampaignKey | kFlagNodeId, false, true},
      {"--campaign-key", "hunter2", kAllIdentityFlags, true, true},
      {"--campaign-key", "", kAllIdentityFlags, true, false},
      {"--campaign-key", "hunter2", kFlagReporterId, false, true},
      {"--node-id", "42", kAllIdentityFlags, true, true},
      {"--node-id", "0", kAllIdentityFlags, true, true},
      {"--node-id", "4x2", kAllIdentityFlags, true, false},
      {"--node-id", "", kAllIdentityFlags, true, false},
      {"--node-id", "-1", kAllIdentityFlags, true, false},
      {"--node-id", "+4", kAllIdentityFlags, true, false},
      {"--node-id", "42", kFlagReporterId | kFlagCampaignKey, false, true},
      // Non-identity flags never match, whatever is enabled.
      {"--oracle", "oue", kAllIdentityFlags, false, true},
      {"--schema", "s.schema", kAllIdentityFlags, false, true},
  };
  for (const IdentityCase& c : kCases) {
    SCOPED_TRACE(std::string(c.flag) + "=" + c.value);
    IdentityFlags flags;
    std::string error;
    bool value_taken = false;
    auto next = [&]() -> const char* {
      value_taken = true;
      return c.value.c_str();
    };
    const bool consumed =
        ParseIdentityFlag(c.flag, next, c.allowed, &flags, &error);
    EXPECT_EQ(consumed, c.consumed);
    EXPECT_EQ(value_taken, c.consumed);  // operand pulled iff flag matched
    EXPECT_EQ(error.empty(), c.valid) << error;
  }
}

TEST(IdentityFlagTest, StoresParsedValues) {
  IdentityFlags flags;
  std::string error;
  const char* reporter = "user-7";
  const char* key = "hunter2";
  const char* node = "17";
  EXPECT_TRUE(ParseIdentityFlag(
      "--reporter-id", [&] { return reporter; }, kAllIdentityFlags, &flags,
      &error));
  EXPECT_TRUE(ParseIdentityFlag(
      "--campaign-key", [&] { return key; }, kAllIdentityFlags, &flags,
      &error));
  EXPECT_TRUE(ParseIdentityFlag(
      "--node-id", [&] { return node; }, kAllIdentityFlags, &flags, &error));
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(flags.reporter_id, "user-7");
  EXPECT_EQ(flags.campaign_key, "hunter2");
  EXPECT_EQ(flags.node_id, 17u);
}

TEST(IdentityFlagTest, ReporterIdentityPairingRule) {
  struct PairCase {
    const char* reporter_id;
    const char* campaign_key;
    bool ok;
  };
  const PairCase kCases[] = {
      {"", "", true},             // unauthenticated run
      {"user-7", "hunter2", true},  // authenticated run
      {"user-7", "", false},      // id with nothing to sign it
      {"", "hunter2", false},     // key with nobody to sign for
  };
  for (const PairCase& c : kCases) {
    SCOPED_TRACE(std::string("id=") + c.reporter_id + " key=" +
                 c.campaign_key);
    IdentityFlags flags;
    flags.reporter_id = c.reporter_id;
    flags.campaign_key = c.campaign_key;
    std::string error;
    EXPECT_EQ(CheckReporterIdentity(flags, &error), c.ok);
    EXPECT_EQ(error.empty(), c.ok) << error;
  }
}

TEST(CountFlagTest, Table) {
  struct CountCase {
    const char* text;
    bool ok;
    unsigned value;
  };
  const CountCase kCases[] = {
      {"0", true, 0},
      {"7", true, 7},
      {"1024", true, 1024},
      {"-1", false, 0},  // strtoul would read ULONG_MAX
      {"4x", false, 0},
      {"abc", false, 0},
      {"", false, 0},
      {"+4", false, 0},
      {" 4", false, 0},
      {"18446744073709551616", false, 0},  // 2^64
      {"1025", false, 0},                  // past kMaxThreadsFlag
  };
  for (const CountCase& c : kCases) {
    SCOPED_TRACE(std::string("'") + c.text + "'");
    unsigned threads = 99;
    EXPECT_EQ(ParseCountFlag(c.text, &threads, kMaxThreadsFlag), c.ok);
    EXPECT_EQ(threads, c.ok ? c.value : 99u);  // untouched when refused
  }
}

TEST(CountFlagTest, ValueMustFitTheField) {
  uint32_t epochs = 0;
  EXPECT_TRUE(ParseCountFlag("4294967295", &epochs));
  EXPECT_EQ(epochs, 4294967295u);
  EXPECT_FALSE(ParseCountFlag("4294967296", &epochs));
  int timeout_ms = 0;
  EXPECT_TRUE(ParseCountFlag("2147483647", &timeout_ms));
  EXPECT_FALSE(ParseCountFlag("2147483648", &timeout_ms));
  uint64_t seed = 0;
  EXPECT_TRUE(ParseCountFlag("18446744073709551615", &seed));
  EXPECT_EQ(seed, UINT64_MAX);
}

TEST(RealFlagTest, WholeStringMustParse) {
  double value = 0.0;
  for (const char* good : {"4", "0.5", "1e-3", "-2"}) {
    SCOPED_TRACE(good);
    EXPECT_TRUE(ParseRealFlag(good, &value));
  }
  EXPECT_EQ(value, -2.0);
  for (const char* bad : {"", "4x", "abc", " 4", "4 "}) {
    SCOPED_TRACE(std::string("'") + bad + "'");
    EXPECT_FALSE(ParseRealFlag(bad, &value));
  }
}

TEST(VocabularyFlagTest, OracleTable) {
  struct OracleCase {
    const char* name;
    bool ok;
    FrequencyOracleKind kind;
  };
  const OracleCase kCases[] = {
      {"oue", true, FrequencyOracleKind::kOue},
      {"grr", true, FrequencyOracleKind::kGrr},
      {"sue", true, FrequencyOracleKind::kSue},
      {"olh", true, FrequencyOracleKind::kOlh},
      {"he", true, FrequencyOracleKind::kHe},
      {"the", true, FrequencyOracleKind::kThe},
      {"OUE", false, FrequencyOracleKind::kOue},
      {"", false, FrequencyOracleKind::kOue},
      {"rappor", false, FrequencyOracleKind::kOue},
  };
  for (const OracleCase& c : kCases) {
    SCOPED_TRACE(c.name);
    FrequencyOracleKind kind = FrequencyOracleKind::kOue;
    EXPECT_EQ(ParseOracleFlag(c.name, &kind), c.ok);
    if (c.ok) {
      EXPECT_EQ(kind, c.kind);
    }
  }
}

TEST(VocabularyFlagTest, MechanismTable) {
  MechanismKind mechanism = MechanismKind::kHybrid;
  EXPECT_TRUE(ParseMechanismFlag("hm", &mechanism));
  EXPECT_EQ(mechanism, MechanismKind::kHybrid);
  EXPECT_TRUE(ParseMechanismFlag("pm", &mechanism));
  EXPECT_EQ(mechanism, MechanismKind::kPiecewise);
  EXPECT_FALSE(ParseMechanismFlag("laplace", &mechanism));
}

}  // namespace
}  // namespace ldp::tools
