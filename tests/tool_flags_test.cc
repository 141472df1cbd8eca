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
    if (c.ok) EXPECT_EQ(kind, c.kind);
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
