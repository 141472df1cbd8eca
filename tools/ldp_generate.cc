// ldp_generate: writes a synthetic census dataset (CSV + schema sidecar) for
// trying out the collection pipeline without real microdata.
//
//   ldp_generate --dataset br|mx --rows N --out PREFIX [--seed S]
//                [--version]
//
// Produces PREFIX.csv and PREFIX.schema, consumable by ldp_collect.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "data/census.h"
#include "data/csv.h"
#include "data/schema_text.h"
#include "tool_flags.h"
#include "util/build_info.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ldp_generate --dataset br|mx --rows N --out PREFIX "
               "[--seed S] [--version]\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--version") == 0) {
      std::printf("%s\n", ldp::BuildInfoVersionLine("ldp_generate").c_str());
      return 0;
    }
  }
  std::string dataset = "br";
  std::string prefix;
  uint64_t rows = 100000;
  uint64_t seed = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    bool parsed = true;  // false: exit 2 with the usage text below
    if (arg == "--dataset") {
      dataset = next();
    } else if (arg == "--rows") {
      parsed = ldp::tools::ParseCountFlag(next(), &rows);
    } else if (arg == "--out") {
      prefix = next();
    } else if (arg == "--seed") {
      parsed = ldp::tools::ParseCountFlag(next(), &seed);
    } else {
      parsed = false;
    }
    if (!parsed) {
      Usage();
      return 2;
    }
  }
  if (prefix.empty() || (dataset != "br" && dataset != "mx")) {
    Usage();
    return 2;
  }

  auto table = dataset == "br" ? ldp::data::MakeBrazilCensus(rows, seed)
                               : ldp::data::MakeMexicoCensus(rows, seed);
  if (!table.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 table.status().ToString().c_str());
    return 1;
  }
  const ldp::Status csv_status =
      ldp::data::WriteCsv(table.value(), prefix + ".csv");
  if (!csv_status.ok()) {
    std::fprintf(stderr, "%s\n", csv_status.ToString().c_str());
    return 1;
  }
  const ldp::Status schema_status =
      ldp::data::WriteSchemaFile(table.value().schema(), prefix + ".schema");
  if (!schema_status.ok()) {
    std::fprintf(stderr, "%s\n", schema_status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %llu rows to %s.csv (+ %s.schema)\n",
              static_cast<unsigned long long>(rows), prefix.c_str(),
              prefix.c_str());
  return 0;
}
