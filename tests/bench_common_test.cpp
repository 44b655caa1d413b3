// Tests for the shared bench CLI plumbing: strict argument parsing (bad
// values and unknown flags must be rejected, not silently swallowed),
// JSON string escaping (control characters must become \uXXXX), and the
// JsonReport record writer (non-finite values must stay valid JSON; a
// failed write must not leave a truncated record behind).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"

namespace orap::bench {
namespace {

BenchArgs must_parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  BenchArgs a;
  std::string error;
  EXPECT_TRUE(BenchArgs::try_parse(static_cast<int>(argv.size()),
                                   const_cast<char**>(argv.data()), &a,
                                   &error))
      << error;
  return a;
}

std::string must_fail(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  BenchArgs a;
  std::string error;
  EXPECT_FALSE(BenchArgs::try_parse(static_cast<int>(argv.size()),
                                    const_cast<char**>(argv.data()), &a,
                                    &error));
  return error;
}

TEST(BenchArgs, Defaults) {
  const BenchArgs a = must_parse({});
  EXPECT_DOUBLE_EQ(a.scale, 0.15);
  EXPECT_FALSE(a.full);
  EXPECT_EQ(a.threads, 0u);
  EXPECT_TRUE(a.json_path.empty());
}

TEST(BenchArgs, ParsesAllFlags) {
  const BenchArgs a = must_parse(
      {"--scale=0.5", "--threads=8", "--json=/tmp/r.json"});
  EXPECT_DOUBLE_EQ(a.scale, 0.5);
  EXPECT_EQ(a.threads, 8u);
  EXPECT_EQ(a.json_path, "/tmp/r.json");
}

TEST(BenchArgs, FullSetsScaleOne) {
  const BenchArgs a = must_parse({"--full"});
  EXPECT_TRUE(a.full);
  EXPECT_DOUBLE_EQ(a.scale, 1.0);
}

TEST(BenchArgs, RejectsNegativeThreads) {
  const std::string e = must_fail({"--threads=-1"});
  EXPECT_NE(e.find("--threads"), std::string::npos);
}

TEST(BenchArgs, RejectsNonNumericScale) {
  const std::string e = must_fail({"--scale=foo"});
  EXPECT_NE(e.find("--scale"), std::string::npos);
}

TEST(BenchArgs, RejectsTrailingGarbage) {
  must_fail({"--threads=4x"});
  must_fail({"--scale=0.5abc"});
  must_fail({"--deadline-ms=2,"});
}

TEST(BenchArgs, RejectsOutOfRangeValues) {
  must_fail({"--scale=0"});
  must_fail({"--scale=-0.5"});
  must_fail({"--scale=inf"});
  must_fail({"--scale=nan"});
  must_fail({"--threads=99999999"});
  must_fail({"--oracle-votes=0"});
  must_fail({"--oracle-votes=1000"});
}

TEST(BenchArgs, RejectsUnknownFlags) {
  const std::string e = must_fail({"--thread=4"});  // typo'd flag
  EXPECT_NE(e.find("unknown"), std::string::npos);
  must_fail({"--bogus"});
  must_fail({"extra-positional"});
  // A retired knob is an unknown flag, not a silently ignored one.
  EXPECT_NE(must_fail({"--portfolio=4"}).find("unknown"), std::string::npos);
}

TEST(BenchArgs, RejectsEmptyValues) {
  must_fail({"--threads="});
  must_fail({"--scale="});
  must_fail({"--json="});
}

TEST(BenchArgs, ParseExitsNonZeroOnBadFlag) {
  const char* argv[] = {"bench", "--threads=-1"};
  EXPECT_EXIT(BenchArgs::parse(2, const_cast<char**>(argv)),
              ::testing::ExitedWithCode(2), "invalid --threads");
}

TEST(JsonEscape, PassesPlainStrings) {
  EXPECT_EQ(JsonReport::escaped("abc_123 e3"), "abc_123 e3");
}

TEST(JsonEscape, EscapesQuoteAndBackslash) {
  EXPECT_EQ(JsonReport::escaped("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, ControlCharactersBecomeUnicodeEscapes) {
  EXPECT_EQ(JsonReport::escaped("a\nb"), "a\\u000ab");
  EXPECT_EQ(JsonReport::escaped("a\tb"), "a\\u0009b");
  EXPECT_EQ(JsonReport::escaped(std::string("a\x01\x1f") + "b"),
            "a\\u0001\\u001fb");
  EXPECT_EQ(JsonReport::escaped(std::string(1, '\0')), "\\u0000");
}

TEST(JsonEscape, HighBytesPassThrough) {
  // UTF-8 continuation bytes are >= 0x80 and must not be mangled.
  const std::string utf8 = "\xc3\xa9";  // é
  EXPECT_EQ(JsonReport::escaped(utf8), utf8);
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(JsonReport, NonFiniteValuesBecomeNull) {
  // %.*f renders nan/inf as bare words, which is not JSON; the report must
  // degrade them to null so the record stays parseable.
  const std::string path =
      ::testing::TempDir() + "/json_report_nonfinite.json";
  BenchArgs args;
  args.json_path = path;
  JsonReport report("nonfinite_test", args);
  report.add("ok_value", 1.25);
  report.add("nan_value", std::nan(""));
  report.add("pos_inf", std::numeric_limits<double>::infinity());
  report.add("neg_inf", -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(report.finish());
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"ok_value\": 1.2500"), std::string::npos) << json;
  EXPECT_NE(json.find("\"nan_value\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pos_inf\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"neg_inf\": null"), std::string::npos) << json;
  EXPECT_EQ(json.find(": nan"), std::string::npos) << json;
  EXPECT_EQ(json.find(": inf"), std::string::npos) << json;
  EXPECT_EQ(json.find(": -inf"), std::string::npos) << json;
  std::remove(path.c_str());
}

TEST(JsonReport, FinishReportsUnwritablePath) {
  BenchArgs args;
  args.json_path = ::testing::TempDir() + "/no_such_dir_xyzzy/report.json";
  JsonReport report("unwritable_test", args);
  report.add("v", std::size_t{1});
  EXPECT_FALSE(report.finish());
  std::ifstream is(args.json_path);
  EXPECT_FALSE(is.good());  // no partial file left behind
}

TEST(JsonReport, FinishSucceedsWithoutJsonPath) {
  BenchArgs args;  // json_path empty: finish() is a no-op, not a failure
  JsonReport report("no_json_test", args);
  EXPECT_TRUE(report.finish());
}

}  // namespace
}  // namespace orap::bench
