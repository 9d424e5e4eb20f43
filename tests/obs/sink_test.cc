#include "chameleon/obs/sink.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chameleon/obs/record.h"

namespace chameleon::obs {
namespace {

TEST(JsonlFieldTest, ExtractsStringsAndNumbers) {
  const std::string line =
      R"({"type":"span","path":"a/b","t_ms":1700000000123,"dur_ns":4567,)"
      R"("ratio":0.25,"note":"has \"quotes\" and , commas"})";
  EXPECT_EQ(*JsonlStringField(line, "type"), "span");
  EXPECT_EQ(*JsonlStringField(line, "path"), "a/b");
  EXPECT_EQ(*JsonlNumberField(line, "dur_ns"), 4567.0);
  EXPECT_EQ(*JsonlNumberField(line, "ratio"), 0.25);
  EXPECT_FALSE(JsonlStringField(line, "missing").has_value());
  EXPECT_FALSE(JsonlNumberField(line, "missing").has_value());
}

TEST(JsonlFieldTest, KeyInsideStringValueIsNotAMatch) {
  const std::string line = R"({"note":"dur_ns inside text","dur_ns":7})";
  EXPECT_EQ(*JsonlNumberField(line, "dur_ns"), 7.0);
}

TEST(JsonlFieldTest, WriterStringsReadBackByteIdentical) {
  // Quote, backslash, newline, tab, two control bytes, and 2/3/4-byte
  // UTF-8 sequences.
  const std::string text =
      "q\"b\\s\nl\tt\x01\x1f \xc3\xa9 \xe2\x9c\x93 \xf0\x9d\x84\x9e";
  const std::string line = Record("probe", 1).Str("text", text).Finish();
  EXPECT_EQ(JsonlStringField(line, "text"), text);
  const std::optional<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->Str("text"), text);
  // The \u escapes a foreign writer may use decode as well.
  EXPECT_EQ(JsonlStringField(R"({"s":"a\u0001b\u00e9\ud834\udd1e\/"})", "s"),
            std::string("a\x01") + "b\xc3\xa9\xf0\x9d\x84\x9e/");
}

TEST(JsonlFieldTest, LargeIntegersRerenderFromSourceText) {
  const std::uint64_t above_2_53 = (std::uint64_t{1} << 53) + 1;
  const std::string line = Record("probe", 1)
                               .Int("seed", above_2_53)
                               .Int("max", UINT64_MAX)
                               .Finish();
  const std::optional<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->Get("seed")->raw(), "9007199254740993");
  EXPECT_EQ(parsed->Get("max")->raw(), "18446744073709551615");
}

TEST(JsonlFieldTest, NestedObjectsAndArraysAreReachable) {
  const std::string line =
      R"({"type":"probe","outer":{"inner":{"depth":3}},)"
      R"("list":[{"k":"v"},[1,2.5]],"after":7})";
  EXPECT_EQ(JsonlNumberField(line, "depth"), 3.0);
  EXPECT_EQ(JsonlStringField(line, "k"), "v");
  EXPECT_EQ(JsonlNumberField(line, "after"), 7.0);
  const std::optional<JsonValue> parsed = ParseJson(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Get("outer")->raw(), R"({"inner":{"depth":3}})");
  const JsonValue* list = parsed->Get("list", JsonValue::Kind::kArray);
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->elements().size(), 2u);
  EXPECT_EQ(list->elements()[1].elements()[1].number(), 2.5);
  // A line that does not parse yields nothing, as a non-JSON line does;
  // neither does nesting past the parser's depth cap.
  EXPECT_FALSE(JsonlNumberField(R"({"after":7)", "after").has_value());
  EXPECT_FALSE(ParseJson(std::string(100000, '[')).has_value());
}

TEST(MemorySinkTest, KeepsLinesInOrder) {
  MemorySink sink;
  sink.Write(R"({"type":"a"})");
  sink.Write(R"({"type":"b"})");
  const std::vector<std::string> lines = sink.lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(*JsonlStringField(lines[0], "type"), "a");
  EXPECT_EQ(*JsonlStringField(lines[1], "type"), "b");
}

TEST(JsonlFileSinkTest, GoldenRecordStructure) {
  const std::string path = testing::TempDir() + "/chameleon_sink_test.jsonl";
  {
    auto sink = JsonlFileSink::Open(path);
    ASSERT_TRUE(sink.ok());
    (*sink)->Write(
        R"({"type":"span","path":"reliability/two_terminal","dur_ns":100})");
    (*sink)->Write(R"({"type":"run_summary","wall_ms":12})");
    (*sink)->Flush();
  }  // destructor closes the file

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  // Every line is a complete object with the expected fields.
  EXPECT_EQ(lines[0].front(), '{');
  EXPECT_EQ(lines[0].back(), '}');
  EXPECT_EQ(*JsonlStringField(lines[0], "type"), "span");
  EXPECT_EQ(*JsonlStringField(lines[0], "path"), "reliability/two_terminal");
  EXPECT_EQ(*JsonlNumberField(lines[0], "dur_ns"), 100.0);
  EXPECT_EQ(*JsonlStringField(lines[1], "type"), "run_summary");
  EXPECT_EQ(*JsonlNumberField(lines[1], "wall_ms"), 12.0);
  std::remove(path.c_str());
}

TEST(JsonlFileSinkTest, UnwritablePathFails) {
  const auto sink = JsonlFileSink::Open("/nonexistent/dir/out.jsonl");
  ASSERT_FALSE(sink.ok());
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace chameleon::obs
