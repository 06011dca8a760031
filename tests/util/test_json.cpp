// The JSON reader the fleet mapping store depends on: strict parsing,
// exact 64-bit integer round-trips through json_writer output, and loud
// json_parse_error failures on malformed, truncated, or trailing-garbage
// documents (a half-parsed store entry must never look like a valid one).
#include "util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "util/expect.h"

namespace dramdig {
namespace {

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json_value::parse("null").is_null());
  EXPECT_TRUE(json_value::parse("true").as_bool());
  EXPECT_FALSE(json_value::parse("false").as_bool());
  EXPECT_EQ(json_value::parse("42").as_u64(), 42u);
  EXPECT_EQ(json_value::parse("-17").as_i64(), -17);
  EXPECT_DOUBLE_EQ(json_value::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(json_value::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(json_value::parse("  7  ").as_u64(), 7u);  // outer whitespace ok
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json_value::parse(R"("a\"b\\c\nd\te")").as_string(),
            "a\"b\\c\nd\te");
  EXPECT_EQ(json_value::parse(R"("A\u00e9")").as_string(),
            "A\xc3\xa9");  // BMP escape decodes to UTF-8
}

TEST(JsonParse, Containers) {
  const json_value doc =
      json_value::parse(R"({"a": [1, 2, 3], "b": {"c": true}, "d": null})");
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a")[2].as_u64(), 3u);
  EXPECT_TRUE(doc.at("b").at("c").as_bool());
  EXPECT_TRUE(doc.at("d").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW((void)doc.at("missing"), json_parse_error);
  // Members preserve document order.
  EXPECT_EQ(doc.members()[0].first, "a");
  EXPECT_EQ(doc.members()[2].first, "d");
}

TEST(JsonParse, Uint64SurvivesExactly) {
  // Hashes and XOR masks exceed 2^53 — a parse through double would
  // corrupt them, which is why numbers keep their source token.
  const std::uint64_t big = 18446744073709551615ull;  // 2^64 - 1
  EXPECT_EQ(json_value::parse(std::to_string(big)).as_u64(), big);
  const std::uint64_t hash = 828042820628194189ull;
  EXPECT_EQ(json_value::parse(std::to_string(hash)).as_u64(), hash);
}

TEST(JsonParse, IntegerAccessorsRejectLossyTokens) {
  EXPECT_THROW((void)json_value::parse("2.5").as_u64(), std::exception);
  EXPECT_THROW((void)json_value::parse("-1").as_u64(), std::exception);
  EXPECT_THROW((void)json_value::parse("1e3").as_i64(), std::exception);
  // One past 2^64-1 overflows.
  EXPECT_THROW((void)json_value::parse("18446744073709551616").as_u64(),
               std::exception);
}

TEST(JsonParse, WrongKindThrows) {
  const json_value num = json_value::parse("1");
  EXPECT_THROW((void)num.as_string(), contract_violation);
  EXPECT_THROW((void)num.as_bool(), contract_violation);
  EXPECT_THROW((void)num.at("k"), contract_violation);
  EXPECT_THROW((void)num[0], contract_violation);
}

TEST(JsonParse, MalformedThrows) {
  for (const char* bad :
       {"", "   ", "{", "[1, 2", "{\"a\": }", "{\"a\" 1}", "{'a': 1}",
        "tru", "nul", "01", "+1", "1.", ".5", "\"unterminated",
        "\"bad\\q\"", "{\"a\": 1,}", "[1, 2,]", "{\"a\": 1 \"b\": 2}"}) {
    EXPECT_THROW((void)json_value::parse(bad), json_parse_error) << bad;
  }
}

TEST(JsonParse, TrailingGarbageThrows) {
  EXPECT_THROW((void)json_value::parse("{} extra"), json_parse_error);
  EXPECT_THROW((void)json_value::parse("1 2"), json_parse_error);
  EXPECT_THROW((void)json_value::parse("[] []"), json_parse_error);
}

TEST(JsonParse, TruncationAlwaysThrows) {
  // Every proper prefix of a valid document is invalid — the property the
  // store's corrupted-file degradation rests on.
  const std::string doc =
      R"({"store": "s", "n": 1234567, "list": [1, 2.5, true, "x"]})";
  ASSERT_NO_THROW((void)json_value::parse(doc));
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_THROW((void)json_value::parse(doc.substr(0, len)),
                 json_parse_error)
        << "prefix length " << len;
  }
}

TEST(JsonParse, DepthCapThrows) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_THROW((void)json_value::parse(deep), json_parse_error);
}

TEST(JsonWriter, ExactBytes) {
  // Pinned from the stream-based writer this one replaced: every caller
  // (store entries, daemon records, tool results, BENCH_* files) depends
  // on these bytes staying put.
  json_writer w;
  w.begin_object();
  w.key("text").value("q\"b\\s\nt\tc\x01" "e");
  w.key("cstr").value("plain");
  w.key("u64").value(std::uint64_t{18446744073709551615ull});
  w.key("i64").value(std::numeric_limits<std::int64_t>::min());
  w.key("zero").value(0u);
  w.key("flag").value(false);
  w.key("none").null_value();
  w.key("doubles").begin_array();
  w.value(0.1).value(250.5).value(1e-7).value(1e20);
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.value(-0.5).value(0.583052615247719).value(3.0);
  w.value(123456789012345678.0);
  w.end_array();
  w.key("nested").begin_object();
  w.key("empty_list").begin_array().end_array();
  w.key("empty_obj").begin_object().end_object();
  w.key("list").begin_array();
  w.begin_object().key("k").value(1).end_object();
  w.begin_array().value(2).value(3).end_array();
  w.begin_array().end_array();
  w.end_array();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"text\": \"q\\\"b\\\\s\\nt\\tc\\u0001e\",\n"
            "  \"cstr\": \"plain\",\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"i64\": -9223372036854775808,\n"
            "  \"zero\": 0,\n"
            "  \"flag\": false,\n"
            "  \"none\": null,\n"
            "  \"doubles\": [\n"
            "    0.1,\n"
            "    250.5,\n"
            "    1e-07,\n"
            "    1e+20,\n"
            "    null,\n"
            "    null,\n"
            "    -0.5,\n"
            "    0.583052615247719,\n"
            "    3,\n"
            "    1.23456789012346e+17\n"
            "  ],\n"
            "  \"nested\": {\n"
            "    \"empty_list\": [],\n"
            "    \"empty_obj\": {},\n"
            "    \"list\": [\n"
            "      {\n"
            "        \"k\": 1\n"
            "      },\n"
            "      [\n"
            "        2,\n"
            "        3\n"
            "      ],\n"
            "      []\n"
            "    ]\n"
            "  }\n"
            "}\n");

  json_writer top;
  top.begin_array().end_array();
  EXPECT_EQ(top.str(), "[]\n");
}

TEST(JsonWriter, CompactExactBytes) {
  // One line, items separated by ", ", keys by ": ", and str()'s closing
  // newline: the fleet store's log record shape.
  json_writer w(json_writer::layout::compact);
  w.begin_object();
  w.key("name").value("fleet \"store\"\n");
  w.key("masks").begin_array().value(1).value(std::uint64_t{0x2040}).end_array();
  w.key("ratio").value(0.583052615247719);
  w.key("flag").value(false);
  w.key("none").null_value();
  w.key("empty_list").begin_array().end_array();
  w.key("nested").begin_object();
  w.key("empty_obj").begin_object().end_object();
  w.key("rows").begin_array();
  w.begin_array().value(2).value(3).end_array();
  w.begin_array().end_array();
  w.end_array();
  w.end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\": \"fleet \\\"store\\\"\\n\", \"masks\": [1, 8256], "
            "\"ratio\": 0.583052615247719, \"flag\": false, \"none\": null, "
            "\"empty_list\": [], \"nested\": {\"empty_obj\": {}, "
            "\"rows\": [[2, 3], []]}}\n");

  json_writer top(json_writer::layout::compact);
  top.begin_array().end_array();
  EXPECT_EQ(top.str(), "[]\n");
}

TEST(JsonRoundTrip, WriterOutputParsesBack) {
  json_writer w;
  w.begin_object();
  w.key("name").value("fleet \"store\"\n");
  w.key("hash").value(std::uint64_t{18446744073709551615ull});
  w.key("signed").value(std::int64_t{-42});
  w.key("ratio").value(0.583052615247719);
  w.key("flag").value(true);
  w.key("none").null_value();
  w.key("masks").begin_array();
  w.value(std::uint64_t{0x2040ull}).value(std::uint64_t{0x44000ull});
  w.end_array();
  w.key("nested").begin_object();
  w.key("empty_list").begin_array().end_array();
  w.key("empty_obj").begin_object().end_object();
  w.end_object();
  w.end_object();

  const json_value doc = json_value::parse(w.str());
  EXPECT_EQ(doc.at("name").as_string(), "fleet \"store\"\n");
  EXPECT_EQ(doc.at("hash").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(doc.at("signed").as_i64(), -42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_double(), 0.583052615247719);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("masks")[0].as_u64(), 0x2040u);
  EXPECT_EQ(doc.at("masks")[1].as_u64(), 0x44000u);
  EXPECT_EQ(doc.at("nested").at("empty_list").size(), 0u);
  EXPECT_EQ(doc.at("nested").at("empty_obj").size(), 0u);
}

}  // namespace
}  // namespace dramdig
