// The shared JSON reader/writer (common/json.hpp): escape/parse and
// number/parse round trips, structure access, re-serialisation, and one
// rejection per malformed-input class, each with a "... at byte N" reason.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

namespace {

using cake::json::Value;
namespace json = cake::json;

std::uint64_t bits_of(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

TEST(Json, EveryAsciiByteRoundTripsThroughEscapeAndParse)
{
    std::string all;
    for (int b = 0x01; b <= 0x7F; ++b) {
        std::string s = "a";
        s += static_cast<char>(b);
        s += 'z';
        all += static_cast<char>(b);
        Value v;
        std::string error;
        ASSERT_TRUE(json::parse(json::quote(s), v, &error))
            << "byte " << b << ": " << error;
        ASSERT_EQ(v.kind, Value::Kind::kString) << "byte " << b;
        EXPECT_EQ(v.string, s) << "byte " << b;
    }
    Value v;
    ASSERT_TRUE(json::parse(json::quote(all), v));
    EXPECT_EQ(v.string, all);
}

TEST(Json, EscapeSpellsControlBytesAsLowercaseU00xx)
{
    EXPECT_EQ(json::escape("\"\\\n\t"), "\\\"\\\\\\n\\t");
    EXPECT_EQ(json::escape("\x01\x1f\r"), "\\u0001\\u001f\\u000d");
    EXPECT_EQ(json::escape(std::string(1, '\0')), "\\u0000");
    EXPECT_EQ(json::escape("plain /\x7f"), "plain /\x7f");
    EXPECT_EQ(json::quote("a\"b"), "\"a\\\"b\"");
}

TEST(Json, ReaderDecodesEveryStandardEscape)
{
    Value v;
    ASSERT_TRUE(json::parse(
        R"("\"\\\/\b\f\n\r\t\u0041\u001F\u00e9\u20AC\u0000")", v));
    std::string expected = "\"\\/\b\f\n\r\tA\x1f\xc3\xa9\xe2\x82\xac";
    expected += '\0';
    EXPECT_EQ(v.string, expected);
}

TEST(Json, NumbersRoundTripBitExact)
{
    for (const double d :
         {0.1, -0.0, std::numeric_limits<double>::denorm_min(), DBL_MAX,
          -DBL_MAX, 17.1700000000000017, 1e-300, 123456789.0, 0.0}) {
        const std::string text = json::number(d);
        Value v;
        std::string error;
        ASSERT_TRUE(json::parse(text, v, &error)) << text << ": " << error;
        ASSERT_EQ(v.kind, Value::Kind::kNumber) << text;
        EXPECT_EQ(bits_of(v.number), bits_of(d)) << text;
    }
    EXPECT_EQ(json::number(0.1), "0.10000000000000001");
    EXPECT_EQ(json::number(-0.0), "-0");
    EXPECT_EQ(json::number(120), "120");
}

TEST(Json, ParsesStructureInDocumentOrder)
{
    Value v;
    std::string error;
    ASSERT_TRUE(json::parse(" {\"b\": [1, -2.5e3, true, false, null],\n"
                            "  \"a\": {\"x\": \"y\"}, \"b\": 0} ",
                            v, &error))
        << error;
    ASSERT_EQ(v.kind, Value::Kind::kObject);
    ASSERT_EQ(v.object.size(), 3u);
    EXPECT_EQ(v.object[0].first, "b");
    EXPECT_EQ(v.object[1].first, "a");
    const Value* b = v.find("b");  // first of the repeated key
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->kind, Value::Kind::kArray);
    ASSERT_EQ(b->array.size(), 5u);
    EXPECT_EQ(b->array[1].number, -2500.0);
    EXPECT_TRUE(b->array[2].boolean);
    EXPECT_EQ(b->array[3].kind, Value::Kind::kBool);
    EXPECT_FALSE(b->array[3].boolean);
    EXPECT_EQ(b->array[4].kind, Value::Kind::kNull);
    ASSERT_NE(v.find("a"), nullptr);
    EXPECT_EQ(v.find("a")->find("x")->string, "y");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(b->find("b"), nullptr);  // not an object
}

TEST(Json, WriteReserialisesOnOneLine)
{
    Value v;
    ASSERT_TRUE(json::parse(
        "{\"a\":[1,true,null,\"x\\ny\\u0002\"],\"b\":{},\"c\":[],\"d\":0.1}",
        v));
    std::ostringstream os;
    json::write(v, os);
    EXPECT_EQ(os.str(),
              "{\"a\": [1, true, null, \"x\\ny\\u0002\"], \"b\": {}, "
              "\"c\": [], \"d\": 0.10000000000000001}");
}

TEST(Json, NestingCappedAtMaxDepth)
{
    const int cap = json::kMaxDepth;
    ASSERT_EQ(cap, 32);
    Value v;
    std::string error;
    EXPECT_TRUE(json::parse(std::string(cap, '[') + std::string(cap, ']'), v,
                            &error))
        << error;
    EXPECT_TRUE(json::parse(std::string(cap - 1, '[') + "{\"k\": 1}"
                                + std::string(cap - 1, ']'),
                            v, &error))
        << error;
    EXPECT_FALSE(json::parse(
        std::string(cap + 1, '[') + std::string(cap + 1, ']'), v, &error));
    EXPECT_EQ(error, "nesting too deep at byte 32");
    EXPECT_FALSE(json::parse(std::string(200000, '['), v, &error));
}

TEST(Json, RejectsEachMalformedClassWithByteOffset)
{
    const struct {
        const char* what;
        std::string text;
        const char* reason;
    } cases[] = {
        {"empty", "", "unexpected end of input at byte 0"},
        {"truncated array", "[1, 2", "expected ',' or ']' at byte 5"},
        {"truncated object", "{\"a\": ", "unexpected end of input at byte 6"},
        {"truncated string", "\"abc", "unterminated string at byte 4"},
        {"truncated escape", "\"a\\", "unterminated string at byte 3"},
        {"trailing bytes", "{} x", "trailing bytes after value at byte 3"},
        {"two values", "1 2", "trailing bytes after value at byte 2"},
        {"bad escape", "\"\\q\"", "bad string escape at byte 3"},
        {"short \\u", "\"\\u12\"", "bad \\u escape at byte 3"},
        {"non-hex \\u", "\"\\u12G4\"", "bad \\u escape at byte 3"},
        {"surrogate \\u", "\"\\ud800\"", "bad \\u escape at byte 3"},
        {"signed \\u", "\"\\u-041\"", "bad \\u escape at byte 3"},
        {"bad keyword", "tru", "unknown keyword at byte 0"},
        {"bad keyword null", "[nul]", "unknown keyword at byte 1"},
        {"lone minus", "-", "malformed number at byte 0"},
        {"lone exponent", "[e]", "malformed number at byte 1"},
        {"double sign", "--1", "malformed number at byte 0"},
        {"overflow", "[1e999]", "number out of range at byte 1"},
        {"not a value", "@", "expected a value at byte 0"},
        {"missing colon", "{\"a\" 1}", "expected ':' at byte 5"},
        {"non-string key", "{1: 2}", "expected object key string at byte 1"},
        {"trailing comma", "[1,]", "expected a value at byte 3"},
        {"missing comma", "{\"a\": 1 \"b\": 2}",
         "expected ',' or '}' at byte 8"},
    };
    for (const auto& c : cases) {
        Value v;
        std::string error;
        EXPECT_FALSE(json::parse(c.text, v, &error)) << c.what;
        EXPECT_EQ(error, c.reason) << c.what;
    }
    // A null error pointer is allowed.
    Value v;
    EXPECT_FALSE(json::parse("[", v));
}

}  // namespace
