// Fuzz tests for the metrics JSON emitter (core/metrics.cpp): hostile
// strings — quotes, backslashes, control bytes, embedded NULs, non-UTF-8
// bytes — pushed through every string-valued field, with the output
// validated by a strict recursive-descent JSON parser (no trailing bytes,
// no raw control characters in strings, no duplicate keys, strict number
// grammar) and round-tripped back to the original bytes.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/ext_array.hpp"
#include "core/machine.hpp"
#include "core/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace aem;

// --- a strict JSON parser (deliberately unforgiving) ---------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;  // raw decoded bytes
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> members;  // insertion order

  bool has(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return true;
    return false;
  }
  const JsonValue& at(const std::string& key) const {
    for (const auto& [k, v] : members)
      if (k == key) return v;
    throw std::runtime_error("json: missing key " + key);
  }
};

class StrictJsonParser {
 public:
  explicit StrictJsonParser(std::string_view text) : s_(text) {}

  /// Parses the whole input as exactly one JSON value; throws
  /// std::runtime_error on ANY deviation from RFC 8259 syntax, on raw
  /// control bytes inside strings, and on duplicate object keys.
  JsonValue parse() {
    JsonValue v = value();
    if (pos_ != s_.size()) fail("trailing bytes after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + why);
  }

  char peek() const {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }
  char take() {
    char c = peek();
    ++pos_;
    return c;
  }
  void expect(char c) {
    if (take() != c) fail(std::string("expected '") + c + "'");
  }
  void expect_word(std::string_view w) {
    for (char c : w) expect(c);
  }
  // The emitter writes single-line JSON with no whitespace, but a strict
  // parser still has to define what it accepts: the four RFC whitespace
  // bytes between tokens.
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': {
        expect_word("true");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        expect_word("false");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        expect_word("null");
        return JsonValue{};
      }
      default: return number();
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      take();
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string_value();
      if (v.has(key.str)) fail("duplicate key \"" + key.str + "\"");
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key.str), value());
      skip_ws();
      const char c = take();
      if (c == '}') return v;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      take();
      return v;
    }
    for (;;) {
      v.items.push_back(value());
      skip_ws();
      const char c = take();
      if (c == ']') return v;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned hex4() {
    unsigned out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      out <<= 4;
      if (c >= '0' && c <= '9') out |= unsigned(c - '0');
      else if (c >= 'a' && c <= 'f') out |= unsigned(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= unsigned(c - 'A' + 10);
      else fail("bad \\u escape digit");
    }
    return out;
  }

  void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(char(cp));
    } else if (cp < 0x800) {
      out.push_back(char(0xC0 | (cp >> 6)));
      out.push_back(char(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(char(0xE0 | (cp >> 12)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(char(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(char(0xF0 | (cp >> 18)));
      out.push_back(char(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(char(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(char(0x80 | (cp & 0x3F)));
    }
  }

  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    for (;;) {
      const unsigned char c = static_cast<unsigned char>(take());
      if (c == '"') return v;
      if (c < 0x20) fail("raw control byte inside string");
      if (c != '\\') {
        v.str.push_back(char(c));
        continue;
      }
      const char e = take();
      switch (e) {
        case '"': v.str.push_back('"'); break;
        case '\\': v.str.push_back('\\'); break;
        case '/': v.str.push_back('/'); break;
        case 'b': v.str.push_back('\b'); break;
        case 'f': v.str.push_back('\f'); break;
        case 'n': v.str.push_back('\n'); break;
        case 'r': v.str.push_back('\r'); break;
        case 't': v.str.push_back('\t'); break;
        case 'u': {
          std::uint32_t cp = hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a pair
            expect('\\');
            expect('u');
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired high surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired low surrogate");
          }
          append_utf8(v.str, cp);
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    // int part: 0, or [1-9][0-9]* — leading zeros are a syntax error.
    if (peek() == '0') {
      take();
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    } else {
      fail("expected a digit");
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("expected a fraction digit");
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek())))
        fail("expected an exponent digit");
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])))
        ++pos_;
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::stod(std::string(s_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

JsonValue parse_strict(const std::string& text) {
  return StrictJsonParser(text).parse();
}

// --- hostile inputs ------------------------------------------------------

/// The classic JSON breakers plus the bytes the escaper must transform.
std::vector<std::string> hostile_strings() {
  using namespace std::string_literals;
  return {
      ""s,
      "\""s,
      "\\"s,
      "\\\""s,
      "a\"b\\c"s,
      "\b\f\n\r\t"s,
      "\x01\x02\x1f"s,
      "nul\0inside"s,                      // embedded NUL (note the _s)
      "\x7f\x80\xff"s,                     // DEL + non-ASCII bytes
      "\xc3\xa9 caf\xc3\xa9"s,             // valid UTF-8
      "\xc3"s,                             // truncated UTF-8 lead byte
      "{\"k\":1},[2],true,null"s,          // JSON-in-JSON
      "line1\nline2\r\nline3"s,
      "\\u0041 literal, not an escape"s,
      "ends with backslash \\"s,
  };
}

/// Uniform garbage over all byte values (including NUL and 0x80-0xFF).
std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string s(rng.below(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng.below(256));
  return s;
}

Config cfg(std::size_t M, std::size_t B, std::uint64_t w) {
  Config c;
  c.memory_elems = M;
  c.block_elems = B;
  c.write_cost = w;
  return c;
}

// --- tests ---------------------------------------------------------------

TEST(JsonEscapeTest, HostileStringsParseAndRoundTrip) {
  for (const std::string& s : hostile_strings()) {
    const std::string doc = "\"" + json_escape(s) + "\"";
    JsonValue v;
    ASSERT_NO_THROW(v = parse_strict(doc)) << doc;
    ASSERT_EQ(v.kind, JsonValue::Kind::kString);
    EXPECT_EQ(v.str, s);  // byte-exact round trip, NULs included
  }
}

TEST(JsonEscapeTest, ParserIsActuallyStrict) {
  // Make sure the oracle rejects what it should, so the fuzz tests below
  // are not vacuous.
  for (const char* bad :
       {"{", "[1,]", "{\"a\":1,}", "\"\n\"", "01", "1.", "1e", "tru",
        "\"\\x\"", "\"\\u12\"", "{\"a\":1}x", "{\"a\":1,\"a\":2}",
        "\"\\ud800\"", "nan", "+1", "--1"}) {
    EXPECT_THROW(parse_strict(bad), std::runtime_error) << bad;
  }
  EXPECT_NO_THROW(parse_strict("{\"a\":[1,2.5,-3e-7,true,null,\"x\"]}"));
}

TEST(JsonFuzzTest, HandBuiltSnapshotWithHostileFieldsEmitsValidJson) {
  const auto hostiles = hostile_strings();
  for (std::size_t h = 0; h < hostiles.size(); ++h) {
    const std::string& evil = hostiles[h];
    MetricsSnapshot s;
    s.label = evil;
    s.memory_elems = 4096;
    s.block_elems = 16;
    s.write_cost = 8;
    s.io = IoStats{123, 45};
    s.cost = 123 + 8 * 45;
    s.phases.push_back({evil, IoStats{1, 2}});
    s.phases.push_back({"tame-phase", IoStats{3, 4}});
    s.wear_enabled = true;
    s.wear_arrays.push_back({evil, 7, 10, 20, 5});
    s.sharding.enabled = true;
    s.sharding.placement = evil;
    ShardDeviceMetrics dev;
    dev.name = evil;
    dev.io = IoStats{9, 9};
    s.sharding.devices.push_back(dev);
    s.store.enabled = true;
    s.store.index = evil;
    s.store.records = 100;
    s.store.index_bits_per_page = 10.25;
    s.arrays.push_back(evil);
    s.arrays.push_back("plain");

    const std::string doc = to_json(s);
    JsonValue root;
    ASSERT_NO_THROW(root = parse_strict(doc)) << "hostile #" << h;
    EXPECT_EQ(root.at("schema").str, MetricsSnapshot::kSchema);
    EXPECT_EQ(root.at("label").str, evil);
    EXPECT_EQ(root.at("phases").items.at(0).at("name").str, evil);
    EXPECT_EQ(root.at("wear").at("arrays").items.at(0).at("name").str, evil);
    EXPECT_EQ(root.at("sharding").at("placement").str, evil);
    EXPECT_EQ(root.at("sharding").at("per_device").items.at(0).at("name").str,
              evil);
    EXPECT_EQ(root.at("store").at("index").str, evil);
    EXPECT_EQ(root.at("arrays").items.at(0).str, evil);
    EXPECT_EQ(root.at("io").at("reads").number, 123.0);
    EXPECT_EQ(root.at("store").at("index_bits_per_page").number, 10.25);
  }
}

TEST(JsonFuzzTest, NonFiniteDoublesSerializeAsNull) {
  MetricsSnapshot s;
  s.label = "non-finite";
  s.store.enabled = true;
  s.store.index = "fence";
  s.store.index_bits_per_page = std::numeric_limits<double>::quiet_NaN();
  s.wear.mean_writes = std::numeric_limits<double>::infinity();
  s.sharding.enabled = true;
  s.sharding.wear_spread = -std::numeric_limits<double>::infinity();
  JsonValue root;
  ASSERT_NO_THROW(root = parse_strict(to_json(s)));
  EXPECT_EQ(root.at("store").at("index_bits_per_page").kind,
            JsonValue::Kind::kNull);
  EXPECT_EQ(root.at("wear").at("mean_writes").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(root.at("sharding").at("wear_spread").kind,
            JsonValue::Kind::kNull);
}

TEST(JsonFuzzTest, MachineDrivenHostileArrayAndPhaseNames) {
  // Names flow machine -> registry -> snapshot -> JSON; hostile bytes in
  // array and phase names must survive the whole path.
  using namespace std::string_literals;
  const std::string evil_array = "arr\"\\\n\x01\xff end"s;
  const std::string evil_phase = "phase\t{\"x\":[1,\\u0000]}"s;
  Machine mach(cfg(256, 8, 4));
  ExtArray<std::uint64_t> a(mach, 32, evil_array);
  {
    auto ph = mach.phase(evil_phase);
    std::vector<std::uint64_t> blk(8, 42);
    a.write_block(0, blk);
  }
  const std::string doc = to_json(snapshot_metrics(mach, "label\"\x02"s));
  JsonValue root;
  ASSERT_NO_THROW(root = parse_strict(doc)) << doc;
  EXPECT_EQ(root.at("label").str, "label\"\x02"s);
  bool found_phase = false;
  for (const auto& p : root.at("phases").items)
    found_phase |= p.at("name").str == evil_phase;
  EXPECT_TRUE(found_phase);
  bool found_array = false;
  for (const auto& arr : root.at("arrays").items)
    found_array |= arr.str == evil_array;
  EXPECT_TRUE(found_array);
}

TEST(JsonFuzzTest, RandomizedByteGarbageRounds) {
  util::Rng rng(20260808);
  for (int round = 0; round < 200; ++round) {
    const std::string label = random_bytes(rng, 48);
    const std::string phase = random_bytes(rng, 24);
    const std::string arr = random_bytes(rng, 24);
    MetricsSnapshot s;
    s.label = label;
    s.phases.push_back({phase, IoStats{rng.below(1000), rng.below(1000)}});
    s.arrays.push_back(arr);
    s.store.enabled = (round % 2) == 0;
    s.store.index = random_bytes(rng, 12);
    JsonValue root;
    ASSERT_NO_THROW(root = parse_strict(to_json(s))) << "round " << round;
    EXPECT_EQ(root.at("label").str, label) << "round " << round;
    EXPECT_EQ(root.at("phases").items.at(0).at("name").str, phase);
    EXPECT_EQ(root.at("arrays").items.at(0).str, arr);
  }
}

}  // namespace
