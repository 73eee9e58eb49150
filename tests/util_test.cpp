// Unit tests for the util substrate: Result/Status, geometry, RNG,
// byte/bit serialization, CRC32, text helpers and the JSON engine.
#include <gtest/gtest.h>

#include "util/bitstream.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/geometry.hpp"
#include "util/json.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/text.hpp"
#include "util/types.hpp"

namespace vgbl {
namespace {

// --- Result / Status ---------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = not_found("missing thing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message, "missing thing");
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string(1000, 'x'));
  std::string s = std::move(r).value();
  EXPECT_EQ(s.size(), 1000u);
}

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
}

TEST(StatusTest, ErrorPropagates) {
  Status st = invalid_argument("bad");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ErrorCode::kInvalidArgument);
}

TEST(ErrorTest, CodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptData), "corrupt_data");
  EXPECT_STREQ(error_code_name(ErrorCode::kTimeout), "timeout");
  Error e(ErrorCode::kIoError, "disk");
  EXPECT_EQ(e.to_string(), "io_error: disk");
}

// --- Strong ids ----------------------------------------------------------------

TEST(IdTest, InvalidByDefault) {
  ScenarioId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(ScenarioId{3}.valid());
}

TEST(IdTest, AllocatorNeverRepeats) {
  IdAllocator<ItemId> alloc;
  ItemId a = alloc.next();
  ItemId b = alloc.next();
  EXPECT_NE(a, b);
  EXPECT_TRUE(a.valid());
  alloc.reserve(ItemId{100});
  EXPECT_GT(alloc.next().value, 100u);
}

TEST(IdTest, Hashable) {
  std::unordered_map<ObjectId, int> m;
  m[ObjectId{1}] = 1;
  m[ObjectId{2}] = 2;
  EXPECT_EQ(m.at(ObjectId{2}), 2);
}

// --- Geometry ------------------------------------------------------------------

TEST(RectTest, ContainsIsHalfOpen) {
  Rect r{10, 10, 5, 5};
  EXPECT_TRUE(r.contains({10, 10}));
  EXPECT_TRUE(r.contains({14, 14}));
  EXPECT_FALSE(r.contains({15, 10}));
  EXPECT_FALSE(r.contains({10, 15}));
  EXPECT_FALSE(r.contains({9, 10}));
}

TEST(RectTest, IntersectionDisjointIsEmpty) {
  Rect a{0, 0, 10, 10};
  Rect b{20, 20, 5, 5};
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersection(b).empty());
}

TEST(RectTest, IntersectionOverlap) {
  Rect a{0, 0, 10, 10};
  Rect b{5, 5, 10, 10};
  const Rect i = a.intersection(b);
  EXPECT_EQ(i, (Rect{5, 5, 5, 5}));
}

TEST(RectTest, UnitedCoversBoth) {
  Rect a{0, 0, 4, 4};
  Rect b{10, 10, 2, 2};
  const Rect u = a.united(b);
  EXPECT_TRUE(u.contains({0, 0}));
  EXPECT_TRUE(u.contains({11, 11}));
  EXPECT_EQ(u, (Rect{0, 0, 12, 12}));
}

TEST(RectTest, UnitedWithEmptyIsIdentity) {
  Rect a{3, 4, 5, 6};
  EXPECT_EQ(a.united(Rect{}), a);
  EXPECT_EQ(Rect{}.united(a), a);
}

TEST(RectTest, TranslatedMovesOrigin) {
  Rect r{1, 2, 3, 4};
  EXPECT_EQ(r.translated({10, 20}), (Rect{11, 22, 3, 4}));
}

TEST(RectTest, CenterAndEdges) {
  Rect r{0, 0, 10, 20};
  EXPECT_EQ(r.center(), (Point{5, 10}));
  EXPECT_EQ(r.right(), 10);
  EXPECT_EQ(r.bottom(), 20);
}

TEST(GeometryTest, ManhattanDistance) {
  EXPECT_EQ(manhattan_distance({0, 0}, {3, 4}), 7);
  EXPECT_EQ(manhattan_distance({-1, -1}, {1, 1}), 4);
}

/// Property sweep: intersection is commutative and contained in both.
class RectPropertyTest : public ::testing::TestWithParam<u64> {};

TEST_P(RectPropertyTest, IntersectionProperties) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Rect a{static_cast<i32>(rng.range(-50, 50)),
                 static_cast<i32>(rng.range(-50, 50)),
                 static_cast<i32>(rng.range(0, 60)),
                 static_cast<i32>(rng.range(0, 60))};
    const Rect b{static_cast<i32>(rng.range(-50, 50)),
                 static_cast<i32>(rng.range(-50, 50)),
                 static_cast<i32>(rng.range(0, 60)),
                 static_cast<i32>(rng.range(0, 60))};
    const Rect ab = a.intersection(b);
    const Rect ba = b.intersection(a);
    EXPECT_EQ(ab.empty(), ba.empty());
    if (!ab.empty()) {
      EXPECT_EQ(ab, ba);
      // Every point of the intersection lies in both rects (spot check
      // corners).
      EXPECT_TRUE(a.contains(ab.origin()) && b.contains(ab.origin()));
      const Point last{ab.right() - 1, ab.bottom() - 1};
      EXPECT_TRUE(a.contains(last) && b.contains(last));
    }
    // United contains both origins when non-empty.
    if (!a.empty() && !b.empty()) {
      const Rect u = a.united(b);
      EXPECT_TRUE(u.contains(a.origin()));
      EXPECT_TRUE(u.contains(b.origin()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RectPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- RNG --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const i64 v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  f64 sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const f64 u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng child = a.fork();
  EXPECT_NE(a.next(), child.next());
}

TEST(RngTest, NormalRoughMoments) {
  Rng rng(11);
  f64 sum = 0;
  f64 sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const f64 v = rng.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const f64 mean = sum / n;
  const f64 var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// --- Bytes -------------------------------------------------------------------

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.put_u8(0xAB);
  w.put_u16(0x1234);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFULL);
  w.put_i32(-42);
  w.put_i64(-1);
  w.put_f64(3.25);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8_().value(), 0xAB);
  EXPECT_EQ(r.u16_().value(), 0x1234);
  EXPECT_EQ(r.u32_().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64_().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32_().value(), -42);
  EXPECT_EQ(r.i64_().value(), -1);
  EXPECT_EQ(r.f64_().value(), 3.25);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, VarintRoundTripEdges) {
  const u64 cases[] = {0, 1, 127, 128, 300, 16383, 16384, (1ULL << 32) - 1,
                       1ULL << 32, ~0ULL};
  ByteWriter w;
  for (u64 v : cases) w.put_varint(v);
  ByteReader r(w.bytes());
  for (u64 v : cases) EXPECT_EQ(r.varint().value(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  const i64 cases[] = {0, 1, -1, 63, -64, 64, -65, 1'000'000, -1'000'000,
                       std::numeric_limits<i64>::max(),
                       std::numeric_limits<i64>::min()};
  ByteWriter w;
  for (i64 v : cases) w.put_svarint(v);
  ByteReader r(w.bytes());
  for (i64 v : cases) EXPECT_EQ(r.svarint().value(), v);
}

TEST(BytesTest, StringAndBlob) {
  ByteWriter w;
  w.put_string("hello");
  w.put_string("");
  w.put_blob(Bytes{1, 2, 3});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.string().value(), "hello");
  EXPECT_EQ(r.string().value(), "");
  EXPECT_EQ(r.blob().value(), (Bytes{1, 2, 3}));
}

TEST(BytesTest, TruncatedReadsFail) {
  ByteWriter w;
  w.put_u32(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.u16_().ok());
  EXPECT_TRUE(r.u16_().ok());
  EXPECT_FALSE(r.u8_().ok());  // exhausted
}

TEST(BytesTest, StringLengthBeyondDataFails) {
  ByteWriter w;
  w.put_varint(100);  // claims 100 bytes follow
  w.put_u8('x');
  ByteReader r(w.bytes());
  EXPECT_FALSE(r.string().ok());
}

TEST(BytesTest, MalformedVarintFails) {
  // 11 continuation bytes: overflows 64 bits.
  Bytes data(11, 0xFF);
  ByteReader r(data);
  EXPECT_FALSE(r.varint().ok());
}

TEST(BytesTest, PatchU32) {
  ByteWriter w;
  w.put_u32(0);
  w.put_u8(9);
  w.patch_u32(0, 0xCAFEBABE);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u32_().value(), 0xCAFEBABEu);
}

TEST(BytesTest, SeekAndSkip) {
  ByteWriter w;
  for (u8 i = 0; i < 10; ++i) w.put_u8(i);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.skip(3).ok());
  EXPECT_EQ(r.u8_().value(), 3);
  EXPECT_TRUE(r.seek(9).ok());
  EXPECT_EQ(r.u8_().value(), 9);
  EXPECT_FALSE(r.skip(1).ok());
  EXPECT_FALSE(r.seek(11).ok());
}

// --- Bitstream ------------------------------------------------------------------

TEST(BitstreamTest, BitsRoundTrip) {
  BitWriter w;
  w.put_bits(0b101, 3);
  w.put_bit(true);
  w.put_bits(0xFFFF, 16);
  w.put_bits(0, 5);
  Bytes data = std::move(w).finish();
  BitReader r(data);
  EXPECT_EQ(r.bits(3).value(), 0b101u);
  EXPECT_EQ(r.bit().value(), true);
  EXPECT_EQ(r.bits(16).value(), 0xFFFFu);
  EXPECT_EQ(r.bits(5).value(), 0u);
}

TEST(BitstreamTest, ExhaustionFails) {
  BitWriter w;
  w.put_bits(1, 1);
  Bytes data = std::move(w).finish();
  BitReader r(data);
  EXPECT_TRUE(r.bits(8).ok());   // one padded byte
  EXPECT_FALSE(r.bit().ok());
}

class ExpGolombTest : public ::testing::TestWithParam<u64> {};

TEST_P(ExpGolombTest, UnsignedAndSignedRoundTrip) {
  Rng rng(GetParam());
  std::vector<u32> ue_values{0, 1, 2, 3, 62, 63, 64, 1000, 0x7FFFFFFF};
  std::vector<i32> se_values{0, 1, -1, 2, -2, 1000, -1000, 0x3FFFFFFF,
                             -0x3FFFFFFF};
  for (int i = 0; i < 100; ++i) {
    ue_values.push_back(static_cast<u32>(rng.below(1u << 30)));
    se_values.push_back(static_cast<i32>(rng.range(-(1 << 29), 1 << 29)));
  }
  BitWriter w;
  for (u32 v : ue_values) w.put_ue(v);
  for (i32 v : se_values) w.put_se(v);
  Bytes data = std::move(w).finish();
  BitReader r(data);
  for (u32 v : ue_values) EXPECT_EQ(r.ue().value(), v);
  for (i32 v : se_values) EXPECT_EQ(r.se().value(), v);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpGolombTest, ::testing::Values(1, 2, 3));

// --- CRC32 ----------------------------------------------------------------------

TEST(Crc32Test, KnownVectors) {
  // Standard check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(std::span<const u8>(reinterpret_cast<const u8*>(s), 9)),
            0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<u8>(rng.next()));
  Crc32 inc;
  inc.update(std::span<const u8>(data.data(), 400));
  inc.update(std::span<const u8>(data.data() + 400, 600));
  EXPECT_EQ(inc.value(), crc32(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data(64, 0x5A);
  const u32 before = crc32(data);
  data[10] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

// --- Text ------------------------------------------------------------------------

TEST(TextTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(TextTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(TextTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
}

TEST(TextTest, EscapeJson) {
  EXPECT_EQ(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(escape_json(std::string(1, '\x01')), "\\u0001");
}

TEST(TextTest, DecimalTextMatchesToString) {
  for (const long long v : {0LL, 7LL, -3LL, 1234567890123LL, -9223372036854775807LL - 1}) {
    EXPECT_EQ(DecimalText(v).view(), std::to_string(v));
  }
  EXPECT_EQ(DecimalText(18446744073709551615ULL).view(),
            std::to_string(18446744073709551615ULL));
  std::string line = "score ";
  append_pieces(line, {DecimalText(-5), " (", "bonus", ")"});
  EXPECT_EQ(line, "score -5 (bonus)");
}

TEST(TextTest, TextBufferLocatesEachString) {
  TextBuffer buf;
  const TextBuffer::Ref a = buf.append({"item '", "coin", "'"});
  const TextBuffer::Ref empty = buf.append({});
  const TextBuffer::Ref b = buf.append({"badge"});
  const TextBuffer::Ref c = buf.append({" (", DecimalText(12), ")"});
  EXPECT_EQ(buf.view(a), "item 'coin'");
  EXPECT_EQ(buf.view(empty), "");
  EXPECT_EQ(buf.view(b), "badge");
  // Two appends in a row are adjacent, so their refs join.
  EXPECT_EQ(buf.view({b.offset, b.length + c.length}), "badge (12)");
  buf.clear();
  EXPECT_EQ(buf.view(buf.append({"again"})), "again");
  EXPECT_TRUE(TextBuffer::fits(0xFFFFFFFFULL));
  EXPECT_FALSE(TextBuffer::fits(0x100000000ULL));
}

TEST(TextTest, PadRight) {
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_right("abcdef", 3), "abc");
}

TEST(TextTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KiB");
  EXPECT_EQ(format_bytes(3 * 1024 * 1024), "3.0 MiB");
}

// --- JSON ------------------------------------------------------------------------

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::parse("null").value().is_null());
  EXPECT_EQ(Json::parse("true").value().as_bool(), true);
  EXPECT_EQ(Json::parse("42").value().as_int(), 42);
  EXPECT_EQ(Json::parse("-7").value().as_int(), -7);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").value().as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").value().as_double(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").value().as_string(), "hi");
}

TEST(JsonTest, IntDoubleDistinction) {
  EXPECT_TRUE(Json::parse("42").value().is_int());
  EXPECT_FALSE(Json::parse("42.0").value().is_int());
  EXPECT_TRUE(Json::parse("42.0").value().is_number());
}

TEST(JsonTest, ParseNested) {
  auto doc = Json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(doc.ok());
  const Json& j = doc.value();
  EXPECT_EQ(j["a"].as_array().size(), 3u);
  EXPECT_EQ(j["a"].as_array()[2]["b"].as_bool(), true);
  EXPECT_EQ(j["c"].as_string(), "x");
  EXPECT_TRUE(j["missing"].is_null());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj.mutable_object().set("zebra", Json(1));
  obj.mutable_object().set("apple", Json(2));
  obj.mutable_object().set("zebra", Json(3));  // replace keeps position
  const auto& members = obj.as_object().members();
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[0].first, "zebra");
  EXPECT_EQ(members[0].second.as_int(), 3);
  EXPECT_EQ(members[1].first, "apple");
}

TEST(JsonTest, EscapesRoundTrip) {
  Json doc(std::string("line1\nline2\t\"quoted\"\\"));
  auto parsed = Json::parse(doc.dump(-1));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().as_string(), doc.as_string());
}

TEST(JsonTest, UnicodeEscapeParses) {
  auto doc = Json::parse("\"\\u0041\\u00e9\\u4e2d\"");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().as_string(), "A\xC3\xA9\xE4\xB8\xAD");
}

TEST(JsonTest, ParseErrorsReportPosition) {
  auto r = Json::parse("{\n  \"a\": ,\n}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("line 2"), std::string::npos);
}

TEST(JsonTest, RejectsMalformed) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\"}", "{\"a\":1,}", "[1 2]", "tru", "\"", "01x",
        "{\"a\":1} trailing", "nul"}) {
    EXPECT_FALSE(Json::parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, DepthLimitRejectsDeepNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(Json::parse(deep).ok());
}

TEST(JsonTest, DumpCompactAndPretty) {
  Json obj = Json::object();
  obj.mutable_object().set("a", Json(JsonArray{Json(1), Json(2)}));
  EXPECT_EQ(obj.dump(-1), R"({"a":[1,2]})");
  const std::string pretty = obj.dump(2);
  EXPECT_NE(pretty.find("\n"), std::string::npos);
  // Pretty output re-parses to the same document.
  EXPECT_EQ(Json::parse(pretty).value().dump(-1), obj.dump(-1));
}

/// Property: random documents survive dump -> parse -> dump.
class JsonRoundTripTest : public ::testing::TestWithParam<u64> {};

Json random_json(Rng& rng, int depth) {
  switch (depth <= 0 ? rng.below(4) : rng.below(6)) {
    case 0:
      return Json();
    case 1:
      return Json(rng.chance(0.5));
    case 2:
      return Json(static_cast<i64>(rng.range(-1'000'000, 1'000'000)));
    case 3: {
      std::string s;
      const int len = static_cast<int>(rng.below(12));
      for (int i = 0; i < len; ++i) {
        s += static_cast<char>('a' + rng.below(26));
      }
      if (rng.chance(0.2)) s += "\"\n\\";
      return Json(std::move(s));
    }
    case 4: {
      JsonArray arr;
      const int n = static_cast<int>(rng.below(5));
      for (int i = 0; i < n; ++i) arr.push_back(random_json(rng, depth - 1));
      return Json(std::move(arr));
    }
    default: {
      Json obj = Json::object();
      const int n = static_cast<int>(rng.below(5));
      for (int i = 0; i < n; ++i) {
        obj.mutable_object().set("k" + std::to_string(i),
                                 random_json(rng, depth - 1));
      }
      return obj;
    }
  }
}

TEST_P(JsonRoundTripTest, DumpParseDumpIsStable) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Json doc = random_json(rng, 4);
    const std::string once = doc.dump(-1);
    auto parsed = Json::parse(once);
    ASSERT_TRUE(parsed.ok()) << once;
    EXPECT_EQ(parsed.value().dump(-1), once);
    // Pretty round-trip too.
    auto pretty = Json::parse(doc.dump(2));
    ASSERT_TRUE(pretty.ok());
    EXPECT_EQ(pretty.value().dump(-1), once);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTripTest,
                         ::testing::Values(11, 22, 33, 44));

// --- Clock ------------------------------------------------------------------------

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  clock.advance(milliseconds(5));
  EXPECT_EQ(clock.now(), 100 + 5000);
  clock.advance_to(2000);
  EXPECT_EQ(clock.now(), 100 + 5000);  // advance_to never goes backwards
  clock.advance_to(10'000'000);
  EXPECT_EQ(clock.now(), 10'000'000);
}

TEST(SimClockTest, Conversions) {
  EXPECT_EQ(seconds(2), 2'000'000);
  EXPECT_EQ(milliseconds(3), 3000);
  EXPECT_DOUBLE_EQ(to_seconds(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(to_millis(2500), 2.5);
}

}  // namespace
}  // namespace vgbl
