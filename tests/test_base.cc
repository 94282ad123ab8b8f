/**
 * @file
 * Unit tests for src/base: logging, bit utilities, string utilities
 * and the little-endian wire codec.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <string_view>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "base/strutil.hh"
#include "base/wire.hh"
#include "test_hex.hh"

namespace glifs
{
namespace
{

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(GLIFS_PANIC("boom ", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(GLIFS_FATAL("bad input ", "x"), FatalError);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(GLIFS_ASSERT(1 + 1 == 2, "math"));
}

TEST(Logging, AssertThrowsOnFalse)
{
    EXPECT_THROW(GLIFS_ASSERT(false, "nope"), PanicError);
}

TEST(Logging, MessageContainsText)
{
    try {
        GLIFS_FATAL("alpha ", 7, " beta");
        FAIL();
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("alpha 7 beta"),
                  std::string::npos);
    }
}

TEST(BitUtil, BitAndSetBit)
{
    EXPECT_TRUE(bit(0b100, 2));
    EXPECT_FALSE(bit(0b100, 1));
    EXPECT_EQ(setBit(0, 5, true), 32u);
    EXPECT_EQ(setBit(0xFF, 0, false), 0xFEu);
}

TEST(BitUtil, LowMask)
{
    EXPECT_EQ(lowMask(0), 0u);
    EXPECT_EQ(lowMask(4), 0xFu);
    EXPECT_EQ(lowMask(64), ~0ULL);
}

TEST(BitUtil, BitsFor)
{
    EXPECT_EQ(bitsFor(2), 1u);
    EXPECT_EQ(bitsFor(3), 2u);
    EXPECT_EQ(bitsFor(4096), 12u);
    EXPECT_EQ(bitsFor(4097), 13u);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0x1FF, 9), -1);
    EXPECT_EQ(signExtend(0x0FF, 9), 255);
    EXPECT_EQ(signExtend(0x100, 9), -256);
    EXPECT_EQ(signExtend(0x8000, 16), -32768);
}

TEST(BitPlane, SetGetCount)
{
    BitPlane p(130);
    EXPECT_EQ(p.count(), 0u);
    p.set(0, true);
    p.set(64, true);
    p.set(129, true);
    EXPECT_TRUE(p.get(0));
    EXPECT_TRUE(p.get(64));
    EXPECT_TRUE(p.get(129));
    EXPECT_FALSE(p.get(1));
    EXPECT_EQ(p.count(), 3u);
    p.set(64, false);
    EXPECT_EQ(p.count(), 2u);
}

TEST(BitPlane, SetAllMasksTail)
{
    BitPlane p(70);
    p.setAll();
    EXPECT_EQ(p.count(), 70u);
}

TEST(BitPlane, OrAndSubset)
{
    BitPlane a(100);
    BitPlane b(100);
    a.set(3, true);
    b.set(3, true);
    b.set(70, true);
    EXPECT_TRUE(a.subsetOf(b));
    EXPECT_FALSE(b.subsetOf(a));
    a.orWith(b);
    EXPECT_TRUE(b.subsetOf(a));
    EXPECT_EQ(a.count(), 2u);
    a.andWith(b);
    EXPECT_EQ(a.count(), 2u);
}

TEST(BitPlane, EqualityAndClear)
{
    BitPlane a(10);
    BitPlane b(10);
    a.set(5, true);
    EXPECT_FALSE(a == b);
    a.clearAll();
    EXPECT_TRUE(a == b);
}

TEST(BitPlane, OutOfRangePanics)
{
    BitPlane p(8);
    EXPECT_THROW(p.get(8), PanicError);
}

TEST(StrUtil, Trim)
{
    EXPECT_EQ(trim("  hi \t"), "hi");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(StrUtil, Split)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(StrUtil, ToLowerStartsWith)
{
    EXPECT_EQ(toLower("MoV R5"), "mov r5");
    EXPECT_TRUE(startsWith("hello", "he"));
    EXPECT_FALSE(startsWith("he", "hello"));
}

TEST(StrUtil, ParseIntDecimal)
{
    EXPECT_EQ(parseInt("123").value(), 123);
    EXPECT_EQ(parseInt("-45").value(), -45);
    EXPECT_EQ(parseInt("+7").value(), 7);
}

TEST(StrUtil, ParseIntHexBin)
{
    EXPECT_EQ(parseInt("0x0FFF").value(), 0x0FFF);
    EXPECT_EQ(parseInt("0b1010").value(), 10);
    EXPECT_EQ(parseInt("-0x10").value(), -16);
}

TEST(StrUtil, ParseIntRejectsGarbage)
{
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_FALSE(parseInt("12x").has_value());
    EXPECT_FALSE(parseInt("0x").has_value());
    EXPECT_FALSE(parseInt("zz").has_value());
}

TEST(StrUtil, Hex16AndPercent)
{
    EXPECT_EQ(hex16(0x0FFF), "0x0fff");
    EXPECT_EQ(percent(0.15, 1), "15.0%");
}

// ---------------------------------------------------------------------
// The wire codec (base/wire.hh). The sanitize slice of this binary
// (tests/CMakeLists.txt) runs these under ASan+UBSan, where a read one
// byte past an input is an error.
// ---------------------------------------------------------------------

/** One of every primitive, in a fixed order. */
std::string
samplePrimitives()
{
    std::string out;
    wire::Writer w(out);
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEF);
    w.u64(0x0123456789ABCDEFULL);
    w.str("");
    w.str(std::string_view("a\0b", 3));
    w.real(-2.5);
    return out;
}

/** Read samplePrimitives() back; true if every value matched. */
bool
readPrimitives(wire::Reader &r)
{
    bool ok = r.u8() == 0xAB;
    ok &= r.u16() == 0xBEEF;
    ok &= r.u32() == 0xDEADBEEF;
    ok &= r.u64() == 0x0123456789ABCDEFULL;
    ok &= r.str().empty();
    ok &= r.str() == std::string("a\0b", 3);
    ok &= r.real() == -2.5;
    return ok;
}

TEST(WireCodec, EveryPrimitiveRoundTrips)
{
    const std::string bytes = samplePrimitives();
    EXPECT_EQ(testutil::hexOf(bytes),
              "ab" "efbe" "efbeadde" "efcdab8967452301" "00000000"
              "03000000610062" "00000000000004c0");
    wire::Reader r(bytes);
    EXPECT_TRUE(readPrimitives(r));
    EXPECT_FALSE(r.bad());
    EXPECT_EQ(r.remaining(), 0u);

    // Doubles travel as their bits: NaN and -0.0 survive.
    std::string special;
    wire::Writer w(special);
    w.real(std::nan(""));
    w.real(-0.0);
    wire::Reader s(special);
    EXPECT_TRUE(std::isnan(s.real()));
    EXPECT_TRUE(std::signbit(s.real()));
}

TEST(WireCodec, EveryTruncatedPrefixTurnsTheReaderBad)
{
    const std::string bytes = samplePrimitives();
    for (size_t n = 0; n < bytes.size(); ++n) {
        SCOPED_TRACE(testing::Message() << "prefix of " << n << " bytes");
        // An allocation of exactly n bytes: ASan flags any read past it.
        std::unique_ptr<char[]> prefix(new char[n]);
        std::copy_n(bytes.data(), n, prefix.get());
        wire::Reader r(std::string_view(prefix.get(), n));
        EXPECT_FALSE(readPrimitives(r));
        EXPECT_TRUE(r.bad());
        EXPECT_EQ(r.remaining(), 0u);
        // Bad is sticky: every later read yields zero.
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_TRUE(r.bytes(0).empty());
    }
}

TEST(WireCodec, StringLongerThanTheInputTurnsTheReaderBad)
{
    std::string bytes;
    wire::Writer w(bytes);
    w.u32(0xFFFFFFFF);
    bytes += "abc";
    wire::Reader r(bytes);
    EXPECT_TRUE(r.str().empty());
    EXPECT_TRUE(r.bad());
}

TEST(WireCodec, FailMarksTheReaderBad)
{
    const std::string bytes = samplePrimitives();
    wire::Reader r(bytes);
    EXPECT_EQ(r.u8(), 0xAB);
    r.fail();
    EXPECT_TRUE(r.bad());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(r.u16(), 0u);
}

TEST(WireCodec, ParseFrameWaitsForAWholeFrame)
{
    std::string stream;
    wire::appendFrame(stream, 1, "first");
    const size_t first = stream.size();
    wire::appendFrame(stream, 7, "");
    // Length word, type, payload, CRC.
    EXPECT_EQ(first, 4 + 1 + 5 + 4u);
    EXPECT_EQ(stream.size(), first + 4 + 1 + 4);

    for (size_t n = 0; n <= stream.size(); ++n) {
        SCOPED_TRACE(testing::Message() << "prefix of " << n << " bytes");
        std::unique_ptr<char[]> prefix(new char[n]);
        std::copy_n(stream.data(), n, prefix.get());
        std::string_view in(prefix.get(), n);

        wire::Frame f = wire::parseFrame(in, 64);
        if (n < first) {
            EXPECT_EQ(f.status, wire::FrameStatus::Incomplete);
            continue;
        }
        ASSERT_EQ(f.status, wire::FrameStatus::Complete);
        EXPECT_EQ(f.type, 1);
        EXPECT_EQ(f.payload, "first");
        EXPECT_EQ(f.bytes, first);

        in.remove_prefix(f.bytes);
        f = wire::parseFrame(in, 64);
        if (n < stream.size()) {
            EXPECT_EQ(f.status, wire::FrameStatus::Incomplete);
            continue;
        }
        ASSERT_EQ(f.status, wire::FrameStatus::Complete);
        EXPECT_EQ(f.type, 7);
        EXPECT_TRUE(f.payload.empty());
        EXPECT_EQ(f.bytes, in.size());
    }
}

TEST(WireCodec, FlippedBitInTypePayloadOrCrcIsBadCrc)
{
    std::string frame;
    wire::appendFrame(frame, 3, "payload");
    // Every bit after the length word: type, payload and CRC.
    for (size_t pos = 4; pos < frame.size(); ++pos) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string bad = frame;
            bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
            const wire::Frame f = wire::parseFrame(bad, 64);
            EXPECT_EQ(f.status, wire::FrameStatus::BadCrc)
                << "byte " << pos << " bit " << bit;
            // The boundary is intact, so a stream can skip the frame.
            EXPECT_EQ(f.bytes, frame.size());
        }
    }
}

TEST(WireCodec, LengthAboveTheBoundIsTooLong)
{
    std::string frame;
    wire::appendFrame(frame, 2, "0123456789");
    EXPECT_EQ(wire::parseFrame(frame, 10).status,
              wire::FrameStatus::Complete);
    EXPECT_EQ(wire::parseFrame(frame, 9).status,
              wire::FrameStatus::TooLong);
    // The length word alone is enough to tell.
    EXPECT_EQ(wire::parseFrame("\xff\xff\xff\xff", 1u << 16).status,
              wire::FrameStatus::TooLong);
}

} // namespace
} // namespace glifs
