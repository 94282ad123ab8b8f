/**
 * @file
 * Word-level memory storage against per-bit and per-Signal references:
 * the BitPlane field and copy helpers at every bit offset, and the
 * plane-based memoryRead/memoryWrite against the one-Signal-per-cell
 * semantics they replaced (Section 4.1 / Figure 9), taint included.
 */

#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "base/bitutil.hh"
#include "netlist/memory_array.hh"

namespace glifs
{
namespace
{

// ---------------------------------------------------------------------
// BitPlane helpers vs a std::vector<bool> reference
// ---------------------------------------------------------------------

BitPlane
randomPlane(size_t nbits, std::mt19937_64 &rng)
{
    BitPlane p(nbits);
    for (size_t i = 0; i < nbits; ++i)
        p.set(i, rng() & 1);
    return p;
}

std::vector<bool>
bitsOf(const BitPlane &p)
{
    std::vector<bool> out(p.size());
    for (size_t i = 0; i < p.size(); ++i)
        out[i] = p.get(i);
    return out;
}

/** No bit at or past size() is set. */
bool
tailZero(const BitPlane &p)
{
    const std::vector<uint64_t> &w = p.words();
    return w.size() == (p.size() + 63) / 64 &&
           (p.size() % 64 == 0 || (w.back() >> (p.size() % 64)) == 0);
}

TEST(BitPlaneField, ReadAndWriteAtEveryOffset)
{
    std::mt19937_64 rng(0xf1e1d);
    const size_t nbits = 200;  // 4 words, partial last word
    for (size_t pos = 0; pos < 128; ++pos) {
        for (unsigned len = 1; len <= 64; ++len) {
            BitPlane p = randomPlane(nbits, rng);
            const std::vector<bool> before = bitsOf(p);
            uint64_t want = 0;
            for (unsigned b = 0; b < len; ++b)
                want |= static_cast<uint64_t>(before[pos + b]) << b;
            ASSERT_EQ(p.field(pos, len), want)
                << "pos " << pos << " len " << len;

            // Extra high bits in the argument must be ignored.
            const uint64_t v = rng();
            p.setField(pos, len, v);
            for (size_t i = 0; i < nbits; ++i) {
                const bool expect = (i >= pos && i < pos + len)
                                        ? ((v >> (i - pos)) & 1) != 0
                                        : before[i];
                ASSERT_EQ(p.get(i), expect)
                    << "pos " << pos << " len " << len << " bit " << i;
            }
            ASSERT_TRUE(tailZero(p));
        }
    }
}

TEST(BitPlaneField, CopyBitsAtEveryOffset)
{
    std::mt19937_64 rng(0xc0b1);
    // Lengths inside one word, exactly one word, and across 2-5 words.
    const size_t lens[] = {1, 7, 63, 64, 65, 127, 128, 129, 191, 300};
    for (size_t src_pos = 0; src_pos < 128; ++src_pos) {
        for (size_t len : lens) {
            const size_t dst_pos = rng() % 128;
            // Destination sized to end mid-word right after the copy
            // half the time, so an overrun would touch the tail.
            const size_t dst_bits = dst_pos + len + (rng() % 2) * 70;
            const BitPlane src = randomPlane(src_pos + len + 5, rng);
            BitPlane dst = randomPlane(dst_bits, rng);
            const std::vector<bool> before = bitsOf(dst);
            dst.copyBits(dst_pos, src, src_pos, len);
            for (size_t i = 0; i < dst_bits; ++i) {
                const bool expect = (i >= dst_pos && i < dst_pos + len)
                                        ? src.get(src_pos + (i - dst_pos))
                                        : before[i];
                ASSERT_EQ(dst.get(i), expect)
                    << "src " << src_pos << " dst " << dst_pos << " len "
                    << len << " bit " << i;
            }
            ASSERT_TRUE(tailZero(dst));
        }
    }
}

// ---------------------------------------------------------------------
// The per-Signal memory semantics (the representation before bit
// planes), kept as the reference.
// ---------------------------------------------------------------------

/** Call @p fn(w) for every word w an address may denote, tested one
 *  word at a time (independent of forEachAddr's enumeration). */
template <typename Fn>
void
refForEachAddr(const MemAddr &addr, size_t words, Fn &&fn)
{
    for (size_t w = 0; w < words; ++w) {
        if (addr.fullRange || (w & ~addr.xMask) == addr.base)
            fn(w);
    }
}

void
refRead(const std::vector<Signal> &cells, unsigned width, size_t words,
        const MemAddr &addr, std::vector<Signal> &out)
{
    out.assign(width, Signal{Tern::X, false});
    if (addr.concrete()) {
        if (addr.base < words) {
            for (unsigned b = 0; b < width; ++b)
                out[b] = cells[addr.base * width + b];
        }
    } else {
        bool any = false;
        refForEachAddr(addr, words, [&](size_t w) {
            const Signal *cell = &cells[w * width];
            for (unsigned b = 0; b < width; ++b) {
                if (!any) {
                    out[b] = cell[b];
                } else {
                    out[b].value = ternMerge(out[b].value, cell[b].value);
                    out[b].taint = out[b].taint || cell[b].taint;
                }
            }
            any = true;
        });
    }
    for (unsigned b = 0; b < width; ++b)
        out[b].taint = out[b].taint || addr.tainted;
}

void
refWrite(std::vector<Signal> &cells, unsigned width, size_t words,
         const MemAddr &addr, const Signal &we,
         const std::vector<Signal> &data)
{
    if (we.known() && !we.asBool())
        return;
    if (we.known() && we.asBool() && addr.concrete()) {
        if (addr.base >= words)
            return;
        Signal *cell = &cells[addr.base * width];
        for (unsigned b = 0; b < width; ++b) {
            cell[b] = data[b];
            cell[b].taint = cell[b].taint || addr.tainted || we.taint;
        }
        return;
    }
    const bool extra = we.taint || addr.tainted;
    refForEachAddr(addr, words, [&](size_t w) {
        Signal *cell = &cells[w * width];
        for (unsigned b = 0; b < width; ++b) {
            cell[b].value = ternMerge(cell[b].value, data[b].value);
            cell[b].taint = cell[b].taint || data[b].taint || extra;
        }
    });
}

Signal
randomSignal(std::mt19937_64 &rng)
{
    return Signal{static_cast<Tern>(rng() % 3), (rng() & 1) != 0};
}

/** Plane storage equals the reference cell for cell, is canonical
 *  (value 0 where unknown) and keeps its tail bits zero. */
::testing::AssertionResult
sameCells(const MemPlanes &mem, const std::vector<Signal> &ref)
{
    if (mem.cells() != ref.size())
        return ::testing::AssertionFailure() << "cell count";
    for (size_t i = 0; i < ref.size(); ++i) {
        if (!(mem.cell(i) == ref[i])) {
            return ::testing::AssertionFailure()
                   << "cell " << i << ": " << mem.cell(i).str()
                   << " vs reference " << ref[i].str();
        }
    }
    const std::vector<uint64_t> &k = mem.knownPlane().words();
    const std::vector<uint64_t> &v = mem.valuePlane().words();
    for (size_t w = 0; w < k.size(); ++w) {
        if (v[w] & ~k[w])
            return ::testing::AssertionFailure()
                   << "value bit set on an unknown cell in word " << w;
    }
    for (const BitPlane *p :
         {&mem.knownPlane(), &mem.valuePlane(), &mem.taintPlane()}) {
        if (!tailZero(*p))
            return ::testing::AssertionFailure() << "tail bits set";
    }
    return ::testing::AssertionSuccess();
}

/**
 * An address of @p abits signals: concrete in or out of range,
 * partially X, or fully X; taint on no, one or every bit.
 */
std::vector<Signal>
randomAddr(unsigned abits, size_t words, std::mt19937_64 &rng)
{
    std::vector<Signal> a(abits);
    const uint64_t value = rng() % (2 * words + 2);
    const unsigned shape = rng() % 4;
    for (unsigned i = 0; i < abits; ++i) {
        bool x = false;
        if (shape == 1)
            x = rng() % 3 == 0;  // partial X
        else if (shape == 2)
            x = i < 2;           // low bits X
        else if (shape == 3)
            x = true;            // fully X
        a[i].value = x ? Tern::X : ternBool((value >> i) & 1);
    }
    const unsigned taint = rng() % 4;
    if (taint == 1)
        a[rng() % abits].taint = true;
    else if (taint == 2)
        for (Signal &s : a)
            s.taint = true;
    return a;
}

Signal
randomEnable(std::mt19937_64 &rng)
{
    switch (rng() % 5) {
      case 0:
        return sigZero();
      case 1:
        return Signal{Tern::Zero, true};  // tainted but 0
      case 2:
        return Signal{Tern::X, (rng() & 1) != 0};
      case 3:
        return Signal{Tern::One, true};
      default:
        return sigOne();
    }
}

TEST(MemoryPlanes, MatchPerSignalReference)
{
    std::mt19937_64 rng(0x3e3);
    const unsigned widths[] = {1, 3, 12, 16, 17, 64};
    // 64 and 128 words of width 1 fill whole plane words.
    const size_t wordCounts[] = {1, 5, 12, 37, 64, 100, 128};
    for (unsigned width : widths) {
        for (size_t words : wordCounts) {
            SCOPED_TRACE("width " + std::to_string(width) + " words " +
                         std::to_string(words));
            MemPlanes mem(words, width);
            std::vector<Signal> ref(words * width, Signal{Tern::X, false});
            ASSERT_TRUE(sameCells(mem, ref));
            for (size_t i = 0; i < ref.size(); ++i) {
                ref[i] = randomSignal(rng);
                mem.setCell(i, ref[i]);
            }
            ASSERT_TRUE(sameCells(mem, ref));
            // One address bit more than needed, so concrete addresses
            // can fall out of range.
            const unsigned abits = bitsFor(words) + 1;
            for (int op = 0; op < 200; ++op) {
                const std::vector<Signal> asig =
                    randomAddr(abits, words, rng);
                const unsigned cap = (rng() & 1) ? 12 : 2;
                const MemAddr addr = decodeMemAddr(asig, words, cap);
                if (rng() & 1) {
                    std::vector<Signal> want;
                    refRead(ref, width, words, addr, want);
                    const MemWord got = memoryRead(mem, addr);
                    for (unsigned b = 0; b < width; ++b) {
                        ASSERT_EQ(got.bit(b), want[b])
                            << "op " << op << " read bit " << b;
                    }
                    ASSERT_EQ(got.value & ~got.known, 0u);
                    if (width < 64) {
                        ASSERT_EQ((got.known | got.value | got.taint) >>
                                      width,
                                  0u);
                    }
                } else {
                    std::vector<Signal> data(width);
                    for (Signal &s : data)
                        s = randomSignal(rng);
                    const Signal we = randomEnable(rng);
                    refWrite(ref, width, words, addr, we, data);
                    memoryWrite(mem, addr, we, packMemWord(data));
                    ASSERT_TRUE(sameCells(mem, ref)) << "op " << op;
                }
            }
        }
    }
}

TEST(MemoryPlanes, WordAndFillKeepCanonicalForm)
{
    MemPlanes mem(9, 7);  // 63 cells: a partial plane word
    // A non-canonical word (value bits on unknown cells) is stored
    // canonically.
    mem.setWord(3, MemWord{0x0F, 0x7F, 0x41});
    EXPECT_EQ(mem.word(3), (MemWord{0x0F, 0x0F, 0x41}));
    for (unsigned b = 4; b < 7; ++b)
        EXPECT_EQ(mem.cell(3 * 7 + b).value, Tern::X);
    mem.fill(Signal{Tern::X, true});
    for (size_t w = 0; w < mem.words(); ++w)
        EXPECT_EQ(mem.word(w), (MemWord{0, 0, 0x7F}));
    mem.fill(sigOne());
    for (size_t w = 0; w < mem.words(); ++w)
        EXPECT_EQ(mem.word(w), (MemWord{0x7F, 0x7F, 0}));
    EXPECT_TRUE(tailZero(mem.knownPlane()));
    EXPECT_TRUE(tailZero(mem.valuePlane()));
}

TEST(MemoryPlanes, TaintedWordScanMatchesCells)
{
    std::mt19937_64 rng(0x7a1);
    for (unsigned width : {1u, 3u, 16u, 17u, 64u}) {
        const size_t words = 77;
        MemPlanes mem(words, width);
        for (int trial = 0; trial < 20; ++trial) {
            for (size_t i = 0; i < mem.cells(); ++i)
                mem.setCell(i, Signal{Tern::Zero, rng() % 23 == 0});
            const size_t first = rng() % (words + 2);
            const size_t last = rng() % (words + 5);
            std::vector<size_t> want;
            for (size_t w = first; w <= last && w < words; ++w) {
                if (mem.word(w).taint != 0)
                    want.push_back(w);
            }
            std::vector<size_t> got;
            mem.forEachTaintedWord(first, last,
                                   [&](size_t w) { got.push_back(w); });
            ASSERT_EQ(got, want) << "width " << width << " [" << first
                                 << ", " << last << "]";
        }
    }
}

TEST(MemoryPlanes, SnapshotCopiesAreExact)
{
    std::mt19937_64 rng(0x5a5);
    MemPlanes mem(37, 17);  // 629 cells
    for (size_t i = 0; i < mem.cells(); ++i)
        mem.setCell(i, randomSignal(rng));
    for (size_t pos : {0u, 1u, 63u, 64u, 100u}) {
        const size_t nbits = pos + mem.cells() + 11;
        BitPlane k(nbits), v(nbits), t(nbits);
        mem.storeTo(k, v, t, pos);
        for (size_t i = 0; i < nbits; ++i) {
            const bool in = i >= pos && i < pos + mem.cells();
            const Signal s = in ? mem.cell(i - pos) : Signal{};
            ASSERT_EQ(k.get(i), in && s.known()) << i;
            ASSERT_EQ(v.get(i), in && s.value == Tern::One) << i;
            ASSERT_EQ(t.get(i), in && s.taint) << i;
        }
        MemPlanes back(37, 17);
        back.loadFrom(k, v, t, pos);
        ASSERT_EQ(back, mem);

        // Value bits on unknown cells (a state read from a file need
        // not be canonical) are dropped: those cells load as X.
        BitPlane vLoose = v;
        for (size_t i = 0; i < nbits; ++i) {
            if (!k.get(i))
                vLoose.set(i, true);
        }
        MemPlanes loose(37, 17);
        loose.loadFrom(k, vLoose, t, pos);
        ASSERT_EQ(loose, mem);
    }
}

} // namespace
} // namespace glifs
