/**
 * @file
 * Tests of the packed symbolic state: capture/restore round trips,
 * substate ordering and conservative merging (the lattice operations
 * Algorithm 1's termination argument rests on).
 */

#include <gtest/gtest.h>

#include <random>

#include "ift/state_table.hh"
#include "ift/symstate.hh"
#include "netlist/builder.hh"
#include "sim/simulator.hh"

namespace glifs
{
namespace
{

/** A tiny netlist: 4 flops and one 4x4 memory. */
struct Fixture
{
    Netlist nl;
    std::vector<DffHandle> flops;

    Fixture()
    {
        NetId d = nl.addInput("d");
        NetId rst = nl.addInput("rst");
        for (int i = 0; i < 4; ++i) {
            DffHandle ff = nl.addDff("q" + std::to_string(i));
            nl.connectDff(ff.gate, d, rst, nl.constNet(true));
            flops.push_back(ff);
        }
        MemoryDecl mem;
        mem.name = "m";
        mem.width = 4;
        mem.words = 4;
        mem.readAddr = {nl.addInput("a0"), nl.addInput("a1")};
        for (int i = 0; i < 4; ++i)
            mem.readData.push_back(nl.addNet("rd" + std::to_string(i)));
        mem.writeAddr = mem.readAddr;
        mem.writeData = {d, d, d, d};
        mem.writeEn = nl.addInput("we");
        nl.addMemory(mem);
    }
};

TEST(SymState, LayoutCountsSlots)
{
    Fixture f;
    SymLayout layout(f.nl);
    EXPECT_EQ(layout.dffNets().size(), 4u);
    EXPECT_EQ(layout.slots(), 4u + 16u);
}

TEST(SymState, RomExcludedFromLayout)
{
    Netlist nl;
    MemoryDecl rom;
    rom.name = "rom";
    rom.width = 4;
    rom.words = 4;
    rom.writable = false;
    rom.readAddr = {nl.addInput("a0"), nl.addInput("a1")};
    for (int i = 0; i < 4; ++i)
        rom.readData.push_back(nl.addNet("rd" + std::to_string(i)));
    nl.addMemory(rom);
    SymLayout layout(nl);
    EXPECT_EQ(layout.slots(), 0u);
}

TEST(SymState, CaptureRestoreRoundTrip)
{
    Fixture f;
    SymLayout layout(f.nl);
    SignalState sigs(f.nl);
    sigs.setNet(f.flops[0].q, sigBool(1, true));
    sigs.setNet(f.flops[1].q, sigX());
    sigs.setNet(f.flops[2].q, sigBool(0, false));
    sigs.mem(0).setCell(5, Signal{Tern::One, true});

    SymState s(layout);
    s.capture(layout, sigs);

    SignalState other(f.nl);
    s.restore(layout, other);
    EXPECT_EQ(other.net(f.flops[0].q), sigBool(1, true));
    EXPECT_EQ(other.net(f.flops[1].q), sigX());
    EXPECT_EQ(other.net(f.flops[2].q), sigBool(0, false));
    EXPECT_EQ(other.mem(0).cell(5), (Signal{Tern::One, true}));

    SymState s2(layout);
    s2.capture(layout, other);
    EXPECT_EQ(s, s2);
}

TEST(SymState, RestoreDropsValueBitsOnUnknownCells)
{
    Fixture f;
    SymLayout layout(f.nl);
    SignalState sigs(f.nl);
    sigs.setNet(f.flops[0].q, sigBool(1, false));
    sigs.mem(0).setCell(2, Signal{Tern::One, true});
    sigs.mem(0).setCell(9, Signal{Tern::Zero, false});
    SymState s(layout);
    s.capture(layout, sigs);

    // A state as a checkpoint or segment file may hold it: value bits
    // set on the unknown slots too.
    BitPlane v = s.valuePlane();
    for (size_t i = 0; i < v.size(); ++i) {
        if (!s.knownPlane().get(i))
            v.set(i, true);
    }
    SymState loose(layout);
    loose.setPlanes(s.knownPlane(), v, s.taintPlane());
    SignalState other(f.nl);
    loose.restore(layout, other);
    EXPECT_EQ(other.mem(0), sigs.mem(0));
    for (size_t i = 0; i < other.mem(0).cells(); ++i)
        EXPECT_EQ(other.mem(0).cell(i), sigs.mem(0).cell(i)) << i;
    EXPECT_EQ(other.memWordValue(f.nl, 0, 1), 0u);  // X cells read 0
    SymState back(layout);
    back.capture(layout, other);
    EXPECT_EQ(back, s);
}

/**
 * A netlist of @p nflops flops and one writable memory per entry of
 * @p mems ({words, width}), plus a ROM that must stay out of the
 * layout. Slot counts are chosen by the caller to straddle words.
 */
Netlist
layeredNetlist(size_t nflops,
               const std::vector<std::pair<uint32_t, unsigned>> &mems)
{
    Netlist nl;
    NetId d = nl.addInput("d");
    NetId rst = nl.addInput("rst");
    for (size_t i = 0; i < nflops; ++i) {
        DffHandle ff = nl.addDff("q" + std::to_string(i));
        nl.connectDff(ff.gate, d, rst, nl.constNet(true));
    }
    auto addMem = [&](const std::string &name, uint32_t words,
                      unsigned width, bool writable) {
        MemoryDecl mem;
        mem.name = name;
        mem.width = width;
        mem.words = words;
        mem.writable = writable;
        for (uint32_t w = 1; w < words; w <<= 1) {
            const std::string bit = std::to_string(mem.readAddr.size());
            mem.readAddr.push_back(nl.addInput(name + "_a" + bit));
        }
        for (unsigned b = 0; b < width; ++b)
            mem.readData.push_back(
                nl.addNet(name + "_rd" + std::to_string(b)));
        if (writable) {
            mem.writeAddr = mem.readAddr;
            mem.writeData.assign(width, d);
            mem.writeEn = nl.addInput(name + "_we");
        }
        nl.addMemory(mem);
    };
    addMem("rom", 4, 8, false);
    for (size_t m = 0; m < mems.size(); ++m)
        addMem("m" + std::to_string(m), mems[m].first, mems[m].second,
               true);
    return nl;
}

/** Random ternary value and taint. */
Signal
randomSignal(std::mt19937_64 &rng)
{
    return Signal{static_cast<Tern>(rng() % 3), (rng() & 1) != 0};
}

/** Every net and every memory cell (ROM included) randomised. */
SignalState
randomState(const Netlist &nl, std::mt19937_64 &rng)
{
    SignalState sigs(nl);
    for (NetId n = 0; n < nl.numNets(); ++n)
        sigs.setNet(n, randomSignal(rng));
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        MemPlanes &cells = sigs.mem(m);
        for (size_t i = 0; i < cells.cells(); ++i)
            cells.setCell(i, randomSignal(rng));
    }
    return sigs;
}

/** The slot-at-a-time capture the word-granular one must equal. */
SymState
referenceCapture(const SymLayout &layout, const SignalState &sigs)
{
    SymState ref(layout);
    for (size_t i = 0; i < layout.dffNets().size(); ++i)
        ref.setSlot(layout.dffSlot(i), sigs.net(layout.dffNets()[i]));
    for (const auto &[mem, base] : layout.mems()) {
        const MemPlanes &cells = sigs.mem(mem);
        for (size_t i = 0; i < cells.cells(); ++i)
            ref.setSlot(base + i, cells.cell(i));
    }
    return ref;
}

/** True iff no plane has a bit set at or past slot @p slots. */
bool
tailIsZero(const SymState &s, size_t slots)
{
    for (const BitPlane *p :
         {&s.knownPlane(), &s.valuePlane(), &s.taintPlane()}) {
        const std::vector<uint64_t> &w = p->words();
        if (w.size() != (slots + 63) / 64)
            return false;
        if (slots % 64 != 0 && (w.back() >> (slots % 64)) != 0)
            return false;
    }
    return true;
}

TEST(SymState, WordCaptureRestoreIsBitExact)
{
    // Slot counts: 4 + 16 = 20; 70 + 7*9 + 64*3 = 325; 64 + 0 = 64
    // (a whole number of words); 130 + 5*13 = 195.
    using Mems = std::vector<std::pair<uint32_t, unsigned>>;
    const std::vector<std::pair<size_t, Mems>> shapes = {
        {4, {{4, 4}}}, {70, {{7, 9}, {64, 3}}}, {64, {}}, {130, {{5, 13}}}};
    std::mt19937_64 rng(0x5eed);
    for (const auto &[nflops, mems] : shapes) {
        Netlist nl = layeredNetlist(nflops, mems);
        SymLayout layout(nl);
        SCOPED_TRACE("slots=" + std::to_string(layout.slots()));
        // One SymState reused across captures: a capture must not
        // keep any bit of the state it overwrites.
        SymState reused(layout);
        for (int trial = 0; trial < 20; ++trial) {
            const SignalState sigs = randomState(nl, rng);
            const SymState ref = referenceCapture(layout, sigs);

            SymState fresh;
            fresh.capture(layout, sigs);
            reused.capture(layout, sigs);
            ASSERT_EQ(fresh, ref);
            ASSERT_EQ(reused, ref);
            ASSERT_TRUE(tailIsZero(fresh, layout.slots()));

            // restore rewrites exactly the flops and writable cells.
            const SignalState before = randomState(nl, rng);
            SignalState after = before;
            fresh.restore(layout, after);
            std::vector<bool> isFlop(nl.numNets(), false);
            for (size_t i = 0; i < layout.dffNets().size(); ++i) {
                const NetId n = layout.dffNets()[i];
                isFlop[n] = true;
                ASSERT_EQ(after.net(n), sigs.net(n)) << "flop " << i;
            }
            for (NetId n = 0; n < nl.numNets(); ++n) {
                if (!isFlop[n]) {
                    ASSERT_EQ(after.net(n), before.net(n)) << "net " << n;
                }
            }
            for (MemId m = 0; m < nl.numMemories(); ++m) {
                const SignalState &want =
                    nl.memory(m).writable ? sigs : before;
                const MemPlanes &got = after.mem(m);
                for (size_t i = 0; i < got.cells(); ++i) {
                    ASSERT_EQ(got.cell(i), want.mem(m).cell(i))
                        << "memory " << m << " cell " << i;
                }
            }

            // ...and capturing it again gives the same state back.
            SymState again;
            again.capture(layout, after);
            ASSERT_EQ(again, fresh);
        }
    }
}

TEST(SymState, SubsumptionOrdering)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState concrete(layout);
    SymState abstract(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        concrete.setSlot(i, sigBool(i % 2 == 0));
        abstract.setSlot(i, sigX());
    }
    EXPECT_TRUE(concrete.subsumedBy(abstract));
    EXPECT_FALSE(abstract.subsumedBy(concrete));
    EXPECT_TRUE(concrete.subsumedBy(concrete));

    // Differing known values are not subsumed either way.
    SymState other = concrete;
    other.setSlot(0, sigBool(0));  // concrete has slot 0 == 1
    EXPECT_FALSE(other.subsumedBy(concrete));
    EXPECT_FALSE(concrete.subsumedBy(other));
}

TEST(SymState, TaintContainmentInSubsumption)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState clean(layout);
    SymState tainted(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        clean.setSlot(i, sigBool(0));
        tainted.setSlot(i, sigBool(0, true));
    }
    // Same values, but the tainted state is NOT covered by the clean
    // one; the clean one IS covered by the tainted one.
    EXPECT_FALSE(tainted.subsumedBy(clean));
    EXPECT_TRUE(clean.subsumedBy(tainted));
}

TEST(SymState, MergeProducesJoin)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState a(layout);
    SymState b(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        a.setSlot(i, sigBool(0));
        b.setSlot(i, sigBool(0));
    }
    a.setSlot(0, sigBool(0));
    b.setSlot(0, sigBool(1));              // differing value -> X
    a.setSlot(1, sigBool(1, true));        // taint unions...
    b.setSlot(1, sigBool(1));              // ...over the same value
    b.setSlot(2, sigX());                  // unknown stays unknown

    SymState merged = a;
    merged.mergeWith(b);
    EXPECT_EQ(merged.slot(0).value, Tern::X);
    EXPECT_TRUE(merged.slot(1).taint);
    EXPECT_EQ(merged.slot(1).value, Tern::One);
    EXPECT_EQ(merged.slot(2).value, Tern::X);

    // Both inputs are subsumed by the join.
    EXPECT_TRUE(a.subsumedBy(merged));
    EXPECT_TRUE(b.subsumedBy(merged));
}

TEST(SymState, MergeTaintDiffsFlag)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState a(layout);
    SymState b(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        a.setSlot(i, sigBool(0));
        b.setSlot(i, sigBool(0));
    }
    b.setSlot(3, sigBool(1));
    SymState m = a;
    m.mergeWith(b, true);
    EXPECT_TRUE(m.slot(3).taint);          // differing slot tainted
    EXPECT_FALSE(m.slot(2).taint);         // equal slot untouched
}

TEST(SymState, MergeIsMonotone)
{
    // Repeated merging converges (finite lattice): merging the merge
    // with either input changes nothing.
    Fixture f;
    SymLayout layout(f.nl);
    SymState a(layout);
    SymState b(layout);
    for (size_t i = 0; i < layout.slots(); ++i) {
        a.setSlot(i, sigBool(i % 2));
        b.setSlot(i, sigBool(i % 3 == 0));
    }
    SymState m = a;
    m.mergeWith(b);
    SymState m2 = m;
    m2.mergeWith(a);
    EXPECT_EQ(m, m2);
    m2.mergeWith(b);
    EXPECT_EQ(m, m2);
}

TEST(StateTable, VisitLifecycle)
{
    Fixture f;
    SymLayout layout(f.nl);
    SymState s(layout);
    for (size_t i = 0; i < layout.slots(); ++i)
        s.setSlot(i, sigBool(0));

    StateTable table;
    EXPECT_EQ(table.visit(0x100, s), StateTable::Visit::New);
    // Identical state: subsumed.
    SymState s2 = s;
    EXPECT_EQ(table.visit(0x100, s2), StateTable::Visit::Subsumed);
    // Different value: merged, and s3 becomes the conservative state.
    SymState s3 = s;
    s3.setSlot(0, sigBool(1));
    EXPECT_EQ(table.visit(0x100, s3), StateTable::Visit::Merged);
    EXPECT_EQ(s3.slot(0).value, Tern::X);
    // Now anything with slot 0 in {0,1} is subsumed.
    SymState s4 = s;
    EXPECT_EQ(table.visit(0x100, s4), StateTable::Visit::Subsumed);
    // A different key is independent.
    SymState s5 = s;
    EXPECT_EQ(table.visit(0x200, s5), StateTable::Visit::New);
    EXPECT_EQ(table.size(), 2u);
    EXPECT_EQ(table.merges(), 1u);
    EXPECT_EQ(table.subsumptions(), 2u);
    EXPECT_NE(table.lookup(0x100), nullptr);
    EXPECT_EQ(table.lookup(0x300), nullptr);
}

} // namespace
} // namespace glifs
