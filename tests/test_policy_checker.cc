/**
 * @file
 * Tests of the policy model and the per-cycle flow checker (via the
 * engine on targeted micro-programs), plus root-cause classification.
 */

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "ift/checker.hh"
#include "ift/engine.hh"
#include "ift/rootcause.hh"
#include "soc/address_map.hh"
#include "soc/soc.hh"

namespace glifs
{
namespace
{

TEST(Policy, PartitionLookup)
{
    Policy p = benchmarkPolicy(0x80, 0xFFF);
    ASSERT_NE(p.codePartitionOf(0x00), nullptr);
    EXPECT_FALSE(p.codePartitionOf(0x00)->tainted);
    ASSERT_NE(p.codePartitionOf(0x80), nullptr);
    EXPECT_TRUE(p.codePartitionOf(0x80)->tainted);
    EXPECT_TRUE(p.codeTainted(0x500));
    EXPECT_FALSE(p.codeTainted(0x7F));

    ASSERT_NE(p.memPartitionOf(0x0900), nullptr);
    EXPECT_FALSE(p.memPartitionOf(0x0900)->tainted);
    ASSERT_NE(p.memPartitionOf(0x0C00), nullptr);
    EXPECT_TRUE(p.memPartitionOf(0x0C00)->tainted);
    EXPECT_EQ(p.memPartitionOf(0x0100), nullptr);
}

TEST(Policy, BenchmarkPortLabels)
{
    Policy p = benchmarkPolicy(0x80, 0xFFF);
    EXPECT_TRUE(p.taintedInPort[0]);    // P1IN untrusted
    EXPECT_FALSE(p.taintedInPort[2]);   // P3IN trusted
    EXPECT_TRUE(p.trustedOutPort[0]);   // P1OUT trusted
    EXPECT_FALSE(p.trustedOutPort[1]);  // P2OUT untrusted
}

TEST(Policy, StrDumpsLabels)
{
    Policy p = benchmarkPolicy(0x80, 0xFFF);
    std::string s = p.str();
    EXPECT_NE(s.find("P1IN: tainted"), std::string::npos);
    EXPECT_NE(s.find("task"), std::string::npos);
}

TEST(Violation, Rendering)
{
    Violation v;
    v.kind = ViolationKind::StoreUntaintedPartition;
    v.instrAddr = 0x42;
    v.firstCycle = 7;
    v.count = 3;
    v.detail = "whoops";
    std::string s = v.str();
    EXPECT_NE(s.find("C2-store-untainted-partition"), std::string::npos);
    EXPECT_NE(s.find("0x0042"), std::string::npos);
    EXPECT_NE(s.find("whoops"), std::string::npos);
    EXPECT_NE(s.find("warning"), std::string::npos);
}

TEST(Violation, ErrorClassification)
{
    EXPECT_TRUE(violationIsError(ViolationKind::TrustedOutputTainted));
    EXPECT_TRUE(violationIsError(ViolationKind::UntaintedCodeTaintedPc));
    EXPECT_FALSE(violationIsError(ViolationKind::TaintedControlFlow));
    EXPECT_FALSE(
        violationIsError(ViolationKind::StoreUntaintedPartition));
}

TEST(ViolationLog, AggregatesByKindAndInstr)
{
    ViolationLog log;
    log.record(ViolationKind::WatchdogTainted, 0x10, 5, "a");
    log.record(ViolationKind::WatchdogTainted, 0x10, 9, "a");
    log.record(ViolationKind::WatchdogTainted, 0x20, 9, "b");
    log.record(ViolationKind::StoreUntaintedPartition, 0x10, 9, "c",
               true);
    EXPECT_EQ(log.distinct(), 3u);
    for (const Violation &v : log.list()) {
        if (v.kind == ViolationKind::WatchdogTainted &&
            v.instrAddr == 0x10) {
            EXPECT_EQ(v.count, 2u);
            EXPECT_EQ(v.firstCycle, 5u);
            EXPECT_FALSE(v.maskable);
        }
        if (v.kind == ViolationKind::StoreUntaintedPartition) {
            EXPECT_TRUE(v.maskable);
        }
    }
}

class CheckerTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { soc = new Soc(); }
    static void TearDownTestSuite() { delete soc; soc = nullptr; }

    EngineResult
    analyze(const std::string &src, const Policy &policy)
    {
        ProgramImage img = assembleSource(src);
        IftEngine engine(*soc, policy, EngineConfig{});
        return engine.run(img);
    }

    static const Violation *
    find(const EngineResult &r, ViolationKind kind)
    {
        for (const Violation &v : r.violations) {
            if (v.kind == kind)
                return &v;
        }
        return nullptr;
    }

    static Soc *soc;
};

Soc *CheckerTest::soc = nullptr;

TEST_F(CheckerTest, C3LoadFromTaintedPartition)
{
    // Untainted code loads from the tainted RAM partition.
    Policy p = benchmarkPolicy(0x80, 0xFFF);
    EngineResult r = analyze(
        "        mov &0x0c20, r4\n"
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_NE(find(r, ViolationKind::LoadTaintedData), nullptr);
}

TEST_F(CheckerTest, TaintedCodeMayLoadItsOwnPartition)
{
    Policy p = benchmarkPolicy(0x10, 0xFFF);
    EngineResult r = analyze(
        "        jmp t\n"
        "        .org 0x10\n"
        "t:      mov &0x0c20, r4\n"
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(find(r, ViolationKind::LoadTaintedData), nullptr);
}

TEST_F(CheckerTest, ViolatingStoreIsMaskableAndAttributed)
{
    Policy p = benchmarkPolicy(0x10, 0xFFF);
    ProgramImage img = assembleSource(
        "        jmp t\n"
        "        .org 0x10\n"
        "t:      mov &0x0000, r4\n"
        "        mov #0x0c00, r5\n"
        "        add r4, r5\n"
        "        mov #1, 0(r5)\n"   // the store at t+5
        "        halt\n");
    IftEngine engine(*soc, p, EngineConfig{});
    EngineResult r = engine.run(img);
    // Exactly one *maskable* C2 cause exists (the store); symptom
    // entries (persistently tainted cells seen later) are unmaskable.
    const Violation *cause = nullptr;
    for (const Violation &v : r.violations) {
        if (v.kind == ViolationKind::StoreUntaintedPartition &&
            v.maskable) {
            EXPECT_EQ(cause, nullptr);
            cause = &v;
        }
    }
    ASSERT_NE(cause, nullptr);
    // The violating instruction is the store itself.
    auto ins = decode(&img.words[cause->instrAddr],
                      img.words.size() - cause->instrAddr);
    ASSERT_TRUE(ins.has_value());
    EXPECT_TRUE(ins->writesMem());

    RootCauseReport rc = analyzeRootCauses(r, p, &img);
    ASSERT_EQ(rc.storesToMask.size(), 1u);
    EXPECT_EQ(rc.storesToMask[0], cause->instrAddr);
}

TEST_F(CheckerTest, UntrustedOutputPortMayCarryTaint)
{
    Policy p = benchmarkPolicy(0x10, 0xFFF);
    EngineResult r = analyze(
        "        jmp t\n"
        "        .org 0x10\n"
        "t:      mov &0x0000, r4\n"
        "        mov r4, &0x0003\n"  // untrusted P2OUT
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(find(r, ViolationKind::TaintedWriteTrustedPort), nullptr);
    EXPECT_EQ(find(r, ViolationKind::TrustedOutputTainted), nullptr);
}

TEST_F(CheckerTest, RootCauseWatchdogNeed)
{
    Policy p = benchmarkPolicy(0x10, 0xFFF);
    // Tainted control flow that returns into untainted code.
    EngineResult r = analyze(
        "start:  jmp t\n"
        "        .org 0x10\n"
        "t:      mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t2\n"
        "        nop\n"
        "t2:     jmp start\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_NE(find(r, ViolationKind::UntaintedCodeTaintedPc), nullptr);
    RootCauseReport rc = analyzeRootCauses(r, p);
    ASSERT_EQ(rc.tasksNeedingWatchdog.size(), 1u);
    EXPECT_EQ(rc.tasksNeedingWatchdog[0], "task");
    EXPECT_NE(rc.str().find("watchdog"), std::string::npos);
}

// ---------------------------------------------------------------------
// The RAM taint scans (checkMemoryInvariant and checkRead's tainted-cell
// scan) read the taint plane a word at a time. Their per-cell,
// per-address form is kept below as the reference: same kinds,
// details, first cycles, counts and checker.violations observations.
// ---------------------------------------------------------------------

/** A ViolationLog stand-in that aggregates the way record() must: the
 *  first observation of a key keeps its cycle and detail. */
struct RefLog
{
    std::map<std::pair<uint8_t, uint16_t>, Violation> entries;
    uint64_t observations = 0;

    void
    record(ViolationKind kind, uint16_t instr, uint64_t cycle,
           const std::string &detail)
    {
        ++observations;
        auto key = std::make_pair(static_cast<uint8_t>(kind), instr);
        auto it = entries.find(key);
        if (it != entries.end()) {
            ++it->second.count;
            return;
        }
        Violation v;
        v.kind = kind;
        v.instrAddr = instr;
        v.firstCycle = cycle;
        v.count = 1;
        v.detail = detail;
        entries.emplace(key, v);
    }
};

/** Is any cell of RAM word @p w tainted? (one cell at a time) */
bool
refWordTainted(const MemPlanes &ram, size_t w)
{
    for (unsigned b = 0; b < ram.width(); ++b) {
        if (ram.cell(w * ram.width() + b).taint)
            return true;
    }
    return false;
}

void
refMemoryInvariant(const MemPlanes &ram, const Policy &policy,
                   uint16_t instr, uint64_t cycle, RefLog &log)
{
    for (const MemPartition &m : policy.mem) {
        if (m.tainted)
            continue;
        for (uint32_t a = m.lo; a <= m.hi; ++a) {
            if (classifyAddr(static_cast<uint16_t>(a)) != AddrRegion::Ram)
                continue;
            if (refWordTainted(ram, ramIndex(static_cast<uint16_t>(a)))) {
                log.record(ViolationKind::StoreUntaintedPartition, instr,
                           cycle,
                           detail::concat("untainted partition '", m.name,
                                          "' cell ",
                                          hex16(static_cast<uint16_t>(a)),
                                          " is tainted"));
            }
        }
    }
}

/** Every address base|sub (sub a subset of xmask) that is RAM, in
 *  ascending order, one observation per tainted word. */
void
refReadScan(const MemPlanes &ram, uint16_t base, uint16_t xmask,
            uint16_t instr, uint64_t cycle, RefLog &log)
{
    for (uint32_t a = 0; a <= 0xFFFF; ++a) {
        if ((a & ~xmask) != (base & ~xmask & 0xFFFF))
            continue;
        if (classifyAddr(static_cast<uint16_t>(a)) != AddrRegion::Ram)
            continue;
        if (refWordTainted(ram, ramIndex(static_cast<uint16_t>(a)))) {
            log.record(ViolationKind::LoadTaintedData, instr, cycle,
                       detail::concat("untainted code loads tainted cell ",
                                      hex16(static_cast<uint16_t>(a))));
        }
    }
}

::testing::AssertionResult
sameLog(const ViolationLog &got, const RefLog &want)
{
    const std::vector<Violation> list = got.list();
    if (list.size() != want.entries.size()) {
        return ::testing::AssertionFailure()
               << list.size() << " entries vs " << want.entries.size();
    }
    auto it = want.entries.begin();
    for (const Violation &v : list) {
        const Violation &w = (it++)->second;
        if (v.kind != w.kind || v.instrAddr != w.instrAddr ||
            v.firstCycle != w.firstCycle || v.count != w.count ||
            v.maskable != w.maskable || v.detail != w.detail) {
            return ::testing::AssertionFailure()
                   << "got '" << v.str() << "' want '" << w.str() << "'";
        }
    }
    return ::testing::AssertionSuccess();
}

double
violationStat()
{
    return stats::Registry::instance().snapshot().value(
        "checker.violations");
}

/** Random RAM taint: sparse cells, dense runs, or word-boundary
 *  cells; known values throughout. */
void
randomRamTaint(MemPlanes &ram, std::mt19937_64 &rng)
{
    const unsigned shape = rng() % 3;
    for (size_t i = 0; i < ram.cells(); ++i) {
        bool t = false;
        if (shape == 0)
            t = rng() % 97 == 0;
        else if (shape == 1)
            t = (i / 200) % 3 == 0 && rng() % 4 == 0;
        else
            t = (i % ram.width() == 0 || i % ram.width() == 15) &&
                rng() % 9 == 0;
        ram.setCell(i, Signal{ternBool(rng() & 1), t});
    }
}

class CheckerScanTest : public CheckerTest
{
  protected:
    void
    setBus(Simulator &sim, const Bus &bus, uint16_t value,
           uint16_t xmask = 0, uint16_t taint = 0)
    {
        for (size_t i = 0; i < bus.size(); ++i) {
            const bool x = (xmask >> i) & 1;
            sim.setNet(bus[i], Signal{x ? Tern::X
                                        : ternBool((value >> i) & 1),
                                      ((taint >> i) & 1) != 0});
        }
    }
};

TEST_F(CheckerScanTest, MemoryInvariantMatchesPerCellScan)
{
    // Untainted partitions starting or ending inside a 64-bit plane
    // word (4 RAM words of 16 cells), straddling the RAM bounds,
    // covering the ports and WDTCTL, or the whole data space; one
    // tainted partition that must be skipped.
    Policy p;
    p.addMem("low", 0x0800, 0x0BFF, false)
        .addMem("inner", 0x0801, 0x0806, false)
        .addMem("tiny", 0x0903, 0x0904, false)
        .addMem("below", 0x07F0, 0x0805, false)
        .addMem("above", 0x0FFA, 0x1010, false)
        .addMem("ports", 0x0000, 0x0010, false)
        .addMem("last", 0x0FFF, 0x0FFF, false)
        .addMem("high", 0x0C00, 0x0FFF, true)
        .addMem("all", 0x0000, 0xFFFF, false);
    FlowChecker checker(*soc, p);
    std::mt19937_64 rng(0x1417);
    for (int trial = 0; trial < 12; ++trial) {
        Simulator sim(soc->netlist());
        MemPlanes &ram = sim.state().mem(soc->probes().dataMem);
        randomRamTaint(ram, rng);
        ViolationLog log;
        RefLog ref;
        const double before = violationStat();
        // Repeated scans aggregate: counts add, the first cycle stays.
        for (uint64_t cycle : {7u, 9u, 30u}) {
            const uint16_t instr = (cycle == 9) ? 0x44 : 0x40;
            checker.checkMemoryInvariant(sim, instr, cycle, log);
            refMemoryInvariant(ram, p, instr, cycle, ref);
        }
        ASSERT_TRUE(sameLog(log, ref)) << "trial " << trial;
        ASSERT_EQ(violationStat() - before,
                  static_cast<double>(ref.observations));
    }
}

TEST_F(CheckerScanTest, ReadScanMatchesPerAddressScan)
{
    // No tainted partition and no tainted input port: the only loads
    // checkRead can flag are of tainted cells.
    Policy p;
    p.addMem("low", 0x0800, 0x0BFF, false);
    p.taintedInPort = {false, false, false, false};
    FlowChecker checker(*soc, p);
    const SocProbes &prb = soc->probes();
    struct Read
    {
        uint16_t base, xmask, taint;
    };
    const Read reads[] = {
        {0x0805, 0x0000, 0x0000},  // concrete RAM word
        {0x0010, 0x0000, 0x0000},  // concrete, outside RAM
        {0x0FFC, 0x0003, 0x0001},  // 2 X bits at the top of RAM
        {0x0000, 0x0803, 0x0000},  // straddles the RAM base
        {0x0800, 0x000F, 0x0000},  // 4 X bits
        {0x0800, 0x001F, 0x0010},  // 5 X bits
        {0x0800, 0x0F0F, 0x0000},  // 8 scattered X bits
        {0x0004, 0x1800, 0x0000},  // RAM and unmapped space
        {0x0000, 0xFFFF, 0xFFFF},  // fully unknown, tainted
        {0x0000, 0x07FF, 0x0000},  // 11 X bits, none reaching RAM
    };
    std::mt19937_64 rng(0x5ca1);
    for (int trial = 0; trial < 6; ++trial) {
        Simulator sim(soc->netlist());
        MemPlanes &ram = sim.state().mem(prb.dataMem);
        randomRamTaint(ram, rng);
        // A reading FSM state, no store this cycle, untainted PC.
        setBus(sim, prb.stateQ,
               static_cast<uint16_t>(trial % 2 ? CoreState::ReadMem
                                                : CoreState::Pop));
        sim.setNet(prb.memWriteState, sigZero());
        for (const Read &r : reads) {
            setBus(sim, prb.dmemReadAddr, r.base, r.xmask, r.taint);
            ViolationLog log;
            RefLog ref;
            const double before = violationStat();
            for (uint64_t cycle : {3u, 4u}) {
                checker.checkCycle(sim, 0x20, cycle, log);
                refReadScan(ram, r.base, r.xmask, 0x20, cycle, ref);
            }
            ASSERT_TRUE(sameLog(log, ref))
                << "trial " << trial << " read " << hex16(r.base) << "/"
                << hex16(r.xmask);
            ASSERT_EQ(violationStat() - before,
                      static_cast<double>(ref.observations));
        }
    }
}

TEST_F(CheckerTest, RootCauseSecureReport)
{
    Policy p = benchmarkPolicy(0x10, 0xFFF);
    EngineResult r = analyze("        halt\n", p);
    RootCauseReport rc = analyzeRootCauses(r, p);
    EXPECT_FALSE(rc.needsModification());
    EXPECT_TRUE(rc.fixable());
    EXPECT_NE(rc.str().find("secure"), std::string::npos);
}

} // namespace
} // namespace glifs
