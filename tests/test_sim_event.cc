/**
 * @file
 * Differential tests of the event-driven combinational scheduler
 * against the full levelized sweep (DESIGN.md "Simulator scheduling").
 *
 * The event-driven evalComb() must be bit-identical -- values *and*
 * taints, every net and every memory cell, every cycle -- to the
 * unconditional sweep it replaced, and the compiled bit-packed
 * backend (DESIGN.md "Compiled evaluation") must be bit-identical to
 * the table interpreter it replaced. This file proves it three ways:
 * randomized netlists driven with randomized ternary/tainted stimulus
 * (including mid-cycle net overrides, external memory stores and dirty
 * -set invalidation) stepped as a packed / interpreted-event /
 * interpreted-sweep trio, the IoT430 SoC stepped symbolically in
 * lockstep comparing SymState captures, and whole analysis-engine
 * runs over benchmark workloads under GLIFS_SIM_FULL_SWEEP A/B.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "ift/engine.hh"
#include "ift/symstate.hh"
#include "netlist/fanout.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"

namespace glifs
{
namespace
{

// --- randomized netlist fuzz ----------------------------------------

/** A random-but-acyclic design with flops and two memory blocks. */
struct RandomDesign
{
    Netlist nl;
    std::vector<NetId> inputs;
    MemId ram = 0;
    MemId rom = 0;
};

NetId
pick(std::mt19937 &rng, const std::vector<NetId> &pool)
{
    return pool[rng() % pool.size()];
}

GateKind
randKind(std::mt19937 &rng)
{
    static const GateKind kKinds[] = {
        GateKind::Buf, GateKind::Not,  GateKind::And,
        GateKind::Nand, GateKind::Or,  GateKind::Nor,
        GateKind::Xor, GateKind::Xnor, GateKind::Mux};
    return kKinds[rng() % 9];
}

Signal
randSignal(std::mt19937 &rng)
{
    static const Tern kVals[] = {Tern::Zero, Tern::One, Tern::X};
    const uint32_t r = rng();
    return Signal{kVals[r % 3], (r & 8) != 0};
}

void
addGates(std::mt19937 &rng, Netlist &nl, std::vector<NetId> &pool,
         size_t count)
{
    for (size_t i = 0; i < count; ++i) {
        GateKind k = randKind(rng);
        NetId a = pick(rng, pool);
        NetId b = gateArity(k) >= 2 ? pick(rng, pool) : kNoNet;
        NetId c = gateArity(k) >= 3 ? pick(rng, pool) : kNoNet;
        pool.push_back(nl.addComb(k, a, b, c));
    }
}

std::vector<NetId>
pickAddr(std::mt19937 &rng, const std::vector<NetId> &pool,
         size_t bits)
{
    std::vector<NetId> addr;
    for (size_t i = 0; i < bits; ++i)
        addr.push_back(pick(rng, pool));
    return addr;
}

/**
 * Acyclic by stratification: wave-1 gates read sources, both memory
 * read ports address through sources/wave-1, wave-2 gates may read the
 * memory data, and only the flip-flops (legal feedback) close loops.
 */
RandomDesign
buildRandomDesign(std::mt19937 &rng)
{
    RandomDesign d;
    Netlist &nl = d.nl;

    const size_t nIn = 4 + rng() % 7;
    for (size_t i = 0; i < nIn; ++i)
        d.inputs.push_back(nl.addInput("in" + std::to_string(i)));

    std::vector<NetId> pool = d.inputs;
    pool.push_back(nl.constNet(false));
    pool.push_back(nl.constNet(true));

    const size_t nDff = 2 + rng() % 7;
    std::vector<DffHandle> dffs;
    for (size_t i = 0; i < nDff; ++i) {
        dffs.push_back(nl.addDff("q" + std::to_string(i),
                                 (rng() & 1) != 0));
        pool.push_back(dffs.back().q);
    }

    addGates(rng, nl, pool, 10 + rng() % 30);

    auto makeMem = [&](const char *name, bool writable) {
        MemoryDecl decl;
        decl.name = name;
        decl.width = 4 + rng() % 5;
        decl.words = 8 + rng() % 9;
        decl.writable = writable;
        decl.maxUnknownAddrBits = 2 + rng() % 3;
        decl.addrTaintsRead = (rng() & 1) != 0;
        size_t bits = 1;
        while ((1ULL << bits) < decl.words)
            ++bits;
        decl.readAddr = pickAddr(rng, pool, bits);
        for (unsigned b = 0; b < decl.width; ++b)
            decl.readData.push_back(nl.addNet());
        if (writable) {
            decl.writeAddr = pickAddr(rng, pool, bits);
            for (unsigned b = 0; b < decl.width; ++b)
                decl.writeData.push_back(pick(rng, pool));
            decl.writeEn = pick(rng, pool);
        }
        MemId id = nl.addMemory(decl);
        for (NetId n : nl.memory(id).readData)
            pool.push_back(n);
        return id;
    };
    d.ram = makeMem("ram", true);
    d.rom = makeMem("rom", false);

    addGates(rng, nl, pool, 10 + rng() % 30);

    for (const DffHandle &ff : dffs) {
        nl.connectDff(ff.gate, pick(rng, pool), pick(rng, pool),
                      pick(rng, pool));
    }
    return d;
}

::testing::AssertionResult
statesEqual(const Netlist &nl, const Simulator &a, const Simulator &b)
{
    for (NetId n = 0; n < nl.numNets(); ++n) {
        if (!(a.netValue(n) == b.netValue(n))) {
            return ::testing::AssertionFailure()
                   << "net " << n << " (" << nl.net(n).name
                   << "): event-driven " << a.netValue(n).str()
                   << " vs full sweep " << b.netValue(n).str();
        }
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemPlanes &ca = a.state().mem(m);
        const MemPlanes &cb = b.state().mem(m);
        for (size_t i = 0; i < ca.cells(); ++i) {
            if (!(ca.cell(i) == cb.cell(i))) {
                return ::testing::AssertionFailure()
                       << "memory " << nl.memory(m).name << " cell "
                       << i << ": " << ca.cell(i).str() << " vs "
                       << cb.cell(i).str();
            }
        }
    }
    return ::testing::AssertionSuccess();
}

void
runDifferential(uint32_t seed, int cycles)
{
    std::mt19937 rng(seed);
    RandomDesign d = buildRandomDesign(rng);

    // Three-way: the compiled packed backend (the event-driven
    // default), the interpreted event-driven scheduler and the
    // interpreted full sweep must agree bit for bit, every cycle.
    Simulator evt(d.nl);
    Simulator interpEvt(d.nl);
    interpEvt.setBackend(SimBackend::Interp);
    Simulator full(d.nl);
    full.setBackend(SimBackend::Interp);
    full.setFullSweepMode(true);
    ASSERT_FALSE(evt.fullSweepMode());
    ASSERT_EQ(evt.backend(), SimBackend::Packed);
    Simulator *const sims[] = {&evt, &interpEvt, &full};

    // Identical ROM contents on all sides.
    const MemoryDecl &rom = d.nl.memory(d.rom);
    for (size_t w = 0; w < rom.words; ++w) {
        const uint64_t v = rng() & ((1ULL << rom.width) - 1);
        const bool taint = (rng() & 1) != 0;
        for (Simulator *s : sims)
            s->setMemWord(d.rom, w, v, taint);
    }

    for (int c = 0; c < cycles; ++c) {
        for (NetId in : d.inputs) {
            if (rng() & 1)
                continue;  // hold the previous drive
            Signal s = randSignal(rng);
            for (Simulator *sim : sims)
                sim->setInput(in, s);
        }
        if (rng() % 7 == 0) {
            const MemoryDecl &ram = d.nl.memory(d.ram);
            const size_t w = rng() % ram.words;
            const uint64_t v = rng() & ((1ULL << ram.width) - 1);
            const bool taint = (rng() & 1) != 0;
            for (Simulator *sim : sims)
                sim->setMemWord(d.ram, w, v, taint);
        }
        if (rng() % 11 == 0)
            evt.markAllDirty();  // invalidation must stay sound
        if (rng() % 13 == 0)
            interpEvt.markAllDirty();

        for (Simulator *sim : sims)
            sim->evalComb();
        ASSERT_TRUE(statesEqual(d.nl, evt, full))
            << "packed after evalComb, cycle " << c << ", seed "
            << seed;
        ASSERT_TRUE(statesEqual(d.nl, interpEvt, full))
            << "interp-event after evalComb, cycle " << c << ", seed "
            << seed;

        if (rng() % 5 == 0) {
            // Post-settle override of an arbitrary net, the por-fork
            // pattern: visible to the edge, recomputed next settle.
            const NetId n = rng() % d.nl.numNets();
            Signal s = randSignal(rng);
            for (Simulator *sim : sims)
                sim->setNet(n, s);
        }

        for (Simulator *sim : sims)
            sim->clockEdge();
        ASSERT_TRUE(statesEqual(d.nl, evt, full))
            << "packed after clockEdge, cycle " << c << ", seed "
            << seed;
        ASSERT_TRUE(statesEqual(d.nl, interpEvt, full))
            << "interp-event after clockEdge, cycle " << c
            << ", seed " << seed;
    }
}

TEST(SimEventFuzz, RandomNetlistsMatchFullSweep)
{
    for (uint32_t seed = 1; seed <= 20; ++seed)
        runDifferential(seed, 150);
}

TEST(SimEventFuzz, BackendSwitchMidRunStaysConsistent)
{
    std::mt19937 rng(42);
    RandomDesign d = buildRandomDesign(rng);
    Simulator ab(d.nl);      // flips backend every few cycles
    Simulator oracle(d.nl);
    oracle.setBackend(SimBackend::Interp);
    oracle.setFullSweepMode(true);

    for (int c = 0; c < 120; ++c) {
        if (c % 4 == 0) {
            ab.setBackend((c / 4) % 2 ? SimBackend::Interp
                                      : SimBackend::Packed);
        }
        for (NetId in : d.inputs) {
            if (rng() & 1)
                continue;
            Signal s = randSignal(rng);
            ab.setInput(in, s);
            oracle.setInput(in, s);
        }
        ab.step();
        oracle.step();
        ASSERT_TRUE(statesEqual(d.nl, ab, oracle)) << "cycle " << c;
    }
}

TEST(SimEventFuzz, SkippedEvalsAreCountedAndBounded)
{
    using stats::Registry;
    std::mt19937 rng(7);
    RandomDesign d = buildRandomDesign(rng);
    Simulator sim(d.nl);
    ASSERT_FALSE(sim.fullSweepMode());

    const double evals0 =
        Registry::instance().snapshot().value("sim.gate_evals");
    const double skip0 = Registry::instance().snapshot().value(
        "sim.gate_evals_skipped");

    sim.step();  // first settle: full sweep, nothing skipped yet
    for (int c = 0; c < 50; ++c)
        sim.step();  // quiescent inputs: almost everything skipped

    stats::Snapshot snap = Registry::instance().snapshot();
    const double evals = snap.value("sim.gate_evals") - evals0;
    const double skipped =
        snap.value("sim.gate_evals_skipped") - skip0;
    EXPECT_GT(skipped, 0.0);
    EXPECT_GT(evals, 0.0);
    const double ratio = snap.value("sim.dirty_ratio");
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
}

TEST(SimEventFuzz, FullSweepEnvSelectsSweep)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    nl.addComb(GateKind::Not, a);
    setenv("GLIFS_SIM_FULL_SWEEP", "1", 1);
    Simulator swept(nl);
    unsetenv("GLIFS_SIM_FULL_SWEEP");
    Simulator event(nl);
    EXPECT_TRUE(swept.fullSweepMode());
    EXPECT_FALSE(event.fullSweepMode());
}

TEST(SimEventFuzz, InterpEnvSelectsInterpreter)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    nl.addComb(GateKind::Not, a);
    setenv("GLIFS_SIM_INTERP", "1", 1);
    Simulator interp(nl);
    unsetenv("GLIFS_SIM_INTERP");
    Simulator packed(nl);
    EXPECT_EQ(interp.backend(), SimBackend::Interp);
    EXPECT_EQ(packed.backend(), SimBackend::Packed);
    EXPECT_EQ(stats::Registry::instance().snapshot().value(
                  "sim.backend"),
              1.0);
}

// --- fanout index unit checks ---------------------------------------

TEST(FanoutIndex, LevelsAndConsumers)
{
    Netlist nl;
    NetId a = nl.addInput("a");
    NetId b = nl.addInput("b");
    NetId x = nl.addComb(GateKind::And, a, b);   // level 0
    NetId y = nl.addComb(GateKind::Not, x);      // level 1
    nl.addComb(GateKind::Or, x, y);              // level 2

    std::vector<EvalStep> order = levelize(nl);
    FanoutIndex fi = buildFanoutIndex(nl, order);
    ASSERT_EQ(fi.numLevels, 3u);

    const GateId gx = nl.driverOf(x);
    const GateId gy = nl.driverOf(y);
    EXPECT_EQ(fi.levelOf[fi.gateNode(gx)], 0u);
    EXPECT_EQ(fi.levelOf[fi.gateNode(gy)], 1u);

    // a feeds exactly the AND gate; x feeds NOT and OR.
    ASSERT_EQ(fi.consumersOf(a).size(), 1u);
    EXPECT_EQ(fi.consumersOf(a)[0], fi.gateNode(gx));
    EXPECT_EQ(fi.consumersOf(x).size(), 2u);
}

// --- IoT430 SoC end-to-end ------------------------------------------

class SimEventSoc : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        soc = new Soc();
    }

    static void
    TearDownTestSuite()
    {
        delete soc;
        soc = nullptr;
    }

    static ProgramImage
    loopImage()
    {
        return assembleSource(
            "        mov #200, r4\n"
            "l:      add #3, r5\n"
            "        mov r5, &0x0900\n"
            "        dec r4\n"
            "        jnz l\n"
            "        halt\n");
    }

    static Soc *soc;
};

Soc *SimEventSoc::soc = nullptr;

TEST_F(SimEventSoc, ConcreteRunMatchesFullSweep)
{
    setenv("GLIFS_SIM_FULL_SWEEP", "1", 1);
    SocRunner swept(*soc);
    unsetenv("GLIFS_SIM_FULL_SWEEP");
    SocRunner event(*soc);
    ASSERT_TRUE(swept.simulator().fullSweepMode());
    ASSERT_FALSE(event.simulator().fullSweepMode());

    for (SocRunner *r : {&swept, &event}) {
        r->load(loopImage());
        r->reset();
        r->runToHalt(100000);
    }
    EXPECT_EQ(swept.simulator().cycle(), event.simulator().cycle());
    for (unsigned reg = 0; reg < 16; ++reg)
        EXPECT_EQ(swept.reg(reg), event.reg(reg)) << "r" << reg;
    EXPECT_EQ(swept.ram(0x0900), event.ram(0x0900));
    ASSERT_TRUE(statesEqual(soc->netlist(), event.simulator(),
                            swept.simulator()));
}

TEST_F(SimEventSoc, SymbolicLockstepSymStatesMatch)
{
    const Netlist &nl = soc->netlist();
    Simulator event(nl);
    Simulator swept(nl);
    swept.setFullSweepMode(true);

    for (Simulator *sim : {&event, &swept}) {
        soc->loadProgram(sim->state(), loopImage());
        sim->markAllDirty();
        const SocProbes &prb = soc->probes();
        sim->setInput(prb.extReset, sigOne());
        for (unsigned p = 0; p < 4; ++p) {
            for (unsigned b = 0; b < 16; ++b) {
                sim->setInput(prb.portIn[p][b],
                              Signal{Tern::X, true});
            }
        }
        sim->step();
        sim->setInput(prb.extReset, sigZero());
    }

    SymLayout layout(nl);
    SymState se(layout);
    SymState sf(layout);
    for (int c = 0; c < 300; ++c) {
        event.step();
        swept.step();
        if (c % 50 != 0)
            continue;
        se.capture(layout, event.state());
        sf.capture(layout, swept.state());
        for (size_t i = 0; i < layout.slots(); ++i) {
            ASSERT_EQ(se.slot(i), sf.slot(i))
                << "slot " << i << " at cycle " << c;
        }
    }
    ASSERT_TRUE(statesEqual(nl, event, swept));
}

TEST_F(SimEventSoc, EngineWorkloadRunsMatchFullSweep)
{
    // Whole symbolic analyses under A/B scheduling: one secure
    // workload, one with Table-2 violations. Identical verdicts and
    // exploration shape on both sides.
    for (const char *name : {"mult", "tHold"}) {
        const Workload &w = workloadByName(name);

        setenv("GLIFS_SIM_FULL_SWEEP", "1", 1);
        IftEngine sweptEngine(*soc, w.policy(), EngineConfig{});
        EngineResult rs = sweptEngine.run(w.image());
        unsetenv("GLIFS_SIM_FULL_SWEEP");

        IftEngine eventEngine(*soc, w.policy(), EngineConfig{});
        EngineResult re = eventEngine.run(w.image());

        EXPECT_EQ(re.verdict(), rs.verdict()) << name;
        EXPECT_EQ(re.completed, rs.completed) << name;
        EXPECT_EQ(re.cyclesSimulated, rs.cyclesSimulated) << name;
        EXPECT_EQ(re.pathsExplored, rs.pathsExplored) << name;
        EXPECT_EQ(re.branchPoints, rs.branchPoints) << name;
        EXPECT_EQ(re.merges, rs.merges) << name;
        EXPECT_EQ(re.subsumptions, rs.subsumptions) << name;
        EXPECT_EQ(re.violations.size(), rs.violations.size()) << name;
        EXPECT_EQ(re.taintedGates, rs.taintedGates) << name;
        for (size_t i = 0;
             i < re.violations.size() && i < rs.violations.size();
             ++i) {
            EXPECT_EQ(re.violations[i].kind, rs.violations[i].kind)
                << name << " violation " << i;
        }
    }
}

} // namespace
} // namespace glifs
