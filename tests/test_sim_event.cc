/**
 * @file
 * Differential tests of the packed simulator path against the
 * interpreted full-sweep oracle (DESIGN.md "Simulator scheduling").
 *
 * The packed path -- compiled bit-packed kernels over a dirty set of
 * compiled units -- must be bit-identical, values *and* taints, every
 * net and every memory cell, every cycle, to the oracle that sweeps
 * the whole levelized schedule through the table interpreter. This
 * file proves it three ways: randomized netlists driven with
 * randomized ternary/tainted stimulus (including mid-cycle net
 * overrides, external memory stores, dirty-set invalidation and bulk
 * state writes: restores and *-logic saturation) stepped as a
 * packed / oracle pair, the IoT430 SoC stepped
 * symbolically in lockstep comparing SymState captures, and whole
 * analysis-engine runs over every Table-1 kernel and the protected
 * MiniRTOS under GLIFS_SIM_INTERP A/B.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "ift/engine.hh"
#include "ift/path_sim.hh"
#include "ift/symstate.hh"
#include "netlist/netlist.hh"
#include "sim/simulator.hh"
#include "soc/runner.hh"
#include "soc/soc.hh"
#include "workloads/rtos.hh"
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
                   << "): packed " << a.netValue(n).str()
                   << " vs oracle " << b.netValue(n).str();
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

    // The packed path and the interpreted full-sweep oracle must
    // agree bit for bit, every cycle.
    Simulator packed(d.nl);
    Simulator oracle(d.nl);
    oracle.setBackend(SimBackend::Interp);
    ASSERT_EQ(packed.backend(), SimBackend::Packed);
    Simulator *const sims[] = {&packed, &oracle};

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
        // Invalidation must stay sound. Two independent draws, so
        // each seed keeps its stimulus stream.
        if (rng() % 11 == 0)
            packed.markAllDirty();
        if (rng() % 13 == 0)
            packed.markAllDirty();

        for (Simulator *sim : sims)
            sim->evalComb();
        ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
            << "after evalComb, cycle " << c << ", seed " << seed;

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
        ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
            << "after clockEdge, cycle " << c << ", seed " << seed;
    }
}

TEST(SimEventFuzz, RandomNetlistsMatchFullSweep)
{
    for (uint32_t seed = 1; seed <= 20; ++seed)
        runDifferential(seed, 150);
}

/**
 * Bulk state writes land in the planes directly and only reset the
 * schedule (markAllDirty). Three patterns, mixed by the seed: a
 * settled SymState captured, run past and restored; a restore plus a
 * net override latched by clockEdge() with no settle in between; and
 * the *-logic saturation of every flop and writable memory cell.
 */
void
runBulkRestore(uint32_t seed, int cycles)
{
    std::mt19937 rng(seed);
    RandomDesign d = buildRandomDesign(rng);
    Simulator packed(d.nl);
    Simulator oracle(d.nl);
    oracle.setBackend(SimBackend::Interp);
    Simulator *const sims[] = {&packed, &oracle};
    const SymLayout layout(d.nl);
    SymState saved(layout);
    bool haveSaved = false;

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
                continue;
            const Signal s = randSignal(rng);
            for (Simulator *sim : sims)
                sim->setInput(in, s);
        }
        for (Simulator *sim : sims)
            sim->evalComb();
        ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
            << "after evalComb, cycle " << c << ", seed " << seed;

        switch (rng() % 6) {
        case 0: {
            // A settled state to come back to.
            saved.capture(layout, packed.state());
            SymState fromOracle(layout);
            fromOracle.capture(layout, oracle.state());
            ASSERT_TRUE(saved == fromOracle)
                << "capture, cycle " << c << ", seed " << seed;
            haveSaved = true;
            break;
        }
        case 1:
            // Jump back to it and settle, like a frontier pop.
            if (!haveSaved)
                break;
            for (Simulator *sim : sims) {
                saved.restore(layout, sim->state());
                sim->markAllDirty();
                sim->evalComb();
            }
            ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
                << "after restore, cycle " << c << ", seed " << seed;
            break;
        case 2: {
            // Restore and override, then latch with no settle between.
            if (!haveSaved)
                break;
            const NetId n = rng() % d.nl.numNets();
            const Signal s = randSignal(rng);
            for (Simulator *sim : sims) {
                saved.restore(layout, sim->state());
                sim->markAllDirty();
                sim->setNet(n, s);
            }
            break;
        }
        case 3:
            // *-logic saturation (PathSim::starSaturate).
            for (Simulator *sim : sims) {
                for (GateId g : d.nl.dffs()) {
                    sim->state().setNet(d.nl.gate(g).out,
                                        Signal{Tern::X, true});
                }
                sim->state().mem(d.ram).fill(Signal{Tern::X, true});
                sim->markAllDirty();
                sim->evalComb();
            }
            ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
                << "after saturation, cycle " << c << ", seed " << seed;
            break;
        default:
            break;
        }

        for (Simulator *sim : sims)
            sim->clockEdge();
        ASSERT_TRUE(statesEqual(d.nl, packed, oracle))
            << "after clockEdge, cycle " << c << ", seed " << seed;
    }
}

TEST(SimEventFuzz, BulkRestoreMatchesOracle)
{
    for (uint32_t seed = 1; seed <= 20; ++seed)
        runBulkRestore(seed, 150);
}

TEST(SimEventFuzz, BackendSwitchMidRunStaysConsistent)
{
    std::mt19937 rng(42);
    RandomDesign d = buildRandomDesign(rng);
    Simulator ab(d.nl);      // flips packed/oracle every few cycles
    Simulator oracle(d.nl);
    oracle.setBackend(SimBackend::Interp);

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
    ASSERT_EQ(sim.backend(), SimBackend::Packed);

    const double evals0 =
        Registry::instance().snapshot().value("sim.gate_evals");
    const double skip0 = Registry::instance().snapshot().value(
        "sim.gate_evals_skipped");

    sim.step();  // first settle runs every unit, nothing skipped yet
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

// --- IoT430 SoC end-to-end ------------------------------------------

/**
 * The SoC tests share one built IoT430. The engine A/B is
 * parameterized by workload name so ctest runs each workload as its
 * own test; the plain TEST_F cases ignore the parameter.
 */
class SimEventSoc : public ::testing::TestWithParam<std::string>
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
    SocRunner oracle(*soc);
    oracle.simulator().setBackend(SimBackend::Interp);
    SocRunner packed(*soc);
    ASSERT_EQ(packed.simulator().backend(), SimBackend::Packed);

    for (SocRunner *r : {&oracle, &packed}) {
        r->load(loopImage());
        r->reset();
        r->runToHalt(100000);
    }
    EXPECT_EQ(oracle.simulator().cycle(), packed.simulator().cycle());
    for (unsigned reg = 0; reg < 16; ++reg)
        EXPECT_EQ(oracle.reg(reg), packed.reg(reg)) << "r" << reg;
    EXPECT_EQ(oracle.ram(0x0900), packed.ram(0x0900));
    ASSERT_TRUE(statesEqual(soc->netlist(), packed.simulator(),
                            oracle.simulator()));
}

TEST_F(SimEventSoc, SymbolicLockstepSymStatesMatch)
{
    const Netlist &nl = soc->netlist();
    Simulator packed(nl);
    Simulator oracle(nl);
    oracle.setBackend(SimBackend::Interp);

    for (Simulator *sim : {&packed, &oracle}) {
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
    SymState sp(layout);
    SymState so(layout);
    for (int c = 0; c < 300; ++c) {
        packed.step();
        oracle.step();
        if (c % 50 != 0)
            continue;
        sp.capture(layout, packed.state());
        so.capture(layout, oracle.state());
        for (size_t i = 0; i < layout.slots(); ++i) {
            ASSERT_EQ(sp.slot(i), so.slot(i))
                << "slot " << i << " at cycle " << c;
        }
    }
    ASSERT_TRUE(statesEqual(nl, packed, oracle));
}

TEST_F(SimEventSoc, PerCycleTaintEqualsSegmentTaintDelta)
{
    // runSegment ORs the slot-order taint plane each cycle and permutes
    // it to net order once, at the segment end; PathSim::accumulateTaint
    // permutes every cycle. Over 2,000 cycles of protected MiniRTOS
    // (one path, forks not taken) the two must agree segment by
    // segment, which is what the perfbench layer replay checks.
    const MicroBenchmark rtos = rtosProtected();
    const ProgramImage image = assembleSource(rtos.source);
    PathSim ps(*soc, rtos.policy, EngineConfig{}, image);
    ps.loadProgram();
    ps.setInputs(true);
    ps.sim.step();
    SymState start(ps.layout);
    start.capture(ps.layout, ps.sim.state());

    const size_t nets = soc->netlist().numNets();
    uint64_t cycles = 0;
    size_t segments = 0;
    size_t taintedBits = 0;
    while (cycles < 2000) {
        BitPlane perCycle(nets);
        SegmentHooks hooks;
        hooks.cycleCharged = [&] { ps.accumulateTaint(perCycle); };
        // A broken simulator may never commit; stop instead of hanging.
        uint64_t polls = 0;
        hooks.poll = [&] {
            return ++polls > 10000 ? CycleAction::Stop
                                   : CycleAction::Continue;
        };
        SegmentResult res = ps.runSegment(start, hooks);
        ASSERT_FALSE(res.stopped) << "segment " << segments
                                  << " ran 10000 cycles without a commit";
        ASSERT_GT(res.cycles, 0u);
        cycles += res.cycles;
        ++segments;
        ASSERT_EQ(res.taintDelta.size(), nets);
        for (NetId n = 0; n < nets; ++n) {
            ASSERT_EQ(perCycle.get(n), res.taintDelta.get(n))
                << "net " << n << ", segment " << segments;
            taintedBits += res.taintDelta.get(n);
        }
        if (res.halted)
            break;
        start = std::move(res.end);
        if (res.pcUnknown) {
            bool overflow = false;
            const std::vector<uint16_t> pcs =
                ps.candidatePcs(res.endInstr, start, overflow);
            ASSERT_FALSE(overflow);
            ASSERT_FALSE(pcs.empty());
            start = ps.concretizePc(start, pcs.front());
        }
    }
    EXPECT_GE(cycles, 2000u);
    EXPECT_GT(taintedBits, 0u) << "no taint reached any net";
}

/** The engine A/B's workloads: every Table-1 kernel, then MiniRTOS. */
const char kRtosProtected[] = "rtosProtected";

std::vector<std::string>
engineWorkloads()
{
    std::vector<std::string> names = workloadNames();
    names.push_back(kRtosProtected);
    return names;
}

TEST_P(SimEventSoc, EngineWorkloadRunsMatchFullSweep)
{
    // A whole symbolic analysis run once under the oracle and once on
    // the packed path: identical verdict, exploration shape and
    // violations on both sides.
    ProgramImage image;
    Policy policy;
    if (GetParam() == kRtosProtected) {
        const MicroBenchmark rtos = rtosProtected();
        image = assembleSource(rtos.source);
        policy = rtos.policy;
    } else {
        const Workload &w = workloadByName(GetParam());
        image = w.image();
        policy = w.policy();
    }
    auto backendGauge = [] {
        return stats::Registry::instance().snapshot().value(
            "sim.backend");
    };

    // GLIFS_SIM_INTERP is read where run() builds its Simulator.
    setenv("GLIFS_SIM_INTERP", "1", 1);
    IftEngine oracleEngine(*soc, policy, EngineConfig{});
    EngineResult ro = oracleEngine.run(image);
    unsetenv("GLIFS_SIM_INTERP");
    ASSERT_EQ(backendGauge(), 0.0) << "the oracle did not run";

    IftEngine packedEngine(*soc, policy, EngineConfig{});
    EngineResult rp = packedEngine.run(image);
    ASSERT_EQ(backendGauge(), 1.0);

    EXPECT_EQ(rp.verdict(), ro.verdict());
    EXPECT_EQ(rp.completed, ro.completed);
    EXPECT_EQ(rp.cyclesSimulated, ro.cyclesSimulated);
    EXPECT_EQ(rp.pathsExplored, ro.pathsExplored);
    EXPECT_EQ(rp.branchPoints, ro.branchPoints);
    EXPECT_EQ(rp.merges, ro.merges);
    EXPECT_EQ(rp.subsumptions, ro.subsumptions);
    EXPECT_EQ(rp.taintedGates, ro.taintedGates);
    ASSERT_EQ(rp.violations.size(), ro.violations.size());
    for (size_t i = 0; i < rp.violations.size(); ++i) {
        const Violation &p = rp.violations[i];
        const Violation &o = ro.violations[i];
        EXPECT_EQ(p.kind, o.kind) << "violation " << i;
        EXPECT_EQ(p.instrAddr, o.instrAddr) << "violation " << i;
        EXPECT_EQ(p.detail, o.detail) << "violation " << i;
        EXPECT_EQ(p.count, o.count) << "violation " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SimEventSoc,
                         ::testing::ValuesIn(engineWorkloads()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace glifs
