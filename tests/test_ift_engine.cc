/**
 * @file
 * Tests of the Algorithm-1 symbolic taint-tracking engine: convergence,
 * branch exploration, conservative merging, and the Section-5.3
 * verification micro-benchmarks (Figures 8 and 9).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/path_sim.hh"
#include "ift/rootcause.hh"
#include "soc/soc.hh"
#include "test_fixtures.hh"
#include "workloads/rtos.hh"
#include "workloads/workload.hh"

namespace glifs
{
namespace
{

class IftTest : public ::testing::Test
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

    EngineResult
    analyze(const std::string &src, const Policy &policy,
            EngineConfig cfg = {})
    {
        ProgramImage img = assembleSource(src);
        IftEngine engine(*soc, policy, cfg);
        return engine.run(img);
    }

    static bool
    has(const EngineResult &r, ViolationKind kind)
    {
        for (const Violation &v : r.violations) {
            if (v.kind == kind)
                return true;
        }
        return false;
    }

    static Soc *soc;
};

Soc *IftTest::soc = nullptr;

/** Policy with nothing tainted at all. */
Policy
allClearPolicy()
{
    Policy p;
    p.taintedInPort = {false, false, false, false};
    p.trustedOutPort = {true, true, true, true};
    p.addMem("ram", 0x0800, 0x0FFF, false);
    return p;
}

TEST_F(IftTest, StraightLineProgramConverges)
{
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "        add #3, r4\n"
        "        mov r4, &0x0900\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    EXPECT_EQ(r.pathsExplored, 1u);
    EXPECT_EQ(r.taintedGates, 0u);
}

TEST_F(IftTest, ConcreteLoopConverges)
{
    // Loop with a concrete bound: the engine follows the concrete
    // branch outcomes without forking.
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "loop:   dec r4\n"
        "        jnz loop\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    // The conservative merge may abstract the loop counter and fork
    // once on the now-unknown exit condition.
    EXPECT_LE(r.branchPoints, 1u);
}

TEST_F(IftTest, UnknownInputBranchForksAndConverges)
{
    // The branch depends on an unknown (but untainted) input: both
    // paths must be explored; no violation.
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"  // P3IN: untainted X input
        "        tst r4\n"
        "        jz iszero\n"
        "        mov #1, r5\n"
        "        halt\n"
        "iszero: mov #2, r5\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure());
    EXPECT_GE(r.branchPoints, 1u);
    EXPECT_GE(r.pathsExplored, 2u);
}

TEST_F(IftTest, InputDependentLoopConvergesByMerging)
{
    // Loop bound read from an (untainted) unknown input: conservative
    // merging must terminate the exploration.
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "loop:   dec r4\n"
        "        jnz loop\n"
        "        halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.merges + r.subsumptions, 1u);
}

TEST_F(IftTest, InfiniteLoopConverges)
{
    EngineResult r = analyze("spin:  jmp spin\n", allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.subsumptions, 1u);
}

TEST_F(IftTest, TaintedInputTaintsGatesButNotControl)
{
    // Straight-line computation on tainted data: data taint spreads to
    // some gates but control flow stays clean (like the paper's mult).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"   // P1IN: tainted
        "        add r4, r4\n"
        "        mov r4, &0x0C00\n"   // store inside tainted partition
        "        mov r4, &0x0003\n"   // write untrusted P2OUT: allowed
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(has(r, ViolationKind::TaintedControlFlow));
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(has(r, ViolationKind::TrustedOutputTainted));
    EXPECT_GT(r.taintedGates, 0u);
}

TEST_F(IftTest, TaintedBranchTaintsControlFlow)
{
    // Condition 1 violation: a conditional branch on tainted data
    // taints the PC (the left-hand Figure 8 scenario).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t1\n"
        "        nop\n"
        "t1:     halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
}

TEST_F(IftTest, Figure9UnmaskedStoreTaintsUntaintedPartition)
{
    // Figure 9 left-hand listing: a store whose address derives from a
    // tainted input taints memory outside the tainted partition.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"   // tainted offset
        "        mov #0x0C00, r5\n"
        "        add r4, r5\n"
        "        mov #500, 0(r5)\n"   // unbounded tainted store
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::StoreUntaintedPartition));

    RootCauseReport rc = analyzeRootCauses(r, p);
    EXPECT_FALSE(rc.storesToMask.empty());
}

TEST_F(IftTest, Figure9MaskedStoreIsClean)
{
    // Figure 9 right-hand listing: masking the address into the
    // tainted partition removes the violation.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        mov #0x0C00, r5\n"
        "        add r4, r5\n"
        "        and #0x03FF, r5\n"
        "        bis #0x0C00, r5\n"
        "        mov #500, 0(r5)\n"
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(has(r, ViolationKind::TrustedOutputTainted));
}

TEST_F(IftTest, Figure8WatchdogResetUntaintsControlFlow)
{
    // Figure 8 right-hand listing: untainted system code arms the
    // watchdog, then runs a tainted task whose control flow becomes
    // tainted. The watchdog POR must recover an untainted PC, and the
    // untainted code after reset must never see a tainted PC.
    Policy p = benchmarkPolicy(0x20, 0x7F);
    EngineResult r = analyze(testutil::kFigure8WatchdogProgram, p);
    EXPECT_TRUE(r.completed);
    // The tainted task's own control flow taints (expected, fixable)...
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
    // ...but the watchdog stays untainted and untainted code never
    // executes with a tainted PC.
    EXPECT_FALSE(has(r, ViolationKind::WatchdogTainted));
    EXPECT_FALSE(has(r, ViolationKind::UntaintedCodeTaintedPc));

    // The exploration itself is pinned: the `t1` loop converges by
    // merging, each merged round going on from the widened state, and
    // the watchdog expiry forks off the reset path.
    EXPECT_EQ(r.cyclesSimulated, 64u);
    EXPECT_EQ(r.pathsExplored, 7u);
    EXPECT_EQ(r.branchPoints, 4u);
    EXPECT_EQ(r.merges, 3u);
    EXPECT_EQ(r.subsumptions, 4u);
}

TEST_F(IftTest, TaintedTaskWritingWatchdogIsFlagged)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov #0x0080, &0x0010\n"  // tainted code writes WDTCTL
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::WatchdogTainted));
}

TEST_F(IftTest, UntaintedCodeReadingTaintedPortFlagged)
{
    Policy p = benchmarkPolicy(0x40, 0x7F);
    EngineResult r = analyze(
        "        mov &0x0000, r4\n"  // untainted code reads tainted P1IN
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::UntaintedReadTaintedPort));
}

TEST_F(IftTest, TaintedStoreToTrustedPortFlagged)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        mov r4, &0x0007\n"  // trusted P4OUT
        "        halt\n",
        p);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedWriteTrustedPort));
    EXPECT_TRUE(has(r, ViolationKind::TrustedOutputTainted));
}

TEST_F(IftTest, StarLogicModeAbortsOnTaintedControl)
{
    // Footnote 8: *-logic cannot handle control dependences on tainted
    // inputs; most exercisable gates become tainted.
    Policy p = benchmarkPolicy(0x10, 0x7F);
    EngineConfig cfg;
    cfg.starLogicMode = true;
    EngineResult r = analyze(
        "        jmp task\n"
        "        .org 0x10\n"
        "task:   mov &0x0000, r4\n"
        "        tst r4\n"
        "        jz t1\n"
        "        nop\n"
        "t1:     halt\n",
        p, cfg);
    EXPECT_TRUE(r.starAborted);
    EXPECT_GT(r.taintedGateFraction, 0.5);
    EXPECT_LT(r.taintedGateFraction, 1.0);
}

TEST_F(IftTest, StarLogicModeHandlesStraightLine)
{
    // Without tainted control flow *-logic completes like our engine.
    EngineConfig cfg;
    cfg.starLogicMode = true;
    EngineResult r = analyze(
        "        mov #5, r4\n"
        "        halt\n",
        allClearPolicy(), cfg);
    EXPECT_FALSE(r.starAborted);
    EXPECT_TRUE(r.completed);
}

TEST_F(IftTest, ExecutionTreeRecordsPaths)
{
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.tree.size(), 3u);  // root + two branches
    std::string dump = r.tree.str();
    EXPECT_NE(dump.find("branched"), std::string::npos);
    EXPECT_NE(dump.find("halted"), std::string::npos);
}

TEST_F(IftTest, SummaryMentionsKeyStats)
{
    EngineResult r = analyze("halt\n", allClearPolicy());
    std::string s = r.summary();
    EXPECT_NE(s.find("completed"), std::string::npos);
    EXPECT_NE(s.find("paths"), std::string::npos);
}

// ---------------------------------------------------------------------
// Observability (docs/OBSERVABILITY.md): the engine keeps the global
// stats registry in step with its EngineResult counters and, with the
// tracer on, narrates exploration as structured events.
// ---------------------------------------------------------------------

TEST_F(IftTest, RunUpdatesTheStatsRegistry)
{
    stats::Snapshot before = stats::Registry::instance().snapshot();
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);
    stats::Snapshot after = stats::Registry::instance().snapshot();

    // Registry deltas match the per-run result counters (the stats
    // accumulate across the whole process, so compare differences).
    EXPECT_EQ(after.value("engine.runs") - before.value("engine.runs"),
              1.0);
    EXPECT_EQ(after.value("engine.cycles") -
                  before.value("engine.cycles"),
              static_cast<double>(r.cyclesSimulated));
    EXPECT_EQ(after.value("engine.paths") -
                  before.value("engine.paths"),
              static_cast<double>(r.pathsExplored));
    EXPECT_EQ(after.value("engine.branch_points") -
                  before.value("engine.branch_points"),
              static_cast<double>(r.branchPoints));
    // The simulator underneath was exercised too.
    EXPECT_GT(after.value("sim.comb_evals"),
              before.value("sim.comb_evals"));
    EXPECT_GT(after.value("state_table.lookups"),
              before.value("state_table.lookups"));
}

// The audit captures machine state only where a segment ends: once
// for the reset state, once per state-table lookup and twice per POR
// fork (the pre-fork state and the fired branch). A capture on every
// cycle would exceed this by about engine.cycles. Restores happen only
// where a segment starts from a stored state: each pop, each Merged
// continuation and each POR fork's not-fired replay.
TEST_F(IftTest, SymStateCapturedOnlyAtSegmentEnds)
{
    const MicroBenchmark rtos = rtosProtected();
    const Workload &kernel = workloadByName("inSort");
    const std::vector<std::pair<ProgramImage, Policy>> runs = {
        {assembleSource(rtos.source), rtos.policy},
        {kernel.image(), kernel.policy()}};
    for (const auto &[image, policy] : runs) {
        stats::Snapshot before = stats::Registry::instance().snapshot();
        IftEngine engine(*soc, policy, EngineConfig{});
        EngineResult r = engine.run(image);
        ASSERT_TRUE(r.completed) << r.summary();
        stats::Snapshot after = stats::Registry::instance().snapshot();
        auto delta = [&](const char *name) {
            return after.value(name) - before.value(name);
        };
        EXPECT_GT(delta("symstate.captures"), 0.0);
        EXPECT_LE(delta("symstate.captures"),
                  delta("state_table.lookups") +
                      2 * delta("engine.por_forks") + 1)
            << r.summary();
        EXPECT_LE(delta("symstate.restores"),
                  delta("engine.paths") + delta("state_table.merges") +
                      delta("engine.por_forks"))
            << r.summary();
        EXPECT_LT(delta("symstate.captures"), delta("engine.cycles"));
    }
}

// A memo hit's first governor poll reads the instruction address of a
// degradation record from the segment's start state, which the
// simulator does not hold. With a memo that answers every segment,
// each poll after a state-table visit is a hit's poll, so the tracked-
// states budgets fire there; the run must degrade and stop exactly as
// the memo-free run does.
TEST_F(IftTest, MemoHitsDegradeLikeSimulatedSegments)
{
    const Workload &kernel = workloadByName("inSort");
    const ProgramImage image = kernel.image();
    const Policy policy = kernel.policy();
    EngineConfig cfg;
    cfg.budgets.softStates = 4;
    cfg.budgets.hardStates = 9;
    cfg.checkpointOnStop = true;

    const EngineResult plain = IftEngine(*soc, policy, cfg).run(image);

    PathSim side(*soc, policy, cfg, image);
    side.loadProgram();
    SegmentResult cached;
    uint64_t hits = 0;
    SegmentMemo memo;
    memo.start = [](uint64_t) {};
    memo.prefetch = [](std::vector<FrontierEntry> &) {};
    memo.lookup = [&](FrontierEntry &start,
                      uint64_t cycleLimit) -> const SegmentResult * {
        cached = side.runSegment(start.state);
        if (cached.cycles >= cycleLimit)
            return nullptr;
        ++hits;
        return &cached;
    };
    const EngineResult hit =
        IftEngine(*soc, policy, cfg).run(image, nullptr, &memo);

    EXPECT_GT(hits, 0u);
    ASSERT_EQ(plain.degradations.size(), 2u) << plain.summary();
    EXPECT_EQ(plain.degradations[0].level, DegradeLevel::WidenedMerging);
    EXPECT_EQ(plain.degradations[1].level, DegradeLevel::PartialStop);
    ASSERT_EQ(hit.degradations.size(), plain.degradations.size());
    for (size_t i = 0; i < plain.degradations.size(); ++i)
        EXPECT_EQ(hit.degradations[i].str(), plain.degradations[i].str());
    EXPECT_EQ(hit.verdict(), plain.verdict());
    EXPECT_EQ(hit.cyclesSimulated, plain.cyclesSimulated);
    EXPECT_EQ(hit.pathsExplored, plain.pathsExplored);
    EXPECT_EQ(hit.merges, plain.merges);
    EXPECT_EQ(hit.subsumptions, plain.subsumptions);
    EXPECT_EQ(hit.statesTracked, plain.statesTracked);
    ASSERT_EQ(hit.violations.size(), plain.violations.size());
    for (size_t i = 0; i < plain.violations.size(); ++i) {
        EXPECT_EQ(hit.violations[i].instrAddr,
                  plain.violations[i].instrAddr);
        EXPECT_EQ(hit.violations[i].firstCycle,
                  plain.violations[i].firstCycle);
        EXPECT_EQ(hit.violations[i].count, plain.violations[i].count);
    }
    ASSERT_TRUE(plain.checkpoint && hit.checkpoint);
    ASSERT_EQ(hit.checkpoint->frontier.size(),
              plain.checkpoint->frontier.size());
    for (size_t i = 0; i < plain.checkpoint->frontier.size(); ++i) {
        EXPECT_EQ(hit.checkpoint->frontier[i],
                  plain.checkpoint->frontier[i]);
    }
}

TEST_F(IftTest, TracedRunEmitsEngineSpans)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    EngineResult r = analyze(
        "        mov &0x0004, r4\n"
        "        tst r4\n"
        "        jz a\n"
        "        halt\n"
        "a:      halt\n",
        allClearPolicy());
    EXPECT_TRUE(r.completed);

    EXPECT_GT(tr.countCategory("engine"), 0u);
    bool sawRunSpan = false, sawBranch = false, sawVisit = false;
    for (const trace::Event &e : tr.events()) {
        std::string name = e.name;
        if (name == "run" && e.ph == 'X')
            sawRunSpan = true;
        if (name == "branch")
            sawBranch = true;
        if (name == "visit")
            sawVisit = true;
    }
    EXPECT_TRUE(sawRunSpan);
    EXPECT_TRUE(sawBranch);
    EXPECT_TRUE(sawVisit);

    // The trace document is loadable Chrome trace_event JSON.
    std::string json = tr.json();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Watchdog-expiry forks (the Figure 8 program) carry the
    // instruction and the run's absolute cycle: each fork lies between
    // the visits before and after it on the run's cycle clock.
    tr.enable(1 << 12);
    r = analyze(testutil::kFigure8WatchdogProgram,
                benchmarkPolicy(0x20, 0x7F));
    EXPECT_TRUE(r.completed);
    std::vector<std::pair<std::string, uint64_t>> timeline;
    for (const trace::Event &e : tr.events()) {
        std::string name = e.name;
        const uint64_t cycle = testutil::traceArgNum(e.args, "cycle");
        if (name == "visit" || name == "por_fork")
            timeline.emplace_back(name, cycle);
        if (name == "por_fork") {
            EXPECT_EQ(testutil::traceArgStr(e.args, "instr").rfind("0x", 0),
                      0u)
                << e.args;
            EXPECT_NE(cycle, ~0ull) << e.args;
        }
    }
    size_t forks = 0;
    for (size_t i = 0; i < timeline.size(); ++i) {
        if (timeline[i].first != "por_fork")
            continue;
        ++forks;
        ASSERT_GT(i, 0u);
        ASSERT_LT(i + 1, timeline.size());
        EXPECT_GT(timeline[i].second, timeline[i - 1].second);
        EXPECT_LE(timeline[i].second, timeline[i + 1].second);
        EXPECT_LE(timeline[i].second, r.cyclesSimulated);
    }
    EXPECT_GT(forks, 0u);
    tr.disable();
}

} // namespace
} // namespace glifs
