/**
 * @file
 * Tests of the Algorithm-1 symbolic taint-tracking engine: convergence,
 * branch exploration, conservative merging, and the Section-5.3
 * verification micro-benchmarks (Figures 8 and 9).
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "assembler/assembler.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/path_sim.hh"
#include "ift/rootcause.hh"
#include "ift/segment_memo.hh"
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

// ---------------------------------------------------------------------
// The segment memo (DESIGN.md §11): a run that takes segments from it
// reports exactly what a run simulating every segment reports.
// ---------------------------------------------------------------------

/** Everything a run reports except its wall time. */
void
expectSameRun(const EngineResult &memo, const EngineResult &plain)
{
    EXPECT_EQ(memo.verdict(), plain.verdict());
    EXPECT_EQ(memo.completed, plain.completed);
    EXPECT_EQ(memo.starAborted, plain.starAborted);
    EXPECT_EQ(memo.cyclesSimulated, plain.cyclesSimulated);
    EXPECT_EQ(memo.pathsExplored, plain.pathsExplored);
    EXPECT_EQ(memo.branchPoints, plain.branchPoints);
    EXPECT_EQ(memo.merges, plain.merges);
    EXPECT_EQ(memo.subsumptions, plain.subsumptions);
    EXPECT_EQ(memo.statesTracked, plain.statesTracked);
    EXPECT_EQ(memo.taintedGates, plain.taintedGates);
    EXPECT_EQ(memo.totalGates, plain.totalGates);
    ASSERT_EQ(memo.violations.size(), plain.violations.size());
    for (size_t i = 0; i < plain.violations.size(); ++i) {
        EXPECT_EQ(memo.violations[i].str(), plain.violations[i].str());
        EXPECT_EQ(memo.violations[i].maskable,
                  plain.violations[i].maskable);
    }
    ASSERT_EQ(memo.degradations.size(), plain.degradations.size());
    for (size_t i = 0; i < plain.degradations.size(); ++i)
        EXPECT_EQ(memo.degradations[i].str(), plain.degradations[i].str());
    ASSERT_EQ(memo.tree.size(), plain.tree.size());
    for (size_t i = 0; i < plain.tree.size(); ++i) {
        const ExecNode &a = memo.tree.all()[i];
        const ExecNode &b = plain.tree.all()[i];
        EXPECT_EQ(a.parent, b.parent) << "node " << i;
        EXPECT_EQ(a.startPc, b.startPc) << "node " << i;
        EXPECT_EQ(a.cycles, b.cycles) << "node " << i;
        EXPECT_EQ(a.endInstr, b.endInstr) << "node " << i;
        EXPECT_EQ(a.end, b.end) << "node " << i;
    }
}

// Every kernel and the protected MiniRTOS, precise and *-logic: the
// run's own memo changes nothing the run reports. The MiniRTOS must
// actually hit (most of its segments repeat an earlier start), or the
// identity above would hold vacuously.
TEST_F(IftTest, SegmentMemoLeavesEveryResultUnchanged)
{
    const MicroBenchmark rtos = rtosProtected();
    std::vector<std::tuple<std::string, ProgramImage, Policy>> runs;
    for (const Workload &w : allWorkloads())
        runs.emplace_back(w.name, w.image(), w.policy());
    runs.emplace_back(rtos.name, assembleSource(rtos.source), rtos.policy);
    for (const auto &[name, image, policy] : runs) {
        for (bool star : {false, true}) {
            SCOPED_TRACE(name + (star ? " *-logic" : ""));
            EngineConfig cfg;
            cfg.starLogicMode = star;
            const EngineResult plain =
                IftEngine(*soc, policy, cfg).run(image, nullptr, nullptr);
            const double hits0 = stats::Registry::instance()
                                     .snapshot()
                                     .value("explore.cache_hits");
            const EngineResult memo =
                IftEngine(*soc, policy, cfg).run(image);
            const double hits = stats::Registry::instance()
                                    .snapshot()
                                    .value("explore.cache_hits") -
                                hits0;
            expectSameRun(memo, plain);
            if (name == rtos.name && !star) {
                EXPECT_GT(hits, 0.0);
            }
        }
    }
}

// Cycle budgets stop and degrade a run at an exact cycle, which a memo
// hit must not step over: the MiniRTOS, cut mid-run as by glifs_audit
// --max-cycles N, widens and stops at the same cycles, with the same
// snapshot, with and without its memo.
TEST_F(IftTest, SegmentMemoKeepsCycleBudgetsExact)
{
    const MicroBenchmark rtos = rtosProtected();
    const ProgramImage image = assembleSource(rtos.source);
    for (uint64_t n : {5000u, 23457u}) {
        SCOPED_TRACE(n);
        EngineConfig cfg;
        cfg.maxCycles = n;
        cfg.budgets.softCycles = n - n / 8;
        cfg.checkpointOnStop = true;
        const EngineResult plain =
            IftEngine(*soc, rtos.policy, cfg).run(image, nullptr, nullptr);
        const EngineResult memo =
            IftEngine(*soc, rtos.policy, cfg).run(image);
        EXPECT_EQ(plain.cyclesSimulated, n);
        expectSameRun(memo, plain);
        ASSERT_TRUE(plain.checkpoint && memo.checkpoint);
        EXPECT_EQ(memo.checkpoint->totalCycles,
                  plain.checkpoint->totalCycles);
        EXPECT_EQ(memo.checkpoint->table, plain.checkpoint->table);
        EXPECT_EQ(memo.checkpoint->frontier, plain.checkpoint->frontier);
    }
}

/** A memo entry for @p start whose segment ran @p cycles cycles. */
SegmentResult
segmentFrom(const SymState &start, uint64_t cycles)
{
    SegmentResult seg;
    seg.cycles = cycles;
    seg.end = start;
    return seg;
}

TEST_F(IftTest, SegmentMemoComparesWholeStatesWithinItsBudget)
{
    const SymLayout layout(soc->netlist());
    SymState a(layout);
    const size_t last = a.numSlots() - 1;
    a.setSlot(last, Signal(Tern::Zero, false));
    SymState b = a;
    b.setSlot(last, Signal(Tern::Zero, true));

    SegmentMemo memo;
    memo.remember(a, segmentFrom(a, 7));
    ASSERT_EQ(memo.size(), 1u);
    const SegmentResult *hit = memo.find(a, UINT64_MAX);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->cycles, 7u);
    // The last slot is a memory cell; its taint alone tells b from a.
    EXPECT_EQ(memo.find(b, UINT64_MAX), nullptr);
    // A stored segment as long as the cycle limit is not a hit.
    EXPECT_EQ(memo.find(a, 7), nullptr);
    EXPECT_NE(memo.find(a, 8), nullptr);

    // Filling the memo evicts the least recently used entries; the
    // bytes held never exceed the budget.
    SymState s = a;
    for (uint16_t i = 0; i < 64; ++i) {
        for (unsigned bit = 0; bit < 16; ++bit) {
            s.setSlot(bit, Signal((i >> bit) & 1 ? Tern::One : Tern::Zero,
                                  false));
        }
        memo.remember(s, segmentFrom(s, i));
        EXPECT_LE(memo.bytes(), SegmentMemo::kBudgetBytes);
    }
    EXPECT_LT(memo.size(), 64u);
    EXPECT_EQ(memo.find(a, UINT64_MAX), nullptr);
    const SegmentResult *latest = memo.find(s, UINT64_MAX);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->cycles, 63u);
}

TEST_F(IftTest, SegmentMemoSkipsCutShortAndOversizedSegments)
{
    const SymLayout layout(soc->netlist());
    const SymState start(layout);
    SegmentMemo memo;

    SegmentResult stopped = segmentFrom(start, 3);
    stopped.stopped = true;
    memo.remember(start, stopped);
    SegmentResult killed = segmentFrom(start, 3);
    killed.killed = true;
    memo.remember(start, killed);
    EXPECT_EQ(memo.size(), 0u);

    // A segment that forked more often than the budget holds states.
    SegmentResult forky = segmentFrom(start, 3);
    while (forky.porForks.size() * 3 * layout.slots() / 8 <=
           SegmentMemo::kBudgetBytes) {
        forky.porForks.push_back({start, 0, 0, 1});
    }
    memo.remember(start, forky);
    EXPECT_EQ(memo.size(), 0u);
    EXPECT_EQ(memo.bytes(), 0u);
    EXPECT_EQ(memo.find(start, UINT64_MAX), nullptr);
}

// A memo hit's first governor poll reads the instruction address of a
// degradation record from the segment's start state, which the
// simulator does not hold. A memo warmed by an identical run answers
// the segments it still holds, so the tracked-states budgets fire at
// a hit's poll; the run must degrade and stop exactly as the memo-free
// run does.
TEST_F(IftTest, MemoHitsDegradeLikeSimulatedSegments)
{
    const Workload &kernel = workloadByName("inSort");
    const ProgramImage image = kernel.image();
    const Policy policy = kernel.policy();
    EngineConfig cfg;
    cfg.budgets.softStates = 4;
    cfg.budgets.hardStates = 9;
    cfg.checkpointOnStop = true;

    const EngineResult plain =
        IftEngine(*soc, policy, cfg).run(image, nullptr, nullptr);

    SegmentMemo memo;
    IftEngine(*soc, policy, cfg).run(image, nullptr, &memo);
    const double hits0 =
        stats::Registry::instance().snapshot().value("explore.cache_hits");
    const EngineResult hit =
        IftEngine(*soc, policy, cfg).run(image, nullptr, &memo);
    const double hits =
        stats::Registry::instance().snapshot().value("explore.cache_hits") -
        hits0;

    EXPECT_GT(hits, 0.0);
    ASSERT_EQ(plain.degradations.size(), 2u) << plain.summary();
    EXPECT_EQ(plain.degradations[0].level, DegradeLevel::WidenedMerging);
    EXPECT_EQ(plain.degradations[1].level, DegradeLevel::PartialStop);
    expectSameRun(hit, plain);
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
