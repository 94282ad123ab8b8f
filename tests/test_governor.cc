/**
 * @file
 * Tests of the resource governor, the graceful-degradation ladder, the
 * three-valued verdict and the checkpoint/resume machinery
 * (docs/ROBUSTNESS.md). The serialization round-trip tests carry the
 * `sanitize` ctest label so the ASan+UBSan build exercises them.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/governor.hh"
#include "ift/policy_file.hh"
#include "soc/soc.hh"
#include "workloads/workload.hh"
#include "test_fixtures.hh"
#include "test_tmpdir.hh"

namespace glifs
{
namespace
{

// ---------------------------------------------------------------------
// Governor unit tests (no SoC needed).
// ---------------------------------------------------------------------

TEST(ResourceGovernorTest, DisabledBudgetsNeverFire)
{
    ResourceBudgets b;
    EXPECT_FALSE(b.any());
    ResourceGovernor gov(b);
    gov.chargeCycles(1'000'000);
    gov.noteStates(1'000'000);
    for (int i = 0; i < 2000; ++i)
        EXPECT_FALSE(gov.poll().has_value());
}

TEST(ResourceGovernorTest, SoftFiresOnceThenHardStops)
{
    ResourceBudgets b;
    b.softCycles = 10;
    b.hardCycles = 20;
    EXPECT_TRUE(b.any());
    ResourceGovernor gov(b);

    gov.chargeCycles(5);
    EXPECT_FALSE(gov.poll().has_value());

    gov.chargeCycles(10); // 15 > soft
    auto soft = gov.poll();
    ASSERT_TRUE(soft.has_value());
    EXPECT_EQ(soft->kind, ResourceKind::Cycles);
    EXPECT_EQ(soft->severity, BudgetSeverity::Soft);
    // The same soft threshold never fires twice.
    EXPECT_FALSE(gov.poll().has_value());

    gov.chargeCycles(10); // 25 > hard
    auto hard = gov.poll();
    ASSERT_TRUE(hard.has_value());
    EXPECT_EQ(hard->kind, ResourceKind::Cycles);
    EXPECT_EQ(hard->severity, BudgetSeverity::Hard);
    // After a hard event the governor is done reporting.
    gov.chargeCycles(100);
    EXPECT_FALSE(gov.poll().has_value());
}

TEST(ResourceGovernorTest, StateBudgetFires)
{
    ResourceBudgets b;
    b.softStates = 4;
    b.hardStates = 8;
    ResourceGovernor gov(b);
    gov.noteStates(3);
    EXPECT_FALSE(gov.poll().has_value());
    gov.noteStates(5);
    auto soft = gov.poll();
    ASSERT_TRUE(soft.has_value());
    EXPECT_EQ(soft->kind, ResourceKind::TrackedStates);
    EXPECT_EQ(soft->severity, BudgetSeverity::Soft);
    gov.noteStates(9);
    auto hard = gov.poll();
    ASSERT_TRUE(hard.has_value());
    EXPECT_EQ(hard->kind, ResourceKind::TrackedStates);
    EXPECT_EQ(hard->severity, BudgetSeverity::Hard);
}

TEST(ResourceGovernorTest, WallClockDeadlineFires)
{
    ResourceBudgets b;
    b.hardSeconds = 1e-9; // already expired by the first poll
    ResourceGovernor gov(b);
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::WallClock);
    EXPECT_EQ(ev->severity, BudgetSeverity::Hard);
}

TEST(ResourceGovernorTest, GlobalStopIsHardInterrupt)
{
    ResourceGovernor::clearGlobalStop();
    ResourceBudgets b; // no budgets at all
    ResourceGovernor gov(b);
    EXPECT_FALSE(gov.poll().has_value());
    ResourceGovernor::requestGlobalStop();
    EXPECT_TRUE(ResourceGovernor::globalStopRequested());
    auto ev = gov.poll();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->kind, ResourceKind::Interrupt);
    EXPECT_EQ(ev->severity, BudgetSeverity::Hard);
    ResourceGovernor::clearGlobalStop();
    EXPECT_FALSE(ResourceGovernor::globalStopRequested());
}

// ---------------------------------------------------------------------
// Engine-level degradation tests.
// ---------------------------------------------------------------------

class GovernedEngineTest : public ::testing::Test
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

    void
    TearDown() override
    {
        ResourceGovernor::clearGlobalStop();
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
    hasDegradation(const EngineResult &r, DegradeLevel level,
                   ResourceKind trigger)
    {
        for (const Degradation &d : r.degradations) {
            if (d.level == level && d.trigger == trigger)
                return true;
        }
        return false;
    }

    static Soc *soc;
};

Soc *GovernedEngineTest::soc = nullptr;

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

/** An unknown-input branch: forks but converges cleanly. */
const char *kForkProgram =
    "        mov &0x0004, r4\n" // P3IN: untainted X input
    "        tst r4\n"
    "        jz iszero\n"
    "        mov #1, r5\n"
    "        halt\n"
    "iszero: mov #2, r5\n"
    "        halt\n";

TEST_F(GovernedEngineTest, BranchFanoutHardDegradesInsteadOfAborting)
{
    // `br r4` with an unknown r4 has far more unknown PC bits than
    // maxBranchBits allows. Historically this was a fatal abort; now
    // the offending path is handed to the *-logic abstraction and the
    // run still produces a structured report.
    EngineConfig cfg;
    cfg.maxBranchBits = 4;
    EngineResult r;
    ASSERT_NO_THROW(r = analyze("        mov &0x0004, r4\n"
                                "        br r4\n"
                                "        halt\n",
                                allClearPolicy(), cfg));
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::StarLogicPath,
                               ResourceKind::BranchFanout));
    EXPECT_TRUE(r.degradedUnsound());
    EXPECT_FALSE(r.secure());
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
}

TEST_F(GovernedEngineTest, SoftBranchFanoutWidensFirst)
{
    // The first soft exhaustion takes the mildest ladder rung: widen
    // the merge by dropping the precise jump targets. That is still a
    // complete verification, so the clean program stays Secure.
    EngineConfig cfg;
    cfg.budgets.softBranchBits = 1;
    EngineResult r = analyze(kForkProgram, allClearPolicy(), cfg);
    EXPECT_TRUE(r.completed);
    ASSERT_FALSE(r.degradations.empty());
    EXPECT_EQ(r.degradations[0].level, DegradeLevel::WidenedMerging);
    EXPECT_EQ(r.degradations[0].trigger, ResourceKind::BranchFanout);
    EXPECT_FALSE(r.degradedUnsound());
    EXPECT_EQ(r.verdict(), Verdict::Secure);
    EXPECT_TRUE(r.secure());
}

TEST_F(GovernedEngineTest, SoftCycleBudgetWidensAndStillCompletes)
{
    EngineConfig cfg;
    cfg.budgets.softCycles = 8;
    EngineResult r = analyze(kForkProgram, allClearPolicy(), cfg);
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::WidenedMerging,
                               ResourceKind::Cycles));
    EXPECT_EQ(r.verdict(), Verdict::Secure);
}

TEST_F(GovernedEngineTest, SecondSoftExhaustionGoesToStarLogic)
{
    // Two distinct soft exhaustions: the ladder escalates past widened
    // merging, sacrifices the offending path to *-logic, and the
    // verdict soundly drops to Unknown-degraded.
    EngineConfig cfg;
    cfg.budgets.softSeconds = 1e-9; // fires on the first poll
    cfg.budgets.softCycles = 10;    // fires a little later
    EngineResult r = analyze(kForkProgram, allClearPolicy(), cfg);
    EXPECT_TRUE(r.completed);
    ASSERT_GE(r.degradations.size(), 2u);
    EXPECT_EQ(r.degradations[0].level, DegradeLevel::WidenedMerging);
    EXPECT_EQ(r.degradations[1].level, DegradeLevel::StarLogicPath);
    EXPECT_TRUE(r.degradedUnsound());
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
}

TEST_F(GovernedEngineTest, HardDeadlineStopsWithPartialResult)
{
    // An expired wall-clock deadline must stop the run mid-exploration
    // with a structured partial result -- never a fatal.
    EngineConfig cfg;
    cfg.budgets.hardSeconds = 1e-9;
    EngineResult r;
    ASSERT_NO_THROW(r = analyze(kForkProgram, allClearPolicy(), cfg));
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::PartialStop,
                               ResourceKind::WallClock));
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
    EXPECT_FALSE(r.secure());
}

TEST_F(GovernedEngineTest, GlobalStopRequestsPartialStop)
{
    ResourceGovernor::requestGlobalStop();
    EngineResult r = analyze(kForkProgram, allClearPolicy());
    EXPECT_FALSE(r.completed);
    EXPECT_TRUE(hasDegradation(r, DegradeLevel::PartialStop,
                               ResourceKind::Interrupt));
    EXPECT_EQ(r.verdict(), Verdict::UnknownDegraded);
}

// ---------------------------------------------------------------------
// Observability of degraded runs (docs/OBSERVABILITY.md): ladder
// escalations must show up in the stats registry and, when the tracer
// is on, as governor-category trace instants.
// ---------------------------------------------------------------------

TEST(ResourceGovernorTest, HeartbeatFiresFromThePollPoint)
{
    ResourceBudgets b;
    b.hardCycles = 1000;
    ResourceGovernor gov(b);
    std::vector<GovernorProgress> beats;
    gov.setHeartbeat(1e-9, [&beats](const GovernorProgress &p) {
        beats.push_back(p);
    });
    gov.chargeCycles(10);
    gov.noteFrontier(3);
    // The period check is throttled, so poll well past the check
    // interval.
    for (int i = 0; i < 256; ++i)
        gov.poll();
    ASSERT_FALSE(beats.empty());
    EXPECT_EQ(beats.front().cycles, 10u);
    EXPECT_EQ(beats.front().frontier, 3u);
    EXPECT_GT(beats.front().budgetUsed, 0.0);
    EXPECT_LE(beats.front().budgetUsed, 1.0);
}

TEST_F(GovernedEngineTest, DegradedRunEmitsGovernorTraceAndStats)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    const double escalationsBefore = stats::Registry::instance()
                                         .snapshot()
                                         .value("engine.escalations");

    EngineConfig cfg;
    cfg.budgets.softCycles = 8;
    EngineResult r = analyze(kForkProgram, allClearPolicy(), cfg);
    EXPECT_FALSE(r.degradations.empty());

    // The ladder escalation is visible in the registry...
    const double escalationsAfter = stats::Registry::instance()
                                        .snapshot()
                                        .value("engine.escalations");
    EXPECT_GT(escalationsAfter, escalationsBefore);

    // ...and as structured trace events: the governor flags the
    // budget crossing, the engine records the degradation.
    EXPECT_GT(tr.countCategory("governor"), 0u);
    bool sawDegrade = false;
    for (const trace::Event &e : tr.events()) {
        if (std::string(e.name) == "degrade")
            sawDegrade = true;
    }
    EXPECT_TRUE(sawDegrade);
    tr.disable();
}

TEST_F(GovernedEngineTest, CleanRunLeavesTraceQuiet)
{
    trace::Tracer &tr = trace::Tracer::instance();
    tr.enable(1 << 12);
    EngineResult r = analyze(kForkProgram, allClearPolicy());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.degradations.empty());
    // No budgets configured: engine events yes, governor events no.
    EXPECT_GT(tr.countCategory("engine"), 0u);
    EXPECT_EQ(tr.countCategory("governor"), 0u);
    tr.disable();
}

// ---------------------------------------------------------------------
// Checkpoint / resume.
// ---------------------------------------------------------------------

/**
 * Tainted branch plus an unbounded tainted store: several paths and a
 * rich violation list, so the resume-equality check is meaningful.
 */
const char *kViolationProgram =
    "        jmp task\n"
    "        .org 0x10\n"
    "task:   mov &0x0000, r4\n" // P1IN: tainted
    "        tst r4\n"
    "        jz t1\n"
    "        nop\n"
    "t1:     mov #0x0C00, r5\n"
    "        add r4, r5\n"
    "        mov #500, 0(r5)\n" // unbounded tainted store
    "        halt\n";

class CheckpointTest : public GovernedEngineTest
{
  protected:
    /** @p name inside a fresh per-process scratch directory. */
    std::string
    tempPath(const std::string &name) const
    {
        return testutil::tempDir("governor") + "/" + name;
    }
};

/**
 * Visit results ("new" / "merged") by the cycle of every commit the
 * traced run continued a path past: visited without being subsumed
 * and without a branch. A hard stop at that cycle lands on the first
 * governor poll of the continuation.
 */
std::map<uint64_t, std::string>
continuationCycles(const std::vector<trace::Event> &events)
{
    std::map<uint64_t, std::string> visits;
    std::set<uint64_t> branches;
    for (const trace::Event &e : events) {
        const std::string name = e.name;
        if (name == "visit") {
            visits[testutil::traceArgNum(e.args, "cycle")] =
                testutil::traceArgStr(e.args, "result");
        } else if (name == "branch") {
            branches.insert(testutil::traceArgNum(e.args, "cycle"));
        }
    }
    std::map<uint64_t, std::string> out;
    for (const auto &[cycle, result] : visits) {
        if (result != "subsumed" && !branches.count(cycle))
            out[cycle] = result;
    }
    return out;
}

TEST_F(CheckpointTest, InterruptedRunResumesToIdenticalResult)
{
    struct Case
    {
        const char *name;
        const char *source;
        Policy policy;
    };
    const Case cases[] = {
        {"violation", kViolationProgram, benchmarkPolicy(0x10, 0x7F)},
        {"watchdog", testutil::kFigure8WatchdogProgram,
         benchmarkPolicy(0x20, 0x7F)},
    };
    std::map<std::string, size_t> continuationStops;
    std::map<Verdict, size_t> verdictsSeen;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        ProgramImage img = assembleSource(c.source);

        // Reference: the uninterrupted run, traced to find where its
        // paths continue past a commit.
        trace::Tracer &tr = trace::Tracer::instance();
        tr.enable(1 << 14);
        EngineResult ref =
            IftEngine(*soc, c.policy, EngineConfig{}).run(img);
        const std::map<uint64_t, std::string> continuations =
            continuationCycles(tr.events());
        tr.disable();
        ASSERT_TRUE(ref.completed);
        ASSERT_FALSE(ref.violations.empty());
        ASSERT_GT(ref.cyclesSimulated, 4u);

        // Interrupt the same analysis at every cycle with a hard cycle
        // budget, snapshotting the frontier.
        for (uint64_t stop = 1; stop < ref.cyclesSimulated; ++stop) {
            SCOPED_TRACE(testing::Message() << "stop at cycle " << stop);
            auto it = continuations.find(stop);
            if (it != continuations.end())
                ++continuationStops[it->second];

            EngineConfig cut;
            cut.maxCycles = stop;
            cut.checkpointOnStop = true;
            EngineResult partial = IftEngine(*soc, c.policy, cut).run(img);
            ASSERT_FALSE(partial.completed);
            // An incomplete run reports Violations exactly when the
            // cut lies at or after the first cycle of an uncontained
            // (non-TaintedControlFlow) violation of the reference run,
            // and UnknownDegraded otherwise.
            bool uncontained = false;
            for (const Violation &v : ref.violations) {
                uncontained |= v.kind != ViolationKind::TaintedControlFlow &&
                               v.firstCycle <= stop;
            }
            const Verdict expected =
                uncontained ? Verdict::Violations : Verdict::UnknownDegraded;
            EXPECT_EQ(partial.verdict(), expected);
            ++verdictsSeen[expected];
            ASSERT_NE(partial.checkpoint, nullptr);

            // Serialize, reload ("kill the process"), and resume.
            const std::string path = tempPath("resume.ckpt");
            partial.checkpoint->save(path);
            EngineCheckpoint loaded = EngineCheckpoint::load(path);
            EXPECT_EQ(loaded.totalCycles, partial.cyclesSimulated);

            EngineResult resumed =
                IftEngine(*soc, c.policy, EngineConfig{}).run(img, &loaded);

            // The resumed run must reproduce the uninterrupted run
            // bit-for-bit on counters, violations and verdict.
            EXPECT_TRUE(resumed.completed);
            EXPECT_EQ(resumed.cyclesSimulated, ref.cyclesSimulated);
            EXPECT_EQ(resumed.pathsExplored, ref.pathsExplored);
            EXPECT_EQ(resumed.branchPoints, ref.branchPoints);
            EXPECT_EQ(resumed.merges, ref.merges);
            EXPECT_EQ(resumed.subsumptions, ref.subsumptions);
            EXPECT_EQ(resumed.statesTracked, ref.statesTracked);
            EXPECT_EQ(resumed.taintedGates, ref.taintedGates);
            EXPECT_EQ(resumed.verdict(), ref.verdict());

            ASSERT_EQ(resumed.violations.size(), ref.violations.size());
            for (size_t i = 0; i < ref.violations.size(); ++i) {
                EXPECT_EQ(resumed.violations[i].kind,
                          ref.violations[i].kind);
                EXPECT_EQ(resumed.violations[i].instrAddr,
                          ref.violations[i].instrAddr);
                EXPECT_EQ(resumed.violations[i].count,
                          ref.violations[i].count);
                EXPECT_EQ(resumed.violations[i].firstCycle,
                          ref.violations[i].firstCycle);
            }

            // Resumed to completion, the interruption cost no
            // coverage: no PartialStop record survives, so the
            // verdicts really are equal.
            EXPECT_FALSE(resumed.degradedUnsound());
        }
    }
    // The stops covered the first poll of a path continued from the
    // simulator's own state (after a New visit) and of one continued
    // from a restored, merged state.
    EXPECT_GT(continuationStops["new"], 0u);
    EXPECT_GT(continuationStops["merged"], 0u);
    // Cuts landed both before and after the first uncontained
    // violation (the old half-way cut is one of the former).
    EXPECT_GT(verdictsSeen[Verdict::UnknownDegraded], 0u);
    EXPECT_GT(verdictsSeen[Verdict::Violations], 0u);
}

TEST_F(CheckpointTest, RejectsGarbageFile)
{
    const std::string path = tempPath("garbage.ckpt");
    std::ofstream(path) << "this is not a checkpoint";
    EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError);
}

TEST_F(CheckpointTest, RejectsMissingFile)
{
    EXPECT_THROW(EngineCheckpoint::load(tempPath("nonexistent.ckpt")),
                 RecoverableError);
}

TEST_F(CheckpointTest, RejectsTruncatedFile)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("truncated.ckpt");
    partial.checkpoint->save(path);

    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes.substr(0, bytes.size() / 2);

    EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError);
}

TEST_F(CheckpointTest, TruncationAtEveryPrefixIsRecoverable)
{
    // Fuzz the torn-write space exhaustively-ish: a crash can cut a
    // checkpoint at any byte. Every prefix must produce the same
    // clean RecoverableError — no UB, no crash, no garbage parse
    // (run under ASan+UBSan via the sanitize label).
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("prefix.ckpt");
    partial.checkpoint->save(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 32u);

    // Every length up to the header, then a spread of longer cuts.
    std::vector<size_t> cuts;
    for (size_t n = 0; n < 24; ++n)
        cuts.push_back(n);
    for (size_t n = 24; n < bytes.size(); n += bytes.size() / 64 + 1)
        cuts.push_back(n);
    for (size_t n : cuts) {
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << bytes.substr(0, n);
        EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError)
            << "prefix of " << n << " bytes parsed as valid";
    }
}

TEST_F(CheckpointTest, BitFlipsAreCaughtByTheBodyCrc)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    const std::string path = tempPath("bitflip.ckpt");
    partial.checkpoint->save(path);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();

    // Flip a single bit at a spread of offsets across the body (past
    // magic + version + CRC, offset 16): each flip must be rejected —
    // the v1 format would happily "parse" many of these.
    for (size_t pos = 16; pos < bytes.size();
         pos += bytes.size() / 32 + 1) {
        std::string corrupt = bytes;
        corrupt[pos] ^= 0x10;
        std::ofstream(path, std::ios::binary | std::ios::trunc)
            << corrupt;
        EXPECT_THROW(EngineCheckpoint::load(path), RecoverableError)
            << "bit flip at offset " << pos << " went undetected";
    }

    // The pristine bytes still load: the fuzz loop isn't vacuous.
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    EngineCheckpoint ok = EngineCheckpoint::load(path);
    EXPECT_EQ(ok.totalCycles, partial.checkpoint->totalCycles);
}

TEST_F(CheckpointTest, RejectsCheckpointOfDifferentProgram)
{
    Policy p = benchmarkPolicy(0x10, 0x7F);
    ProgramImage img = assembleSource(kViolationProgram);
    EngineConfig cfg;
    cfg.maxCycles = 10;
    cfg.checkpointOnStop = true;
    EngineResult partial = IftEngine(*soc, p, cfg).run(img);
    ASSERT_NE(partial.checkpoint, nullptr);

    ProgramImage other = assembleSource("        halt\n");
    IftEngine engine(*soc, p, EngineConfig{});
    EXPECT_THROW(engine.run(other, partial.checkpoint.get()),
                 RecoverableError);
}

// ---------------------------------------------------------------------
// Failure taxonomy: user-input errors stay FatalError (the CLI maps
// them to its usage exit code), never aborts.
// ---------------------------------------------------------------------

TEST(FailureTaxonomyTest, BadPolicyFileIsFatalError)
{
    EXPECT_THROW(loadPolicyFile("/nonexistent/path/policy.cfg"),
                 FatalError);
}

TEST(FailureTaxonomyTest, UnknownWorkloadIsFatalError)
{
    EXPECT_THROW(workloadByName("no-such-workload"), FatalError);
}

TEST(FailureTaxonomyTest, RecoverableErrorIsDistinctFromFatal)
{
    // RecoverableError deliberately does not derive from FatalError:
    // callers that catch FatalError (bad input, give up) must not
    // swallow recoverable conditions they could retry or degrade.
    EXPECT_THROW(
        {
            try {
                GLIFS_RECOVERABLE("budget exhausted");
            } catch (const FatalError &) {
                FAIL() << "RecoverableError caught as FatalError";
            }
        },
        RecoverableError);
}

} // namespace
} // namespace glifs
