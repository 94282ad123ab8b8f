/**
 * @file
 * Tests of the Section-5.3 verification micro-benchmarks (Figures 8
 * and 9), the Section-3 motivation examples (Figures 3-5), the
 * *-logic baseline (footnote 8), the energy model, and the MiniRTOS
 * system of Section 7.3.
 */

#include <gtest/gtest.h>

#include "assembler/assembler.hh"
#include "power/energy_model.hh"
#include "starlogic/starlogic.hh"
#include "workloads/motivation.hh"
#include "workloads/rtos.hh"

namespace glifs
{
namespace
{

class ScenarioTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite() { soc = new Soc(); }
    static void TearDownTestSuite() { delete soc; soc = nullptr; }

    static EngineResult
    analyze(const MicroBenchmark &mb)
    {
        IftEngine engine(*soc, mb.policy, EngineConfig{});
        return engine.run(assembleSource(mb.source));
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

Soc *ScenarioTest::soc = nullptr;

// ---- Figure 8 ----------------------------------------------------------

TEST_F(ScenarioTest, Fig8UnprotectedLeaksControlToUntaintedCode)
{
    EngineResult r = analyze(fig8Unprotected());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
    EXPECT_TRUE(has(r, ViolationKind::UntaintedCodeTaintedPc));
    EXPECT_FALSE(r.secure());
}

TEST_F(ScenarioTest, Fig8ProtectedRecoversUntaintedPc)
{
    EngineResult r = analyze(fig8Protected());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::TaintedControlFlow));
    EXPECT_FALSE(has(r, ViolationKind::UntaintedCodeTaintedPc));
    EXPECT_FALSE(has(r, ViolationKind::WatchdogTainted));
    EXPECT_TRUE(r.secure());
}

// ---- Figure 9 ----------------------------------------------------------

TEST_F(ScenarioTest, Fig9UnmaskedTaintsUntaintedMemory)
{
    EngineResult r = analyze(fig9Unmasked());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::StoreUntaintedPartition));
}

TEST_F(ScenarioTest, Fig9MaskedIsClean)
{
    EngineResult r = analyze(fig9Masked());
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_TRUE(r.secure());
}

// ---- Figures 3-5 ---------------------------------------------------------

TEST_F(ScenarioTest, Figure3CleanApplicationIsSecure)
{
    EngineResult r = analyze(figure3Clean());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure()) << r.summary();
}

TEST_F(ScenarioTest, Figure4TaintedOffsetIsVulnerable)
{
    EngineResult r = analyze(figure4Vulnerable());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(r.secure());
}

TEST_F(ScenarioTest, Figure5MaskedIsSecureAgain)
{
    EngineResult r = analyze(figure5Masked());
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.secure()) << r.summary();
}

// ---- *-logic baseline (footnote 8) --------------------------------------

TEST_F(ScenarioTest, StarLogicAbortsOnViolatingBenchmarkStyleCode)
{
    MicroBenchmark mb = fig8Protected();
    StarLogicResult star =
        runStarLogic(*soc, mb.policy, assembleSource(mb.source));
    EXPECT_TRUE(star.aborted);
    // The paper reports ~70% of gates becoming unknown and tainted;
    // the exact fraction is substrate-dependent, but it must be the
    // majority of the design without being everything.
    EXPECT_GT(star.taintedGateFraction, 0.5);
    EXPECT_LT(star.taintedGateFraction, 1.0);
    EXPECT_FALSE(star.verified);
    EXPECT_NE(star.str().find("ABORTED"), std::string::npos);
}

TEST_F(ScenarioTest, StarLogicHandlesDeterministicControl)
{
    // Figure 9 (masked) has data-dependent addresses but fully
    // deterministic control flow: *-logic completes and verifies it.
    MicroBenchmark mb = fig9Masked();
    StarLogicResult star =
        runStarLogic(*soc, mb.policy, assembleSource(mb.source));
    EXPECT_FALSE(star.aborted);
    EXPECT_TRUE(star.verified);
}

TEST_F(ScenarioTest, ComparisonReportsBothAnalyses)
{
    MicroBenchmark mb = fig8Protected();
    AnalysisComparison cmp =
        compareAnalyses(*soc, mb.policy, assembleSource(mb.source));
    EXPECT_TRUE(cmp.appSpecific.secure());
    EXPECT_TRUE(cmp.star.aborted);
    std::string s = cmp.str("fig8");
    EXPECT_NE(s.find("app-specific: verified secure"),
              std::string::npos);
    EXPECT_NE(s.find("*-logic ABORTED"), std::string::npos);
}

// ---- energy model ----------------------------------------------------------

TEST(EnergyModel, ScalesWithActivity)
{
    NetlistStats stats;
    stats.combGates = 1000;
    stats.dffs = 100;
    ToggleStats quiet;
    quiet.cycles = 100;
    ToggleStats busy = quiet;
    busy.combToggles[static_cast<size_t>(GateKind::Xor)] = 5000;
    busy.dffToggles = 500;
    busy.memWrites = 20;

    EnergyReport eq = computeEnergy(stats, quiet);
    EnergyReport eb = computeEnergy(stats, busy);
    EXPECT_GT(eb.totalFj(), eq.totalFj());
    EXPECT_GT(eq.leakageFj, 0.0);      // leakage accrues regardless
    EXPECT_EQ(eq.switchingFj, 0.0);
    EXPECT_GT(eb.memoryFj, 0.0);
    EXPECT_NE(eb.str().find("pJ"), std::string::npos);
}

// ---- MiniRTOS (Section 7.3) ----------------------------------------------

class RtosTest : public ScenarioTest
{
};

TEST_F(RtosTest, BaselineRunsButIsInsecure)
{
    MicroBenchmark mb = rtosBaseline();
    ProgramImage img = assembleSource(mb.source);
    RtosMeasurement m = measureRtos(*soc, img);
    EXPECT_TRUE(m.completed);
    EXPECT_GT(m.cycles, 1000u);

    EngineResult r = analyze(mb);
    EXPECT_TRUE(r.completed);
    // The untrusted task's tainted control flow re-enters the
    // scheduler and the trusted task.
    EXPECT_TRUE(has(r, ViolationKind::UntaintedCodeTaintedPc));
    EXPECT_TRUE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(r.secure());
}

TEST_F(RtosTest, ProtectedRunsAndVerifiesSecure)
{
    MicroBenchmark mb = rtosProtected(1);
    ProgramImage img = assembleSource(mb.source);
    RtosMeasurement m = measureRtos(*soc, img);
    EXPECT_TRUE(m.completed);

    EngineResult r = analyze(mb);
    EXPECT_TRUE(r.completed);
    // No tainting of the trusted task or the scheduler; the watchdog
    // stays untainted; nothing escapes the untrusted partition.
    EXPECT_FALSE(has(r, ViolationKind::UntaintedCodeTaintedPc));
    EXPECT_FALSE(has(r, ViolationKind::StoreUntaintedPartition));
    EXPECT_FALSE(has(r, ViolationKind::WatchdogTainted));
    EXPECT_TRUE(r.secure()) << r.summary();
}

TEST_F(RtosTest, ProtectionOverheadIsModest)
{
    RtosMeasurement base =
        measureRtos(*soc, assembleSource(rtosBaseline().source));
    ASSERT_TRUE(base.completed);
    // Pick the best interval, as the toolflow would. An interval still
    // running at four times the baseline's cycles is over 300% and
    // cannot be the best, so its measurement stops there.
    uint64_t best = ~0ULL;
    for (unsigned sel = 0; sel < 3; ++sel) {
        RtosMeasurement prot =
            measureRtos(*soc, assembleSource(rtosProtected(sel).source),
                        4 * base.cycles);
        if (prot.completed)
            best = std::min(best, prot.cycles);
    }
    ASSERT_NE(best, ~0ULL);
    double overhead = static_cast<double>(best) /
                          static_cast<double>(base.cycles) -
                      1.0;
    // Section 7.3 reports 0.83%; our substrate differs, but the
    // overhead must stay small.
    EXPECT_LT(overhead, 0.35) << "overhead " << overhead;
}

} // namespace
} // namespace glifs
