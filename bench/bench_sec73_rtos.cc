/**
 * @file
 * Section 7.3 reproduction: information-flow-secure scheduling. A
 * MiniRTOS round-robin scheduler multiplexes a trusted div task and an
 * untrusted binSearch task. The unprotected baseline lets the
 * untrusted task's tainted control flow reach the scheduler and the
 * trusted task; the protected system (watchdog-sliced scheduling +
 * masked untrusted stores) verifies secure, at a small measured
 * overhead (the paper reports 0.83% on FreeRTOS).
 */

#include <cstdio>

#include "assembler/assembler.hh"
#include "ift/engine.hh"
#include "workloads/rtos.hh"
#include "xform/masking.hh"

#include "bench_common.hh"

using namespace glifs;

namespace
{

void
report(const Soc &soc, const MicroBenchmark &mb, uint64_t *cycles)
{
    ProgramImage img = assembleSource(mb.source);
    RtosMeasurement m = measureRtos(soc, img);
    IftEngine engine(soc, mb.policy, EngineConfig{});
    EngineResult r = engine.run(img);

    bool scheduler_compromised = false;
    bool partitions_escaped = false;
    bool wdt_tainted = false;
    for (const Violation &v : r.violations) {
        scheduler_compromised |=
            v.kind == ViolationKind::UntaintedCodeTaintedPc;
        partitions_escaped |=
            v.kind == ViolationKind::StoreUntaintedPartition;
        wdt_tainted |= v.kind == ViolationKind::WatchdogTainted;
    }

    std::printf("--- %s ---\n", mb.name.c_str());
    std::printf("  %s\n", mb.description.c_str());
    std::printf("  measured: both tasks complete in %llu cycles (%s)\n",
                static_cast<unsigned long long>(m.cycles),
                m.completed ? "ok" : "TIMEOUT");
    std::printf("  analysis: %s\n", r.summary().c_str());
    std::printf("  scheduler/trusted task sees tainted control: %s\n",
                scheduler_compromised ? "YES" : "no");
    std::printf("  untrusted stores escape their partition:     %s\n",
                partitions_escaped ? "YES" : "no");
    std::printf("  watchdog tainted:                            %s\n",
                wdt_tainted ? "YES" : "no");
    std::printf("  verdict: %s\n\n",
                r.secure() ? "VERIFIED SECURE" : "insecure");
    if (cycles != nullptr)
        *cycles = m.completed ? m.cycles : 0;
}

} // namespace

int
runBench()
{
    Soc soc;
    std::printf("=== Section 7.3: information flow secure scheduling "
                "(MiniRTOS) ===\n\n");

    // Masked stores in the protected untrusted task (paper: 330 store
    // instructions of binSearch were masked under FreeRTOS).
    {
        AsmProgram prot = parseSource(rtosProtected(1).source);
        size_t masked = 0;
        for (size_t i = 1; i < prot.items.size(); ++i) {
            const AsmItem &it = prot.items[i];
            if (it.kind == AsmItem::Kind::Instr && it.op == Op::And &&
                i + 1 < prot.items.size() &&
                prot.items[i + 1].op == Op::Bis)
                ++masked;
        }
        std::printf("masked store addresses in the untrusted task: %zu "
                    "(paper: 330 on FreeRTOS-scale code)\n\n", masked);
    }

    uint64_t base_cycles = 0;
    report(soc, rtosBaseline(), &base_cycles);

    // An interval still running at four times the baseline's cycles
    // cannot be the best one (its overhead would exceed 300%), so the
    // sweep stops it there rather than at measureRtos' default cap;
    // it stays a non-completing measurement either way.
    uint64_t best = 0;
    unsigned best_sel = 0;
    for (unsigned sel = 0; sel < 3; ++sel) {
        const ProgramImage img =
            assembleSource(rtosProtected(sel).source);
        RtosMeasurement m = base_cycles != 0
                                ? measureRtos(soc, img, 4 * base_cycles)
                                : measureRtos(soc, img);
        if (m.completed && (best == 0 || m.cycles < best)) {
            best = m.cycles;
            best_sel = sel;
        }
    }
    report(soc, rtosProtected(best_sel), nullptr);

    if (base_cycles != 0 && best != 0) {
        double overhead =
            100.0 * (static_cast<double>(best) - base_cycles) /
            base_cycles;
        std::printf("protection overhead: %.2f %% (best interval sel %u; "
                    "paper reports 0.83%% on FreeRTOS)\n",
                    overhead, best_sel);
    }
    return 0;
}

int
main(int argc, char **argv)
{
    return glifs::benchjson::printerMain(argc, argv, "sec73_rtos",
                                         [] { return runBench(); });
}
