/**
 * @file
 * Footnote 4 reproduction: tractability of input-independent gate-level
 * taint tracking. The paper notes its most complex system analyzes in
 * 3 hours on the authors' machine; this bench reports per-benchmark
 * analysis runtime and exploration statistics for our substrate, plus
 * google-benchmark timings of whole audits (inSort, FFT and the
 * protected MiniRTOS) with their simulated-cycle rates.
 */

#include <cstdio>

#include <benchmark/benchmark.h>

#include "assembler/assembler.hh"
#include "ift/engine.hh"
#include "workloads/rtos.hh"
#include "workloads/workload.hh"

#include "bench_common.hh"

using namespace glifs;

namespace
{

Soc &
sharedSoc()
{
    static Soc soc;
    return soc;
}

void
printRuntimeTable()
{
    Soc &soc = sharedSoc();
    std::printf("=== Footnote 4: analysis runtime per benchmark ===\n\n");
    std::printf("%-10s | %10s | %8s | %8s | %8s | %8s\n", "Benchmark",
                "seconds", "cycles", "paths", "merges", "subsume");
    std::printf("-----------+------------+----------+----------+-------"
                "---+---------\n");
    double total = 0.0;
    for (const Workload &w : allWorkloads()) {
        IftEngine engine(soc, w.policy(), EngineConfig{});
        EngineResult r = engine.run(w.image());
        total += r.analysisSeconds;
        std::printf("%-10s | %10.3f | %8llu | %8zu | %8zu | %8zu\n",
                    w.name.c_str(), r.analysisSeconds,
                    static_cast<unsigned long long>(r.cyclesSimulated),
                    r.pathsExplored, r.merges, r.subsumptions);
        std::fflush(stdout);
    }
    std::printf("\ntotal: %.1f s for all 13 benchmarks (paper: up to 3 "
                "hours for the most\ncomplex system on openMSP430 -- "
                "the conservative state merging keeps\nexploration "
                "tractable despite unbounded input spaces).\n\n",
                total);
}

/**
 * One whole audit per iteration. cycles_per_sec (simulated cycles per
 * wall second) is what CI's regression guard compares against the
 * committed BENCH_analysis_runtime.json. FFT starts no segment from a
 * state an earlier one started from, so the segment memo never hits
 * there: its rate follows raw machine speed, and the guard normalizes
 * the other rows by it.
 */
void
BM_AnalyzeWorkload(benchmark::State &state, const ProgramImage &img,
                   const Policy &policy)
{
    Soc &soc = sharedSoc();
    uint64_t cycles = 0;
    for (auto _ : state) {
        IftEngine engine(soc, policy, EngineConfig{});
        EngineResult r = engine.run(img);
        cycles += r.cyclesSimulated;
        benchmark::DoNotOptimize(r.violations.size());
    }
    state.counters["cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void
BM_AnalyzeKernel(benchmark::State &state, const std::string &name)
{
    const Workload &w = workloadByName(name);
    BM_AnalyzeWorkload(state, w.image(), w.policy());
}

void
BM_AnalyzeRtos(benchmark::State &state)
{
    const MicroBenchmark rtos = rtosProtected();
    BM_AnalyzeWorkload(state, assembleSource(rtos.source), rtos.policy);
}

} // namespace

BENCHMARK_CAPTURE(BM_AnalyzeKernel, inSort, std::string("inSort"))
    ->Name("BM_AnalyzeWorkload/inSort")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AnalyzeKernel, FFT, std::string("FFT"))
    ->Name("BM_AnalyzeWorkload/FFT")
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AnalyzeRtos)
    ->Name("BM_AnalyzeWorkload/rtosProtected")
    ->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    return glifs::benchjson::benchMain(argc, argv,
                                       "analysis_runtime", "",
                                       printRuntimeTable);
}
