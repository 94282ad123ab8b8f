/**
 * @file
 * Parallel-exploration scaling (DESIGN.md, "Parallel exploration"):
 * wall-clock rate of `glifs_audit --explore-jobs N` over the serial
 * engine on the protected-RTOS firmware, for N in {1, 2, 4, 8}.
 *
 * Usage: bench_explore_scaling [--audit-bin PATH] [--json FILE]
 *
 * Every row reports `cycles_per_sec` (simulated engine cycles over
 * wall time -- identical numerators across N, since the parallel
 * coordinator is bit-identical to the serial engine), the
 * `speedup_vs_serial` ratio, and the machine's online `cpus`. The
 * cpus counter is load-bearing: `check_bench_regression.py
 * --scaling-floor` normalizes the expected speedup by
 * min(jobs, cpus), so a 1-core CI runner holds the coordinator to
 * "no slower than serial" while a many-core box is held to real
 * scaling. On a single core the fleet still wins whenever the
 * frontier revisits states (the digest cache de-duplicates segment
 * simulation that the serial engine only prunes after the fact), but
 * that surplus is workload-dependent and deliberately not floored.
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "bench_common.hh"
#include "workloads/rtos.hh"

using namespace glifs;

namespace
{

using Clock = std::chrono::steady_clock;

/** glifs_audit in the sibling tools/ directory of the build tree. */
std::string
defaultAuditBinary()
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "glifs_audit";
    buf[n] = '\0';
    std::string self(buf);
    size_t slash = self.rfind('/');
    if (slash == std::string::npos)
        return "glifs_audit";
    std::string benchDir = self.substr(0, slash);
    size_t parent = benchDir.rfind('/');
    if (parent == std::string::npos)
        return "glifs_audit";
    return benchDir.substr(0, parent) + "/tools/glifs_audit";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

uint64_t
jsonCounter(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    GLIFS_ASSERT(at != std::string::npos, "run report missing ", key);
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr,
                         10);
}

/** Materialize the protected-RTOS firmware -- the deepest frontier
 *  of any workload we ship, hence the headline scaling subject. */
std::string
materializeWorkload(const std::string &dir)
{
    const std::string asmFile = dir + "/rtos_protected.s";
    std::ofstream out(asmFile);
    out << rtosProtected().source;
    return asmFile;
}

int
runBench(const std::string &auditBin, const std::string &jsonPath)
{
    const char *tmpdir = std::getenv("TMPDIR");
    const std::string tmp = tmpdir && *tmpdir ? tmpdir : "/tmp";
    std::string dirTemplate = tmp + "/glifs_bench_explore_XXXXXX";
    GLIFS_ASSERT(::mkdtemp(dirTemplate.data()) != nullptr,
                 "cannot create a scratch dir in ", tmp);
    const std::string dir = dirTemplate;
    const std::string asmFile = materializeWorkload(dir);
    const double cpus = static_cast<double>(
        ::sysconf(_SC_NPROCESSORS_ONLN));

    std::printf("explore scaling: %s on rtos_protected "
                "(%.0f online cpu%s)\n\n",
                auditBin.c_str(), cpus, cpus == 1 ? "" : "s");

    std::vector<benchjson::RunResult> rows;
    double serialRate = 0;
    uint64_t serialCycles = 0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        const std::string rep = dir + "/report." +
                                std::to_string(jobs) + ".json";
        std::ostringstream cmd;
        cmd << auditBin << " " << asmFile << " --explore-jobs "
            << jobs << " --stats-json " << rep
            << " > /dev/null 2>&1";
        Clock::time_point t0 = Clock::now();
        int rc = std::system(cmd.str().c_str());
        double secs =
            std::chrono::duration<double>(Clock::now() - t0).count();
        GLIFS_ASSERT(rc == 0, "scaling run jobs=", jobs,
                     " failed with ", rc);

        const std::string report = readFile(rep);
        // Total simulated engine cycles: identical across N (the
        // coordinator charges cached segments exactly like inline
        // ones), so rate ratios are pure wall-time ratios.
        const uint64_t cycles = jsonCounter(report, "cycles");
        if (jobs == 1) {
            serialCycles = cycles;
            serialRate = static_cast<double>(cycles) / secs;
        }
        GLIFS_ASSERT(cycles == serialCycles,
                     "jobs=", jobs, " diverged from serial: ",
                     cycles, " vs ", serialCycles, " cycles");
        const double rate = static_cast<double>(cycles) / secs;

        benchjson::RunResult row;
        row.name = "explore_scaling/jobs:" + std::to_string(jobs);
        row.iterations = 1;
        row.realSeconds = secs;
        row.cpuSeconds = secs;
        row.counters.emplace_back("cycles_per_sec", rate);
        row.counters.emplace_back("speedup_vs_serial",
                                  rate / serialRate);
        row.counters.emplace_back("cpus", cpus);
        rows.push_back(std::move(row));

        std::printf("--explore-jobs %u: %7.2fs  %12.0f cycles/s  "
                    "(%.2fx vs serial)\n",
                    jobs, secs, rate, rate / serialRate);
    }

    if (!jsonPath.empty())
        benchjson::writeReport(jsonPath, "explore_scaling", rows);
    std::filesystem::remove_all(dir);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string auditBin;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--audit-bin" && i + 1 < argc)
            auditBin = argv[++i];
        else
            argv[out++] = argv[i];
    }
    argc = out;
    argv[argc] = nullptr;
    if (auditBin.empty())
        auditBin = defaultAuditBinary();
    std::string jsonPath = benchjson::extractJsonPath(
        argc, argv, "BENCH_explore_scaling.json");

    return runBench(auditBin, jsonPath);
}
