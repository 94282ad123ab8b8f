/**
 * @file
 * Acceptance tests for work-stealing parallel exploration
 * (DESIGN.md, "Parallel exploration"): real `glifs_audit
 * --explore-jobs N` runs, asserting the parallel coordinator is
 * *bit-identical* to the serial engine — same verdict, same exit
 * code, same violation list, same cycle/path/branch counters — for
 * every job count, and that a fleet whose workers are killed at
 * faultfs write boundaries (GLIFS_EXPLORE_FAULT_PLAN) still
 * converges to the serial result by resharding and respawning.
 * Carries the `explore` ctest label plus a `faultinject`-labeled
 * slice for the crash sweeps.
 */

#include <gtest/gtest.h>

#include <sys/inotify.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/manifest.hh"
#include "test_tmpdir.hh"

#ifndef GLIFS_AUDIT_BIN
#define GLIFS_AUDIT_BIN "glifs_audit"
#endif

namespace glifs
{
namespace
{

using testutil::tempDir;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

/** Materialize a registry workload's assembly via the manifest
 *  loader (the same resolution path the batch runner uses). */
std::string
materializeWorkload(const std::string &dir,
                    const std::string &workload)
{
    const std::string manifestFile = dir + "/m.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch tmp\njob j\n    workload " << workload << "\n";
    }
    batch::Manifest m = batch::loadManifest(manifestFile);
    const std::string asmFile = dir + "/" + workload + ".s";
    std::ofstream out(asmFile);
    out << m.jobs.at(0).firmwareText;
    return asmFile;
}

int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    if (status == -1 || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

struct AuditRun
{
    int exitCode = -1;
    std::string report; ///< raw glifs.run_report.v1 JSON
};

AuditRun
runAudit(const std::string &dir, const std::string &asmFile,
         unsigned jobs, const std::string &faultPlan = "")
{
    const std::string tag = std::to_string(jobs) +
                            (faultPlan.empty() ? "" : "f");
    const std::string reportFile = dir + "/report." + tag + ".json";
    std::ostringstream cmd;
    if (!faultPlan.empty())
        cmd << "GLIFS_EXPLORE_FAULT_PLAN='" << faultPlan << "' ";
    cmd << GLIFS_AUDIT_BIN << " " << asmFile << " --stats-json "
        << reportFile;
    if (jobs > 1)
        cmd << " --explore-jobs " << jobs;
    cmd << " > " << dir << "/stdout." << tag << ".log 2> " << dir
        << "/stderr." << tag << ".log";
    AuditRun r;
    r.exitCode = runCmd(cmd.str());
    r.report = readFile(reportFile);
    return r;
}

/** The balanced-brace JSON object starting at the value of @p key
 *  ("" when absent) — enough structure awareness for our own
 *  fixed-shape run reports. */
std::string
jsonObject(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return "";
    size_t open = json.find('{', at);
    if (open == std::string::npos)
        return "";
    int depth = 0;
    for (size_t i = open; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0)
            return json.substr(open, i - open + 1);
    }
    return "";
}

std::string
jsonString(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return "";
    size_t q1 = json.find('"', at + key.size() + 3);
    if (q1 == std::string::npos)
        return "";
    size_t q2 = json.find('"', q1 + 1);
    return json.substr(q1 + 1, q2 - q1 - 1);
}

uint64_t
jsonCounter(const std::string &json, const std::string &key)
{
    size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos)
        return ~0ull;
    return std::strtoull(json.c_str() + at + key.size() + 3, nullptr,
                         10);
}

/**
 * The determinism-invariant view of a run report: the whole
 * `analysis` object (verdict inputs, counters, the full violation
 * list) with the wall-clock field scrubbed. Timing is the only field
 * that may differ between a serial and a parallel run.
 */
std::string
normalizedAnalysis(const std::string &report)
{
    std::string a = jsonObject(report, "analysis");
    size_t at = a.find("\"analysis_seconds\":");
    if (at != std::string::npos) {
        size_t end = a.find_first_of(",}", at);
        a.erase(at, end - at);
    }
    return a;
}

void
expectIdenticalRuns(const AuditRun &serial, const AuditRun &par,
                    const std::string &workload)
{
    SCOPED_TRACE(workload);
    ASSERT_FALSE(serial.report.empty());
    ASSERT_FALSE(par.report.empty());
    EXPECT_EQ(serial.exitCode, par.exitCode);
    EXPECT_EQ(jsonString(serial.report, "verdict"),
              jsonString(par.report, "verdict"));
    EXPECT_EQ(normalizedAnalysis(serial.report),
              normalizedAnalysis(par.report));
}

// ------------------------------------------------------------------
// Parallel == serial, bit for bit.
// ------------------------------------------------------------------

/** Three workloads spanning the interesting verdict space: tHold
 *  (violations, heavy branching), rle (secure, light), binSearch
 *  (violations, data-dependent paths). jobs=4 must reproduce the
 *  serial verdict, exit code, violation list and every engine
 *  counter on each. */
TEST(ExploreParity, JobsFourMatchesSerialAcrossWorkloads)
{
    const std::string dir = tempDir("parity");
    for (const char *w : {"tHold", "rle", "binSearch"}) {
        const std::string asmFile = materializeWorkload(dir, w);
        AuditRun serial = runAudit(dir, asmFile, 1);
        AuditRun par = runAudit(dir, asmFile, 4);
        expectIdenticalRuns(serial, par, w);
        // The fleet must have actually run: segments shipped and
        // either consumed from the cache or pruned — a silently
        // serial fallback would pass the identity check above.
        uint64_t shipped = jsonCounter(par.report, "chunks_shipped");
        EXPECT_NE(shipped, ~0ull) << w;
        EXPECT_GT(shipped, 0u) << w;
    }
    std::filesystem::remove_all(dir);
}

/** --explore-jobs 1 selects the untouched serial engine: reports are
 *  byte-identical (minus timing) to a flagless run. */
TEST(ExploreParity, JobsOneIsTheSerialEngine)
{
    const std::string dir = tempDir("jobs1");
    const std::string asmFile = materializeWorkload(dir, "rle");
    AuditRun flagless = runAudit(dir, asmFile, 1);
    std::ostringstream cmd;
    cmd << GLIFS_AUDIT_BIN << " " << asmFile << " --explore-jobs 1"
        << " --stats-json " << dir << "/report.j1.json > /dev/null 2>&1";
    AuditRun j1;
    j1.exitCode = runCmd(cmd.str());
    j1.report = readFile(dir + "/report.j1.json");
    expectIdenticalRuns(flagless, j1, "rle");
    std::filesystem::remove_all(dir);
}

/** The fleet keeps its work units and segment results in a scratch
 *  directory under $TMPDIR, removed when the audit exits. */
TEST(ExploreParity, ScratchDirLivesUnderTmpdir)
{
    const std::string dir = tempDir("tmpdir");
    const std::string tmp = dir + "/tmp";
    ASSERT_EQ(::mkdir(tmp.c_str(), 0755), 0);
    const std::string asmFile = materializeWorkload(dir, "rle");

    // Record every entry made in or removed from the fresh TMPDIR.
    int ino = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
    ASSERT_GE(ino, 0);
    ASSERT_GE(::inotify_add_watch(ino, tmp.c_str(), IN_CREATE | IN_DELETE),
              0);

    std::ostringstream cmd;
    cmd << "TMPDIR='" << tmp << "' " << GLIFS_AUDIT_BIN << " " << asmFile
        << " --explore-jobs 2 --stats-json " << dir
        << "/report.json > /dev/null 2>&1";
    const int code = runCmd(cmd.str());
    EXPECT_TRUE(code == 0 || code == 1) << code;
    EXPECT_FALSE(readFile(dir + "/report.json").empty());

    std::vector<std::string> created;
    std::vector<std::string> removed;
    alignas(struct inotify_event) char buf[4096];
    ssize_t n;
    while ((n = ::read(ino, buf, sizeof(buf))) > 0) {
        for (char *at = buf; at < buf + n;) {
            const auto *ev = reinterpret_cast<struct inotify_event *>(at);
            const std::string name = ev->len ? ev->name : "";
            if ((ev->mask & IN_CREATE) && (ev->mask & IN_ISDIR))
                created.push_back(name);
            if ((ev->mask & IN_DELETE) && (ev->mask & IN_ISDIR))
                removed.push_back(name);
            at += sizeof(struct inotify_event) + ev->len;
        }
    }
    ::close(ino);

    ASSERT_EQ(created.size(), 1u);
    EXPECT_EQ(created[0].rfind("glifs-explore-", 0), 0u) << created[0];
    EXPECT_EQ(removed, created);
    EXPECT_TRUE(std::filesystem::is_empty(tmp));
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// Crash recovery (faultinject slice).
// ------------------------------------------------------------------

/** Every worker dies at its second faultfs write — repeatedly, since
 *  respawned workers inherit the same plan — until the respawn cap
 *  disables the fleet. The coordinator must converge to the serial
 *  result by executing everything inline, and the respawn counter
 *  must record the recovery attempts. */
TEST(ExploreFaultInject, KilledWorkersConvergeToSerialResult)
{
    const std::string dir = tempDir("kill");
    const std::string asmFile = materializeWorkload(dir, "tHold");
    AuditRun serial = runAudit(dir, asmFile, 1);
    AuditRun par = runAudit(dir, asmFile, 4, "write:2:crash");
    expectIdenticalRuns(serial, par, "tHold");
    EXPECT_GE(jsonCounter(par.report, "workers_respawned"), 1u);
    std::filesystem::remove_all(dir);
}

/** A worker killed on a *read* boundary dies while idle or while
 *  pulling work; either way the shipped entries must be resharded
 *  and the verdict preserved. */
TEST(ExploreFaultInject, ReadBoundaryKillsConverge)
{
    const std::string dir = tempDir("readkill");
    const std::string asmFile = materializeWorkload(dir, "binSearch");
    AuditRun serial = runAudit(dir, asmFile, 1);
    AuditRun par = runAudit(dir, asmFile, 3, "read:2:crash");
    expectIdenticalRuns(serial, par, "binSearch");
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace glifs
