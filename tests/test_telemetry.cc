/**
 * @file
 * Cross-process telemetry tests (docs/OBSERVABILITY.md, "Cross-
 * process telemetry"): wire-framing round trips, torn-frame and
 * bit-flip corruption tolerance, the writer's lossy non-blocking
 * contract (full pipe drops, EPIPE self-disables), faultfs-driven
 * short read/write delivery, and end-to-end batch runs — a worker
 * killed -9 mid-stream leaves a decodable prefix, `--status-file`
 * shows live per-job progress before any job exits, and
 * `--trace-merge` produces one pid lane per job plus aggregated
 * worker stats in the batch report. Carries the `telemetry` ctest
 * label; CI runs it in both the tier-1 and sanitize jobs.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "base/faultfs.hh"
#include "base/hash.hh"
#include "base/stats.hh"
#include "base/telemetry.hh"
#include "test_hex.hh"
#include "test_tmpdir.hh"

#ifndef GLIFS_AUDIT_BIN
#define GLIFS_AUDIT_BIN "glifs_audit"
#endif
#ifndef GLIFS_BATCH_BIN
#define GLIFS_BATCH_BIN "glifs_batch"
#endif

namespace glifs
{
namespace
{

using telemetry::Event;
using telemetry::EventType;
using telemetry::Reader;
using telemetry::Writer;

using testutil::tempDir;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

Event
sampleHeartbeat()
{
    Event e;
    e.type = EventType::Heartbeat;
    e.cycles = 123456;
    e.elapsedSeconds = 1.5;
    e.cyclesPerSec = 82304.25;
    e.frontier = 17;
    e.states = 42;
    e.rssBytes = 9ull << 20;
    e.budgetUsed = 0.25;
    return e;
}

Event
sampleLifecycle()
{
    Event e;
    e.type = EventType::Lifecycle;
    e.phase = "finished";
    e.exitCode = 1;
    e.verdict = "violations";
    return e;
}

Event
sampleStats()
{
    Event e;
    e.type = EventType::StatsSnapshot;
    e.stats = {{"engine.cycles", 961}, {"sim.evals", 1.25e6},
               {"governor.heartbeats", 5}};
    return e;
}

Event
sampleBudget()
{
    Event e;
    e.type = EventType::BudgetUsage;
    e.resource = "cycles";
    e.severity = "hard";
    e.detail = "cycles hard threshold (60 simulated cycles)";
    return e;
}

// ------------------------------------------------------------------
// Framing: encode/decode round trips and corruption tolerance.
// ------------------------------------------------------------------

TEST(TelemetryFraming, RoundTripsEveryEventType)
{
    const std::vector<Event> in = {sampleLifecycle(),
                                   sampleHeartbeat(), sampleStats(),
                                   sampleBudget()};
    std::string stream;
    for (const Event &e : in)
        stream += telemetry::encodeFrame(e);

    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.crcErrors(), 0u);
    EXPECT_EQ(r.tornFrames(), 0u);
    ASSERT_EQ(out.size(), in.size());

    EXPECT_EQ(out[0].type, EventType::Lifecycle);
    EXPECT_EQ(out[0].phase, "finished");
    EXPECT_EQ(out[0].exitCode, 1);
    EXPECT_EQ(out[0].verdict, "violations");

    EXPECT_EQ(out[1].type, EventType::Heartbeat);
    EXPECT_EQ(out[1].cycles, 123456u);
    EXPECT_DOUBLE_EQ(out[1].elapsedSeconds, 1.5);
    EXPECT_DOUBLE_EQ(out[1].cyclesPerSec, 82304.25);
    EXPECT_EQ(out[1].frontier, 17u);
    EXPECT_EQ(out[1].states, 42u);
    EXPECT_EQ(out[1].rssBytes, 9ull << 20);
    EXPECT_DOUBLE_EQ(out[1].budgetUsed, 0.25);

    EXPECT_EQ(out[2].type, EventType::StatsSnapshot);
    ASSERT_EQ(out[2].stats.size(), 3u);
    EXPECT_EQ(out[2].stats[0].first, "engine.cycles");
    EXPECT_DOUBLE_EQ(out[2].stats[1].second, 1.25e6);

    EXPECT_EQ(out[3].type, EventType::BudgetUsage);
    EXPECT_EQ(out[3].resource, "cycles");
    EXPECT_EQ(out[3].severity, "hard");
    EXPECT_EQ(out[3].detail,
              "cycles hard threshold (60 simulated cycles)");
}

TEST(TelemetryFraming, FrameBytesArePinned)
{
    // One frame of each event type, byte for byte: a scheduler and its
    // workers must agree on these across versions. Each frame is u32
    // payload length, u8 type, payload, u32 CRC-32.
    Event life;
    life.type = EventType::Lifecycle;
    life.phase = "finished";
    life.exitCode = 1;
    life.verdict = "v";
    EXPECT_EQ(testutil::hexOf(telemetry::encodeFrame(life)),
              "15000000" "01" "0800000066696e6973686564"
              "01000000" "0100000076"
              "c0ef4c64");

    Event beat;
    beat.type = EventType::Heartbeat;
    beat.cycles = 1000;
    beat.elapsedSeconds = 0.5;
    beat.cyclesPerSec = 2000;
    beat.frontier = 3;
    beat.states = 4;
    beat.rssBytes = 1 << 20;
    beat.budgetUsed = 0.25;
    EXPECT_EQ(testutil::hexOf(telemetry::encodeFrame(beat)),
              "38000000" "02" "e803000000000000"
              "000000000000e03f"
              "0000000000409f40"
              "0300000000000000"
              "0400000000000000"
              "0000100000000000"
              "000000000000d03f"
              "e6de49a8");

    Event snap;
    snap.type = EventType::StatsSnapshot;
    snap.stats = {{"a.b", 1.0}, {"c", -2.5}};
    EXPECT_EQ(testutil::hexOf(telemetry::encodeFrame(snap)),
              "20000000" "03" "02000000"
              "03000000612e62"
              "000000000000f03f"
              "0100000063"
              "00000000000004c0"
              "071ca133");

    Event budget;
    budget.type = EventType::BudgetUsage;
    budget.resource = "cycles";
    budget.severity = "soft";
    budget.detail = "x";
    EXPECT_EQ(testutil::hexOf(telemetry::encodeFrame(budget)),
              "17000000" "04" "060000006379636c6573"
              "04000000736f6674"
              "0100000078" "2148209c");
}

TEST(TelemetryFraming, ByteAtATimeFeedStillDecodes)
{
    const std::string stream = telemetry::encodeFrame(sampleStats()) +
                               telemetry::encodeFrame(sampleBudget());
    Reader r;
    std::vector<Event> out;
    for (char c : stream)
        r.feed(&c, 1, out);
    EXPECT_FALSE(r.finish());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::StatsSnapshot);
    EXPECT_EQ(out[1].type, EventType::BudgetUsage);
}

/** Type 5 is reserved (the retired exploration-fleet event): a
 *  well-formed frame of that type, e.g. from an older worker binary,
 *  is skipped and the frames around it still decode. */
TEST(TelemetryFraming, ReservedTypeFiveFrameIsSkipped)
{
    std::string retired = telemetry::encodeFrame(sampleBudget());
    retired[4] = 5; // the type byte after the u32 length
    const uint32_t crc = crc32(retired.data() + 4, retired.size() - 8);
    for (int i = 0; i < 4; ++i)
        retired[retired.size() - 4 + i] =
            static_cast<char>(crc >> (8 * i));
    const std::string stream = telemetry::encodeFrame(sampleLifecycle()) +
                               retired +
                               telemetry::encodeFrame(sampleHeartbeat());
    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.tornFrames(), 0u);
    // A valid frame of a reserved type is not corruption.
    EXPECT_EQ(r.crcErrors(), 0u);
    EXPECT_EQ(r.frames(), 2u);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::Lifecycle);
    EXPECT_EQ(out[1].type, EventType::Heartbeat);
    EXPECT_EQ(out[1].cycles, 123456u);
}

/** A known type whose payload does not decode (a truncated string
 *  under a correct CRC) still counts as damage. */
TEST(TelemetryFraming, MalformedKnownTypeFrameIsCounted)
{
    // The first string's length prefix claims 9 bytes; 2 follow.
    std::string bad;
    const std::string payload = {'\x09', '\0', '\0', '\0', 'c', 'y'};
    const uint32_t len = static_cast<uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i)
        bad.push_back(static_cast<char>(len >> (8 * i)));
    bad.push_back(static_cast<char>(EventType::BudgetUsage));
    bad += payload;
    const uint32_t crc = crc32(bad.data() + 4, bad.size() - 4);
    for (int i = 0; i < 4; ++i)
        bad.push_back(static_cast<char>(crc >> (8 * i)));
    const std::string stream = bad +
                               telemetry::encodeFrame(sampleHeartbeat());
    Reader r;
    std::vector<Event> out;
    r.feed(stream.data(), stream.size(), out);
    EXPECT_FALSE(r.finish());
    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.crcErrors(), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, EventType::Heartbeat);
}

/** Every possible truncation point: whole frames before the cut
 *  decode, a residual tail is discarded and counted as torn, and the
 *  reader never misparses or crashes. This is exactly the kill -9
 *  half-frame scenario at the byte level. */
TEST(TelemetryFraming, TruncationSweepNeverMisparses)
{
    std::vector<std::string> frames = {
        telemetry::encodeFrame(sampleLifecycle()),
        telemetry::encodeFrame(sampleHeartbeat()),
        telemetry::encodeFrame(sampleStats()),
    };
    std::string stream;
    std::vector<size_t> boundaries = {0};
    for (const std::string &f : frames) {
        stream += f;
        boundaries.push_back(stream.size());
    }

    for (size_t cut = 0; cut <= stream.size(); ++cut) {
        Reader r;
        std::vector<Event> out;
        r.feed(stream.data(), cut, out);
        const bool torn = r.finish();

        size_t whole = 0;
        while (whole < frames.size() && boundaries[whole + 1] <= cut)
            ++whole;
        EXPECT_EQ(out.size(), whole) << "cut at byte " << cut;
        EXPECT_EQ(torn, cut != boundaries[whole])
            << "cut at byte " << cut;
        EXPECT_FALSE(r.poisoned()) << "cut at byte " << cut;
        EXPECT_EQ(r.crcErrors(), 0u) << "cut at byte " << cut;
    }
}

/** Any single bit flip past the length prefix fails the CRC; the
 *  frame boundary stays intact, so the next frame still decodes. */
TEST(TelemetryFraming, BodyBitFlipCostsOnlyThatFrame)
{
    const std::string frame = telemetry::encodeFrame(sampleBudget());
    const std::string follower =
        telemetry::encodeFrame(sampleHeartbeat());

    for (size_t byte = 4; byte < frame.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string corrupt = frame;
            corrupt[byte] = static_cast<char>(
                static_cast<unsigned char>(corrupt[byte]) ^
                (1u << bit));
            Reader r;
            std::vector<Event> out;
            r.feed(corrupt.data(), corrupt.size(), out);
            r.feed(follower.data(), follower.size(), out);
            EXPECT_FALSE(r.finish());
            EXPECT_EQ(r.crcErrors(), 1u)
                << "byte " << byte << " bit " << bit;
            ASSERT_EQ(out.size(), 1u)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(out[0].type, EventType::Heartbeat);
            EXPECT_FALSE(r.poisoned());
        }
    }
}

/** An unbelievable length prefix poisons the stream: nothing after
 *  it is trusted (resync would require heuristics that can forge
 *  frames), and the tail counts as torn. */
TEST(TelemetryFraming, OversizeLengthPoisonsStream)
{
    std::string junk;
    const uint32_t bad = telemetry::kMaxFrame + 1;
    junk.append(reinterpret_cast<const char *>(&bad), 4);
    junk += "garbage that should never be parsed";

    Reader r;
    std::vector<Event> out;
    r.feed(junk.data(), junk.size(), out);
    EXPECT_TRUE(r.poisoned());
    EXPECT_EQ(r.tornFrames(), 1u);
    EXPECT_TRUE(out.empty());

    // A poisoned reader ignores even valid frames fed later.
    const std::string good = telemetry::encodeFrame(sampleStats());
    r.feed(good.data(), good.size(), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(r.frames(), 0u);
}

// ------------------------------------------------------------------
// Writer: lossy, non-blocking, self-disabling.
// ------------------------------------------------------------------

double
statValue(const std::string &name)
{
    return stats::Registry::instance().snapshot().value(name);
}

TEST(TelemetryWriter, VanishedReaderSelfDisablesSilently)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]);
    ASSERT_TRUE(w.enabled());

    ::close(fds[0]); // the scheduler died; EPIPE on the next write
    const double disabledBefore =
        statValue("telemetry.writer_disabled");
    w.emit(sampleHeartbeat());
    EXPECT_FALSE(w.enabled());
    EXPECT_EQ(statValue("telemetry.writer_disabled"),
              disabledBefore + 1);

    // Emitting while disabled is a no-op, and the process is alive:
    // SIGPIPE must have been ignored, not delivered.
    w.emit(sampleHeartbeat());
    ::close(fds[1]);
}

TEST(TelemetryWriter, FullPipeDropsFrameButStaysEnabled)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]); // open() switches the fd to O_NONBLOCK

    // Fill to the last byte: an O_NONBLOCK pipe write under PIPE_BUF
    // is all-or-nothing, so any slack would let the frame through.
    std::string filler(4096, 'x');
    while (::write(fds[1], filler.data(), filler.size()) > 0) {}
    while (::write(fds[1], "x", 1) > 0) {}
    ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

    const double droppedBefore =
        statValue("telemetry.frames_dropped");
    w.emit(sampleHeartbeat());
    EXPECT_TRUE(w.enabled());
    EXPECT_EQ(statValue("telemetry.frames_dropped"),
              droppedBefore + 1);

    w.disable();
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(TelemetryWriter, OversizeEventDroppedNotTorn)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    Writer &w = Writer::instance();
    w.open(fds[1]);

    // A pathological snapshot whose frame exceeds kMaxAtomicFrame:
    // putting it on the pipe non-atomically could interleave torn
    // bytes into the stream, so the writer must drop it whole.
    Event big;
    big.type = EventType::StatsSnapshot;
    for (int i = 0; i < 400; ++i)
        big.stats.emplace_back(
            "padding.stat_name_" + std::to_string(i), i * 1.0);
    ASSERT_GT(telemetry::encodeFrame(big).size(),
              telemetry::kMaxAtomicFrame);

    const double droppedBefore =
        statValue("telemetry.frames_dropped");
    w.emit(big);
    EXPECT_TRUE(w.enabled());
    EXPECT_EQ(statValue("telemetry.frames_dropped"),
              droppedBefore + 1);

    // Nothing, not even a prefix, reached the pipe.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    char buf[16];
    EXPECT_EQ(::read(fds[0], buf, sizeof(buf)), -1);
    EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

    w.disable();
    ::close(fds[0]);
    ::close(fds[1]);
}

// ------------------------------------------------------------------
// Faultfs grammar: injected short reads/writes against the framing.
// ------------------------------------------------------------------

TEST(TelemetryFaultfs, InjectedShortWriteLeavesTornDecodableTail)
{
    const std::string dir = tempDir("shortwrite");
    const std::string path = dir + "/stream.bin";
    const std::string whole = telemetry::encodeFrame(sampleStats());
    const std::string half = telemetry::encodeFrame(sampleBudget());

    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(faultfs::writeFull(fd, whole.data(), whole.size()),
              static_cast<ssize_t>(whole.size()));
    // The second frame is cut in half mid-write — the same torn tail
    // a kill -9 at that boundary would leave.
    faultfs::setPlan("write:1:short");
    ssize_t n = faultfs::write(fd, half.data(), half.size());
    faultfs::clearPlan();
    ASSERT_GT(n, 0);
    ASSERT_LT(static_cast<size_t>(n), half.size());
    ::close(fd);

    const std::string bytes = readFile(path);
    Reader r;
    std::vector<Event> out;
    r.feed(bytes.data(), bytes.size(), out);
    EXPECT_TRUE(r.finish());
    EXPECT_EQ(r.tornFrames(), 1u);
    EXPECT_FALSE(r.poisoned());
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].type, EventType::StatsSnapshot);
    std::filesystem::remove_all(dir);
}

TEST(TelemetryFaultfs, InjectedShortReadOnlyDelaysFrames)
{
    const std::string dir = tempDir("shortread");
    const std::string path = dir + "/stream.bin";
    const std::string stream =
        telemetry::encodeFrame(sampleLifecycle()) +
        telemetry::encodeFrame(sampleHeartbeat());
    {
        std::ofstream out(path, std::ios::binary);
        out << stream;
    }

    int fd = ::open(path.c_str(), O_RDONLY, 0);
    ASSERT_GE(fd, 0);
    Reader r;
    std::vector<Event> out;
    char buf[4096];
    faultfs::setPlan("read:1:short");
    for (;;) {
        ssize_t n = faultfs::read(fd, buf, sizeof(buf));
        ASSERT_GE(n, 0);
        if (n == 0)
            break;
        r.feed(buf, static_cast<size_t>(n), out);
    }
    faultfs::clearPlan();
    ::close(fd);

    // A short read fragments delivery but loses nothing: the reader
    // buffers the partial frame across feeds.
    EXPECT_FALSE(r.finish());
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].type, EventType::Lifecycle);
    EXPECT_EQ(out[1].type, EventType::Heartbeat);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------
// End-to-end: real glifs_audit / glifs_batch processes.
// ------------------------------------------------------------------

/**
 * Write a firmware that audits for several heartbeat periods into
 * @p dir: a chain of 72 branches on the untainted, unknown P3IN, each
 * side storing its own constant to the branch's own RAM word. Every
 * merge at a join makes one more word unknown, so the paths after
 * each branch re-explore every later branch: about 80k simulated
 * cycles, and no segment starts from a state an earlier one started
 * from, so the segment memo cannot shorten the run. A worker is
 * therefore reliably still running when its first heartbeats fire.
 */
std::string
writeLongFirmware(const std::string &dir)
{
    const std::string asmFile = dir + "/long.s";
    std::ofstream out(asmFile);
    out << "        jmp task\n        .org 0x80\ntask:\n";
    for (int i = 0; i < 72; ++i) {
        const std::string word = std::to_string(0x0c00 + 2 * i);
        const std::string n = std::to_string(i);
        out << "        mov &0x0004, r4\n"
            << "        tst r4\n"
            << "        jz a" << n << "\n"
            << "        mov #1, &" << word << "\n"
            << "        jmp j" << n << "\n"
            << "a" << n << ":    mov #2, &" << word << "\n"
            << "j" << n << ":    nop\n";
    }
    out << "        halt\n";
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

/** A worker killed -9 mid-run leaves a decodable stream prefix: the
 *  frames written before the kill parse cleanly and the stream never
 *  poisons (frames on a pipe are atomic under kMaxAtomicFrame). */
TEST(TelemetryEndToEnd, SigkillMidRunLeavesDecodableStream)
{
    const std::string dir = tempDir("sigkill");
    // The firmware runs for several heartbeat periods: long enough
    // that the worker is still running when the second frame arrives.
    const std::string asmFile = writeLongFirmware(dir);

    int telPipe[2];
    ASSERT_EQ(::pipe(telPipe), 0);

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::close(telPipe[0]);
        if (telPipe[1] != 3) {
            ::dup2(telPipe[1], 3);
            ::close(telPipe[1]);
        }
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execl(GLIFS_AUDIT_BIN, GLIFS_AUDIT_BIN, asmFile.c_str(),
                "--telemetry-fd", "3", (char *)nullptr);
        ::_exit(127);
    }
    ::close(telPipe[1]);

    // Collect frames until at least two arrive (the immediate
    // lifecycle "started" plus one heartbeat), then kill -9.
    Reader r;
    std::vector<Event> events;
    char buf[4096];
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(20);
    bool killed = false;
    for (;;) {
        struct pollfd pfd = {telPipe[0], POLLIN, 0};
        ::poll(&pfd, 1, 100);
        ssize_t n = ::read(telPipe[0], buf, sizeof(buf));
        if (n > 0)
            r.feed(buf, static_cast<size_t>(n), events);
        else if (n == 0)
            break; // EOF: the killed worker's end closed
        else if (errno != EAGAIN && errno != EINTR)
            break;
        if (!killed &&
            (events.size() >= 2 ||
             std::chrono::steady_clock::now() > deadline)) {
            ::kill(pid, SIGKILL);
            killed = true;
        }
    }
    r.finish();
    ::close(telPipe[0]);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(killed) << "worker exited before it could be killed";
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

    EXPECT_FALSE(r.poisoned());
    EXPECT_EQ(r.crcErrors(), 0u);
    ASSERT_GE(events.size(), 1u);
    EXPECT_EQ(events[0].type, EventType::Lifecycle);
    EXPECT_EQ(events[0].phase, "started");
    std::filesystem::remove_all(dir);
}

/** The acceptance scenario: a live `--jobs 4 --status-file` batch
 *  updates the status JSON with per-job cycle progress *before any
 *  job exits*. Four copies of the long firmware, longer-running than
 *  any registry workload,
 *  registry workload, keep the observation window wide. */
TEST(TelemetryEndToEnd, StatusFileShowsLiveProgressBeforeAnyExit)
{
    const std::string dir = tempDir("livestatus");
    const std::string manifestFile = dir + "/fleet.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch live fleet\n";
        for (int i = 1; i <= 4; ++i)
            out << "job t" << i << "\n    firmware "
                << writeLongFirmware(dir) << "\n";
    }
    const std::string statusFile = dir + "/status.json";

    pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, 1);
            ::dup2(devnull, 2);
        }
        ::execl(GLIFS_BATCH_BIN, GLIFS_BATCH_BIN,
                manifestFile.c_str(), "--jobs", "4", "--no-cache",
                "--quiet", "--work-dir", (dir + "/work").c_str(),
                "--cache-dir", (dir + "/cache").c_str(),
                "--audit-bin", GLIFS_AUDIT_BIN, "--status-file",
                statusFile.c_str(), (char *)nullptr);
        ::_exit(127);
    }

    // Poll the status surface like an external dashboard would:
    // atomic republish means every read sees a complete document.
    bool sawLiveProgress = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            pid = -1;
            break;
        }
        const std::string snap = readFile(statusFile);
        if (snap.find("\"jobs_finished\": 0") != std::string::npos &&
            snap.find("\"state\": \"running\"") !=
                std::string::npos) {
            // A running job with nonzero cycle progress.
            size_t pos = snap.find("\"cycles\": ");
            while (pos != std::string::npos && !sawLiveProgress) {
                if (snap[pos + 10] != '0')
                    sawLiveProgress = true;
                pos = snap.find("\"cycles\": ", pos + 1);
            }
            if (sawLiveProgress)
                break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_TRUE(sawLiveProgress)
        << "status file never showed a running job with cycle "
           "progress while jobs_finished was 0; last snapshot:\n"
        << readFile(statusFile);

    if (pid > 0) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    }
    const std::string final = readFile(statusFile);
    EXPECT_NE(final.find("\"schema\": \"glifs.batch_status.v1\""),
              std::string::npos);
    EXPECT_NE(final.find("\"jobs_finished\": 4"), std::string::npos);
    EXPECT_NE(final.find("\"state\": \"finished\""),
              std::string::npos);
    std::filesystem::remove_all(dir);
}

/** `--trace-merge` yields one Chrome trace with a pid lane and a
 *  process_name record per job, and the batch report aggregates the
 *  workers' final stats snapshots into "worker_stats". Workers sample
 *  their stats at a heartbeat, so one job (the long firmware) runs for
 *  several heartbeat periods. */
TEST(TelemetryEndToEnd, MergedTraceHasPerJobLanesAndWorkerStats)
{
    const std::string dir = tempDir("tracemerge");
    const std::string manifestFile = dir + "/fleet.manifest";
    {
        std::ofstream out(manifestFile);
        out << "batch merge fleet\n"
            << "job long\n    firmware " << writeLongFirmware(dir)
            << "\n"
            << "job thold\n    workload tHold\n";
    }
    const std::string merged = dir + "/merged.json";
    const std::string report = dir + "/report.json";

    std::ostringstream cmd;
    cmd << GLIFS_BATCH_BIN << " " << manifestFile
        << " --jobs 2 --no-cache --quiet"
        << " --work-dir " << dir << "/work"
        << " --cache-dir " << dir << "/cache"
        << " --audit-bin " << GLIFS_AUDIT_BIN
        << " --trace-merge " << merged << " --report " << report
        << " > /dev/null 2>&1";
    const int exitCode = runCmd(cmd.str());
    // tHold has violations: worst worker exit code 1.
    EXPECT_EQ(exitCode, 1);

    const std::string trace = readFile(merged);
    ASSERT_FALSE(trace.empty());
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // One process_name metadata record per job, naming its lane.
    EXPECT_NE(trace.find("{\"name\": \"process_name\", \"ph\": "
                         "\"M\", \"pid\": 1, \"tid\": 1, \"args\": "
                         "{\"name\": \"job long\"}}"),
              std::string::npos);
    EXPECT_NE(trace.find("{\"name\": \"process_name\", \"ph\": "
                         "\"M\", \"pid\": 2, \"tid\": 1, \"args\": "
                         "{\"name\": \"job thold\"}}"),
              std::string::npos);
    // Real worker events landed in both lanes.
    EXPECT_NE(trace.find("\"pid\": 1, \"tid\": 1, \"dur\""),
              std::string::npos);
    EXPECT_NE(trace.find("\"pid\": 2, \"tid\": 1, \"dur\""),
              std::string::npos);
    // No leftover lane from the single-process trace writer.
    EXPECT_EQ(trace.find("\"pid\": 3"), std::string::npos);

    const std::string rep = readFile(report);
    ASSERT_FALSE(rep.empty());
    EXPECT_NE(rep.find("\"worker_stats\""), std::string::npos);
    EXPECT_NE(rep.find("\"engine.cycles\""), std::string::npos);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace glifs
