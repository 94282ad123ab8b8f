/**
 * @file
 * Cross-process worker telemetry (docs/OBSERVABILITY.md, "Cross-
 * process telemetry").
 *
 * A batch worker (`glifs_audit --telemetry-fd N`) streams structured
 * event records to the scheduler over an inherited pipe, so a fleet
 * run can observe per-job progress *while the workers run* instead of
 * waiting for their exit codes and log files. The same records are the
 * wire format the future verification-as-a-service daemon will serve
 * over its socket API (ROADMAP open item 3), so the framing is
 * explicitly versioned and corruption-tolerant.
 *
 * Wire format (little-endian), one frame per event:
 *
 *   u32 payload_len | u8 type | payload | u32 crc32(type + payload)
 *
 * — the frame of src/base/wire.hh, which the batch journal
 * (src/batch/journal.hh) shares, so a torn tail (kill -9 mid-write) or
 * a flipped bit costs at most the damaged frame, never a misparse.
 * Frames are capped at kMaxFrame; the writer additionally keeps every
 * frame within PIPE_BUF so each O_NONBLOCK pipe write is atomic — the
 * stream can end torn (dead writer) but never *interleaves* torn.
 *
 * Delivery is deliberately lossy and non-blocking on the worker side:
 * a full pipe drops the frame (counted), a vanished reader (EPIPE)
 * silently self-disables the writer. Telemetry must never be able to
 * wedge or fail an analysis run.
 */

#ifndef GLIFS_BASE_TELEMETRY_HH
#define GLIFS_BASE_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace glifs::telemetry
{

/** Event record types (the u8 on the wire; gaps stay reserved). */
enum class EventType : uint8_t
{
    Lifecycle = 1,     ///< worker phase transition (started/finished)
    Heartbeat = 2,     ///< periodic progress from the governor poll point
    StatsSnapshot = 3, ///< stats-registry sample (name/value pairs)
    BudgetUsage = 4,   ///< a budget threshold crossing
    // 5 stays reserved: it carried the retired exploration worker
    // fleet's events, which readers now skip as an unknown type.
};

/** Printable name of an event type. */
const char *eventTypeName(EventType t);

/**
 * One decoded telemetry event. A tagged union in spirit: only the
 * field group matching `type` is meaningful.
 */
struct Event
{
    EventType type = EventType::Heartbeat;

    // Lifecycle: phase is "started" or "finished"; exitCode/verdict
    // are set on "finished" (exitCode -1 = not yet known).
    std::string phase;
    int exitCode = -1;
    std::string verdict;

    // Heartbeat (mirrors GovernorProgress).
    uint64_t cycles = 0;
    double elapsedSeconds = 0;
    double cyclesPerSec = 0;
    uint64_t frontier = 0;
    uint64_t states = 0;
    uint64_t rssBytes = 0;
    double budgetUsed = 0;

    // StatsSnapshot: dotted stat name -> value.
    std::vector<std::pair<std::string, double>> stats;

    // BudgetUsage: resourceKindName / "soft"|"hard" / free-form detail.
    std::string resource;
    std::string severity;
    std::string detail;
};

/** Upper bound replay will believe for one frame's payload. */
constexpr uint32_t kMaxFrame = 1u << 16;

/**
 * Largest frame the writer will put on a pipe: POSIX guarantees
 * O_NONBLOCK pipe writes up to PIPE_BUF bytes are atomic, so staying
 * under it means a live stream never carries a partially-written
 * frame. Oversized events (a pathological stats snapshot) are dropped
 * and counted rather than torn.
 */
constexpr size_t kMaxAtomicFrame = 4096;

/** Encode @p e as one wire frame (header + payload + CRC). */
std::string encodeFrame(const Event &e);

/**
 * The worker-side emitter: a process-global, fire-and-forget writer
 * over an inherited fd (glifs_audit --telemetry-fd). All failure modes
 * degrade to dropped events or a disabled writer — never an error the
 * analysis can observe.
 */
class Writer
{
  public:
    static Writer &instance();

    /**
     * Start emitting over @p fd: the fd is switched to O_NONBLOCK and
     * SIGPIPE is ignored process-wide (a vanished reader must surface
     * as EPIPE, not kill the worker). An unusable fd self-disables on
     * the first emit.
     */
    void open(int fd);

    bool enabled() const { return fd >= 0; }

    /**
     * Frame and write @p e. Drops the event when the pipe is full or
     * the frame exceeds kMaxAtomicFrame; disables the writer on EPIPE
     * or any other write error.
     */
    void emit(const Event &e);

    /** Stop emitting (the fd is not closed; the caller owns it). */
    void disable() { fd = -1; }

  private:
    int fd = -1;
};

/**
 * The scheduler-side incremental decoder for one worker's stream.
 * Feed it whatever read() returned; it buffers partial frames across
 * feeds, validates each CRC, skips frames it cannot believe, and
 * reports what it saw through the counters.
 */
class Reader
{
  public:
    /** Decode everything complete in @p data, appending to @p out. */
    void feed(const void *data, size_t n, std::vector<Event> &out);

    /**
     * The stream ended (EOF). Returns true if undecodable bytes were
     * left behind — a half-written final frame from a killed worker —
     * which are discarded and counted as torn.
     */
    bool finish();

    uint64_t frames() const { return frameCount; }
    /** Frames whose CRC failed, or whose known type did not decode.
     *  A well-formed frame of an unknown type is skipped uncounted. */
    uint64_t crcErrors() const { return crcErrorCount; }
    uint64_t tornFrames() const { return tornCount; }
    /** True once a frame header was unbelievable (stream abandoned). */
    bool poisoned() const { return poisonedFlag; }

  private:
    std::string buf;
    uint64_t frameCount = 0;
    uint64_t crcErrorCount = 0;
    uint64_t tornCount = 0;
    bool poisonedFlag = false;
};

} // namespace glifs::telemetry

#endif // GLIFS_BASE_TELEMETRY_HH
