#include "base/telemetry.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include "base/stats.hh"
#include "base/wire.hh"

namespace glifs::telemetry
{

namespace
{

/** Worker-side emission counters (docs/OBSERVABILITY.md). */
struct WriterStats
{
    stats::Scalar written{"telemetry.frames_written",
                          "telemetry frames written to the "
                          "scheduler pipe"};
    stats::Scalar dropped{"telemetry.frames_dropped",
                          "telemetry frames dropped (pipe full or "
                          "oversized frame)"};
    stats::Scalar disabled{"telemetry.writer_disabled",
                           "telemetry writers self-disabled on a "
                           "write error (EPIPE: reader gone)"};
};

WriterStats &
writerStats()
{
    static WriterStats s;
    return s;
}

std::string
encodePayload(const Event &e)
{
    std::string p;
    wire::Writer w(p);
    switch (e.type) {
      case EventType::Lifecycle:
        w.str(e.phase);
        w.u32(static_cast<uint32_t>(e.exitCode));
        w.str(e.verdict);
        break;
      case EventType::Heartbeat:
        w.u64(e.cycles);
        w.real(e.elapsedSeconds);
        w.real(e.cyclesPerSec);
        w.u64(e.frontier);
        w.u64(e.states);
        w.u64(e.rssBytes);
        w.real(e.budgetUsed);
        break;
      case EventType::StatsSnapshot:
        w.u32(static_cast<uint32_t>(e.stats.size()));
        for (const auto &[name, value] : e.stats) {
            w.str(name);
            w.real(value);
        }
        break;
      case EventType::BudgetUsage:
        w.str(e.resource);
        w.str(e.severity);
        w.str(e.detail);
        break;
    }
    return p;
}

/** How a well-framed payload decoded. */
enum class Decoded
{
    Ok,
    UnknownType, ///< a type this reader does not know: skip it
    Malformed,   ///< a known type whose bytes do not parse
};

/** Decode one payload of frame type @p type into @p out. */
Decoded
decodePayload(uint8_t type, std::string_view payload, Event &out)
{
    wire::Reader r(payload);
    switch (static_cast<EventType>(type)) {
      case EventType::Lifecycle:
        out.type = EventType::Lifecycle;
        out.phase = r.str();
        out.exitCode = static_cast<int>(r.u32());
        out.verdict = r.str();
        break;
      case EventType::Heartbeat:
        out.type = EventType::Heartbeat;
        out.cycles = r.u64();
        out.elapsedSeconds = r.real();
        out.cyclesPerSec = r.real();
        out.frontier = r.u64();
        out.states = r.u64();
        out.rssBytes = r.u64();
        out.budgetUsed = r.real();
        break;
      case EventType::StatsSnapshot: {
        out.type = EventType::StatsSnapshot;
        // Each entry takes at least a name length and a value.
        const uint32_t n = r.u32();
        if (n > r.remaining() / 12)
            return Decoded::Malformed;
        out.stats.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
            std::string name = r.str();
            double value = r.real();
            out.stats.emplace_back(std::move(name), value);
        }
        break;
      }
      case EventType::BudgetUsage:
        out.type = EventType::BudgetUsage;
        out.resource = r.str();
        out.severity = r.str();
        out.detail = r.str();
        break;
      default:
        return Decoded::UnknownType; // stay forward-compatible
    }
    return r.bad() ? Decoded::Malformed : Decoded::Ok;
}

} // namespace

const char *
eventTypeName(EventType t)
{
    switch (t) {
      case EventType::Lifecycle: return "lifecycle";
      case EventType::Heartbeat: return "heartbeat";
      case EventType::StatsSnapshot: return "stats";
      case EventType::BudgetUsage: return "budget";
    }
    return "?";
}

std::string
encodeFrame(const Event &e)
{
    std::string frame;
    wire::appendFrame(frame, static_cast<uint8_t>(e.type),
                      encodePayload(e));
    return frame;
}

Writer &
Writer::instance()
{
    // Leaked like the Tracer/Registry singletons: emission must stay
    // legal from static-destructor-time code paths.
    static Writer *w = new Writer;
    return *w;
}

void
Writer::open(int newFd)
{
    // A vanished reader must surface as EPIPE on write, not SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
    int flags = ::fcntl(newFd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(newFd, F_SETFL, flags | O_NONBLOCK) < 0) {
        ++writerStats().disabled;
        fd = -1;
        return;
    }
    fd = newFd;
}

void
Writer::emit(const Event &e)
{
    if (fd < 0)
        return;
    std::string frame = encodeFrame(e);
    if (frame.size() > kMaxAtomicFrame) {
        ++writerStats().dropped;
        return;
    }
    // Raw ::write, not faultfs: telemetry is advisory, and routing it
    // through the fault plan would perturb the crash-recovery sweeps'
    // deterministic write counters in every worker.
    while (true) {
        ssize_t n = ::write(fd, frame.data(), frame.size());
        if (n == static_cast<ssize_t>(frame.size())) {
            ++writerStats().written;
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            // Pipe full: the scheduler fell behind. Heartbeats are
            // periodic, so dropping is strictly better than blocking
            // the analysis loop.
            ++writerStats().dropped;
            return;
        }
        // EPIPE (reader gone), EBADF (no pipe inherited), or a short
        // write that should be impossible under kMaxAtomicFrame: the
        // channel is unusable, degrade silently to a no-op.
        ++writerStats().disabled;
        fd = -1;
        return;
    }
}

void
Reader::feed(const void *data, size_t n, std::vector<Event> &out)
{
    if (poisonedFlag)
        return; // desynced: discard the rest of the stream
    buf.append(static_cast<const char *>(data), n);

    std::string_view rest(buf);
    while (true) {
        const wire::Frame f = wire::parseFrame(rest, kMaxFrame);
        if (f.status == wire::FrameStatus::Incomplete)
            break; // wait for more bytes
        if (f.status == wire::FrameStatus::TooLong) {
            // An unbelievable length means the length field itself is
            // damaged; the frame boundary is lost and nothing after
            // this point can be trusted.
            poisonedFlag = true;
            ++tornCount;
            buf.clear();
            return;
        }
        rest.remove_prefix(f.bytes);
        if (f.status == wire::FrameStatus::BadCrc) {
            // Payload damage with an intact boundary: skip just this
            // frame and keep decoding the stream.
            ++crcErrorCount;
            continue;
        }
        Event e;
        // An unknown (or reserved) type is a valid frame from a newer
        // or older writer, not damage: skip it uncounted.
        switch (decodePayload(f.type, f.payload, e)) {
          case Decoded::Ok:
            ++frameCount, out.push_back(std::move(e));
            break;
          case Decoded::UnknownType:
            break;
          case Decoded::Malformed:
            ++crcErrorCount;
            break;
        }
    }
    buf.erase(0, buf.size() - rest.size());
}

bool
Reader::finish()
{
    if (buf.empty())
        return false;
    ++tornCount;
    buf.clear();
    return true;
}

} // namespace glifs::telemetry
