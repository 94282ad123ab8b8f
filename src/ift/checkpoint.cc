#include "ift/checkpoint.hh"

#include <chrono>
#include <fstream>
#include <iterator>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "base/wire.hh"

namespace glifs
{

namespace
{

constexpr char kMagic[8] = {'G', 'L', 'F', 'S', 'C', 'K', 'P', 'T'};

/** Snapshot size/latency accounting (docs/OBSERVABILITY.md). */
struct CheckpointStats
{
    stats::Scalar saves{"checkpoint.saves", "snapshots written"};
    stats::Scalar loads{"checkpoint.loads", "snapshots loaded"};
    stats::Gauge bytesWritten{"checkpoint.bytes_written",
                              "size of the last snapshot written"};
    stats::Gauge bytesRead{"checkpoint.bytes_read",
                           "size of the last snapshot loaded"};
    stats::Gauge saveSeconds{"checkpoint.save_seconds",
                             "wall time of the last save"};
    stats::Gauge loadSeconds{"checkpoint.load_seconds",
                             "wall time of the last load"};
};

CheckpointStats &
ckptStats()
{
    static CheckpointStats s;
    return s;
}

void
putPlane(wire::Writer &w, const BitPlane &p)
{
    w.u64(p.size());
    for (uint64_t word : p.words())
        w.u64(word);
}

void
putState(wire::Writer &w, const SymState &s)
{
    putPlane(w, s.knownPlane());
    putPlane(w, s.valuePlane());
    putPlane(w, s.taintPlane());
}

/*
 * The decoder trusts no size it reads: the CRC only proves the body is
 * the one that was written, not that its writer was sane. Every count
 * and plane length is bounded by the bytes left before anything is
 * allocated, and every enum byte by its range.
 */

/** A section's entry count; each entry takes at least @p minEntry
 *  bytes. */
uint32_t
sectionSize(wire::Reader &r, size_t minEntry)
{
    const uint32_t n = r.u32();
    if (n > r.remaining() / minEntry)
        GLIFS_RECOVERABLE("checkpoint: implausible section size ", n);
    return n;
}

template <typename Enum>
Enum
readEnum(wire::Reader &r, Enum last, const char *what)
{
    const uint8_t v = r.u8();
    if (v > static_cast<uint8_t>(last))
        GLIFS_RECOVERABLE("checkpoint: bad ", what, " ", unsigned{v});
    return static_cast<Enum>(v);
}

BitPlane
readPlane(wire::Reader &r)
{
    const uint64_t nbits = r.u64();
    if (nbits > r.remaining() / 8 * 64)
        GLIFS_RECOVERABLE("checkpoint: implausible plane size ", nbits);
    BitPlane p(static_cast<size_t>(nbits));
    for (uint64_t &word : p.words())
        word = r.u64();
    return p;
}

SymState
readState(wire::Reader &r)
{
    BitPlane k = readPlane(r);
    BitPlane v = readPlane(r);
    BitPlane t = readPlane(r);
    if (k.size() != v.size() || v.size() != t.size())
        GLIFS_RECOVERABLE("checkpoint: state plane size mismatch");
    SymState s;
    s.setPlanes(std::move(k), std::move(v), std::move(t));
    return s;
}

} // namespace

uint64_t
checkpointFingerprint(const ProgramImage &image, size_t slots,
                      size_t nets)
{
    // FNV-1a over the image words, then the layout geometry.
    uint64_t h = 14695981039346656037ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xFF;
            h *= 1099511628211ULL;
        }
    };
    for (uint16_t w : image.words)
        mix(w);
    mix(image.usedWords);
    mix(slots);
    mix(nets);
    return h;
}

void
EngineCheckpoint::encodeBody(std::string &out) const
{
    wire::Writer w(out);
    w.u64(fingerprint);
    w.u64(totalCycles);
    w.u64(pathsExplored);
    w.u64(branchPoints);
    w.u64(merges);
    w.u64(subsumptions);
    w.u8(static_cast<uint8_t>(level));

    w.u32(static_cast<uint32_t>(degradations.size()));
    for (const Degradation &d : degradations) {
        w.u8(static_cast<uint8_t>(d.level));
        w.u8(static_cast<uint8_t>(d.trigger));
        w.u8(static_cast<uint8_t>(d.severity));
        w.u64(d.cycle);
        w.u16(d.instrAddr);
        w.str(d.detail);
    }

    w.u32(static_cast<uint32_t>(violations.size()));
    for (const Violation &v : violations) {
        w.u8(static_cast<uint8_t>(v.kind));
        w.u16(v.instrAddr);
        w.u64(v.firstCycle);
        w.u32(v.count);
        w.u8(v.maskable ? 1 : 0);
        w.str(v.detail);
    }

    putPlane(w, everTainted);

    w.u32(static_cast<uint32_t>(table.size()));
    for (const auto &[key, state] : table) {
        w.u32(key);
        putState(w, state);
    }

    w.u32(static_cast<uint32_t>(frontier.size()));
    for (const auto &[state, node] : frontier) {
        putState(w, state);
        w.u32(node);
    }

    w.u32(static_cast<uint32_t>(tree.size()));
    for (const ExecNode &n : tree) {
        w.u32(n.id);
        w.u32(static_cast<uint32_t>(n.parent));
        w.u16(n.startPc);
        w.u64(n.cycles);
        w.u16(n.endInstr);
        w.u8(static_cast<uint8_t>(n.end));
    }
}

EngineCheckpoint
EngineCheckpoint::decodeBody(std::string_view body)
{
    wire::Reader r(body);

    EngineCheckpoint c;
    c.fingerprint = r.u64();
    c.totalCycles = r.u64();
    c.pathsExplored = r.u64();
    c.branchPoints = r.u64();
    c.merges = r.u64();
    c.subsumptions = r.u64();
    c.level = readEnum(r, DegradeLevel::PartialStop, "degrade level");

    // Smallest entry: three enum bytes, cycle, instruction, no detail.
    c.degradations.resize(sectionSize(r, 3 + 8 + 2 + 4));
    for (Degradation &d : c.degradations) {
        d.level = readEnum(r, DegradeLevel::PartialStop, "degrade level");
        d.trigger = readEnum(r, ResourceKind::Interrupt, "trigger");
        d.severity = readEnum(r, BudgetSeverity::Hard, "severity");
        d.cycle = r.u64();
        d.instrAddr = r.u16();
        d.detail = r.str();
    }

    // Smallest entry: kind, instruction, first cycle, count, maskable,
    // no detail.
    c.violations.resize(sectionSize(r, 1 + 2 + 8 + 4 + 1 + 4));
    for (Violation &v : c.violations) {
        v.kind = readEnum(r, ViolationKind::WatchdogTainted,
                          "violation kind");
        v.instrAddr = r.u16();
        v.firstCycle = r.u64();
        v.count = r.u32();
        v.maskable = r.u8() != 0;
        v.detail = r.str();
    }

    c.everTainted = readPlane(r);

    // Smallest entry: key and three empty planes.
    const uint32_t ntable = sectionSize(r, 4 + 3 * 8);
    c.table.reserve(ntable);
    for (uint32_t i = 0; i < ntable; ++i) {
        const uint32_t key = r.u32();
        c.table.emplace_back(key, readState(r));
    }

    // Smallest entry: three empty planes and the node.
    const uint32_t nfront = sectionSize(r, 3 * 8 + 4);
    c.frontier.reserve(nfront);
    for (uint32_t i = 0; i < nfront; ++i) {
        SymState s = readState(r);
        c.frontier.emplace_back(std::move(s), r.u32());
    }

    // Entry: id, parent, start PC, cycles, end instruction, end.
    c.tree.resize(sectionSize(r, 4 + 4 + 2 + 8 + 2 + 1));
    for (ExecNode &n : c.tree) {
        n.id = r.u32();
        n.parent = static_cast<int32_t>(r.u32());
        n.startPc = r.u16();
        n.cycles = r.u64();
        n.endInstr = r.u16();
        n.end = readEnum(r, PathEnd::Degraded, "path end");
    }

    if (r.bad())
        GLIFS_RECOVERABLE("checkpoint: truncated body");
    return c;
}

void
EngineCheckpoint::save(const std::string &path) const
{
    GLIFS_TRACE_SCOPE("checkpoint", "save");
    const auto t0 = std::chrono::steady_clock::now();

    // Serialize the body to a buffer first so its CRC-32 can sit in
    // the header: load() then verifies the whole body before parsing
    // a byte of it.
    std::string body;
    encodeBody(body);
    std::string header(kMagic, sizeof(kMagic));
    wire::Writer w(header);
    w.u32(kVersion);
    w.u32(crc32(body));

    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        GLIFS_RECOVERABLE("checkpoint: cannot write ", path);
    out << header << body;
    out.flush();
    if (!out)
        GLIFS_RECOVERABLE("checkpoint: write to ", path, " failed");

    CheckpointStats &st = ckptStats();
    ++st.saves;
    st.bytesWritten.set(static_cast<double>(out.tellp()));
    st.saveSeconds.set(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
}

EngineCheckpoint
EngineCheckpoint::load(const std::string &path)
{
    GLIFS_TRACE_SCOPE("checkpoint", "load");
    const auto t0 = std::chrono::steady_clock::now();
    std::ifstream in(path, std::ios::binary);
    if (!in)
        GLIFS_RECOVERABLE("checkpoint: cannot open ", path);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    wire::Reader r(file);
    if (r.bytes(sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic)))
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " is not a glifs checkpoint");
    const uint32_t version = r.u32();
    const uint32_t wantCrc = r.u32();
    if (r.bad())
        GLIFS_RECOVERABLE("checkpoint: truncated file");
    if (version != kVersion) {
        GLIFS_RECOVERABLE("checkpoint: version ", version,
                          " unsupported (expected ", kVersion, ")");
    }

    // Verify the body before parsing: a bit flip anywhere must become
    // this one error, not a semi-plausible parse.
    const std::string_view body = r.bytes(r.remaining());
    if (crc32(body.data(), body.size()) != wantCrc)
        GLIFS_RECOVERABLE("checkpoint: ", path,
                          " failed its integrity check (corrupt or "
                          "truncated body)");
    EngineCheckpoint c = decodeBody(body);

    CheckpointStats &st = ckptStats();
    ++st.loads;
    st.bytesRead.set(static_cast<double>(file.size()));
    st.loadSeconds.set(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    return c;
}

} // namespace glifs
