/**
 * @file
 * The traced layer replay of the audit benchmark.
 *
 * For each firmware (with its policy file) it:
 *
 *  1. times the audit's set-up calls (Soc construction, assembly and
 *     PathSim construction, which compiles the netlist);
 *  2. harvests real segment start states: the serial engine runs as a
 *     chain of resumed runs that stop at seeded cycle cuts with
 *     EngineConfig::checkpointOnStop, and every frontier entry of every
 *     checkpoint becomes a replay start, paired with the state table of
 *     the checkpoint it was first seen in;
 *  3. replays segments from those starts in seeded order, calling the
 *     layers' public functions in the order PathSim::runSegment does
 *     (POR forks included) inside spans, then the per-segment calls of
 *     the table visit and of the fleet's work shipping (state digest,
 *     checkpoint encode and decode);
 *  4. runs PathSim::runSegment untraced on the same start and requires
 *     an identical result (cycles, end state, violations, forks, taint).
 *
 * Spans are kept in memory -- layer, start, end, parent span and one
 * id per segment -- and written to the --out file when the run ends.
 * A span's self time is its duration minus its children's. The layer
 * metrics go to stdout as one JSON object.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "assembler/assembler.hh"
#include "explore/protocol.hh"
#include "ift/checkpoint.hh"
#include "ift/engine.hh"
#include "ift/path_sim.hh"
#include "ift/policy_file.hh"
#include "ift/state_table.hh"
#include "soc/soc.hh"
#include "tool.hh"

namespace perfbench
{

namespace
{

using namespace glifs;

/** Span names. The three `replay.*` layers are the roots. */
enum Layer : uint16_t
{
    ReplaySetup,
    ReplaySegment,
    ReplayPost,
    SocBuild,
    AsmAssemble,
    SimCompile,
    StateRestore,
    PathInputs,
    SimEval,
    PathTaint,
    CheckerCycle,
    SimClockEdge,
    StateCapture,
    PathPcProbe,
    TableVisit,
    CkptEncode,
    CkptDecode,
    ExploreDigest,
    kNumLayers
};

const char *const kLayerNames[kNumLayers] = {
    "replay.setup",          "replay.segment",
    "replay.post",           "soc.build",
    "assembler.assemble",    "sim.compile",
    "ift.state.restore",     "ift.path.inputs",
    "sim.eval",              "ift.path.taint",
    "ift.checker.cycle",     "sim.clock_edge",
    "ift.state.capture",     "ift.path.pc_probe",
    "ift.state_table.visit", "ift.checkpoint.encode",
    "ift.checkpoint.decode", "explore.digest",
};

constexpr uint32_t kNoParent = UINT32_MAX;

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SpanRecord
{
    uint16_t layer;
    uint32_t parent;
    uint32_t segment;
    int64_t startNs;
    int64_t endNs;
};

/** In-memory span store; spans nest through the stack of open ones. */
class SpanLog
{
  public:
    uint32_t segment = 0; ///< id stamped on spans opened from now on

    uint32_t
    open(Layer layer)
    {
        const uint32_t parent = stack.empty() ? kNoParent : stack.back();
        const auto idx = static_cast<uint32_t>(recs.size());
        recs.push_back({layer, parent, segment, nowNs(), 0});
        stack.push_back(idx);
        return idx;
    }

    void
    close(uint32_t idx)
    {
        recs[idx].endNs = nowNs();
        stack.pop_back();
    }

    const std::vector<SpanRecord> &spans() const { return recs; }

  private:
    std::vector<SpanRecord> recs;
    std::vector<uint32_t> stack;
};

/** Scoped span. */
class Span
{
  public:
    Span(SpanLog &l, Layer layer) : log(l), idx(l.open(layer)) {}
    ~Span() { log.close(idx); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanLog &log;
    uint32_t idx;
};

/**
 * PathSim::runSegment without hooks (as workers run it), with a span
 * around every layer call. Must stay call-for-call in step with
 * runSegment; the equality check against it guards that.
 */
SegmentResult
replaySegment(PathSim &ps, const SymState &start, SpanLog &log)
{
    SegmentResult res;
    if (ps.cfg.trackTaintedNets)
        res.taintDelta = BitPlane(ps.soc.netlist().numNets());
    ViolationLog seglog;
    const SocProbes &prb = ps.soc.probes();

    {
        Span s(log, StateRestore);
        start.restore(ps.layout, ps.sim.state());
        ps.sim.markAllDirty();
    }
    {
        Span s(log, PathPcProbe);
        if (!ps.statePcXBits(start).empty())
            throw std::runtime_error("segment start with unknown PC");
    }

    while (true) {
        {
            Span s(log, PathInputs);
            ps.setInputs(false);
        }
        {
            Span s(log, SimEval);
            ps.sim.evalComb();
        }
        ++res.cycles;
        if (ps.cfg.trackTaintedNets) {
            Span s(log, PathTaint);
            ps.accumulateTaint(res.taintDelta);
        }

        const uint16_t instr_addr =
            ps.busValue(prb.instrAddrQ, "instruction address");
        {
            Span s(log, CheckerCycle);
            ps.checker.checkCycle(ps.sim, instr_addr, res.cycles, seglog);
        }

        const uint16_t fsm = ps.busValue(prb.stateQ, "fsm state");

        if (fsm == static_cast<uint16_t>(CoreState::Halt)) {
            res.halted = true;
            res.endInstr = instr_addr;
            res.endFsm = fsm;
            ps.checker.checkMemoryInvariant(ps.sim, instr_addr,
                                            res.cycles, seglog);
            res.violations = seglog.list();
            return res;
        }

        std::optional<Instr> instr = ps.instrAt(instr_addr);
        bool is_commit =
            fsm == static_cast<uint16_t>(CoreState::Call) ||
            fsm == static_cast<uint16_t>(CoreState::Ret) ||
            (fsm == static_cast<uint16_t>(CoreState::Exec) && instr &&
             (instr->op == Op::J || instr->op == Op::Br));

        Signal por = ps.sim.netValue(prb.porNet);
        if (!por.known()) {
            SymState pre(ps.layout);
            {
                Span s(log, StateCapture);
                pre.capture(ps.layout, ps.sim.state());
            }
            ps.sim.setNet(prb.porNet, Signal{Tern::One, por.taint});
            {
                Span s(log, SimClockEdge);
                ps.sim.clockEdge();
            }
            SymState fired(ps.layout);
            {
                Span s(log, StateCapture);
                fired.capture(ps.layout, ps.sim.state());
            }
            {
                Span s(log, PathPcProbe);
                if (!ps.statePcXBits(fired).empty())
                    throw std::runtime_error(
                        "POR branch left the PC unknown");
            }
            const uint16_t startPc = ps.statePcBase(fired);
            res.porForks.push_back({std::move(fired), startPc});

            {
                Span s(log, StateRestore);
                pre.restore(ps.layout, ps.sim.state());
                ps.sim.markAllDirty();
            }
            {
                Span s(log, PathInputs);
                ps.setInputs(false);
            }
            {
                Span s(log, SimEval);
                ps.sim.evalComb();
            }
            ps.sim.setNet(prb.porNet, Signal{Tern::Zero, por.taint});
        }

        {
            Span s(log, SimClockEdge);
            ps.sim.clockEdge();
        }

        SymState cur(ps.layout);
        {
            Span s(log, StateCapture);
            cur.capture(ps.layout, ps.sim.state());
        }
        bool pc_unknown;
        {
            Span s(log, PathPcProbe);
            pc_unknown = !ps.statePcXBits(cur).empty();
        }

        if (!is_commit && !pc_unknown)
            continue;
        if (ps.cfg.disableMerging && !pc_unknown)
            continue;

        res.end = std::move(cur);
        res.endInstr = instr_addr;
        res.endFsm = fsm;
        res.pcUnknown = pc_unknown;
        res.violations = seglog.list();
        return res;
    }
}

bool
sameViolations(const std::vector<Violation> &a,
               const std::vector<Violation> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].instrAddr != b[i].instrAddr ||
            a[i].firstCycle != b[i].firstCycle ||
            a[i].count != b[i].count || a[i].maskable != b[i].maskable ||
            a[i].detail != b[i].detail) {
            return false;
        }
    }
    return true;
}

bool
sameSegment(const SegmentResult &a, const SegmentResult &b)
{
    if (a.cycles != b.cycles || !(a.end == b.end) ||
        a.endInstr != b.endInstr || a.endFsm != b.endFsm ||
        a.halted != b.halted || a.pcUnknown != b.pcUnknown ||
        a.stopped != b.stopped || a.killed != b.killed ||
        !(a.taintDelta == b.taintDelta) ||
        !sameViolations(a.violations, b.violations) ||
        a.porForks.size() != b.porForks.size()) {
        return false;
    }
    for (size_t i = 0; i < a.porForks.size(); ++i) {
        if (!(a.porForks[i].fired == b.porForks[i].fired) ||
            a.porForks[i].startPc != b.porForks[i].startPc) {
            return false;
        }
    }
    return true;
}

/** Replay starts harvested from one firmware's checkpoints. */
struct Harvest
{
    std::vector<SymState> starts;
    std::vector<size_t> tableOf;    ///< per start: index into tables
    std::vector<StateTable> tables; ///< per checkpoint
    uint64_t cycles = 0;            ///< cycles of the whole chain
    bool completed = false;
};

/**
 * Run the serial engine as a chain of runs stopped at seeded cycle cuts
 * (mean @p stride cycles apart) and resumed from their checkpoints,
 * collecting every frontier entry once. Entries are told apart by their
 * execution-tree node, not by content: equal states reached on
 * different paths are each simulated by the serial engine, so each is
 * replayed.
 */
Harvest
harvest(const Soc &soc, const Policy &policy, const ProgramImage &image,
        uint64_t stride, std::mt19937_64 &rng)
{
    Harvest h;
    EngineConfig cfg;
    cfg.checkpointOnStop = true;
    std::shared_ptr<EngineCheckpoint> resume;
    std::unordered_set<uint32_t> seen; // execution-tree nodes
    uint64_t cut = 0;
    while (true) {
        cut += stride / 2 + rng() % (stride + 1);
        cfg.budgets.hardCycles = cut;
        EngineResult r = IftEngine(soc, policy, cfg).run(image,
                                                         resume.get());
        if (!r.checkpoint) {
            h.cycles = r.cyclesSimulated;
            h.completed = r.completed;
            return h;
        }
        resume = r.checkpoint;
        StateTable &table = h.tables.emplace_back();
        for (const auto &[key, state] : resume->table)
            table.insertRestored(key, state);
        for (const auto &[state, node] : resume->frontier) {
            if (!seen.insert(node).second)
                continue;
            h.starts.push_back(state);
            h.tableOf.push_back(h.tables.size() - 1);
        }
    }
}

/** Totals the replay of all firmware adds up. */
struct Totals
{
    uint64_t segments = 0;
    uint64_t cycles = 0;
    uint64_t mismatches = 0;
    uint64_t encodedBytes = 0;
    int64_t referenceNs = 0; ///< untraced runSegment time
};

/** One firmware: set-up, harvest, then replay for @p budget_s. */
std::string
replayFirmware(const std::string &fw_path, const std::string &policy_path,
               uint64_t stride, double budget_s, std::mt19937_64 &rng,
               SpanLog &log, Totals &tot)
{
    const std::string source = readTextFile(fw_path);
    const Policy policy = parsePolicy(readTextFile(policy_path));
    const EngineConfig cfg;

    std::unique_ptr<Soc> soc;
    ProgramImage image;
    std::unique_ptr<PathSim> ps;
    {
        ++log.segment;
        Span root(log, ReplaySetup);
        {
            Span s(log, SocBuild);
            soc = std::make_unique<Soc>();
        }
        {
            Span s(log, AsmAssemble);
            image = assembleSource(source);
        }
        {
            Span s(log, SimCompile);
            ps = std::make_unique<PathSim>(*soc, policy, cfg, image);
        }
    }
    ps->loadProgram();

    Harvest h = harvest(*soc, policy, image, stride, rng);
    if (!h.completed)
        throw std::runtime_error("harvest of " + fw_path +
                                 " did not complete");

    std::vector<size_t> order(h.starts.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);

    const uint64_t fingerprint = checkpointFingerprint(
        image, ps->layout.slots(), soc->netlist().numNets());
    std::string buf;
    const int64_t t0 = nowNs();
    size_t replayed = 0;
    for (size_t i : order) {
        if (replayed > 0 && (nowNs() - t0) * 1e-9 >= budget_s)
            break;
        const SymState &start = h.starts[i];
        ++log.segment;

        // Alternate which of the pair runs first, so neither always
        // finds the caches warmed by the other.
        SegmentResult traced;
        SegmentResult reference;
        for (int leg = 0; leg < 2; ++leg) {
            if ((leg == 0) == (replayed % 2 == 0)) {
                Span root(log, ReplaySegment);
                traced = replaySegment(*ps, start, log);
            } else {
                const int64_t r0 = nowNs();
                reference = ps->runSegment(start);
                tot.referenceNs += nowNs() - r0;
            }
        }
        if (!sameSegment(traced, reference))
            ++tot.mismatches;
        ++replayed;
        tot.cycles += traced.cycles;

        EngineCheckpoint unit;
        unit.fingerprint = fingerprint;
        unit.frontier.emplace_back(start, 0);
        SymState end = traced.end;
        Span root(log, ReplayPost);
        if (!traced.halted) {
            const uint32_t key =
                (static_cast<uint32_t>(traced.endInstr) << 4) |
                traced.endFsm;
            Span s(log, TableVisit);
            h.tables[h.tableOf[i]].visit(key, end);
        }
        {
            Span s(log, ExploreDigest);
            explore::stateDigest(start);
        }
        buf.clear();
        {
            Span s(log, CkptEncode);
            unit.encodeBody(buf);
        }
        tot.encodedBytes += buf.size();
        {
            Span s(log, CkptDecode);
            EngineCheckpoint::decodeBody(buf);
        }
    }
    tot.segments += replayed;

    std::ostringstream oss;
    oss << "{\"firmware\": \"" << fw_path << "\", \"harvest_cycles\": "
        << h.cycles << ", \"checkpoints\": " << h.tables.size()
        << ", \"starts\": " << h.starts.size()
        << ", \"replayed\": " << replayed << "}";
    return oss.str();
}

double
medianUs(std::vector<int64_t> &ns)
{
    if (ns.empty())
        return 0.0;
    const size_t mid = ns.size() / 2;
    std::nth_element(ns.begin(), ns.begin() + mid, ns.end());
    return ns[mid] * 1e-3;
}

void
writeSpans(const std::string &path, const SpanLog &log)
{
    std::string out = "{\"layers\": [";
    for (int l = 0; l < kNumLayers; ++l) {
        out += l ? ", \"" : "\"";
        out += kLayerNames[l];
        out += '"';
    }
    out += "],\n\"columns\": [\"layer\", \"parent\", \"segment\", "
           "\"start_ns\", \"end_ns\"],\n\"spans\": [\n";
    char line[128];
    const std::vector<SpanRecord> &spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::snprintf(line, sizeof(line),
                      "[%u, %" PRId64 ", %u, %" PRId64 ", %" PRId64 "]%s\n",
                      unsigned(s.layer),
                      s.parent == kNoParent ? int64_t(-1)
                                            : int64_t(s.parent),
                      s.segment, s.startNs, s.endNs,
                      i + 1 < spans.size() ? "," : "");
        out += line;
    }
    out += "]}\n";
    writeTextFile(path, out);
}

uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    size_t used = 0;
    const unsigned long long v = std::stoull(text, &used);
    if (used != text.size())
        throw std::runtime_error("bad value for " + flag + ": " + text);
    return v;
}

} // namespace

int
replayMain(const std::vector<std::string> &args)
{
    uint64_t seed = 0;
    uint64_t stride = 0;
    double seconds = 0.0;
    std::string out;
    std::vector<std::string> files;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        const bool has_value = i + 1 < args.size();
        if (a == "--seed" && has_value)
            seed = parseCount(a, args[++i]);
        else if (a == "--stride" && has_value)
            stride = parseCount(a, args[++i]);
        else if (a == "--seconds" && has_value)
            seconds = std::stod(args[++i]);
        else if (a == "--out" && has_value)
            out = args[++i];
        else
            files.push_back(a);
    }
    if (files.empty() || files.size() % 2 != 0 || out.empty() ||
        stride == 0 || !(seconds > 0.0)) {
        throw std::runtime_error(
            "usage: perfbench_tool replay --seed N --stride CYCLES "
            "--seconds S --out SPANS.json FW POLICY [FW POLICY ...]");
    }

    std::mt19937_64 rng(seed);
    SpanLog log;
    Totals tot;
    const size_t nfw = files.size() / 2;
    std::string programs;
    for (size_t f = 0; f < nfw; ++f) {
        programs += f ? ", " : "";
        programs += replayFirmware(files[2 * f], files[2 * f + 1], stride,
                                   seconds / nfw, rng, log, tot);
    }
    writeSpans(out, log);

    // Per layer: calls, median duration and self time.
    const std::vector<SpanRecord> &spans = log.spans();
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        self[i] += spans[i].endNs - spans[i].startNs;
        if (spans[i].parent != kNoParent)
            self[spans[i].parent] -= spans[i].endNs - spans[i].startNs;
    }
    std::vector<std::vector<int64_t>> durations(kNumLayers);
    std::vector<int64_t> layerSelf(kNumLayers, 0);
    int64_t replayNs = 0;
    int64_t rootSelfNs = 0;
    int64_t segmentNs = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        const int64_t d = s.endNs - s.startNs;
        durations[s.layer].push_back(d);
        layerSelf[s.layer] += self[i];
        if (s.parent == kNoParent) {
            replayNs += d;
            rootSelfNs += self[i];
        }
        if (s.layer == ReplaySegment)
            segmentNs += d;
    }

    std::printf("{\"programs\": [%s],\n \"metrics\": {", programs.c_str());
    for (int l = ReplayPost + 1; l < kNumLayers; ++l) {
        std::printf("\"%s.calls\": %zu, \"%s.us\": %.6f, "
                    "\"%s.share\": %.9f,\n  ",
                    kLayerNames[l], durations[l].size(), kLayerNames[l],
                    medianUs(durations[l]), kLayerNames[l],
                    double(layerSelf[l]) / double(replayNs));
    }
    const uint64_t encodes = durations[CkptEncode].size();
    std::printf(
        "\"ift.checkpoint.bytes_per_state\": %.3f,\n"
        "  \"replay.segments\": %" PRIu64 ", \"replay.cycles\": %" PRIu64
        ", \"replay.mismatches\": %" PRIu64 ",\n"
        "  \"replay.seconds\": %.6f, \"replay.unaccounted\": %.9f, "
        "\"replay.overhead\": %.9f}}\n",
        encodes ? double(tot.encodedBytes) / double(encodes) : 0.0,
        tot.segments, tot.cycles, tot.mismatches, replayNs * 1e-9,
        double(rootSelfNs) / double(replayNs),
        double(segmentNs) / double(tot.referenceNs) - 1.0);
    return 0;
}

} // namespace perfbench
