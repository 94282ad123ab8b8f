#include "ift/checker.hh"

#include <algorithm>
#include <sstream>

#include "base/bitutil.hh"
#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/trace.hh"

namespace glifs
{

namespace
{

/** Policy-checking counters (docs/OBSERVABILITY.md). */
struct CheckerStats
{
    stats::Scalar cycleChecks{"checker.cycle_checks",
                              "per-cycle C1-C5 checks"};
    stats::Scalar memoryScans{"checker.memory_scans",
                              "path-end memory invariant scans"};
    stats::Scalar violations{"checker.violations",
                             "violation observations recorded"};
};

CheckerStats &
checkerStats()
{
    static CheckerStats s;
    return s;
}

} // namespace

const char *
violationKindName(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::TaintedControlFlow:
        return "C1-tainted-control-flow";
      case ViolationKind::UntaintedCodeTaintedPc:
        return "C1-untainted-code-tainted-pc";
      case ViolationKind::StoreUntaintedPartition:
        return "C2-store-untainted-partition";
      case ViolationKind::LoadTaintedData:
        return "C3-load-tainted-data";
      case ViolationKind::UntaintedReadTaintedPort:
        return "C4-untainted-read-tainted-port";
      case ViolationKind::TaintedWriteTrustedPort:
        return "C5-tainted-write-trusted-port";
      case ViolationKind::TrustedOutputTainted:
        return "trusted-output-tainted";
      case ViolationKind::WatchdogTainted:
        return "watchdog-tainted";
    }
    return "?";
}

bool
violationIsError(ViolationKind kind)
{
    switch (kind) {
      case ViolationKind::UntaintedCodeTaintedPc:
      case ViolationKind::UntaintedReadTaintedPort:
      case ViolationKind::TaintedWriteTrustedPort:
      case ViolationKind::TrustedOutputTainted:
        return true;
      default:
        return false;
    }
}

std::string
Violation::str() const
{
    std::ostringstream oss;
    oss << (violationIsError(kind) ? "error" : "warning") << " "
        << violationKindName(kind) << " @ " << hex16(instrAddr)
        << " (first cycle " << firstCycle << ", seen " << count << "x)";
    if (!detail.empty())
        oss << ": " << detail;
    return oss.str();
}

Violation *
ViolationLog::observe(ViolationKind kind, uint16_t instr_addr,
                      uint64_t cycle, bool maskable)
{
    ++checkerStats().violations;
    GLIFS_TRACE_INSTANT_ARGS("checker", "violation",
                             add("kind", violationKindName(kind))
                                 .add("instr", hex16(instr_addr))
                                 .add("cycle", cycle));
    auto key = std::make_pair(static_cast<uint8_t>(kind), instr_addr);
    auto it = entries.find(key);
    if (it == entries.end()) {
        Violation v;
        v.kind = kind;
        v.instrAddr = instr_addr;
        v.firstCycle = cycle;
        v.count = 1;
        v.maskable = maskable;
        return &entries.emplace(key, std::move(v)).first->second;
    }
    ++it->second.count;
    it->second.maskable = it->second.maskable || maskable;
    return nullptr;
}

void
ViolationLog::restore(const Violation &v)
{
    entries.insert_or_assign(
        std::make_pair(static_cast<uint8_t>(v.kind), v.instrAddr), v);
}

void
ViolationLog::merge(const Violation &v)
{
    auto key = std::make_pair(static_cast<uint8_t>(v.kind), v.instrAddr);
    auto it = entries.find(key);
    if (it == entries.end()) {
        entries.emplace(key, v);
        return;
    }
    it->second.count += v.count;
    it->second.maskable |= v.maskable;
}

std::vector<Violation>
ViolationLog::list() const
{
    std::vector<Violation> out;
    out.reserve(entries.size());
    for (const auto &[key, v] : entries)
        out.push_back(v);
    return out;
}

namespace
{

/** A set of possible 16-bit addresses: fixed base plus free X bits. */
struct AddrSet
{
    uint16_t base = 0;
    uint16_t xmask = 0;
    bool tainted = false;

    bool
    canEqual(uint16_t c) const
    {
        return (base & ~xmask) == (c & ~xmask);
    }
};

AddrSet
addrSetFromBus(const Simulator &sim, const Bus &bus)
{
    AddrSet s;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal sig = sim.netValue(bus[i]);
        s.tainted = s.tainted || sig.taint;
        if (!sig.known())
            s.xmask |= static_cast<uint16_t>(1u << i);
        else if (sig.asBool())
            s.base |= static_cast<uint16_t>(1u << i);
    }
    return s;
}

/**
 * Can the set intersect [lo, hi]? Exact when the number of free bits
 * is small; conservatively true otherwise.
 */
bool
intersectsRange(const AddrSet &s, uint16_t lo, uint16_t hi)
{
    unsigned free_bits = popcount64(s.xmask);
    if (free_bits <= 12) {
        // Enumerate the subsets of xmask.
        uint16_t sub = 0;
        while (true) {
            uint16_t a = s.base | sub;
            if (a >= lo && a <= hi)
                return true;
            if (sub == s.xmask)
                break;
            sub = static_cast<uint16_t>((sub - s.xmask) & s.xmask);
        }
        return false;
    }
    // Conservative interval overlap.
    uint16_t min = s.base & static_cast<uint16_t>(~s.xmask);
    uint16_t max = s.base | s.xmask;
    return !(max < lo || min > hi);
}

bool
busTainted(const Simulator &sim, const Bus &bus)
{
    for (NetId n : bus) {
        if (sim.netValue(n).taint)
            return true;
    }
    return false;
}

bool
netTainted(const Simulator &sim, NetId n)
{
    return sim.netValue(n).taint;
}

/** Concrete value of a bus; panics on X bits. */
uint16_t
busValueConcrete(const Simulator &sim, const Bus &bus, const char *what)
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        GLIFS_ASSERT(s.known(), what, " has unknown bit ", i);
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

/**
 * Call @p fn(a), in ascending order, for every data-space address a in
 * [lo, hi] that is a RAM word with at least one tainted cell. Reads
 * the RAM taint plane a word at a time.
 */
template <typename Fn>
void
forEachTaintedRamAddr(const MemPlanes &ram, uint32_t lo, uint32_t hi, Fn fn)
{
    lo = std::max<uint32_t>(lo, iot430::kRamBase);
    hi = std::min<uint32_t>({hi, iot430::kRamEnd,
                             static_cast<uint32_t>(iot430::kRamBase +
                                                   ram.words() - 1)});
    if (lo > hi)
        return;
    ram.forEachTaintedWord(lo - iot430::kRamBase, hi - iot430::kRamBase,
                           [&](size_t w) {
                               fn(static_cast<uint16_t>(iot430::kRamBase +
                                                        w));
                           });
}

const uint16_t kPortOutAddr[4] = {iot430::kP1Out, iot430::kP2Out,
                                  iot430::kP3Out, iot430::kP4Out};
const uint16_t kPortInAddr[4] = {iot430::kP1In, iot430::kP2In,
                                 iot430::kP3In, iot430::kP4In};

} // namespace

FlowChecker::FlowChecker(const Soc &s, const Policy &p)
    : soc(s), policy(p)
{
}

bool
FlowChecker::pcTainted(const Simulator &sim) const
{
    const SocProbes &prb = soc.probes();
    return busTainted(sim, prb.pcQ) || busTainted(sim, prb.stateQ);
}

void
FlowChecker::checkWrite(const Simulator &sim, uint16_t instr_addr,
                        uint64_t cycle, bool code_tainted,
                        ViolationLog &log) const
{
    const SocProbes &prb = soc.probes();
    Signal wstate = sim.netValue(prb.memWriteState);
    // No write can happen this cycle. (A tainted-but-0 write state is
    // covered by the engine exploring the paths where a write does
    // happen.)
    if (wstate.known() && !wstate.asBool())
        return;

    AddrSet addr = addrSetFromBus(sim, prb.dmemWriteAddr);
    const bool data_taint = busTainted(sim, prb.dmemWriteData);
    const bool we_taint = wstate.taint ||
                          netTainted(sim, prb.ramWriteEn);
    const bool any_taint =
        code_tainted || data_taint || addr.tainted || we_taint;

    for (const MemPartition &m : policy.mem) {
        if (m.tainted)
            continue;
        if (any_taint && intersectsRange(addr, m.lo, m.hi)) {
            log.record(ViolationKind::StoreUntaintedPartition, instr_addr,
                       cycle,
                       [&] {
                           return detail::concat("store may taint "
                                                 "untainted partition '",
                                                 m.name, "'");
                       },
                       true);
        }
    }

    for (unsigned p = 0; p < 4; ++p) {
        if (!policy.trustedOutPort[p])
            continue;
        if (any_taint && addr.canEqual(kPortOutAddr[p])) {
            log.record(ViolationKind::TaintedWriteTrustedPort, instr_addr,
                       cycle,
                       [&] {
                           return detail::concat("tainted store may "
                                                 "reach trusted P",
                                                 p + 1, "OUT");
                       },
                       true);
        }
    }

    if ((code_tainted || addr.tainted || we_taint) &&
        addr.canEqual(iot430::kWdtCtl)) {
        log.record(ViolationKind::WatchdogTainted, instr_addr, cycle,
                   "tainted store may reach WDTCTL", true);
    }
}

void
FlowChecker::checkRead(const Simulator &sim, uint16_t instr_addr,
                       uint64_t cycle, bool code_tainted,
                       ViolationLog &log) const
{
    // Only untainted code is constrained in what it may read
    // (conditions 3 and 4).
    if (code_tainted)
        return;

    const SocProbes &prb = soc.probes();
    uint16_t state = busValueConcrete(sim, prb.stateQ, "fsm state");
    const bool reading = state == static_cast<uint16_t>(
                             CoreState::ReadMem) ||
                         state == static_cast<uint16_t>(CoreState::Pop) ||
                         state == static_cast<uint16_t>(CoreState::Ret);
    if (!reading)
        return;

    AddrSet addr = addrSetFromBus(sim, prb.dmemReadAddr);

    for (const MemPartition &m : policy.mem) {
        if (!m.tainted)
            continue;
        if (intersectsRange(addr, m.lo, m.hi)) {
            log.record(ViolationKind::LoadTaintedData, instr_addr, cycle,
                       [&] {
                           return detail::concat("untainted code loads "
                                                 "from tainted partition '",
                                                 m.name, "'");
                       });
        }
    }

    // Tainted cells anywhere in the reachable read set, one observation
    // per tainted RAM word it may denote. The set's members lie
    // between base (every X bit 0) and base | xmask (every X bit 1).
    forEachTaintedRamAddr(
        sim.state().mem(prb.dataMem), addr.base, addr.base | addr.xmask,
        [&](uint16_t a) {
            if (!addr.canEqual(a))
                return;
            log.record(ViolationKind::LoadTaintedData, instr_addr, cycle,
                       [&] {
                           return detail::concat(
                               "untainted code loads tainted cell ",
                               hex16(a));
                       });
        });

    for (unsigned p = 0; p < 4; ++p) {
        if (!policy.taintedInPort[p])
            continue;
        if (addr.canEqual(kPortInAddr[p])) {
            log.record(ViolationKind::UntaintedReadTaintedPort,
                       instr_addr, cycle, [&] {
                           return detail::concat("untainted code reads "
                                                 "tainted P",
                                                 p + 1, "IN");
                       });
        }
    }
}

void
FlowChecker::checkCycle(const Simulator &sim, uint16_t instr_addr,
                        uint64_t cycle, ViolationLog &log) const
{
    ++checkerStats().cycleChecks;
    const SocProbes &prb = soc.probes();
    const bool code_tainted = policy.codeTainted(instr_addr);

    if (pcTainted(sim)) {
        log.record(code_tainted
                       ? ViolationKind::TaintedControlFlow
                       : ViolationKind::UntaintedCodeTaintedPc,
                   instr_addr, cycle,
                   code_tainted ? "PC tainted in tainted task"
                                : "PC tainted while untainted code runs");
    }

    checkWrite(sim, instr_addr, cycle, code_tainted, log);
    checkRead(sim, instr_addr, cycle, code_tainted, log);

    for (unsigned p = 0; p < 4; ++p) {
        if (policy.trustedOutPort[p] &&
            busTainted(sim, prb.portOut[p])) {
            log.record(ViolationKind::TrustedOutputTainted, instr_addr,
                       cycle, [&] {
                           return detail::concat("trusted P", p + 1,
                                                 "OUT carries taint");
                       });
        }
    }

    if (netTainted(sim, prb.wdtWriteEn)) {
        log.record(ViolationKind::WatchdogTainted, instr_addr, cycle,
                   "WDTCTL write-enable carries taint");
    }
}

void
FlowChecker::checkMemoryInvariant(const Simulator &sim,
                                  uint16_t instr_addr, uint64_t cycle,
                                  ViolationLog &log) const
{
    ++checkerStats().memoryScans;
    const MemPlanes &ram = sim.state().mem(soc.probes().dataMem);
    for (const MemPartition &m : policy.mem) {
        if (m.tainted)
            continue;
        forEachTaintedRamAddr(ram, m.lo, m.hi, [&](uint16_t a) {
            log.record(ViolationKind::StoreUntaintedPartition, instr_addr,
                       cycle, [&] {
                           return detail::concat("untainted partition '",
                                                 m.name, "' cell ",
                                                 hex16(a), " is tainted");
                       });
        });
    }
}

} // namespace glifs
