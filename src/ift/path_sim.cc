#include "ift/path_sim.hh"

#include <algorithm>
#include <unordered_map>

#include "base/logging.hh"
#include "base/strutil.hh"
#include "base/trace.hh"
#include "ift/engine_stats.hh"

namespace glifs
{

PathSim::PathSim(const Soc &s, const Policy &p, const EngineConfig &c,
                 const ProgramImage &img)
    : soc(s), policy(p), cfg(c), image(img), sim(s.netlist()),
      layout(s.netlist()), checker(s, p)
{
    // Slot indices of the PC and instruction-address flip-flops
    // within the layout.
    const Netlist &nl = s.netlist();
    std::unordered_map<NetId, size_t> slot_of;
    for (size_t i = 0; i < layout.dffNets().size(); ++i)
        slot_of[layout.dffNets()[i]] = layout.dffSlot(i);
    for (GateId g : s.probes().pcFlops)
        pcSlots.push_back(slot_of.at(nl.gate(g).out));
    for (NetId n : s.probes().instrAddrQ)
        instrAddrSlots.push_back(slot_of.at(n));
}

void
PathSim::loadProgram()
{
    // An untracked write, covered by the full settle a fresh simulator
    // starts with.
    soc.loadProgram(sim.state(), image);
    if (policy.taintCodeInProgMem) {
        for (const CodePartition &p : policy.code) {
            if (!p.tainted)
                continue;
            for (uint32_t a = p.lo;
                 a <= p.hi && a < image.words.size(); ++a) {
                sim.setMemWord(soc.probes().progMem, a,
                               image.words[a], true);
            }
        }
    }
}

void
PathSim::setInputs(bool reset)
{
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigBool(reset));
    for (unsigned p = 0; p < 4; ++p) {
        Signal s{Tern::X, policy.taintedInPort[p]};
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], s);
    }
    // Nondeterminism injection (Section 8): force the named nets
    // unknown so every downstream outcome is explored.
    for (const auto &[net, taint] : cfg.injectUnknown)
        sim.setInput(net, Signal{Tern::X, taint});
}

uint16_t
PathSim::busValue(const Bus &bus, const char *what) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        GLIFS_ASSERT(s.known(), "engine: ", what,
                     " has unknown bit ", i);
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

uint16_t
PathSim::tryBusValue(const Bus &bus) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < bus.size(); ++i) {
        Signal s = sim.netValue(bus[i]);
        if (!s.known())
            return 0xFFFF;
        if (s.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

bool
PathSim::busHasX(const Bus &bus) const
{
    for (NetId n : bus) {
        if (!sim.netValue(n).known())
            return true;
    }
    return false;
}

void
PathSim::accumulateTaint(BitPlane &plane) const
{
    const SignalState &st = sim.state();
    st.orTaintIntoNets(st.netPlanes(), plane);
}

std::vector<unsigned>
PathSim::statePcXBits(const SymState &s) const
{
    std::vector<unsigned> xs;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        if (!s.slot(pcSlots[i]).known())
            xs.push_back(static_cast<unsigned>(i));
    }
    return xs;
}

bool
PathSim::simPcUnknown() const
{
    // Flop slots are numbered like layout.dffNets().
    for (size_t slot : pcSlots) {
        if (!sim.netValue(layout.dffNets()[slot]).known())
            return true;
    }
    return false;
}

uint16_t
PathSim::stateInstrAddr(const SymState &s) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < instrAddrSlots.size(); ++i) {
        Signal sig = s.slot(instrAddrSlots[i]);
        if (!sig.known())
            return 0xFFFF;
        if (sig.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

uint16_t
PathSim::statePcBase(const SymState &s) const
{
    uint16_t v = 0;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        Signal sig = s.slot(pcSlots[i]);
        if (sig.known() && sig.asBool())
            v |= static_cast<uint16_t>(1u << i);
    }
    return v;
}

std::optional<Instr>
PathSim::instrAt(uint16_t addr) const
{
    if (addr >= image.words.size())
        return std::nullopt;
    return decode(&image.words[addr], image.words.size() - addr);
}

std::vector<uint16_t>
PathSim::candidatePcs(uint16_t instr_addr, const SymState &s,
                      bool &overflow)
{
    std::vector<unsigned> xbits = statePcXBits(s);
    uint16_t base = statePcBase(s);
    std::optional<Instr> instr = instrAt(instr_addr);

    std::vector<uint16_t> out;
    if (cfg.preciseJumpTargets && instr && instr->op == Op::J &&
        stateInstrAddrXBits(s).empty()) {
        // Precise CFG successors of a conditional jump.
        uint16_t fall = static_cast<uint16_t>(instr_addr + 1);
        uint16_t target =
            static_cast<uint16_t>(instr_addr + 1 + instr->jumpOff);
        out = {target, fall};
    } else {
        if (xbits.size() > cfg.maxBranchBits) {
            overflow = true;
            return {};
        }
        for (size_t c = 0; c < (1ULL << xbits.size()); ++c) {
            uint16_t a = base;
            for (size_t k = 0; k < xbits.size(); ++k) {
                if ((c >> k) & 1ULL)
                    a |= static_cast<uint16_t>(1u << xbits[k]);
            }
            out.push_back(a);
        }
    }
    // Keep unique, in-range candidates consistent with the known
    // PC bits.
    std::vector<uint16_t> filtered;
    uint16_t xmask = 0;
    for (unsigned b : xbits)
        xmask |= static_cast<uint16_t>(1u << b);
    for (uint16_t a : out) {
        if (a >= image.words.size() && a >= iot430::kProgWords)
            continue;
        if ((a & ~xmask & lowMask(pcSlots.size())) !=
            (base & static_cast<uint16_t>(~xmask)))
            continue;
        bool dup = false;
        for (uint16_t f : filtered)
            dup |= f == a;
        if (!dup)
            filtered.push_back(a);
    }
    return filtered;
}

SymState
PathSim::concretizePc(const SymState &s, uint16_t pc) const
{
    SymState child = s;
    for (size_t i = 0; i < pcSlots.size(); ++i) {
        Signal cur = s.slot(pcSlots[i]);
        child.setSlot(pcSlots[i],
                      Signal{ternBool((pc >> i) & 1u), cur.taint});
    }
    return child;
}

std::vector<unsigned>
PathSim::stateInstrAddrXBits(const SymState &s) const
{
    std::vector<unsigned> xs;
    for (size_t i = 0; i < instrAddrSlots.size(); ++i) {
        if (!s.slot(instrAddrSlots[i]).known())
            xs.push_back(static_cast<unsigned>(i));
    }
    return xs;
}

std::vector<PathSim::BranchChild>
PathSim::branchChildren(uint16_t instr_addr, const SymState &s,
                        bool &overflow)
{
    const std::vector<uint16_t> pcs =
        statePcXBits(s).empty() ? std::vector<uint16_t>{statePcBase(s)}
                                : candidatePcs(instr_addr, s, overflow);
    const std::vector<unsigned> xbits = stateInstrAddrXBits(s);
    // The bound is on the product; each factor is at most 2^16.
    if (overflow || xbits.size() > cfg.maxBranchBits ||
        (pcs.size() << xbits.size()) >
            (size_t{1} << std::min(cfg.maxBranchBits, 32u))) {
        overflow = true;
        return {};
    }
    std::vector<BranchChild> out;
    for (uint16_t pc : pcs) {
        for (size_t c = 0; c < (size_t{1} << xbits.size()); ++c) {
            SymState child = concretizePc(s, pc);
            for (size_t k = 0; k < xbits.size(); ++k) {
                const size_t slot = instrAddrSlots[xbits[k]];
                child.setSlot(slot, Signal{ternBool((c >> k) & 1u),
                                           s.slot(slot).taint});
            }
            out.push_back({pc, std::move(child)});
        }
    }
    return out;
}

std::pair<size_t, size_t>
PathSim::starSaturate(BitPlane *everTainted)
{
    ++engineStats().starSaturations;
    GLIFS_TRACE_INSTANT("engine", "star_saturate");
    // Bulk mutation of flop outputs and memory cells below
    // bypasses the simulator's tracked setters; invalidate its
    // dirty set so the next settle runs every unit.
    sim.markAllDirty();
    const Netlist &nl = soc.netlist();
    for (GateId g : nl.dffs())
        sim.state().setNet(nl.gate(g).out, Signal{Tern::X, true});
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        if (nl.memory(m).writable)
            sim.state().mem(m).fill(Signal{Tern::X, true});
    }
    const SocProbes &prb = soc.probes();
    sim.setInput(prb.extReset, sigBool(false));
    for (unsigned p = 0; p < 4; ++p) {
        for (unsigned b = 0; b < 16; ++b)
            sim.setInput(prb.portIn[p][b], Signal{Tern::X, true});
    }
    sim.evalComb();
    if (cfg.trackTaintedNets && everTainted)
        accumulateTaint(*everTainted);

    size_t tainted = 0;
    size_t total = 0;
    for (const Gate &g : nl.gates()) {
        if (g.type != GateType::Comb && g.type != GateType::Dff)
            continue;
        ++total;
        Signal out = sim.netValue(g.out);
        bool next_taint = out.taint;
        if (g.type == GateType::Dff) {
            next_taint =
                dffNext(sim.netValue(g.in[0]), sim.netValue(g.in[1]),
                        sim.netValue(g.in[2]), out, g.rstVal).taint;
        }
        if (next_taint)
            ++tainted;
    }
    return {tainted, total};
}

SegmentResult
PathSim::runSegment(const SymState &start, const SegmentHooks &hooks)
{
    // A tracked store: the first settle re-runs only the logic reading
    // a flop or memory cell that differs from the simulator's state.
    start.restore(layout, sim);
    GLIFS_ASSERT(statePcXBits(start).empty(),
                 "segment start with unknown PC");
    return continueSegment(hooks);
}

SegmentResult
PathSim::continueSegment(const SegmentHooks &hooks)
{
    SegmentResult res;
    // Taint is ORed a slot-order plane word at a time every cycle (only
    // .tnt is used) and permuted into the net-order taintDelta once, at
    // the segment end.
    std::vector<packed::Planes> slotTaint(
        cfg.trackTaintedNets ? sim.state().netPlanes().size() : 0);
    // The log sees absolute cycles (its trace instants carry them);
    // the result is rebased to segment-relative on the way out.
    ViolationLog seglog;
    auto finish = [&] {
        if (cfg.trackTaintedNets) {
            res.taintDelta = BitPlane(soc.netlist().numNets());
            sim.state().orTaintIntoNets(slotTaint, res.taintDelta);
        }
        res.violations = seglog.list();
        for (Violation &v : res.violations)
            v.firstCycle -= hooks.cycleBase;
        return std::move(res);
    };
    const SocProbes &prb = soc.probes();

    while (true) {
        // The governor-poll point: before the cycle's inputs are
        // driven. The engine polls its governor here for
        // cycle-exact budget stops.
        if (hooks.poll) {
            CycleAction act = hooks.poll();
            if (act == CycleAction::Stop) {
                res.stopped = true;
                res.end.capture(layout, sim);
                res.endInstr = tryBusValue(prb.instrAddrQ);
                return finish();
            }
            if (act == CycleAction::Kill) {
                res.killed = true;
                res.endInstr = tryBusValue(prb.instrAddrQ);
                return finish();
            }
        }

        setInputs(false);
        sim.evalComb();
        ++res.cycles;
        if (hooks.cycleCharged)
            hooks.cycleCharged();
        const std::vector<packed::Planes> &live = sim.state().netPlanes();
        for (size_t w = 0; w < slotTaint.size(); ++w)
            slotTaint[w].tnt |= live[w].tnt;

        const uint64_t cycle = hooks.cycleBase + res.cycles;
        const uint16_t instr_addr =
            busValue(prb.instrAddrQ, "instruction address");
        checker.checkCycle(sim, instr_addr, cycle, seglog);

        const uint16_t fsm = busValue(prb.stateQ, "fsm state");

        // *-logic baseline: give up at the first tainted or unknown
        // control flow.
        if (cfg.starLogicMode) {
            bool pc_taint = false;
            for (NetId n : prb.pcQ)
                pc_taint |= sim.netValue(n).taint;
            if (pc_taint || busHasX(prb.pcD)) {
                res.starAborted = true;
                res.endInstr = instr_addr;
                res.endFsm = fsm;
                return finish();
            }
        }

        if (fsm == static_cast<uint16_t>(CoreState::Halt)) {
            res.halted = true;
            res.endInstr = instr_addr;
            res.endFsm = fsm;
            checker.checkMemoryInvariant(sim, instr_addr, cycle, seglog);
            return finish();
        }

        // Is this cycle a PC-changing commit?
        std::optional<Instr> instr = instrAt(instr_addr);
        bool is_commit =
            fsm == static_cast<uint16_t>(CoreState::Call) ||
            fsm == static_cast<uint16_t>(CoreState::Ret) ||
            (fsm == static_cast<uint16_t>(CoreState::Exec) && instr &&
             (instr->op == Op::J || instr->op == Op::Br));

        // Unknown watchdog expiry: fork into fired / not-fired so
        // the POR is always simulated with a concrete reset line
        // (preserving the Figure-7 untainting). The fired branch is
        // returned as a frontier push; the not-fired branch continues
        // inline but is forced through the state table so the chain
        // of forks converges.
        Signal por = sim.netValue(prb.porNet);
        if (!por.known()) {
            SymState pre(layout);
            pre.capture(layout, sim);

            // Fired branch: POR forced high; PC resets to 0.
            sim.setNet(prb.porNet, Signal{Tern::One, por.taint});
            sim.clockEdge();
            SymState fired(layout);
            fired.capture(layout, sim);
            GLIFS_ASSERT(statePcXBits(fired).empty(),
                         "POR branch left the PC unknown");
            const uint16_t startPc = statePcBase(fired);
            if (hooks.tracePorForks) {
                GLIFS_TRACE_INSTANT_ARGS(
                    "engine", "por_fork",
                    add("instr", hex16(instr_addr)).add("cycle", cycle));
            }
            res.porForks.push_back(
                {std::move(fired), startPc, instr_addr, res.cycles});

            // Not-fired branch: replay the cycle with POR forced
            // low and continue inline as a forced merge point.
            // The fork chain is bounded by the next PC-changing
            // commit, where the normal state-table subsumption
            // applies.
            pre.restore(layout, sim);
            setInputs(false);
            sim.evalComb();
            sim.setNet(prb.porNet, Signal{Tern::Zero, por.taint});
        }

        sim.clockEdge();

        // The state only matters where the segment ends: probe the PC
        // flops in place and capture nothing on the other cycles.
        const bool pc_unknown = simPcUnknown();
        if (!is_commit && !pc_unknown)
            continue;
        if (cfg.disableMerging && !pc_unknown)
            continue; // ablation: no subsumption, no merging

        res.end.capture(layout, sim);
        res.endInstr = instr_addr;
        res.endFsm = fsm;
        res.pcUnknown = pc_unknown;
        return finish();
    }
}

} // namespace glifs
