#include "sim/simulator.hh"

#include <bit>
#include <cstdlib>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/trace.hh"
#include "logic/glift.hh"
#include "sim/packed_eval.hh"

namespace glifs
{

namespace
{

/** Hot-loop counters; one or two integer adds per settle/edge. */
struct SimStats
{
    stats::Scalar combEvals{"sim.comb_evals",
                            "combinational settle passes"};
    stats::Scalar gateEvals{"sim.gate_evals",
                            "individual gate/step evaluations"};
    stats::Scalar gateEvalsSkipped{
        "sim.gate_evals_skipped",
        "scheduled evaluations skipped as clean (packed path)"};
    stats::Scalar clockEdges{"sim.clock_edges", "clock edges latched"};
    stats::Scalar memReadEvals{"sim.mem_read_evals",
                               "memory read-port evaluations"};
    stats::Scalar memWriteCommits{"sim.mem_write_commits",
                                  "memory write-port commits"};
    stats::Scalar memWideReads{
        "sim.mem_wide_reads",
        "memory reads whose address has X bits (each merges a set of "
        "words)"};
    stats::Scalar memWeakWrites{
        "sim.mem_weak_writes",
        "memory write commits that merged into the cells (X enable or "
        "X address)"};
    stats::Scalar packedWordEvals{
        "sim.packed_word_evals",
        "bit-packed kernel word applications (packed path)"};
    stats::Gauge backend{
        "sim.backend",
        "active evaluation path: 1 = packed, 0 = interpreted oracle"};
    stats::Formula dirtyRatio{
        "sim.dirty_ratio",
        "fraction of scheduled evaluations actually run",
        [] {
            SimStats &s = simStats();
            const double run =
                static_cast<double>(s.gateEvals.value());
            const double total =
                run + static_cast<double>(
                          s.gateEvalsSkipped.value());
            return total == 0.0 ? 1.0 : run / total;
        }};

    static SimStats &simStats();
};

SimStats &
SimStats::simStats()
{
    static SimStats s;
    return s;
}

SimStats &
simStats()
{
    return SimStats::simStats();
}

/** True iff env var @p name is set to anything but "" or "0". */
bool
envFlag(const char *name)
{
    const char *e = std::getenv(name);
    return e && *e && !(e[0] == '0' && e[1] == '\0');
}

/** GLIFS_SIM_INTERP=1 selects the interpreted oracle. */
bool
envInterp()
{
    return envFlag("GLIFS_SIM_INTERP");
}

} // namespace

Simulator::Simulator(const Netlist &netlist)
    : nl(netlist), order(levelize(netlist)),
      backendSel(envInterp() ? SimBackend::Interp : SimBackend::Packed)
{
    dffNextScratch.reserve(nl.dffs().size());
    writeScratch.resize(nl.numMemories());
    activeWrites.reserve(nl.numMemories());
    if (backendSel == SimBackend::Packed)
        packed = std::make_unique<PackedEval>(nl, order);
    sigs = emptyState();
    simStats().backend.set(backendSel == SimBackend::Packed ? 1 : 0);
}

Simulator::Simulator(Simulator &&) noexcept = default;

Simulator::~Simulator() = default;

SignalState
Simulator::emptyState() const
{
    if (backendSel == SimBackend::Interp)
        return SignalState(nl);
    const CompiledNetlist &cn = packed->program();
    return SignalState(nl, cn.slotOfNet, cn.planeWords);
}

void
Simulator::setBackend(SimBackend b)
{
    if (b == backendSel)
        return;
    backendSel = b;
    if (b == SimBackend::Packed && !packed)
        packed = std::make_unique<PackedEval>(nl, order);
    // Re-lay every net onto the new path's slot map, once.
    SignalState moved = emptyState();
    for (NetId n = 0; n < nl.numNets(); ++n)
        moved.setNet(n, sigs.net(n));
    for (MemId m = 0; m < nl.numMemories(); ++m)
        moved.mem(m) = std::move(sigs.mem(m));
    sigs = std::move(moved);
    // The oracle tracks nothing, so the packed path cannot know what
    // changed while it was away; start from a clean slate.
    markAllDirty();
    simStats().backend.set(b == SimBackend::Packed ? 1 : 0);
}

void
Simulator::setNet(NetId net, const Signal &s)
{
    if (sigs.net(net) == s)
        return;
    sigs.setNet(net, s);
    if (backendSel == SimBackend::Interp || allDirty)
        return;
    // A driven net must be recomputed from its driver at the next
    // settle, so the override behaves exactly like under the oracle
    // (visible to the clock edge, gone after the next evalComb()).
    packed->markConsumersDirty(net);
    packed->markProducerDirty(net);
}

void
Simulator::setMemWord(MemId mem, size_t word, uint64_t value, bool taint)
{
    sigs.setMemWord(nl, mem, word, value, taint);
    markMemDirty(mem);
}

void
Simulator::markMemDirty(MemId mem)
{
    if (backendSel == SimBackend::Packed && !allDirty)
        packed->markMemUnitDirty(mem);
}

void
Simulator::readFlops(std::span<uint64_t> known, std::span<uint64_t> value,
                     std::span<uint64_t> taint) const
{
    GLIFS_ASSERT(backendSel == SimBackend::Packed,
                 "readFlops on the interpreted backend");
    // Q word i holds flops [64 i, 64 i + lanes) in nl.dffs() order.
    const CompiledNetlist &cn = packed->program();
    for (size_t i = 0; i < cn.dffWords.size(); ++i) {
        const DffWord &dw = cn.dffWords[i];
        const packed::Planes &q = sigs.netPlanes()[dw.qWord];
        known[i] |= packed::knownOf(q) & dw.laneMask;
        value[i] |= packed::valueOf(q) & dw.laneMask;
        taint[i] |= q.tnt & dw.laneMask;
    }
}

void
Simulator::writeFlops(std::span<const uint64_t> known,
                      std::span<const uint64_t> value,
                      std::span<const uint64_t> taint)
{
    GLIFS_ASSERT(backendSel == SimBackend::Packed,
                 "writeFlops on the interpreted backend");
    const CompiledNetlist &cn = packed->program();
    for (size_t i = 0; i < cn.dffWords.size(); ++i) {
        const DffWord &dw = cn.dffWords[i];
        packed->storeWord(sigs.netPlanes(), dw.qWord, dw.laneMask,
                          packed::fromKnown(known[i], value[i], taint[i]),
                          !allDirty);
    }
}

void
Simulator::writeMem(MemId mem, const BitPlane &known, const BitPlane &value,
                    const BitPlane &taint, size_t pos)
{
    if (sigs.mem(mem).loadFrom(known, value, taint, pos))
        markMemDirty(mem);
}

void
Simulator::evalGate(GateId gid, const GliftTables &glift)
{
    const Gate &g = nl.gate(gid);
    Signal in[3];
    const unsigned arity = gateArity(g.kind);
    for (unsigned i = 0; i < arity; ++i)
        in[i] = sigs.net(g.in[i]);
    const Signal out = glift.eval(g.kind, in);
    const Signal prev = sigs.net(g.out);
    if (out == prev)
        return;
    if (togglesOn && prev.value != out.value)
        ++toggles.combToggles[static_cast<size_t>(g.kind)];
    sigs.setNet(g.out, out);
}

MemWord
Simulator::readPort(MemId m)
{
    const MemoryDecl &decl = nl.memory(m);
    addrScratch.resize(decl.readAddr.size());
    for (size_t i = 0; i < addrScratch.size(); ++i)
        addrScratch[i] = sigs.net(decl.readAddr[i]);

    MemAddr ma =
        decodeMemAddr(addrScratch, decl.words, decl.maxUnknownAddrBits);
    if (!decl.addrTaintsRead)
        ma.tainted = false;
    if (!ma.concrete())
        ++simStats().memWideReads;
    return memoryRead(sigs.mem(m), ma);
}

void
Simulator::evalMemRead(MemId m, bool track)
{
    const MemoryDecl &decl = nl.memory(m);
    const MemWord data = readPort(m);
    if (backendSel == SimBackend::Packed) {
        // The read data owns lanes 0..width-1 of one plane word.
        packed->storeWord(sigs.netPlanes(),
                          packed->program().memReadWord[m],
                          lowMask(decl.width),
                          packed::fromKnown(data.known, data.value,
                                            data.taint),
                          track);
        return;
    }
    for (unsigned b = 0; b < decl.width; ++b)
        sigs.setNet(decl.readData[b], data.bit(b));
}

void
Simulator::evalFull()
{
    SimStats &st = simStats();
    st.gateEvals += order.size();
    const GliftTables &glift = GliftTables::instance();
    for (const EvalStep &step : order) {
        if (step.kind == EvalStep::Kind::MemRead) {
            ++st.memReadEvals;
            evalMemRead(step.index, /*track=*/false);
            continue;
        }
        evalGate(step.index, glift);
    }
}

void
Simulator::evalComb()
{
    ++simStats().combEvals;
    if (backendSel == SimBackend::Packed)
        evalCombPacked();
    else
        evalFull();
}

void
Simulator::stageMemWrites()
{
    activeWrites.clear();
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;
        PendingWrite &w = writeScratch[m];
        w.we = sigs.net(decl.writeEn);
        if (w.we.known() && !w.we.asBool() && !w.we.taint)
            continue;
        addrScratch.resize(decl.writeAddr.size());
        for (size_t i = 0; i < addrScratch.size(); ++i)
            addrScratch[i] = sigs.net(decl.writeAddr[i]);
        w.addr = decodeMemAddr(addrScratch, decl.words,
                               decl.maxUnknownAddrBits);
        dataScratch.resize(decl.width);
        for (unsigned b = 0; b < decl.width; ++b)
            dataScratch[b] = sigs.net(decl.writeData[b]);
        w.data = packMemWord(dataScratch);
        activeWrites.push_back(m);
    }
}

void
Simulator::commitMemWrite(MemId m)
{
    const PendingWrite &w = writeScratch[m];
    SimStats &st = simStats();
    if (isWeakWrite(w.addr, w.we))
        ++st.memWeakWrites;
    memoryWrite(sigs.mem(m), w.addr, w.we, w.data);
    ++st.memWriteCommits;
    if (togglesOn)
        ++toggles.memWrites;
}

void
Simulator::clockEdge()
{
    if (backendSel == SimBackend::Packed) {
        clockEdgePacked();
        return;
    }

    // Compute all flip-flop next states from the settled nets...
    dffNextScratch.clear();
    for (GateId gid : nl.dffs()) {
        const Gate &g = nl.gate(gid);
        dffNextScratch.push_back(
            dffNext(sigs.net(g.in[0]), sigs.net(g.in[1]),
                    sigs.net(g.in[2]), sigs.net(g.out), g.rstVal));
    }

    // ... and all memory write-port updates, before committing
    // anything, so the edge is atomic.
    stageMemWrites();

    // Commit.
    size_t i = 0;
    for (GateId gid : nl.dffs()) {
        const Gate &g = nl.gate(gid);
        const Signal prev = sigs.net(g.out);
        const Signal &next = dffNextScratch[i];
        ++i;
        if (prev == next)
            continue;
        if (togglesOn && prev.value != next.value)
            ++toggles.dffToggles;
        sigs.setNet(g.out, next);
    }
    ++simStats().clockEdges;
    for (MemId m : activeWrites)
        commitMemWrite(m);

    ++cycleCount;
    if (togglesOn)
        ++toggles.cycles;
}

// ---------------------------------------------------------------------
// Packed path
// ---------------------------------------------------------------------

void
Simulator::runUnitPacked(uint32_t unit, bool track, size_t &evaluated,
                         size_t &wordEvals)
{
    PackedEval &pe = *packed;
    const EvalUnit &u = pe.program().units[unit];
    if (u.kind == EvalUnit::Kind::MemRead) {
        ++simStats().memReadEvals;
        evalMemRead(u.index, track);
        ++evaluated;
        return;
    }
    const PackedBatch &pb = pe.program().batches[u.index];
    const uint64_t tog = pe.runBatch(u.index, sigs, track);
    ++wordEvals;
    evaluated += pb.lanes;
    if (togglesOn) {
        toggles.combToggles[static_cast<size_t>(pb.kind)] +=
            std::popcount(tog);
    }
}

void
Simulator::evalCombPacked()
{
    SimStats &st = simStats();
    PackedEval &pe = *packed;
    size_t evaluated = 0;  // gate lanes + mem read ports actually run
    size_t wordEvals = 0;
    const size_t numUnits = pe.program().units.size();
    if (allDirty) {
        pe.clearAllDirty();
        for (uint32_t u = 0; u < numUnits; ++u)
            runUnitPacked(u, /*track=*/false, evaluated, wordEvals);
        // The settle recomputed every comb net without tracking, so
        // the next edge must consider every flip-flop.
        pe.markAllDffDirty();
        allDirty = false;
    } else {
        // Drain dirty units in ascending index order. Compilation
        // guarantees every consumer unit has a strictly higher index
        // than its producer, so marks land only ahead of the cursor
        // and each unit runs at most once per settle.
        std::vector<uint64_t> &ud = pe.unitDirtyWords();
        for (size_t w = 0; w < ud.size(); ++w) {
            while (uint64_t bits = ud[w]) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(bits));
                ud[w] &= ~(1ULL << b);
                runUnitPacked(static_cast<uint32_t>((w << 6) + b),
                              /*track=*/true, evaluated, wordEvals);
            }
        }
    }
    st.gateEvals += evaluated;
    st.gateEvalsSkipped += order.size() - evaluated;
    st.packedWordEvals += wordEvals;

    trace::Tracer &tr = trace::Tracer::instance();
    if (tr.enabled()) {
        tr.counter("sim", "dirty_nodes",
                   static_cast<double>(evaluated));
    }
}

void
Simulator::clockEdgePacked()
{
    PackedEval &pe = *packed;
    // clockEdge() may run with no settle after a bulk write (a restore
    // plus override): it latches from the planes as they stand, exactly
    // what the oracle reads, and every flip-flop word latches.
    const bool track = !allDirty;
    if (!track)
        pe.markAllDffDirty();

    // Select the flip-flop words to latch. A word none of whose
    // D/RST/EN/Q nets changed since its last computation latches its
    // own held value again -- skipping it is exact, not approximate.
    dffRunScratch.clear();
    std::vector<uint64_t> &dd = pe.dffDirtyWords();
    for (size_t w = 0; w < dd.size(); ++w) {
        uint64_t bits = dd[w];
        dd[w] = 0;
        while (bits) {
            dffRunScratch.push_back(static_cast<uint32_t>(
                (w << 6) + static_cast<unsigned>(std::countr_zero(bits))));
            bits &= bits - 1;
        }
    }

    // Stage everything -- flip-flop next states and memory write-port
    // updates -- before committing anything, so the edge is atomic.
    for (uint32_t i : dffRunScratch)
        pe.computeDffWord(i, sigs);
    stageMemWrites();

    // The consumers of changed Q nets seed the next settle and
    // (through the Q entries of the consumer index) re-arm the dff
    // words that must latch again next edge.
    for (uint32_t i : dffRunScratch) {
        const uint64_t tog = pe.commitDffWord(i, sigs, track);
        if (togglesOn)
            toggles.dffToggles += std::popcount(tog);
    }

    SimStats &st = simStats();
    ++st.clockEdges;
    st.packedWordEvals += dffRunScratch.size();
    for (MemId m : activeWrites) {
        commitMemWrite(m);
        // Cells may have changed: the read port must re-evaluate.
        if (track)
            pe.markMemUnitDirty(m);
    }

    ++cycleCount;
    if (togglesOn)
        ++toggles.cycles;
}

} // namespace glifs
