/**
 * @file
 * Execution engine for the compiled bit-packed netlist program.
 *
 * Holds the compiled program (netlist/compile.hh), the unit- and
 * dff-word dirty bitsets and the staged flip-flop next states, and
 * executes the CompiledNetlist on the net planes of a SignalState laid
 * out on the program's slot map (program().slotOfNet). The Simulator
 * drives it: it decides which units run (event-driven drain or full
 * pass) and interprets the memory read/write ports.
 *
 * Coherence contract: the SignalState's planes are the only store of
 * net values, and every write to them is either a tracked store or is
 * followed by Simulator::markAllDirty(). A tracked store (storeWord()
 * with track, markConsumersDirty() after a point write) marks, through
 * the word consumer index, every unit and dff word reading a lane it
 * changed. Kernel results, flop commits, memory read ports, net
 * overrides (Simulator::setNet) and SymState restores are all tracked
 * stores, so a segment start re-settles only what the restore changed;
 * a fresh simulator, a path switch and *-logic saturation rely on the
 * untracked full settle instead.
 */

#ifndef GLIFS_SIM_PACKED_EVAL_HH
#define GLIFS_SIM_PACKED_EVAL_HH

#include <cstdint>
#include <vector>

#include "netlist/compile.hh"
#include "sim/packed_kernels.hh"
#include "sim/signal_state.hh"

namespace glifs
{

/** Executor + dirty sets for one compiled netlist. */
class PackedEval
{
  public:
    PackedEval(const Netlist &nl, const std::vector<EvalStep> &order);

    const CompiledNetlist &program() const { return cn; }

    // --- dirty tracking ----------------------------------------------
    /** Mark one index target: a unit, or units.size()+i for dff word
     *  i. */
    void
    markTarget(uint32_t t)
    {
        if (t < numUnits)
            unitDirty[t >> 6] |= 1ULL << (t & 63);
        else
            dffDirty[(t - numUnits) >> 6] |=
                1ULL << ((t - numUnits) & 63);
    }

    /** Mark every target reading @p net (after a point write). */
    void
    markConsumersDirty(NetId net)
    {
        const uint32_t slot = cn.slotOfNet[net];
        markWord(slot >> 6, 1ULL << (slot & 63));
    }

    /** Mark the unit driving @p net, if any (override recompute). */
    void
    markProducerDirty(NetId net)
    {
        const int32_t p = cn.producerUnit[net];
        if (p >= 0)
            markTarget(static_cast<uint32_t>(p));
    }

    void markMemUnitDirty(MemId m) { markTarget(cn.unitOfMem[m]); }

    void clearAllDirty();

    /** Arm every dff word for the next edge (untracked full settle). */
    void
    markAllDffDirty()
    {
        for (uint32_t i = 0; i < cn.dffWords.size(); ++i)
            markTarget(numUnits + i);
    }

    std::vector<uint64_t> &unitDirtyWords() { return unitDirty; }
    std::vector<uint64_t> &dffDirtyWords() { return dffDirty; }

    // --- execution ---------------------------------------------------
    /**
     * Replace the lanes of plane word @p w under @p mask with @p out.
     * With @p track, every target reading a changed lane (value or
     * taint) is marked dirty straight from the word's diff mask.
     * Returns the mask of lanes whose *value* toggled (the energy
     * model counts them only when toggle stats are on).
     */
    uint64_t storeWord(std::vector<packed::Planes> &planes, uint32_t w,
                       uint64_t mask, const packed::Planes &out,
                       bool track);

    /**
     * Gather, apply the kernel and store one batch's output word into
     * @p st (storeWord()). Returns the value-toggle mask.
     */
    uint64_t runBatch(uint32_t batch, SignalState &st, bool track);

    /**
     * Stage dff word @p i's next state from the current (settled)
     * planes. Nothing is written back until commitDffWord(), so the
     * clock edge stays atomic exactly like the interpreted path.
     */
    void computeDffWord(uint32_t i, const SignalState &st);

    /**
     * Write dff word @p i's staged next state into its Q word, marking
     * the consumers of changed Q nets with @p track; returns the
     * value-toggle mask.
     */
    uint64_t commitDffWord(uint32_t i, SignalState &st, bool track);

  private:
    CompiledNetlist cn;
    uint32_t numUnits = 0;

    std::vector<uint64_t> unitDirty;
    std::vector<uint64_t> dffDirty;

    /** Staged next-state per DffWord (valid between compute/commit). */
    std::vector<packed::Planes> dffNextQ;

    packed::Planes gather(const OpRange &r,
                          const std::vector<packed::Planes> &p) const;

    /** Mark every target reading one of @p lanes of plane word @p w. */
    void
    markWord(uint32_t w, uint64_t lanes)
    {
        for (const WordMark &m : cn.marksOf(w)) {
            if (m.lanes & lanes)
                markTarget(m.target);
        }
    }
};

} // namespace glifs

#endif // GLIFS_SIM_PACKED_EVAL_HH
