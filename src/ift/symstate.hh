/**
 * @file
 * Packed symbolic-state snapshots for the input-independent taint
 * tracking engine (Algorithm 1).
 *
 * A SymState captures the ternary value and taint of every flip-flop
 * output plus every writable memory cell as three bit planes (known /
 * value / taint), giving O(words) substate tests and conservative
 * merges — the operations the paper's state table performs at every
 * PC-changing instruction.
 *
 * The audit captures a state only where a segment ends (a PC-changing
 * commit, an unknown PC, a hook stop) and at POR forks, never once
 * per simulated cycle (ift/path_sim.hh). capture() and restore() move
 * whole plane words. Flop i of nl.dffs() is slot i, the lane the
 * packed simulator gives it in its Q words, so against a Simulator
 * the flops move a plane word at a time; each memory's slot range is
 * a shifted word copy of its known/value/taint planes (the simulation
 * keeps memories in that very form, netlist/memory_array.hh).
 * restore() into a Simulator is a tracked store: it marks only the
 * logic reading what changed, so a segment start re-settles no more
 * than that. Bits past slots() stay zero, because operator==,
 * subsumedBy() and the exploration digest read whole words
 * (DESIGN.md §5).
 */

#ifndef GLIFS_IFT_SYMSTATE_HH
#define GLIFS_IFT_SYMSTATE_HH

#include "base/bitutil.hh"
#include "netlist/netlist.hh"
#include "sim/signal_state.hh"

namespace glifs
{

class Simulator;

/** Slot layout of a SymState over a given netlist (built once). */
class SymLayout
{
  public:
    explicit SymLayout(const Netlist &nl);

    size_t slots() const { return slotCount; }
    const Netlist &netlist() const { return nl; }

    /** Flip-flop output nets in slot order. */
    const std::vector<NetId> &dffNets() const { return dffs; }

    /** (memory id, first slot) for every writable memory. */
    const std::vector<std::pair<MemId, size_t>> &mems() const
    {
        return memBase;
    }

    /** Slot index of a flip-flop by position in dffNets(). */
    size_t dffSlot(size_t idx) const { return idx; }

  private:
    const Netlist &nl;
    std::vector<NetId> dffs;
    std::vector<std::pair<MemId, size_t>> memBase;
    size_t slotCount = 0;
};

/** One captured symbolic machine state. */
class SymState
{
  public:
    SymState() = default;
    explicit SymState(const SymLayout &layout);

    /** Capture flops and memories from a simulation state (counted
     *  in symstate.captures). */
    void capture(const SymLayout &layout, const SignalState &sigs);
    /** The same from a simulator, its flops a plane word at a time
     *  (the interpreted backend goes through its state()). */
    void capture(const SymLayout &layout, const Simulator &sim);

    /** Write flops and memories back into a simulation state (counted
     *  in symstate.restores); other nets are left untouched. The
     *  write bypasses any simulator's dirty tracking, so the
     *  simulator owning @p sigs needs markAllDirty() afterwards. */
    void restore(const SymLayout &layout, SignalState &sigs) const;
    /** The same as a tracked store into @p sim (Simulator::writeFlops,
     *  Simulator::writeMem): the next settle runs only the logic
     *  reading a flop or memory the restore changed. The interpreted
     *  backend, which sweeps everything on each settle, takes the
     *  untracked write above. */
    void restore(const SymLayout &layout, Simulator &sim) const;

    /**
     * Substate test: true iff every concrete machine state described
     * by *this is also described by @p cons, and the taint of *this is
     * contained in the taint of @p cons (i.e. cons is at least as
     * conservative).
     */
    bool subsumedBy(const SymState &cons) const;

    /**
     * Conservative merge: *this becomes the join of *this and other
     * (differing or unknown values -> X; taints union).
     *
     * With @p taint_diffs set, slots whose values differ between the
     * two states (or whose known-ness differs) additionally become
     * tainted: when the joining paths forked on *tainted* control
     * flow, which path ran is attacker-visible information, so every
     * path-dependent difference carries taint. This restores the
     * soundness that per-path concrete instruction fetches would
     * otherwise lose (see MemoryDecl::addrTaintsRead).
     */
    void mergeWith(const SymState &other, bool taint_diffs = false);

    bool operator==(const SymState &o) const = default;

    /** Per-slot accessors (slot indices from the layout). */
    Signal slot(size_t i) const;
    void setSlot(size_t i, const Signal &s);

    size_t numSlots() const { return known.size(); }

    /** Number of tainted slots (diagnostics). */
    size_t taintCount() const { return taint.count(); }

    /** Number of unknown slots (diagnostics). */
    size_t unknownCount() const { return known.size() - known.count(); }

    /** Raw plane access for checkpoint serialization. */
    const BitPlane &knownPlane() const { return known; }
    const BitPlane &valuePlane() const { return value; }
    const BitPlane &taintPlane() const { return taint; }

    /** Rebuild from raw planes (checkpoint restore); sizes must agree. */
    void setPlanes(BitPlane k, BitPlane v, BitPlane t);

  private:
    BitPlane known;
    BitPlane value;
    BitPlane taint;

    /** Zero all three planes at @p layout's size (capture's start). */
    void clearFor(const SymLayout &layout);
};

} // namespace glifs

#endif // GLIFS_IFT_SYMSTATE_HH
