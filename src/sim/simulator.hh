/**
 * @file
 * Cycle-accurate gate-level simulator with GLIFT taint propagation.
 *
 * The same engine serves two roles:
 *  - concrete simulation (all inputs known) for functional testing,
 *    cycle counting and energy measurement; and
 *  - symbolic simulation (X inputs) as the single-cycle step primitive
 *    of the paper's input-independent taint tracking (Algorithm 1).
 *
 * A Simulator evaluates along one of two paths, chosen once per
 * simulator (DESIGN.md "Simulator scheduling"):
 *  - Packed, the production path: the netlist is lowered once into
 *    bit-packed plane programs (netlist/compile.hh, DESIGN.md
 *    "Compiled evaluation") that settle up to 64 gates per bitwise
 *    kernel application, and evalComb() re-runs only the compiled
 *    units whose inputs changed since the last settle.
 *  - Interp, the reference oracle: the levelized schedule swept in
 *    full every settle, one table lookup per gate, no dirty tracking.
 *    GLIFS_SIM_INTERP=1 (read at construction) or
 *    setBackend(SimBackend::Interp) selects it, so a whole audit can be
 *    A/B'd against it without recompiling.
 *
 * Every gate is a pure function of its input signals, so both paths
 * produce bit-identical values and taints on every net and memory cell
 * (tests/test_sim_event.cc).
 */

#ifndef GLIFS_SIM_SIMULATOR_HH
#define GLIFS_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "netlist/levelize.hh"
#include "netlist/memory_array.hh"
#include "netlist/netlist.hh"
#include "sim/signal_state.hh"
#include "sim/toggle_stats.hh"

namespace glifs
{

class GliftTables;
class PackedEval;

/**
 * Evaluation path. Packed (the default) runs the netlist compiled into
 * bit-parallel plane kernels (netlist/compile.hh), 64 same-kind gates
 * per word op, over a dirty set of compiled units; Interp is the
 * reference oracle, a full levelized sweep through the
 * one-signal-at-a-time table interpreter. Both produce bit-identical
 * values and taints on every net.
 */
enum class SimBackend : uint8_t { Packed, Interp };

/**
 * Gate-level cycle simulator. The netlist must outlive the simulator.
 */
class Simulator
{
  public:
    explicit Simulator(const Netlist &nl);
    Simulator(Simulator &&) noexcept;
    ~Simulator();

    const Netlist &netlist() const { return nl; }
    /** Every net and memory cell: the one store of both paths, its
     *  net planes on the compiled slot map (packed) or the identity
     *  map (oracle). */
    SignalState &state() { return sigs; }
    const SignalState &state() const { return sigs; }

    /** Drive a primary input (or any undriven net). */
    void setInput(NetId net, const Signal &s) { setNet(net, s); }

    /**
     * Tracked override of any net's slot. A change marks the net's
     * consumer units dirty; if a combinational gate or memory read
     * port drives the net, its unit is marked too, so the override is
     * visible to the next clock edge and gone after the next
     * evalComb(), exactly as under the oracle, which recomputes every
     * driven net each settle. Under markAllDirty() nothing is marked.
     */
    void setNet(NetId net, const Signal &s);

    /**
     * Store a concrete word into a memory block, keeping the read
     * port's dirty tracking consistent. External writers must use this
     * (or markMemDirty()/markAllDirty()) instead of mutating
     * state().mem() behind the scheduler's back.
     */
    void setMemWord(MemId mem, size_t word, uint64_t value,
                    bool taint = false);

    /** Mark a memory's read port for re-evaluation (cells changed). */
    void markMemDirty(MemId mem);

    /**
     * Flip-flop state as known/value/taint bit words: flop i of
     * nl.dffs() is bit i % 64 of word i / 64, the layout of a
     * SymState's flop slots. readFlops() ORs every flop into the words
     * a plane word at a time and leaves the bits past the last flop
     * alone; writeFlops() is a tracked store of every flop from the
     * same bits (a value bit on an unknown flop is ignored), marking
     * exactly the consumers of the flops it changes. Packed backend
     * only: the interpreted oracle reads and writes flops through
     * state().
     */
    void readFlops(std::span<uint64_t> known, std::span<uint64_t> value,
                   std::span<uint64_t> taint) const;
    void writeFlops(std::span<const uint64_t> known,
                    std::span<const uint64_t> value,
                    std::span<const uint64_t> taint);

    /** Tracked store of memory @p mem from bits [pos, pos + cells) of
     *  three planes (MemPlanes::loadFrom); the read port is marked
     *  only if a cell changed. */
    void writeMem(MemId mem, const BitPlane &known, const BitPlane &value,
                  const BitPlane &taint, size_t pos);

    /**
     * Invalidate the whole dirty set: the next evalComb() runs every
     * compiled unit once, untracked, and the next edge latches every
     * flip-flop. Required after any bulk write to state() that
     * bypasses the tracked setters (a SymState restored through
     * state(), checkpoint resume, *-logic saturation); the written
     * values are already in the planes, only the schedule is reset.
     */
    void markAllDirty() { allDirty = true; }

    /** Path selection (default Packed; also GLIFS_SIM_INTERP=1). A
     *  switch re-lays the net planes onto the new path's slot map and
     *  marks everything dirty. */
    SimBackend backend() const { return backendSel; }
    void setBackend(SimBackend b);

    /** Current value of any net (after evalComb() for comb nets). */
    Signal netValue(NetId net) const { return sigs.net(net); }

    /**
     * Settle all combinational logic and memory read ports for the
     * current cycle: the dirty units on the packed path (every unit
     * after markAllDirty()), the whole levelized schedule on the
     * oracle.
     */
    void evalComb();

    /**
     * Advance one clock edge: latch every flip-flop (with the Figure-7
     * reset-taint semantics) and commit memory write ports. Flip-flops
     * and memories whose outputs actually changed seed the next
     * cycle's dirty set (packed path). evalComb() must have been
     * called for the cycle.
     */
    void clockEdge();

    /** evalComb() + clockEdge(). */
    void
    step()
    {
        evalComb();
        clockEdge();
    }

    uint64_t cycle() const { return cycleCount; }
    void resetCycleCount() { cycleCount = 0; }

    /** Enable per-gate toggle counting (for the energy model). */
    void enableToggleStats(bool on) { togglesOn = on; }
    const ToggleStats &toggleStats() const { return toggles; }
    ToggleStats &toggleStats() { return toggles; }

  private:
    const Netlist &nl;
    std::vector<EvalStep> order;
    SignalState sigs;
    uint64_t cycleCount = 0;
    bool togglesOn = false;
    ToggleStats toggles;

    SimBackend backendSel = SimBackend::Packed;

    // --- packed path -------------------------------------------------
    /** Compiled program + planes; created on first Packed selection. */
    std::unique_ptr<PackedEval> packed;
    /** Next settle must run every unit, untracked. */
    bool allDirty = true;

    // --- reusable scratch buffers (no per-call heap allocation) ------
    std::vector<Signal> addrScratch;
    std::vector<Signal> dataScratch;  ///< write-port data signals
    std::vector<Signal> dffNextScratch;

    /** One memory write port's pending edge update. */
    struct PendingWrite
    {
        MemAddr addr;
        Signal we;
        MemWord data;
    };
    std::vector<PendingWrite> writeScratch;  ///< per-memory slot
    std::vector<MemId> activeWrites;         ///< memories written this edge
    std::vector<uint32_t> dffRunScratch;     ///< dff words latching this edge

    /** Decode memory @p m's read address and read the port's word. */
    MemWord readPort(MemId m);

    /** A fresh state laid out on the current path's slot map. */
    SignalState emptyState() const;
    /** Memory @p m's read port; @p track (packed) marks consumers. */
    void evalMemRead(MemId m, bool track);

    // --- oracle path -------------------------------------------------
    void evalGate(GateId g, const GliftTables &glift);
    /** The full levelized sweep. */
    void evalFull();

    // --- packed path -------------------------------------------------
    void evalCombPacked();
    void clockEdgePacked();
    /** Run one compiled unit on sigs' planes. */
    void runUnitPacked(uint32_t unit, bool track, size_t &evaluated,
                       size_t &wordEvals);
    /** Stage all memory write ports (shared by both edge paths). */
    void stageMemWrites();
    /** Commit memory @p m's staged write (shared by both edge paths). */
    void commitMemWrite(MemId m);
};

} // namespace glifs

#endif // GLIFS_SIM_SIMULATOR_HH
