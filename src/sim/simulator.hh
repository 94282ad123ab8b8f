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
    SignalState &state() { return sigs; }
    const SignalState &state() const { return sigs; }

    /** Replace the whole simulation state (used by symbolic restore). */
    void
    setState(const SignalState &s)
    {
        sigs = s;
        markAllDirty();
    }

    void
    setState(SignalState &&s)
    {
        sigs = std::move(s);
        markAllDirty();
    }

    /** Drive a primary input (or any undriven net). */
    void setInput(NetId net, const Signal &s) { setNet(net, s); }

    /**
     * Tracked override of any net. A change marks the net's consumer
     * units dirty; if a combinational gate or memory read port drives
     * the net, its unit is marked too, so the override is visible to
     * the next clock edge and gone after the next evalComb(), exactly
     * as under the oracle, which recomputes every driven net each
     * settle.
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
     * Invalidate the whole dirty set: the next evalComb() runs every
     * compiled unit once, untracked. Required after any bulk mutation
     * of the SignalState that bypasses the tracked setters (symbolic
     * state restore, checkpoint resume, *-logic saturation).
     */
    void
    markAllDirty()
    {
        allDirty = true;
        // The packed planes may no longer mirror the SignalState;
        // re-import before the next packed pass.
        planesValid = false;
    }

    /** Path selection (default Packed; also GLIFS_SIM_INTERP=1). */
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
    /** Planes mirror the SignalState net-for-net (else re-import). */
    bool planesValid = false;

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

    // --- oracle path -------------------------------------------------
    void evalGate(GateId g, const GliftTables &glift);
    void evalMemRead(MemId m);
    /** The full levelized sweep. */
    void evalFull();

    // --- packed path -------------------------------------------------
    void evalCombPacked();
    void clockEdgePacked();
    /** Run one compiled unit; mirrors changed nets into sigs. */
    void runUnitPacked(uint32_t unit, bool track, size_t &evaluated,
                       size_t &wordEvals);
    /** Memory read port with plane mirroring + unit marking. */
    void evalMemReadPacked(MemId m, bool track);
    /** Stage all memory write ports (shared by both edge paths). */
    void stageMemWrites();
    /** Commit memory @p m's staged write (shared by both edge paths). */
    void commitMemWrite(MemId m);
};

} // namespace glifs

#endif // GLIFS_SIM_SIMULATOR_HH
