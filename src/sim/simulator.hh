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
 * Scheduling is event-driven by default (DESIGN.md "Simulator
 * scheduling"): a precomputed fanout index maps every changed net to
 * the combinational gates and memory read ports it feeds, and
 * evalComb() re-evaluates only those, draining per-level worklists in
 * dependency order. Because every gate is a pure function of its input
 * signals, a node none of whose inputs changed cannot change its
 * output, so the event-driven settle is bit-identical (values and
 * taints) to the full levelized sweep -- which remains available via
 * setFullSweepMode() or the GLIFS_SIM_FULL_SWEEP=1 environment
 * variable for A/B measurement and differential testing.
 *
 * Evaluation itself is compiled by default (DESIGN.md "Compiled
 * evaluation"): the netlist is lowered once into bit-packed plane
 * programs (netlist/compile.hh) and settles run up to 64 gates per
 * bitwise kernel application, with dirty tracking over compiled units
 * instead of individual nodes. GLIFS_SIM_INTERP=1 (or
 * setBackend(SimBackend::Interp)) falls back to the per-signal table
 * interpreter; sweep mode and backend are orthogonal axes.
 */

#ifndef GLIFS_SIM_SIMULATOR_HH
#define GLIFS_SIM_SIMULATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "netlist/fanout.hh"
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
 * Evaluation backend. Packed (the default) runs the netlist compiled
 * into bit-parallel plane kernels (netlist/compile.hh), 64 same-kind
 * gates per word op; Interp is the one-signal-at-a-time table
 * interpreter, kept as the bisection escape hatch
 * (GLIFS_SIM_INTERP=1) and differential-test oracle. Both produce
 * bit-identical values and taints on every net.
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
     * Tracked override of any net. A change marks the net's fanout
     * dirty; if a combinational gate or memory read port drives the
     * net, that driver is marked too, so the override cannot outlive
     * the next evalComb() (full-sweep parity: the sweep recomputes
     * every driven net each settle).
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
     * Invalidate the whole dirty set: the next evalComb() performs a
     * full levelized sweep. Required after any bulk mutation of the
     * SignalState that bypasses the tracked setters (symbolic state
     * restore, checkpoint resume, *-logic saturation).
     */
    void
    markAllDirty()
    {
        allDirty = true;
        // The packed planes may no longer mirror the SignalState;
        // re-import before the next packed pass.
        planesValid = false;
    }

    /** Full-sweep escape hatch (also GLIFS_SIM_FULL_SWEEP=1). */
    bool fullSweepMode() const { return fullSweep; }
    void setFullSweepMode(bool on);

    /** Backend selection (default Packed; also GLIFS_SIM_INTERP=1). */
    SimBackend backend() const { return backendSel; }
    void setBackend(SimBackend b);

    /** Current value of any net (after evalComb() for comb nets). */
    Signal netValue(NetId net) const { return sigs.net(net); }

    /**
     * Settle all combinational logic and memory read ports for the
     * current cycle: only dirty nodes in event-driven mode, the whole
     * levelized schedule in full-sweep mode or after markAllDirty().
     */
    void evalComb();

    /**
     * Advance one clock edge: latch every flip-flop (with the Figure-7
     * reset-taint semantics) and commit memory write ports. Flip-flops
     * and memories whose outputs actually changed seed the next
     * cycle's dirty set. evalComb() must have been called for the
     * cycle.
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
    FanoutIndex fanout;
    SignalState sigs;
    uint64_t cycleCount = 0;
    bool togglesOn = false;
    ToggleStats toggles;

    // --- event-driven scheduler state --------------------------------
    bool fullSweep = false;  ///< escape hatch: always sweep everything
    bool allDirty = true;    ///< next settle must sweep everything

    // --- packed backend ----------------------------------------------
    SimBackend backendSel = SimBackend::Packed;
    /** Compiled program + planes; created on first Packed selection. */
    std::unique_ptr<PackedEval> packed;
    /** Planes mirror the SignalState net-for-net (else re-import). */
    bool planesValid = false;
    /** Node-space dirty bitset (deduplicates worklist inserts). */
    std::vector<uint64_t> dirtyWords;
    /** Per-level worklists of dirty nodes, drained in ascending order. */
    std::vector<std::vector<uint32_t>> levelWork;

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

    void markNodeDirty(uint32_t node);
    void markNetFanoutDirty(NetId net);

    /** Evaluate one gate; propagate into the dirty set iff @p track. */
    void evalGate(GateId g, const GliftTables &glift, bool track);
    void evalMemRead(MemId m, bool track);
    /** Decode memory @p m's read address and read the port's word. */
    MemWord readPort(MemId m);

    /** The full levelized sweep (allDirty / full-sweep mode). */
    void evalFull();

    // --- packed-backend paths ----------------------------------------
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
