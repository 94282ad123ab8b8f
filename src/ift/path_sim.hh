/**
 * @file
 * Per-path symbolic simulation: the one per-cycle loop of the analysis.
 *
 * A *segment* is the simulation of one execution point from its
 * concrete-PC start state up to the next PC-changing commit, HALT,
 * *-logic abort, or hook-requested stop. The serial engine
 * (ift/engine.cc) runs every path as a chain of segments and applies
 * each one's effects. Segments are pure functions of the start state: every simulated value, violation and POR fork depends
 * only on the netlist, policy, program image and the start state,
 * never on the engine's global budgets or ladder position (those only
 * affect what the *caller* does with the segment end). That purity is
 * what lets an earlier result stand in for a segment the engine would
 * otherwise simulate (ift/segment_memo.hh, DESIGN.md §11).
 *
 * Inside a segment the machine state lives only in the simulator. The
 * per-cycle test for an unknown PC reads the PC flop nets in place;
 * a SymState is captured only where the segment ends (commit, unknown
 * PC, hook Stop) and at POR forks (DESIGN.md §5).
 */

#ifndef GLIFS_IFT_PATH_SIM_HH
#define GLIFS_IFT_PATH_SIM_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "assembler/program_image.hh"
#include "ift/checker.hh"
#include "ift/engine.hh"
#include "ift/symstate.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"

namespace glifs
{

/** An unknown watchdog-expiry fork taken inside a segment: the fired
 *  branch (concrete PC) to be pushed on the frontier, in order. */
struct SegmentPorFork
{
    SymState fired;
    uint16_t startPc = 0;
    uint16_t instr = 0;  ///< instruction executing at the fork
    uint64_t cycle = 0;  ///< segment-relative cycle of the fork
};

/** What one segment simulated, in segment-relative terms. */
struct SegmentResult
{
    uint64_t cycles = 0;     ///< simulated cycles in this segment
    SymState end;            ///< state after the terminal clock edge
    uint16_t endInstr = 0;   ///< committing instruction address
    uint16_t endFsm = 0;     ///< FSM state at the commit
    bool halted = false;     ///< program reached HALT (no end state)
    bool pcUnknown = false;  ///< end state has unknown PC bits
    bool stopped = false;    ///< hook Stop: end is the in-flight state
    bool killed = false;     ///< hook Kill: caller *-logics the path
    bool starAborted = false; ///< *-logic mode met a tainted/unknown PC

    /** Violations observed in the segment, aggregated per (kind,
     *  instruction) with firstCycle *relative* to the segment start
     *  (1-based); the applier rebases them onto the global clock. */
    std::vector<Violation> violations;

    /** POR forks taken, in push order. */
    std::vector<SegmentPorFork> porForks;

    /** Nets that carried taint during the segment (empty when
     *  EngineConfig::trackTaintedNets is off). */
    BitPlane taintDelta;
};

/** Per-cycle hook decisions mirroring the serial governor poll. */
enum class CycleAction : uint8_t
{
    Continue, ///< simulate the next cycle
    Stop,     ///< hard budget: return with the in-flight state
    Kill,     ///< ladder exhausted: return; caller star-saturates
};

/**
 * Optional per-cycle callbacks. `poll` runs at the governor-poll point
 * (before the cycle's inputs are driven); `cycleCharged` runs right
 * after the combinational settle, where the engine charges its cycle
 * counters. Without hooks a segment runs to its natural end.
 */
struct SegmentHooks
{
    std::function<CycleAction()> poll;
    std::function<void()> cycleCharged;

    /** Absolute cycle count before the segment. Only trace arguments
     *  read it; the SegmentResult stays segment-relative. */
    uint64_t cycleBase = 0;

    /** Emit an `engine/por_fork` instant at each POR fork as it
     *  happens, on the cycleBase clock. The engine sets it for the
     *  segments it simulates; a memo hit's forks are traced by the
     *  engine when it applies the stored result. */
    bool tracePorForks = false;
};

/** One execution point on the engine's LIFO frontier. */
struct FrontierEntry
{
    SymState state;
    uint32_t node = 0; ///< execution-tree node of the path
};

/**
 * One path's symbolic simulation context: the simulator, the symbolic
 * layout, the per-cycle policy checker and every PC/branch helper of
 * Algorithm 1. The engine's degradation ladder mutates `cfg` in place
 * (preciseJumpTargets), which only changes how branch successors are
 * enumerated -- segment execution itself never reads the mutated
 * knobs, preserving segment purity.
 */
class PathSim
{
  public:
    PathSim(const Soc &s, const Policy &p, const EngineConfig &c,
            const ProgramImage &img);

    const Soc &soc;
    const Policy &policy;
    EngineConfig cfg; ///< by value: the ladder mutates it in place
    const ProgramImage &image;

    Simulator sim;
    SymLayout layout;
    FlowChecker checker;
    std::vector<size_t> pcSlots; ///< SymState slots of the PC flops
    /** SymState slots of the instruction-address flops (instrAddrQ
     *  bit order). */
    std::vector<size_t> instrAddrSlots;

    /** Load the binary; taint the tainted code partitions (footnote
     *  3). Program ROM is not part of the captured symbolic state, so
     *  this also re-establishes it when resuming a checkpoint. */
    void loadProgram();

    /** Drive reset and port inputs for one cycle. */
    void setInputs(bool reset);

    /** Concrete value of a probed register bus; panics on X. */
    uint16_t busValue(const Bus &bus, const char *what) const;

    /** Concrete value of a probed bus, or 0xFFFF if any bit is X
     *  (degradation records must never panic on unknowns). */
    uint16_t tryBusValue(const Bus &bus) const;

    bool busHasX(const Bus &bus) const;

    /** OR the live taint of every net into the net-order @p plane
     *  (bit n = net n). */
    void accumulateTaint(BitPlane &plane) const;

    /** Any unknown PC bit in the simulator's current state: the
     *  per-cycle segment-end probe, read without capturing. */
    bool simPcUnknown() const;

    /** Instruction address held by a captured state, or 0xFFFF if any
     *  bit is X (tryBusValue() on the state without restoring it). */
    uint16_t stateInstrAddr(const SymState &s) const;

    /** Unknown PC bits of a captured state. */
    std::vector<unsigned> statePcXBits(const SymState &s) const;

    /** Any taint on the PC bits of a captured state. */
    bool statePcTainted(const SymState &s) const;

    uint16_t statePcBase(const SymState &s) const;

    /** Decode the instruction at a program address (nullopt: data). */
    std::optional<Instr> instrAt(uint16_t addr) const;

    /**
     * Possible concrete next-PC values for a state whose PC has X
     * bits (Algorithm 1, possible_PC_next_vals). Sets @p overflow
     * (and returns nothing) when the enumeration would exceed the
     * hard branch-fanout budget; the caller degrades the path to the
     * *-logic abstraction instead of aborting the analysis. A state
     * whose instruction address is also X merges paths at different
     * instructions (stateInstrAddrXBits), so the precise successors of
     * a jump at @p instr_addr do not bound it: its X PC bits are
     * enumerated, which keeps a watchdog reset's PC 0.
     */
    std::vector<uint16_t> candidatePcs(uint16_t instr_addr,
                                       const SymState &s,
                                       bool &overflow);

    /** Child of @p s with the PC forced to @p pc (taints retained). */
    SymState concretizePc(const SymState &s, uint16_t pc) const;

    /**
     * Unknown instruction-address bits of a captured state. A merge
     * can leave them X under a PC that is known or concretized: two
     * paths reach one commit with different instruction addresses
     * after its edge (one of them reset by a concrete watchdog
     * expiry). A segment cannot start there, so the engine fans such a
     * state out like an unknown PC.
     */
    std::vector<unsigned> stateInstrAddrXBits(const SymState &s) const;

    /** One successor of a branch: its start PC and state. */
    struct BranchChild
    {
        uint16_t pc;
        SymState state;
    };

    /**
     * The concrete successors of a state that cannot start a segment
     * (an X PC or instruction-address bit) ending at @p instr_addr:
     * one per candidate PC and per assignment of the X
     * instruction-address bits, taints retained. Sets @p overflow (and
     * returns nothing) when there would be more than 2^maxBranchBits
     * of them.
     */
    std::vector<BranchChild> branchChildren(uint16_t instr_addr,
                                            const SymState &s,
                                            bool &overflow);

    /**
     * *-logic abstraction: saturate all state to tainted-X, settle the
     * combinational logic once, and report how many gate outputs end
     * up tainted (footnote 8 reproduction).
     */
    std::pair<size_t, size_t> starSaturate(BitPlane *everTainted);

    /**
     * Run one segment from @p start: restore it into the simulator,
     * then continueSegment(). Frontier pops and continuations after a
     * Merged visit or a memo hit start here.
     */
    SegmentResult runSegment(const SymState &start,
                             const SegmentHooks &hooks = {});

    /**
     * Run one segment from the state the simulator already holds: the
     * end of the previous segment, when the engine continues a path
     * past a commit whose visit stored its state unchanged. Simulates
     * cycle by cycle until the next PC-changing commit / unknown PC /
     * HALT / *-logic abort (EngineConfig::starLogicMode), or until a
     * hook says Stop or Kill. The simulator is left in the segment's
     * final state (Kill callers star-saturate it; Stop callers get it
     * captured in SegmentResult::end).
     */
    SegmentResult continueSegment(const SegmentHooks &hooks = {});
};

} // namespace glifs

#endif // GLIFS_IFT_PATH_SIM_HH
