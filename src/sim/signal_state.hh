/**
 * @file
 * The mutable value/taint state of a netlist simulation: one Signal per
 * net plus the contents of every memory block.
 *
 * Memory contents live in bit planes (MemPlanes, netlist/memory_array.hh):
 * known / value / taint, cell i = word * width + bit, unknown cells
 * with value bit 0. That is the order and canonical form of a
 * SymState's memory slots, so snapshots, ambiguous-address reads and
 * taint scans all work a plane word at a time.
 */

#ifndef GLIFS_SIM_SIGNAL_STATE_HH
#define GLIFS_SIM_SIGNAL_STATE_HH

#include <vector>

#include "netlist/memory_array.hh"
#include "netlist/netlist.hh"

namespace glifs
{

/** Per-net signals and memory contents. */
class SignalState
{
  public:
    SignalState() = default;
    explicit SignalState(const Netlist &nl);

    Signal net(NetId id) const { return netSignals[id]; }
    void setNet(NetId id, const Signal &s) { netSignals[id] = s; }

    /** The contents of memory @p id. */
    MemPlanes &mem(MemId id) { return memories[id]; }
    const MemPlanes &mem(MemId id) const { return memories[id]; }

    /** Read one memory word's concrete value; X bits read as 0. */
    uint64_t memWordValue(const Netlist &nl, MemId id, size_t word) const;

    /** Store a concrete, untainted word into a memory. */
    void setMemWord(const Netlist &nl, MemId id, size_t word,
                    uint64_t value, bool taint = false);

    size_t numNets() const { return netSignals.size(); }
    size_t numMems() const { return memories.size(); }

    /** Raw per-net signal array (fast whole-state scans). */
    const std::vector<Signal> &rawNets() const { return netSignals; }

  private:
    std::vector<Signal> netSignals;
    std::vector<MemPlanes> memories;
};

} // namespace glifs

#endif // GLIFS_SIM_SIGNAL_STATE_HH
