/**
 * @file
 * The mutable value/taint state of a netlist simulation: every net's
 * signal and the contents of every memory block, all in bit planes.
 *
 * Nets live in lo (value can be 0) / hi (value can be 1) / tnt planes
 * over a slot space, in the packed kernels' encoding (packed::Planes,
 * DESIGN.md §10); a net -> slot map places each net. SignalState(nl)
 * uses the identity map, as the interpreted oracle and the tests do; a
 * packed Simulator uses the compiled map and runs its kernels on these
 * planes in place.
 *
 * Memory contents live in bit planes (MemPlanes, netlist/memory_array.hh):
 * known / value / taint, cell i = word * width + bit, unknown cells
 * with value bit 0. That is the order and canonical form of a
 * SymState's memory slots, so snapshots, ambiguous-address reads and
 * taint scans all work a plane word at a time.
 */

#ifndef GLIFS_SIM_SIGNAL_STATE_HH
#define GLIFS_SIM_SIGNAL_STATE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "base/bitutil.hh"
#include "netlist/memory_array.hh"
#include "netlist/netlist.hh"
#include "sim/packed_kernels.hh"

namespace glifs
{

/** Per-net signals and memory contents. */
class SignalState
{
  public:
    SignalState() = default;

    /** Every net X and untainted (constants at their value), every
     *  memory cell unknown; net n at slot n. */
    explicit SignalState(const Netlist &nl);

    /** The same, with net n at slot @p slot_of_net[n]. */
    SignalState(const Netlist &nl, std::vector<uint32_t> slot_of_net,
                size_t plane_words);

    Signal
    net(NetId id) const
    {
        return packed::getLane(planes[slotOfNet[id] >> 6],
                               slotOfNet[id] & 63);
    }

    void
    setNet(NetId id, const Signal &s)
    {
        packed::setLane(planes[slotOfNet[id] >> 6], slotOfNet[id] & 63, s);
    }

    /** The net plane words in slot order, the packed kernels' operands:
     *  slot s is lane s & 63 of word s >> 6; unused slots stay 0. */
    std::vector<packed::Planes> &netPlanes() { return planes; }
    const std::vector<packed::Planes> &netPlanes() const { return planes; }

    /** OR into the net-order @p nets (bit n = net n) every net whose
     *  slot is tainted in the slot-order words @p slots: the one
     *  slot -> net permutation, used for taint accumulation. */
    void orTaintIntoNets(std::span<const packed::Planes> slots,
                         BitPlane &nets) const;

    /** The contents of memory @p id. */
    MemPlanes &mem(MemId id) { return memories[id]; }
    const MemPlanes &mem(MemId id) const { return memories[id]; }

    /** Read one memory word's concrete value; X bits read as 0. */
    uint64_t memWordValue(const Netlist &nl, MemId id, size_t word) const;

    /** Store a concrete, untainted word into a memory. */
    void setMemWord(const Netlist &nl, MemId id, size_t word,
                    uint64_t value, bool taint = false);

  private:
    std::vector<uint32_t> slotOfNet;
    std::vector<packed::Planes> planes;
    std::vector<MemPlanes> memories;
};

} // namespace glifs

#endif // GLIFS_SIM_SIGNAL_STATE_HH
