#include "sim/signal_state.hh"

#include <algorithm>
#include <numeric>

#include "base/logging.hh"

namespace glifs
{

namespace
{

std::vector<uint32_t>
identitySlots(size_t nets)
{
    std::vector<uint32_t> slots(nets);
    std::iota(slots.begin(), slots.end(), 0u);
    return slots;
}

} // namespace

SignalState::SignalState(const Netlist &nl)
    : SignalState(nl, identitySlots(nl.numNets()),
                  (nl.numNets() + 63) / 64)
{
}

SignalState::SignalState(const Netlist &nl,
                         std::vector<uint32_t> slot_of_net,
                         size_t plane_words)
    : slotOfNet(std::move(slot_of_net)),
      planes(plane_words)
{
    GLIFS_ASSERT(slotOfNet.size() == nl.numNets(),
                 "SignalState: slot map size mismatch");
    for (NetId n = 0; n < nl.numNets(); ++n)
        setNet(n, Signal{Tern::X, false});
    memories.reserve(nl.numMemories());
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        memories.emplace_back(decl.words, decl.width);
    }
    // Constant nets hold their value from the start.
    for (const Gate &g : nl.gates()) {
        if (g.type == GateType::Const)
            setNet(g.out, sigBool(g.constVal));
    }
}

void
SignalState::orTaintIntoNets(std::span<const packed::Planes> slots,
                             BitPlane &nets) const
{
    // Each net-order word is built in a register and stored once.
    std::vector<uint64_t> &out = nets.words();
    for (size_t base = 0; base < slotOfNet.size(); base += 64) {
        const size_t end = std::min(slotOfNet.size(), base + 64);
        uint64_t word = 0;
        for (size_t n = base; n < end; ++n) {
            const uint32_t s = slotOfNet[n];
            word |= ((slots[s >> 6].tnt >> (s & 63)) & 1ULL) << (n - base);
        }
        out[base >> 6] |= word;
    }
}

uint64_t
SignalState::memWordValue(const Netlist &nl, MemId id, size_t word) const
{
    GLIFS_ASSERT(word < nl.memory(id).words, "memWordValue out of range");
    // Canonical planes: the value bit of an unknown cell is 0.
    return memories[id].word(word).value;
}

void
SignalState::setMemWord(const Netlist &nl, MemId id, size_t word,
                        uint64_t value, bool taint)
{
    const MemoryDecl &decl = nl.memory(id);
    GLIFS_ASSERT(word < decl.words, "setMemWord out of range");
    const uint64_t all = lowMask(decl.width);
    memories[id].setWord(word, MemWord{all, value & all, taint ? all : 0});
}

} // namespace glifs
