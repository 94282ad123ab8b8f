#include "netlist/memory_array.hh"

#include "base/logging.hh"

namespace glifs
{

MemWord
packMemWord(std::span<const Signal> bits)
{
    GLIFS_ASSERT(bits.size() <= 64, "memory word wider than 64 bits");
    MemWord m;
    for (size_t b = 0; b < bits.size(); ++b) {
        m.known |= static_cast<uint64_t>(bits[b].known()) << b;
        m.value |= static_cast<uint64_t>(bits[b].value == Tern::One) << b;
        m.taint |= static_cast<uint64_t>(bits[b].taint) << b;
    }
    return m;
}

MemPlanes::MemPlanes(size_t words, unsigned width)
    : numWords(words), wordWidth(width), known(words * width),
      value(words * width), taint(words * width)
{
    GLIFS_ASSERT(width >= 1 && width <= 64, "memory width ", width,
                 " outside [1, 64]");
}

void
MemPlanes::fill(const Signal &s)
{
    auto set = [](BitPlane &p, bool b) {
        if (b)
            p.setAll();
        else
            p.clearAll();
    };
    set(known, s.known());
    set(value, s.known() && s.asBool());
    set(taint, s.taint);
}

void
MemPlanes::storeTo(BitPlane &k, BitPlane &v, BitPlane &t, size_t pos) const
{
    k.copyBits(pos, known, 0, cells());
    v.copyBits(pos, value, 0, cells());
    t.copyBits(pos, taint, 0, cells());
}

void
MemPlanes::loadFrom(const BitPlane &k, const BitPlane &v,
                    const BitPlane &t, size_t pos)
{
    known.copyBits(0, k, pos, cells());
    value.copyBits(0, v, pos, cells());
    taint.copyBits(0, t, pos, cells());
    // A state read from a file may carry value bits on unknown cells.
    value.andWith(known);
}

MemAddr
decodeMemAddr(std::span<const Signal> addr, size_t words,
              unsigned max_unknown_bits)
{
    MemAddr out;
    for (size_t i = 0; i < addr.size(); ++i) {
        const Signal &s = addr[i];
        out.tainted = out.tainted || s.taint;
        if (!s.known()) {
            out.xMask |= 1ULL << i;
        } else if (s.asBool()) {
            out.base |= 1ULL << i;
        }
    }
    const unsigned unknown = popcount64(out.xMask);
    if (unknown > max_unknown_bits || (1ULL << unknown) >= 2 * words) {
        out.fullRange = true;
        out.xMask = 0;
        out.base = 0;
    }
    return out;
}

MemWord
memoryRead(const MemPlanes &mem, const MemAddr &addr)
{
    MemWord out;  // nothing reachable: all X
    bool any = false;
    forEachAddr(addr, mem.words(), [&](size_t w) {
        if (any) {
            out.mergeWith(mem.word(w));
        } else {
            out = mem.word(w);
            any = true;
        }
    });
    if (addr.tainted)
        out.taint |= lowMask(mem.width());
    return out;
}

void
memoryWrite(MemPlanes &mem, const MemAddr &addr, const Signal &we,
            const MemWord &data)
{
    // Definitely no write: nothing to do. A tainted-but-0 enable is
    // handled by the engine's path enumeration (the path where the
    // write actually happens carries the taint; merges OR it back).
    if (we.known() && !we.asBool())
        return;

    const uint64_t extraTaint =
        (we.taint || addr.tainted) ? lowMask(mem.width()) : 0;
    if (!isWeakWrite(addr, we)) {
        if (addr.base >= mem.words())
            return;
        MemWord cell = data;
        cell.taint |= extraTaint;
        mem.setWord(addr.base, cell);
        return;
    }

    // Possible (unknown enable) or ambiguous-address write: weak update.
    MemWord merged = data;
    merged.taint |= extraTaint;
    forEachAddr(addr, mem.words(), [&](size_t w) {
        MemWord cell = mem.word(w);
        cell.mergeWith(merged);
        mem.setWord(w, cell);
    });
}

} // namespace glifs
