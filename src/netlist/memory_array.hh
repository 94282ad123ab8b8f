/**
 * @file
 * Memory contents and their conservative taint semantics (Section 4.1
 * and Figure 9 of the paper).
 *
 * A memory block is stored as three bit planes (known / value /
 * taint), cell i = word * width + bit, the slot order of a SymState's
 * memory range (ift/symstate.hh). Unknown cells keep their value bit
 * at 0, the same canonical form SymState uses, so a snapshot is a
 * shifted word copy and plane equality is cell equality. Every memory
 * operation below works on whole (known, value, taint) word triples;
 * the per-Signal cell accessors exist for tests and tooling.
 *
 * Reads and writes with fully known addresses behave like a normal RAM,
 * ORing the address taint into the data taint. An address with unknown
 * (X) bits denotes a *set* of cells: a read merges all reachable cells,
 * and a write conservatively merges the written data into every
 * reachable cell — a store through a fully unknown tainted pointer
 * therefore taints the whole memory, exactly the behaviour the paper
 * reports for the unmasked Figure 9 listing.
 */

#ifndef GLIFS_NETLIST_MEMORY_ARRAY_HH
#define GLIFS_NETLIST_MEMORY_ARRAY_HH

#include <algorithm>
#include <bit>
#include <span>
#include <vector>

#include "base/bitutil.hh"
#include "netlist/netlist.hh"

namespace glifs
{

/** One memory word as three bit masks, bit b = cell b of the word.
 *  Canonical: value bits are 0 wherever known is 0. */
struct MemWord
{
    uint64_t known = 0;
    uint64_t value = 0;
    uint64_t taint = 0;

    /** The signal of bit @p b. */
    Signal
    bit(unsigned b) const
    {
        return Signal{((known >> b) & 1ULL)
                          ? ternBool((value >> b) & 1ULL)
                          : Tern::X,
                      ((taint >> b) & 1ULL) != 0};
    }

    /** Join with @p o: known only where both are known and agree,
     *  taints union (the same join as SymState::mergeWith). */
    void
    mergeWith(const MemWord &o)
    {
        known &= o.known & ~(value ^ o.value);
        value &= known;
        taint |= o.taint;
    }

    bool operator==(const MemWord &o) const = default;
};

/** Pack signals (bit 0 first, at most 64) into a canonical MemWord. */
MemWord packMemWord(std::span<const Signal> bits);

/** The contents of one memory block as known/value/taint planes. */
class MemPlanes
{
  public:
    MemPlanes() = default;
    /** @p words x @p width cells, all unknown and untainted. */
    MemPlanes(size_t words, unsigned width);

    size_t words() const { return numWords; }
    unsigned width() const { return wordWidth; }
    size_t cells() const { return numWords * wordWidth; }

    Signal
    cell(size_t i) const
    {
        return Signal{known.get(i) ? ternBool(value.get(i)) : Tern::X,
                      taint.get(i)};
    }

    void
    setCell(size_t i, const Signal &s)
    {
        known.set(i, s.known());
        value.set(i, s.known() && s.asBool());
        taint.set(i, s.taint);
    }

    MemWord
    word(size_t w) const
    {
        const size_t pos = w * wordWidth;
        return MemWord{known.field(pos, wordWidth),
                       value.field(pos, wordWidth),
                       taint.field(pos, wordWidth)};
    }

    /** Store @p m (canonicalised) as word @p w. */
    void
    setWord(size_t w, const MemWord &m)
    {
        const size_t pos = w * wordWidth;
        known.setField(pos, wordWidth, m.known);
        value.setField(pos, wordWidth, m.value & m.known);
        taint.setField(pos, wordWidth, m.taint);
    }

    /** Set every cell to @p s. */
    void fill(const Signal &s);

    /** Copy all cells into bits [pos, pos + cells()) of three planes
     *  (SymState capture). */
    void storeTo(BitPlane &k, BitPlane &v, BitPlane &t, size_t pos) const;

    /** Load all cells from bits [pos, pos + cells()) of three planes
     *  (SymState restore); value bits on unknown cells are dropped. */
    void loadFrom(const BitPlane &k, const BitPlane &v, const BitPlane &t,
                  size_t pos);

    const BitPlane &knownPlane() const { return known; }
    const BitPlane &valuePlane() const { return value; }
    const BitPlane &taintPlane() const { return taint; }

    /**
     * Call @p fn(w) once, in ascending order, for every word w in
     * [first, last] that holds at least one tainted cell. Scans the
     * taint plane a plane word at a time.
     */
    template <typename Fn>
    void
    forEachTaintedWord(size_t first, size_t last, Fn &&fn) const
    {
        if (first > last || first >= numWords)
            return;
        last = std::min(last, numWords - 1);
        const std::vector<uint64_t> &t = taint.words();
        size_t pos = first * wordWidth;
        const size_t end = (last + 1) * wordWidth;
        while (pos < end) {
            const size_t wi = pos / 64;
            const size_t wordEnd = (wi + 1) * 64;
            uint64_t bits = t[wi] & (~0ULL << (pos % 64));
            if (end < wordEnd)
                bits &= lowMask(end % 64);
            if (bits == 0) {
                pos = wordEnd;
                continue;
            }
            const size_t w =
                (wi * 64 + static_cast<size_t>(std::countr_zero(bits))) /
                wordWidth;
            fn(w);
            pos = (w + 1) * wordWidth;
        }
    }

    bool operator==(const MemPlanes &o) const = default;

  private:
    size_t numWords = 0;
    unsigned wordWidth = 0;
    BitPlane known;
    BitPlane value;
    BitPlane taint;
};

/** Decoded view of a (possibly partially unknown) memory address. */
struct MemAddr
{
    uint64_t base = 0;               ///< known 1 bits of the address
    uint64_t xMask = 0;              ///< bits whose value is X
    bool tainted = false;            ///< OR of all address-bit taints
    bool fullRange = false;          ///< too many X bits: any cell

    /** Exactly one concrete address? */
    bool concrete() const { return !fullRange && xMask == 0; }
};

/** Decode address signals (LSB first) into a MemAddr. */
MemAddr decodeMemAddr(std::span<const Signal> addr, size_t words,
                      unsigned max_unknown_bits);

/**
 * Enumerate every in-range concrete address a MemAddr may denote, in
 * ascending order, and call @p fn(word_index) for each.
 */
template <typename Fn>
inline void
forEachAddr(const MemAddr &addr, size_t words, Fn &&fn)
{
    if (addr.fullRange) {
        for (size_t w = 0; w < words; ++w)
            fn(w);
        return;
    }
    // base | sub over the subsets sub of xMask, ascending (base has no
    // bit in xMask): past the first out-of-range address, all are.
    uint64_t sub = 0;
    do {
        const uint64_t a = addr.base | sub;
        if (a >= words)
            break;
        fn(static_cast<size_t>(a));
        sub = (sub - addr.xMask) & addr.xMask;
    } while (sub != 0);
}

/** Does a write with this address and enable merge into the cells
 *  (possible enable or ambiguous address) rather than replace one
 *  word or do nothing? */
inline bool
isWeakWrite(const MemAddr &addr, const Signal &we)
{
    if (we.known() && !we.asBool())
        return false;
    return !(we.known() && addr.concrete());
}

/** Read one word: a concrete address reads its cell word, any other
 *  address the join of every word it may denote. */
MemWord memoryRead(const MemPlanes &mem, const MemAddr &addr);

/**
 * Apply one write-port update at a clock edge. @p we is the write
 * enable signal, @p data the word to store.
 */
void memoryWrite(MemPlanes &mem, const MemAddr &addr, const Signal &we,
                 const MemWord &data);

} // namespace glifs

#endif // GLIFS_NETLIST_MEMORY_ARRAY_HH
