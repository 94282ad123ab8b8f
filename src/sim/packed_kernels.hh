/**
 * @file
 * Bit-parallel GLIFT kernels over {0,1,X}+taint plane words.
 *
 * A word of 64 signals is stored as three 64-bit planes:
 *
 *   lo  - "the value can be 0"  (set for 0 and X)
 *   hi  - "the value can be 1"  (set for 1 and X)
 *   tnt - the GLIFT taint bit
 *
 * so 0 = (lo,hi)=(1,0), 1 = (0,1), X = (1,1); (0,0) never occurs for a
 * valid lane. One bitwise kernel evaluates 64 independent gates of the
 * same GateKind at once, lane by lane, with semantics bit-identical to
 * glift::propagate (GliftTables::evalReference): the ternary value is
 * the exact set of outputs reachable by enumerating X inputs, and the
 * taint is set iff varying the tainted inputs (over {0,1}, regardless
 * of current value) can change the output for some assignment of the
 * untainted-X inputs -- which is what gives NAND/NOR/AND/OR their
 * untainted-controlling-value masking. tests/test_packed_kernels.cc
 * pins every kernel against the table-driven reference over all input
 * codes.
 */

#ifndef GLIFS_SIM_PACKED_KERNELS_HH
#define GLIFS_SIM_PACKED_KERNELS_HH

#include <cstdint>

#include "logic/ternary.hh"

namespace glifs::packed
{

/** One word of 64 ternary+taint lanes. */
struct Planes
{
    uint64_t lo = 0;   ///< lane value can be 0
    uint64_t hi = 0;   ///< lane value can be 1
    uint64_t tnt = 0;  ///< lane taint

    bool operator==(const Planes &o) const = default;
};

/**
 * Encode known/value/taint lane masks (the form of SymState and
 * MemWord; a value bit on an unknown lane is ignored) as a Planes
 * word. knownOf()/valueOf() decode it again, agreeing with getLane().
 */
inline Planes
fromKnown(uint64_t known, uint64_t value, uint64_t taint)
{
    return {~(known & value), ~known | value, taint};
}

inline uint64_t
knownOf(const Planes &p)
{
    return ~(p.lo & p.hi);
}

inline uint64_t
valueOf(const Planes &p)
{
    return ~p.lo;
}

/** Encode one Signal into lane @p lane of a Planes word. */
inline void
setLane(Planes &p, unsigned lane, const Signal &s)
{
    const uint64_t bit = 1ULL << lane;
    p.lo &= ~bit;
    p.hi &= ~bit;
    p.tnt &= ~bit;
    if (s.value != Tern::One)
        p.lo |= bit;
    if (s.value != Tern::Zero)
        p.hi |= bit;
    if (s.taint)
        p.tnt |= bit;
}

/** Decode lane @p lane of a Planes word into a Signal. */
inline Signal
getLane(const Planes &p, unsigned lane)
{
    const bool lo = (p.lo >> lane) & 1;
    const bool hi = (p.hi >> lane) & 1;
    Signal s;
    s.value = lo ? (hi ? Tern::X : Tern::Zero) : Tern::One;
    s.taint = (p.tnt >> lane) & 1;
    return s;
}

inline Planes
bufKernel(const Planes &a)
{
    return a;
}

inline Planes
notKernel(const Planes &a)
{
    // Negation swaps the reachable-value planes; taint is unchanged
    // (an inverter never masks).
    return {a.hi, a.lo, a.tnt};
}

inline Planes
andKernel(const Planes &a, const Planes &b)
{
    // Taint flows from a tainted input unless the other input is an
    // untainted 0 (the controlling value): the partner must be able to
    // be 1 -- either by value (hi) or because it is itself tainted and
    // ranges over {0,1}.
    return {a.lo | b.lo, a.hi & b.hi,
            (a.tnt & (b.hi | b.tnt)) | (b.tnt & (a.hi | a.tnt))};
}

inline Planes
orKernel(const Planes &a, const Planes &b)
{
    // Dual of AND: an untainted 1 is the controlling/masking value.
    return {a.lo & b.lo, a.hi | b.hi,
            (a.tnt & (b.lo | b.tnt)) | (b.tnt & (a.lo | a.tnt))};
}

inline Planes
nandKernel(const Planes &a, const Planes &b)
{
    return notKernel(andKernel(a, b));
}

inline Planes
norKernel(const Planes &a, const Planes &b)
{
    return notKernel(orKernel(a, b));
}

inline Planes
xorKernel(const Planes &a, const Planes &b)
{
    // XOR has no controlling value: any tainted input taints the
    // output unconditionally.
    return {(a.lo & b.lo) | (a.hi & b.hi),
            (a.lo & b.hi) | (a.hi & b.lo), a.tnt | b.tnt};
}

inline Planes
xnorKernel(const Planes &a, const Planes &b)
{
    return notKernel(xorKernel(a, b));
}

/** out = sel ? b : a (operand order matches GateKind::Mux). */
inline Planes
muxKernel(const Planes &sel, const Planes &a, const Planes &b)
{
    Planes o;
    o.lo = (sel.lo & a.lo) | (sel.hi & b.lo);
    o.hi = (sel.lo & a.hi) | (sel.hi & b.hi);
    // A tainted select leaks iff the two data inputs can differ (a
    // tainted data input can always differ); an untainted select
    // forwards the taint of whichever input(s) it can pick.
    const uint64_t differ = (a.lo & b.hi) | (a.hi & b.lo);
    o.tnt = (sel.tnt & (a.tnt | b.tnt | differ)) |
            (~sel.tnt & ((sel.lo & a.tnt) | (sel.hi & b.tnt)));
    return o;
}

/** Dispatch on kind; unused operands are ignored. */
inline Planes
evalKernel(GateKind kind, const Planes &a, const Planes &b,
           const Planes &c)
{
    switch (kind) {
      case GateKind::Buf: return bufKernel(a);
      case GateKind::Not: return notKernel(a);
      case GateKind::And: return andKernel(a, b);
      case GateKind::Nand: return nandKernel(a, b);
      case GateKind::Or: return orKernel(a, b);
      case GateKind::Nor: return norKernel(a, b);
      case GateKind::Xor: return xorKernel(a, b);
      case GateKind::Xnor: return xnorKernel(a, b);
      case GateKind::Mux: return muxKernel(a, b, c);
    }
    return {};
}

/**
 * 64 flip-flops' next state with the Figure-7 reset-taint semantics of
 * dffNext() (logic/ternary.hh). @p rstVal holds each lane's reset
 * value as a bitmask. Derivation mirrors the scalar code: the enable
 * mux first (a tainted enable known 0 does not taint; a tainted
 * enable that can load taints unless D already equals Q), then the
 * reset overlay (asserted reset forces the value and passes only the
 * reset line's taint; a deasserted tainted reset taints unless the
 * output already equals the reset value; an unknown reset merges both
 * outcomes).
 */
inline Planes
dffNextKernel(const Planes &d, const Planes &rst, const Planes &en,
              const Planes &q, uint64_t rstVal)
{
    const uint64_t e1 = en.hi & ~en.lo;
    const uint64_t e0 = en.lo & ~en.hi;
    const uint64_t ex = en.lo & en.hi;
    // Lanes where D and Q hold the same known value: flipping the
    // enable is unobservable there.
    const uint64_t skv = (d.hi & ~d.lo & q.hi & ~q.lo) |
                         (d.lo & ~d.hi & q.lo & ~q.hi);
    const uint64_t enLeak = en.tnt & ~skv;
    const uint64_t nLo = (e1 & d.lo) | (e0 & q.lo) | (ex & (d.lo | q.lo));
    const uint64_t nHi = (e1 & d.hi) | (e0 & q.hi) | (ex & (d.hi | q.hi));
    const uint64_t nT =
        ((e0 | ex) & q.tnt) | ((e1 | ex) & (d.tnt | enLeak));

    const uint64_t r1 = rst.hi & ~rst.lo;
    const uint64_t r0 = rst.lo & ~rst.hi;
    const uint64_t rx = rst.lo & rst.hi;
    // Lanes where the post-enable value already equals the (known)
    // reset value: a tainted-but-deasserted reset cannot leak there.
    const uint64_t eqRv =
        (nHi & ~nLo & rstVal) | (nLo & ~nHi & ~rstVal);
    Planes o;
    o.lo = (r1 & ~rstVal) | (r0 & nLo) | (rx & (nLo | ~rstVal));
    o.hi = (r1 & rstVal) | (r0 & nHi) | (rx & (nHi | rstVal));
    o.tnt = (r1 & rst.tnt) | (r0 & (nT | (rst.tnt & ~eqRv))) |
            (rx & (nT | rst.tnt));
    return o;
}

} // namespace glifs::packed

#endif // GLIFS_SIM_PACKED_KERNELS_HH
