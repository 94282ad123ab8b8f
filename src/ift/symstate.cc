#include "ift/symstate.hh"

#include "base/logging.hh"
#include "base/stats.hh"

namespace glifs
{

SymLayout::SymLayout(const Netlist &netlist) : nl(netlist)
{
    for (GateId g : nl.dffs())
        dffs.push_back(nl.gate(g).out);
    slotCount = dffs.size();
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        if (!decl.writable)
            continue;  // ROM contents are constant: not state
        memBase.emplace_back(m, slotCount);
        slotCount += decl.words * decl.width;
    }
}

SymState::SymState(const SymLayout &layout)
    : known(layout.slots()), value(layout.slots()), taint(layout.slots())
{
}

Signal
SymState::slot(size_t i) const
{
    Signal s;
    if (known.get(i))
        s.value = value.get(i) ? Tern::One : Tern::Zero;
    else
        s.value = Tern::X;
    s.taint = taint.get(i);
    return s;
}

void
SymState::setSlot(size_t i, const Signal &s)
{
    known.set(i, s.known());
    value.set(i, s.known() && s.asBool());
    taint.set(i, s.taint);
}

void
SymState::setPlanes(BitPlane k, BitPlane v, BitPlane t)
{
    GLIFS_ASSERT(k.size() == v.size() && v.size() == t.size(),
                 "plane size mismatch");
    known = std::move(k);
    value = std::move(v);
    taint = std::move(t);
}

namespace
{

/** Snapshot traffic (docs/OBSERVABILITY.md): the audit captures at
 *  segment ends and POR forks only, never once per cycle. */
struct SymStateStats
{
    stats::Scalar captures{"symstate.captures",
                           "machine states captured into a SymState"};
    stats::Scalar restores{"symstate.restores",
                           "SymStates written back into a simulation"};
};

SymStateStats &
symStateStats()
{
    static SymStateStats s;
    return s;
}

/** OR the known/value/taint bits of @p s into slot @p i of the three
 *  plane word arrays. */
inline void
packSlot(uint64_t *k, uint64_t *v, uint64_t *t, size_t i, const Signal &s)
{
    const size_t w = i / 64;
    const unsigned b = i % 64;
    k[w] |= static_cast<uint64_t>(s.value != Tern::X) << b;
    v[w] |= static_cast<uint64_t>(s.value == Tern::One) << b;
    t[w] |= static_cast<uint64_t>(s.taint) << b;
}

/** The signal held at slot @p i of the three plane word arrays. */
inline Signal
unpackSlot(const uint64_t *k, const uint64_t *v, const uint64_t *t,
           size_t i)
{
    const size_t w = i / 64;
    const unsigned b = i % 64;
    const bool known = (k[w] >> b) & 1ULL;
    return Signal{known ? ternBool((v[w] >> b) & 1ULL) : Tern::X,
                  ((t[w] >> b) & 1ULL) != 0};
}

} // namespace

void
SymState::capture(const SymLayout &layout, const SignalState &sigs)
{
    ++symStateStats().captures;
    if (known.size() != layout.slots()) {
        known.resize(layout.slots());
        value.resize(layout.slots());
        taint.resize(layout.slots());
    } else {
        known.clearAll();
        value.clearAll();
        taint.clearAll();
    }
    // Only slots below slots() are written, so the tail bits of the
    // last word stay zero for operator==, subsumedBy and the digest.
    uint64_t *k = known.words().data();
    uint64_t *v = value.words().data();
    uint64_t *t = taint.words().data();
    // Flops hold slots [0, dffNets().size()), memories follow, each
    // copied from its planes as shifted words.
    const std::vector<NetId> &dffs = layout.dffNets();
    for (size_t i = 0; i < dffs.size(); ++i)
        packSlot(k, v, t, i, sigs.net(dffs[i]));
    for (const auto &[mem, base] : layout.mems())
        sigs.mem(mem).storeTo(known, value, taint, base);
}

void
SymState::restore(const SymLayout &layout, SignalState &sigs) const
{
    ++symStateStats().restores;
    GLIFS_ASSERT(known.size() == layout.slots(), "layout mismatch");
    const uint64_t *k = known.words().data();
    const uint64_t *v = value.words().data();
    const uint64_t *t = taint.words().data();
    const std::vector<NetId> &dffs = layout.dffNets();
    for (size_t i = 0; i < dffs.size(); ++i)
        sigs.setNet(dffs[i], unpackSlot(k, v, t, i));
    for (const auto &[mem, base] : layout.mems())
        sigs.mem(mem).loadFrom(known, value, taint, base);
}

bool
SymState::subsumedBy(const SymState &cons) const
{
    GLIFS_ASSERT(known.size() == cons.known.size(), "size mismatch");
    const auto &k1 = known.words();
    const auto &v1 = value.words();
    const auto &t1 = taint.words();
    const auto &k2 = cons.known.words();
    const auto &v2 = cons.value.words();
    const auto &t2 = cons.taint.words();
    for (size_t w = 0; w < k1.size(); ++w) {
        // Wherever cons is known, this must be known with equal value.
        if (k2[w] & (~k1[w] | (v1[w] ^ v2[w])))
            return false;
        // Taint containment.
        if (t1[w] & ~t2[w])
            return false;
    }
    return true;
}

void
SymState::mergeWith(const SymState &other, bool taint_diffs)
{
    GLIFS_ASSERT(known.size() == other.known.size(), "size mismatch");
    auto &k1 = known.words();
    auto &v1 = value.words();
    auto &t1 = taint.words();
    const auto &k2 = other.known.words();
    const auto &v2 = other.value.words();
    const auto &t2 = other.taint.words();
    for (size_t w = 0; w < k1.size(); ++w) {
        // Slots with a definite difference: known on both sides with
        // different values, or known on exactly one side.
        const uint64_t diff =
            (k1[w] & k2[w] & (v1[w] ^ v2[w])) | (k1[w] ^ k2[w]);
        // Known only where both known and values agree.
        k1[w] = k1[w] & k2[w] & ~(v1[w] ^ v2[w]);
        v1[w] &= k1[w];
        t1[w] |= t2[w];
        if (taint_diffs)
            t1[w] |= diff;
    }
}

} // namespace glifs
