#include "ift/segment_memo.hh"

#include "base/stats.hh"

namespace glifs
{

namespace
{

/** The explore.* stat catalogue (docs/OBSERVABILITY.md). */
struct MemoStats
{
    stats::Scalar hits{"explore.cache_hits",
                       "segments taken from the segment memo"};
    stats::Scalar misses{"explore.cache_misses",
                         "segments simulated after a memo miss"};
    stats::Gauge bytes{"explore.cache_bytes",
                       "bytes held by the segment memo"};
};

MemoStats &
memoStats()
{
    static MemoStats s;
    return s;
}

size_t
planeBytes(const BitPlane &p)
{
    return p.words().size() * sizeof(uint64_t);
}

size_t
stateBytes(const SymState &s)
{
    return sizeof(SymState) + planeBytes(s.knownPlane()) +
           planeBytes(s.valuePlane()) + planeBytes(s.taintPlane());
}

/** What one entry holds: both states, every fork's state, the
 *  violations and the tainted-net plane. */
size_t
entryBytes(const SymState &start, const SegmentResult &seg)
{
    size_t n = sizeof(SegmentResult) + stateBytes(start) +
               stateBytes(seg.end) + planeBytes(seg.taintDelta);
    for (const Violation &v : seg.violations)
        n += sizeof(Violation) + v.detail.size();
    for (const SegmentPorFork &f : seg.porForks)
        n += sizeof(SegmentPorFork) + stateBytes(f.fired);
    return n;
}

} // namespace

const SegmentResult *
SegmentMemo::find(const SymState &start, uint64_t cycleLimit)
{
    for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->start != start)
            continue;
        if (it->seg.cycles >= cycleLimit)
            break;
        entries.splice(entries.begin(), entries, it);
        ++memoStats().hits;
        return &entries.front().seg;
    }
    ++memoStats().misses;
    return nullptr;
}

void
SegmentMemo::remember(const SymState &start, const SegmentResult &seg)
{
    // A stopped or killed segment ended where the governor said so,
    // not where the program did.
    if (seg.stopped || seg.killed)
        return;
    const size_t n = entryBytes(start, seg);
    if (n > kBudgetBytes)
        return;
    while (used + n > kBudgetBytes) {
        used -= entries.back().bytes;
        entries.pop_back();
    }
    entries.push_front({start, seg, n});
    used += n;
    memoStats().bytes.set(static_cast<double>(used));
}

} // namespace glifs
