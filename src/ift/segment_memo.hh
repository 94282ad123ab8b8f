/**
 * @file
 * The engine's segment memo (DESIGN.md §11): a small LRU cache of
 * segment results keyed by the segment's start state.
 *
 * Segments are pure functions of their start state (ift/path_sim.hh),
 * and most of an audit's segments start from a state an earlier
 * segment already started from -- the not-fired side of a POR fork
 * replays the fired side's future, and branch cascades re-enter the
 * same commits. A hit hands the engine the earlier result, which it
 * applies exactly like the same segment simulated inline, so the
 * verdict, violations, engine counters, execution tree and checkpoints
 * do not depend on whether the memo answered.
 *
 * A lookup scans the entries and compares start states in full; there
 * is no hash, so no collision can change a result. The memo is bounded
 * by a constant byte budget and never stores a segment the governor
 * cut short (stopped or killed), nor one larger than the budget. A
 * memo is valid for one program image, policy and engine configuration
 * -- IftEngine::run makes a fresh one per run -- and is never written
 * into checkpoints.
 */

#ifndef GLIFS_IFT_SEGMENT_MEMO_HH
#define GLIFS_IFT_SEGMENT_MEMO_HH

#include <cstddef>
#include <cstdint>
#include <list>

#include "ift/path_sim.hh"
#include "ift/symstate.hh"

namespace glifs
{

class SegmentMemo
{
  public:
    /** Byte budget of the stored states and results. A typical entry
     *  holds two ~12 KB states (start and end); one carrying many POR
     *  forks can reach ~600 KB and is not stored. */
    static constexpr size_t kBudgetBytes = 256 * 1024;

    /**
     * The stored result of the segment from @p start, if one exists
     * with fewer than @p cycleLimit cycles (a longer one would skip
     * the cycle where a budget threshold fires); else nullptr. Counts
     * explore.cache_hits / explore.cache_misses. The pointer stays
     * valid until the next remember().
     */
    const SegmentResult *find(const SymState &start, uint64_t cycleLimit);

    /** Store the segment @p seg simulated from @p start, evicting the
     *  least recently used entries to stay within the budget. */
    void remember(const SymState &start, const SegmentResult &seg);

    /** Bytes the entries hold now (never above kBudgetBytes). */
    size_t bytes() const { return used; }

    size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        SymState start;
        SegmentResult seg;
        size_t bytes = 0;
    };

    /** Most recently used first. */
    std::list<Entry> entries;
    size_t used = 0;
};

} // namespace glifs

#endif // GLIFS_IFT_SEGMENT_MEMO_HH
