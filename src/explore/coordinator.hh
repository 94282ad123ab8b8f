/**
 * @file
 * Work-stealing parallel symbolic exploration (DESIGN.md §11).
 *
 * ParallelEngine is IftEngine's own exploration loop with a worker
 * fleet plugged in as its SegmentMemo (ift/path_sim.hh). Worker
 * processes execute segments speculatively -- pure functions of their
 * start state -- and publish the results into a cache keyed by the
 * start state's digest. At the start of every segment the loop asks
 * the cache; a hit is applied exactly like the same segment simulated
 * inline, and a miss (or a cached result that would cross a cycle
 * budget threshold mid-segment) is simulated in-process under the real
 * governor. The verdict, violation set, cycle counts and execution
 * tree are therefore bit-identical to the serial engine for every job
 * count, and progress never depends on any worker staying alive.
 *
 * Work is sharded to per-worker queues round-robin; a drained worker
 * steals from the most loaded queue (explore.steals). A worker that
 * dies (crash, kill -9, injected fault) is detected by pipe EOF, its
 * outstanding work is resharded, and it is respawned up to a cap
 * (explore.workers_respawned). Work units and results travel through
 * a scratch directory under $TMPDIR (/tmp when unset), removed at
 * exit.
 */

#ifndef GLIFS_EXPLORE_COORDINATOR_HH
#define GLIFS_EXPLORE_COORDINATOR_HH

#include <string>
#include <vector>

#include "assembler/program_image.hh"
#include "ift/engine.hh"
#include "ift/policy.hh"
#include "soc/soc.hh"

namespace glifs::explore
{

/** How the coordinator runs and respawns its worker fleet. */
struct ExploreConfig
{
    /** Total exploration processes including the coordinator; the
     *  coordinator spawns jobs-1 workers. Must be >= 2 (jobs == 1 is
     *  the untouched serial IftEngine path, selected by the caller). */
    unsigned jobs = 2;

    /** The glifs_audit binary to exec as --explore-worker. */
    std::string auditBinary;

    /** argv tail rebuilding the same Soc/Policy/image in the worker
     *  (firmware path, --policy/--task-base/--task-end/--taint-code,
     *  --max-cycles). */
    std::vector<std::string> workerArgs;

    unsigned chunkEntries = 6;   ///< execution points per work unit
    unsigned maxOutstanding = 2; ///< shipped units in flight per worker
    unsigned respawnCap = 3;     ///< respawns per worker slot
};

/**
 * Drop-in parallel replacement for IftEngine::run. Same inputs, same
 * EngineResult contract, deterministically identical output.
 */
class ParallelEngine
{
  public:
    ParallelEngine(const Soc &s, const Policy &p, const EngineConfig &c,
                   ExploreConfig x);

    EngineResult run(const ProgramImage &image);
    EngineResult run(const ProgramImage &image,
                     const EngineCheckpoint *resume);

  private:
    const Soc &soc;
    const Policy &policy;
    EngineConfig cfg;
    ExploreConfig xcfg;
};

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_COORDINATOR_HH
