/**
 * @file
 * Versioned binary snapshots of an in-flight engine run.
 *
 * On hard budget exhaustion (deadline, cycle/state/memory budget, or a
 * stop signal) the engine serializes everything a later run needs to
 * continue exactly where it stopped: the conservative state table, the
 * exploration frontier, the execution tree, the ever-tainted plane and
 * all counters. Resuming the checkpoint against the same program image
 * and netlist reproduces the uninterrupted run bit-for-bit on the
 * EngineResult counters and violations.
 *
 * Format (the little-endian codec of base/wire.hh): magic "GLFSCKPT",
 * a version word, a CRC-32 of the body, then the body: a (image,
 * layout) fingerprint and the length-prefixed sections. Loading
 * verifies the CRC before parsing anything, then bounds every size
 * and enum byte it reads, and a resuming engine checks every state
 * width and node index against its own layout. So bad magic, unknown
 * versions, truncation, arbitrary bit flips and a CRC-valid body of
 * implausible contents all surface as one RecoverableError — callers
 * are expected to fall back to a fresh run, never to crash or trust a
 * corrupt snapshot.
 */

#ifndef GLIFS_IFT_CHECKPOINT_HH
#define GLIFS_IFT_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "assembler/program_image.hh"
#include "base/bitutil.hh"
#include "ift/checker.hh"
#include "ift/exec_tree.hh"
#include "ift/governor.hh"
#include "ift/symstate.hh"

namespace glifs
{

/** A serializable snapshot of a paused analysis. */
struct EngineCheckpoint
{
    /** v2 added the whole-body CRC-32 after the version word. */
    static constexpr uint32_t kVersion = 2;

    /** Identity of the (program image, symbolic layout) pair. */
    uint64_t fingerprint = 0;

    uint64_t totalCycles = 0;
    uint64_t pathsExplored = 0;
    uint64_t branchPoints = 0;
    uint64_t merges = 0;
    uint64_t subsumptions = 0;

    /** Ladder position; re-applied to the config on resume. */
    DegradeLevel level = DegradeLevel::None;

    /**
     * Escalations so far. The PartialStop record of the interruption
     * itself is deliberately *not* serialized: once resumed to
     * completion, the stop cost no coverage.
     */
    std::vector<Degradation> degradations;

    /** Aggregated violations observed so far. */
    std::vector<Violation> violations;

    /** Nets whose output ever carried taint. */
    BitPlane everTainted;

    /** The conservative state table (Algorithm 1's T). */
    std::vector<std::pair<uint32_t, SymState>> table;

    /** The exploration frontier, bottom of stack first. */
    std::vector<std::pair<SymState, uint32_t>> frontier;

    /** All execution-tree nodes. */
    std::vector<ExecNode> tree;

    /** Write the snapshot; RecoverableError on I/O failure. */
    void save(const std::string &path) const;

    /** Load and validate a snapshot; RecoverableError on any defect. */
    static EngineCheckpoint load(const std::string &path);

    /**
     * Append the body (everything after the magic/version/CRC header)
     * to @p out. Used by save(); callers that encode repeatedly reuse
     * the buffer to stay allocation-free.
     */
    void encodeBody(std::string &out) const;

    /** Parse a body produced by encodeBody; RecoverableError on any
     *  defect. The caller has already verified integrity (CRC), but
     *  that proves no size or enum byte plausible, so each is bounded
     *  before use: by the bytes left, or by its enum's range. */
    static EngineCheckpoint decodeBody(std::string_view body);
};

/**
 * Fingerprint binding a checkpoint to one program image and symbolic
 * layout (FNV-1a over the image words plus the layout geometry).
 */
uint64_t checkpointFingerprint(const ProgramImage &image, size_t slots,
                               size_t nets);

} // namespace glifs

#endif // GLIFS_IFT_CHECKPOINT_HH
