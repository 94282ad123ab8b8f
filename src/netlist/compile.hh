/**
 * @file
 * Netlist -> bit-packed straight-line program compiler.
 *
 * Lowers the levelized combinational schedule into a sequence of
 * *units*: packed batches of up to 64 same-kind gates evaluated by one
 * bitwise kernel over {0,1,X}+taint plane words (sim/packed_kernels.hh),
 * interleaved with the memory read ports, which stay interpreted.
 * Units execute in index order; every producer lands in a strictly
 * earlier unit than all of its consumers, so a dirty-unit bitset
 * drained in ascending order settles the netlist exactly like the
 * per-node level scheduler (DESIGN.md "Compiled evaluation").
 *
 * Signals do not live at their NetId bit position: the compiler
 * assigns every net a *slot* in a permuted plane space where each
 * batch owns one whole 64-bit word and its output lanes are that
 * word's consecutive bits. Storing kernel results is then a plain
 * word write (no scatter program at all), and because a consumer
 * batch's lanes are sorted by the slot of their distinguishing input,
 * bus-structured logic reads its operands as contiguous runs: one
 * (word, rotate, mask) gather op moves a whole run. Nets shared by
 * many lanes of a batch (clock enables, resets, mux selects) use
 * broadcast ops that smear a single plane bit across the lane mask.
 *
 * Flip-flops latch at the clock edge, staged exactly like the
 * interpreter, but packed as well: dffWords of up to 64 flops whose Q
 * slots are one dedicated word (commit is a word write), with gather
 * programs for D/RST/EN and a per-lane reset-value mask, evaluated by
 * dffNextKernel(). Flop i of nl.dffs() is lane i % 64 of Q word
 * i / 64, so a SymState's flop bits move a plane word at a time.
 *
 * Dirty tracking reads one consumer index, keyed by plane word: for
 * each word, one (mark target, lane mask) pair per unit or dff word
 * reading any of its lanes. A store marks a target when its changed
 * lanes meet the mask, with no per-lane or per-net hop, and edge work
 * is event-driven too: quiescent flops cost nothing.
 */

#ifndef GLIFS_NETLIST_COMPILE_HH
#define GLIFS_NETLIST_COMPILE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/levelize.hh"
#include "netlist/netlist.hh"

namespace glifs
{

/**
 * One gather op: dst |= f(plane[word]) & mask. With kRotate,
 * f = rotl(plane, rot & 63); with kBroadcast (rot bit 6 set),
 * f smears plane bit (rot & 63) across the word, so one shared source
 * net feeds any number of lanes in a single op. The same op list is
 * applied to all three planes of a signal word.
 */
struct PlaneOp
{
    /** rot bit 6 (kBroadcast) selects broadcast mode. */
    static constexpr uint8_t kBroadcast = 0x40;

    uint32_t word;  ///< source plane word
    uint8_t rot;    ///< left-rotate amount 0..63, or kBroadcast|bit
    uint64_t mask;  ///< destination lanes covered
};

/** Span of ops in the shared pool. */
struct OpRange
{
    uint32_t begin = 0;
    uint32_t end = 0;

    uint32_t size() const { return end - begin; }
};

/** Up to 64 same-kind gates evaluated by one kernel application. */
struct PackedBatch
{
    GateKind kind = GateKind::Buf;
    uint8_t arity = 1;
    uint8_t lanes = 0;      ///< live lanes, 1..64
    uint32_t outWord = 0;   ///< plane word owning the output lanes
    uint64_t laneMask = 0;  ///< low `lanes` bits set
    OpRange gather[3];      ///< per input slot, into CompiledNetlist::ops
};

/** One step of the settle schedule. */
struct EvalUnit
{
    enum class Kind : uint8_t { Batch, MemRead };
    Kind kind;
    uint32_t index;  ///< PackedBatch index or MemId
};

/** Up to 64 flip-flops latched by one dffNextKernel() application. */
struct DffWord
{
    uint8_t lanes = 0;
    uint32_t qWord = 0;     ///< plane word owning the Q slots
    uint64_t laneMask = 0;  ///< low `lanes` bits set
    uint64_t rstVal = 0;    ///< per-lane reset value mask
    OpRange gatherD;
    OpRange gatherRst;
    OpRange gatherEn;
};

/** One entry of the word consumer index: a store that changes any of
 *  `lanes` in the word must mark `target`. */
struct WordMark
{
    uint32_t target;  ///< unit index, or units.size() + i for dff word i
    uint64_t lanes;   ///< lanes of the word the target reads
};

/**
 * The compiled program plus the net <-> slot permutation and the
 * plane word -> consumer index needed to drive it event-driven. Built
 * once per Simulator; immutable afterwards.
 */
struct CompiledNetlist
{
    size_t planeWords = 0;  ///< words per plane (permuted slot space)
    size_t combLanes = 0;   ///< total packed gate lanes (= comb gates)

    std::vector<PlaneOp> ops;  ///< shared gather-op pool
    std::vector<PackedBatch> batches;
    std::vector<EvalUnit> units;
    std::vector<DffWord> dffWords;

    /** Unit index evaluating each memory read port. */
    std::vector<uint32_t> unitOfMem;
    /** Plane word of each memory's read data: bit b at lane b. */
    std::vector<uint32_t> memReadWord;

    /** Unit producing each net, or -1 for sources (inputs, consts, Q). */
    std::vector<int32_t> producerUnit;

    /** Net -> plane slot (a bijection onto the used slots). */
    std::vector<uint32_t> slotOfNet;
    /** Slot -> net, kNoNet for unused lanes of a word. */
    std::vector<NetId> slotNet;

    /**
     * CSR plane word -> mark targets: word w's pairs are
     * marks[markOffsets[w], markOffsets[w + 1]), one per distinct
     * target, whose mask holds every lane of w that target reads
     * (through a gate input, a read address, or a flop's D/RST/EN/Q).
     */
    std::vector<uint32_t> markOffsets;
    std::vector<WordMark> marks;

    std::span<const WordMark>
    marksOf(uint32_t word) const
    {
        return {marks.data() + markOffsets[word],
                markOffsets[word + 1] - markOffsets[word]};
    }

    std::span<const PlaneOp>
    opsOf(const OpRange &r) const
    {
        return {ops.data() + r.begin, r.end - r.begin};
    }
};

/**
 * Compile @p nl. @p order must be the schedule from levelize() for the
 * same netlist (its topological order seeds the unit assignment).
 */
CompiledNetlist compileNetlist(const Netlist &nl,
                               const std::vector<EvalStep> &order);

} // namespace glifs

#endif // GLIFS_NETLIST_COMPILE_HH
