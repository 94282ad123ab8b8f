#include "netlist/compile.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "base/logging.hh"

namespace glifs
{

namespace
{

constexpr uint32_t kNoSlot = static_cast<uint32_t>(-1);

/**
 * Emit the gather program moving the nets at @p slots (one per lane,
 * lane order) into a lane-indexed word. A slot shared by several
 * lanes becomes one broadcast op; the remaining slots become rotate
 * ops, with consecutive lanes reading consecutive bits of one word
 * sharing a single (word, rot) op, so bus-structured operands stay
 * compact.
 */
void
emitGather(std::vector<PlaneOp> &pool, OpRange &range,
           std::span<const uint32_t> slots)
{
    range.begin = static_cast<uint32_t>(pool.size());
    // Group lanes by source slot (linear search: <= 64 lanes).
    struct Src
    {
        uint32_t slot;
        uint64_t mask;
    };
    std::vector<Src> srcs;
    for (size_t lane = 0; lane < slots.size(); ++lane) {
        bool found = false;
        for (Src &s : srcs) {
            if (s.slot == slots[lane]) {
                s.mask |= 1ULL << lane;
                found = true;
                break;
            }
        }
        if (!found)
            srcs.push_back({slots[lane], 1ULL << lane});
    }
    std::vector<PlaneOp> local;
    for (const Src &s : srcs) {
        const uint32_t word = s.slot >> 6;
        const unsigned bit = s.slot & 63;
        if (std::popcount(s.mask) > 1) {
            local.push_back(
                {word, static_cast<uint8_t>(PlaneOp::kBroadcast | bit),
                 s.mask});
            continue;
        }
        const unsigned lane =
            static_cast<unsigned>(std::countr_zero(s.mask));
        const uint8_t rot = static_cast<uint8_t>((lane - bit) & 63);
        bool merged = false;
        for (PlaneOp &op : local) {
            if (op.word == word && op.rot == rot) {
                op.mask |= s.mask;
                merged = true;
                break;
            }
        }
        if (!merged)
            local.push_back({word, rot, s.mask});
    }
    pool.insert(pool.end(), local.begin(), local.end());
    range.end = static_cast<uint32_t>(pool.size());
}

} // namespace

CompiledNetlist
compileNetlist(const Netlist &nl, const std::vector<EvalStep> &order)
{
    CompiledNetlist cn;
    cn.producerUnit.assign(nl.numNets(), -1);
    cn.unitOfMem.assign(nl.numMemories(), 0);
    cn.memReadWord.assign(nl.numMemories(), 0);
    cn.slotOfNet.assign(nl.numNets(), kNoSlot);

    // ---- unit assignment -------------------------------------------
    // Walk the (topological) levelized schedule. Each gate joins the
    // most recent open batch of its kind if that batch is scheduled
    // strictly after every unit producing one of the gate's inputs;
    // otherwise a fresh batch opens at the end of the unit sequence.
    // Memory read ports become their own units in place. This packs
    // across levels (producers and consumers of the same kind land in
    // different batches, unrelated gates share one), which matters on
    // deep carry chains where a per-level batching would fragment.
    struct OpenBatch
    {
        int32_t unit = -1;
        uint32_t batch = 0;
        uint32_t count = 0;
    };
    std::array<OpenBatch, 9> open;
    std::vector<std::vector<GateId>> batchGates;

    auto producerOf = [&](NetId net) -> int32_t {
        return net == kNoNet ? -1 : cn.producerUnit[net];
    };

    for (const EvalStep &step : order) {
        if (step.kind == EvalStep::Kind::MemRead) {
            const int32_t unit =
                static_cast<int32_t>(cn.units.size());
            cn.units.push_back(
                {EvalUnit::Kind::MemRead, step.index});
            cn.unitOfMem[step.index] =
                static_cast<uint32_t>(unit);
            for (NetId rd : nl.memory(step.index).readData)
                cn.producerUnit[rd] = unit;
            continue;
        }
        const GateId gid = step.index;
        const Gate &g = nl.gate(gid);
        const unsigned arity = gateArity(g.kind);
        int32_t minUnit = -1;
        for (unsigned i = 0; i < arity; ++i)
            minUnit = std::max(minUnit, producerOf(g.in[i]));

        OpenBatch &ob = open[static_cast<size_t>(g.kind)];
        if (ob.unit <= minUnit || ob.count >= 64) {
            // Open a new batch at the end of the schedule.
            ob.unit = static_cast<int32_t>(cn.units.size());
            ob.batch = static_cast<uint32_t>(batchGates.size());
            ob.count = 0;
            batchGates.emplace_back();
            cn.units.push_back({EvalUnit::Kind::Batch, ob.batch});
        }
        batchGates[ob.batch].push_back(gid);
        ++ob.count;
        cn.producerUnit[g.out] = ob.unit;
    }
    cn.batches.resize(batchGates.size());

    // ---- slot assignment -------------------------------------------
    auto allocWord = [&] {
        const uint32_t w = static_cast<uint32_t>(cn.planeWords++);
        return w;
    };
    auto placeNet = [&](NetId net, uint32_t slot) {
        GLIFS_ASSERT(cn.slotOfNet[net] == kNoSlot,
                     "compile: net ", net, " placed twice");
        cn.slotOfNet[net] = slot;
    };

    // Flip-flop Q outputs first: chunks of 64 in nl.dffs() order, each
    // chunk owning one whole word so the edge commit is a word write
    // and flop i sits at lane i % 64 of Q word i / 64, the bit a
    // SymState gives it (flop state moves a plane word at a time).
    const std::vector<GateId> &dffs = nl.dffs();
    std::vector<uint32_t> dffWordOfGate(nl.numGates(), 0);
    for (size_t base = 0; base < dffs.size(); base += 64) {
        const size_t n = std::min<size_t>(64, dffs.size() - base);
        DffWord dw;
        dw.lanes = static_cast<uint8_t>(n);
        dw.qWord = allocWord();
        dw.laneMask = n == 64 ? ~0ULL : (1ULL << n) - 1;
        for (size_t l = 0; l < n; ++l) {
            const Gate &g = nl.gate(dffs[base + l]);
            placeNet(g.out, (dw.qWord << 6) +
                            static_cast<uint32_t>(l));
            if (g.rstVal)
                dw.rstVal |= 1ULL << l;
            dffWordOfGate[dffs[base + l]] =
                static_cast<uint32_t>(cn.dffWords.size());
        }
        cn.dffWords.push_back(dw);
    }

    // Remaining sources (primary inputs, constants, undriven nets):
    // packed in net order. Memory read-data nets get their slots when
    // their unit is processed below.
    {
        uint32_t word = kNoSlot;
        unsigned bit = 64;
        for (NetId n = 0; n < nl.numNets(); ++n) {
            if (cn.producerUnit[n] >= 0 || cn.slotOfNet[n] != kNoSlot)
                continue;
            if (bit == 64) {
                word = allocWord();
                bit = 0;
            }
            placeNet(n, (word << 6) + bit++);
        }
    }

    // ---- per-unit lowering ------------------------------------------
    // Units are processed in schedule order, so every input of a unit
    // already has its slot. Batch lanes are ordered by the slot of
    // their most distinguishing input (the one with the most distinct
    // nets), which lines bus-structured operands up into runs; the
    // output word simply inherits that order.
    std::vector<uint32_t> slots;
    for (const EvalUnit &u : cn.units) {
        if (u.kind == EvalUnit::Kind::MemRead) {
            const MemoryDecl &decl = nl.memory(u.index);
            GLIFS_ASSERT(decl.width <= 64, "mem width > 64");
            const uint32_t w = allocWord();
            for (unsigned b = 0; b < decl.width; ++b)
                placeNet(decl.readData[b], (w << 6) + b);
            cn.memReadWord[u.index] = w;
            continue;
        }
        std::vector<GateId> &gates = batchGates[u.index];
        GLIFS_ASSERT(!gates.empty() && gates.size() <= 64,
                     "bad batch size ", gates.size());
        PackedBatch &pb = cn.batches[u.index];
        pb.kind = nl.gate(gates[0]).kind;
        pb.arity = static_cast<uint8_t>(gateArity(pb.kind));
        pb.lanes = static_cast<uint8_t>(gates.size());
        pb.laneMask =
            gates.size() == 64 ? ~0ULL : (1ULL << gates.size()) - 1;
        cn.combLanes += gates.size();

        unsigned key = 0;
        size_t bestDistinct = 0;
        for (unsigned s = 0; s < pb.arity; ++s) {
            std::vector<NetId> ins;
            ins.reserve(gates.size());
            for (GateId g : gates)
                ins.push_back(nl.gate(g).in[s]);
            std::sort(ins.begin(), ins.end());
            const size_t distinct =
                std::unique(ins.begin(), ins.end()) - ins.begin();
            if (distinct > bestDistinct) {
                bestDistinct = distinct;
                key = s;
            }
        }
        std::sort(gates.begin(), gates.end(),
                  [&](GateId x, GateId y) {
                      const uint32_t sx =
                          cn.slotOfNet[nl.gate(x).in[key]];
                      const uint32_t sy =
                          cn.slotOfNet[nl.gate(y).in[key]];
                      if (sx != sy)
                          return sx < sy;
                      return nl.gate(x).out < nl.gate(y).out;
                  });

        pb.outWord = allocWord();
        for (size_t l = 0; l < gates.size(); ++l) {
            placeNet(nl.gate(gates[l]).out,
                     (pb.outWord << 6) + static_cast<uint32_t>(l));
        }
        slots.resize(gates.size());
        for (unsigned s = 0; s < pb.arity; ++s) {
            for (size_t l = 0; l < gates.size(); ++l)
                slots[l] = cn.slotOfNet[nl.gate(gates[l]).in[s]];
            emitGather(cn.ops, pb.gather[s], slots);
        }
    }

    // ---- flip-flop edge gathers ------------------------------------
    for (size_t wi = 0; wi < cn.dffWords.size(); ++wi) {
        DffWord &dw = cn.dffWords[wi];
        const size_t base = wi * 64;
        slots.resize(dw.lanes);
        auto emitSlot = [&](OpRange &range, unsigned in) {
            for (size_t l = 0; l < dw.lanes; ++l)
                slots[l] =
                    cn.slotOfNet[nl.gate(dffs[base + l]).in[in]];
            emitGather(cn.ops, range, slots);
        };
        emitSlot(dw.gatherD, 0);
        emitSlot(dw.gatherRst, 1);
        emitSlot(dw.gatherEn, 2);
    }

    // ---- slot -> net reverse map -----------------------------------
    cn.slotNet.assign(cn.planeWords * 64, kNoNet);
    for (NetId n = 0; n < nl.numNets(); ++n) {
        GLIFS_ASSERT(cn.slotOfNet[n] != kNoSlot,
                     "compile: net ", n, " has no slot");
        cn.slotNet[cn.slotOfNet[n]] = n;
    }

    // ---- plane word -> mark-target index ---------------------------
    // Targets < units.size() are consuming units; units.size() + i is
    // dff word i (its D/RST/EN/Q inputs -- Q included, so an external
    // Q override or a committed Q change re-arms the word's own edge
    // computation). Edges are bucketed by the word of their net's slot
    // (a counting sort), then each word's edges are folded into one
    // (target, lanes) pair per distinct target: linear in the edges.
    const uint32_t numUnits = static_cast<uint32_t>(cn.units.size());
    const uint32_t numTargets =
        numUnits + static_cast<uint32_t>(cn.dffWords.size());
    auto eachEdge = [&](auto &&fn) {
        for (GateId g = 0; g < nl.numGates(); ++g) {
            const Gate &gate = nl.gate(g);
            if (gate.type == GateType::Comb) {
                const unsigned arity = gateArity(gate.kind);
                const uint32_t unit = static_cast<uint32_t>(
                    cn.producerUnit[gate.out]);
                for (unsigned i = 0; i < arity; ++i) {
                    if (gate.in[i] != kNoNet)
                        fn(gate.in[i], unit);
                }
            } else if (gate.type == GateType::Dff) {
                const uint32_t target = numUnits + dffWordOfGate[g];
                for (unsigned i = 0; i < 3; ++i) {
                    if (gate.in[i] != kNoNet)
                        fn(gate.in[i], target);
                }
                fn(gate.out, target);
            }
        }
        for (MemId m = 0; m < nl.numMemories(); ++m) {
            for (NetId a : nl.memory(m).readAddr) {
                if (a != kNoNet)
                    fn(a, cn.unitOfMem[m]);
            }
        }
    };
    std::vector<uint32_t> edgeOffsets(cn.planeWords + 1, 0);
    eachEdge([&](NetId n, uint32_t) {
        ++edgeOffsets[(cn.slotOfNet[n] >> 6) + 1];
    });
    for (size_t w = 0; w < cn.planeWords; ++w)
        edgeOffsets[w + 1] += edgeOffsets[w];
    std::vector<WordMark> edges(edgeOffsets.back());
    {
        std::vector<uint32_t> cursor(edgeOffsets.begin(),
                                     edgeOffsets.end() - 1);
        eachEdge([&](NetId n, uint32_t target) {
            const uint32_t slot = cn.slotOfNet[n];
            edges[cursor[slot >> 6]++] = {target, 1ULL << (slot & 63)};
        });
    }
    // markAt[t]: index of target t's latest pair; it belongs to the
    // current word when it is at or past the word's first pair.
    std::vector<uint32_t> markAt(numTargets, kNoSlot);
    cn.markOffsets.assign(cn.planeWords + 1, 0);
    for (size_t w = 0; w < cn.planeWords; ++w) {
        const uint32_t first = static_cast<uint32_t>(cn.marks.size());
        for (uint32_t e = edgeOffsets[w]; e < edgeOffsets[w + 1]; ++e) {
            const WordMark &edge = edges[e];
            const uint32_t at = markAt[edge.target];
            if (at != kNoSlot && at >= first) {
                cn.marks[at].lanes |= edge.lanes;
            } else {
                markAt[edge.target] =
                    static_cast<uint32_t>(cn.marks.size());
                cn.marks.push_back(edge);
            }
        }
        cn.markOffsets[w + 1] = static_cast<uint32_t>(cn.marks.size());
    }

    // Every combinational consumer must be scheduled strictly after
    // its producer; the ascending dirty-unit drain relies on it.
    for (uint32_t w = 0; w < cn.planeWords; ++w) {
        for (const WordMark &m : cn.marksOf(w)) {
            for (uint64_t l = m.lanes; l; l &= l - 1) {
                const NetId n =
                    cn.slotNet[(w << 6) +
                               static_cast<uint32_t>(std::countr_zero(l))];
                const int32_t p = cn.producerUnit[n];
                GLIFS_ASSERT(m.target >= numUnits ||
                                 static_cast<int32_t>(m.target) > p,
                             "compile: unit order violated on net ", n);
            }
        }
    }
    return cn;
}

} // namespace glifs
