/**
 * @file
 * Exhaustive equivalence proofs for the bit-packed GLIFT kernels
 * (sim/packed_kernels.hh) against the table-driven scalar reference
 * (logic/glift.hh), plus structural invariants of the netlist
 * compiler (netlist/compile.hh) and the plane encoding of net values
 * on both slot maps (sim/signal_state.hh).
 *
 * The signal domain is finite -- six encodings ({0,1,X} x taint) per
 * input -- so the kernel tests enumerate *every* input combination of
 * every gate kind, packed across lanes so the same pass also proves
 * lane independence. dffNextKernel() is pinned against dffNext() over
 * all 6^4 x 2 (d, rst, en, q, rstVal) combinations.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "ift/path_sim.hh"
#include "ift/policy.hh"
#include "logic/glift.hh"
#include "logic/ternary.hh"
#include "netlist/compile.hh"
#include "netlist/levelize.hh"
#include "sim/packed_kernels.hh"
#include "sim/signal_state.hh"
#include "soc/soc.hh"

namespace glifs
{
namespace
{

using packed::Planes;

/** The six inhabitants of the Signal domain. */
const Signal kDomain[6] = {
    {Tern::Zero, false}, {Tern::One, false}, {Tern::X, false},
    {Tern::Zero, true},  {Tern::One, true},  {Tern::X, true},
};

const GateKind kAllKinds[] = {
    GateKind::Buf, GateKind::Not,  GateKind::And,
    GateKind::Nand, GateKind::Or,  GateKind::Nor,
    GateKind::Xor, GateKind::Xnor, GateKind::Mux,
};

size_t
combosOf(unsigned arity)
{
    size_t n = 1;
    for (unsigned i = 0; i < arity; ++i)
        n *= 6;
    return n;
}

TEST(PackedKernels, EveryKindMatchesGliftTablesExhaustively)
{
    const GliftTables &glift = GliftTables::instance();
    for (GateKind kind : kAllKinds) {
        const unsigned arity = gateArity(kind);
        const size_t combos = combosOf(arity);
        // Pack the enumeration 64 combos per kernel application so
        // the pass also proves lanes do not interfere.
        for (size_t base = 0; base < combos; base += 64) {
            const unsigned lanes =
                static_cast<unsigned>(std::min<size_t>(64,
                                                       combos - base));
            Planes in[3] = {};
            std::vector<std::array<Signal, 3>> scalarIn(lanes);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                size_t code = base + lane;
                for (unsigned s = 0; s < arity; ++s) {
                    const Signal sig = kDomain[code % 6];
                    code /= 6;
                    scalarIn[lane][s] = sig;
                    packed::setLane(in[s], lane, sig);
                }
            }
            const Planes out =
                packed::evalKernel(kind, in[0], in[1], in[2]);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                const Signal expect =
                    glift.eval(kind, scalarIn[lane].data());
                const Signal got = packed::getLane(out, lane);
                ASSERT_EQ(got, expect)
                    << gateKindName(kind) << "("
                    << scalarIn[lane][0].str() << ", "
                    << scalarIn[lane][1].str() << ", "
                    << scalarIn[lane][2].str() << "): kernel "
                    << got.str() << " vs reference " << expect.str();
            }
        }
    }
}

TEST(PackedKernels, DffNextMatchesScalarExhaustively)
{
    // All 6^4 (d, rst, en, q) combinations for both reset values.
    const size_t combos = combosOf(4);
    for (int rv = 0; rv < 2; ++rv) {
        for (size_t base = 0; base < combos; base += 64) {
            const unsigned lanes =
                static_cast<unsigned>(std::min<size_t>(64,
                                                       combos - base));
            Planes d, rst, en, q;
            std::vector<std::array<Signal, 4>> scalarIn(lanes);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                size_t code = base + lane;
                Planes *slot[4] = {&d, &rst, &en, &q};
                for (unsigned s = 0; s < 4; ++s) {
                    const Signal sig = kDomain[code % 6];
                    code /= 6;
                    scalarIn[lane][s] = sig;
                    packed::setLane(*slot[s], lane, sig);
                }
            }
            const uint64_t rstVal = rv ? ~0ULL : 0;
            const Planes out =
                packed::dffNextKernel(d, rst, en, q, rstVal);
            for (unsigned lane = 0; lane < lanes; ++lane) {
                const auto &si = scalarIn[lane];
                const Signal expect =
                    dffNext(si[0], si[1], si[2], si[3], rv != 0);
                const Signal got = packed::getLane(out, lane);
                ASSERT_EQ(got, expect)
                    << "dffNext(d=" << si[0].str()
                    << ", rst=" << si[1].str() << ", en=" << si[2].str()
                    << ", q=" << si[3].str() << ", rstVal=" << rv
                    << "): kernel " << got.str() << " vs scalar "
                    << expect.str();
            }
        }
    }
}

TEST(PackedKernels, MixedRstValLanesAreIndependent)
{
    // Adjacent lanes with opposite reset values: the per-lane rstVal
    // mask must not leak across lanes. Exercise the reset-sensitive
    // corner (rst tainted or X) for every (d, q) pair.
    std::mt19937 rng(1234);
    for (int iter = 0; iter < 2000; ++iter) {
        Planes d, rst, en, q;
        uint64_t rstVal = 0;
        std::array<Signal, 4> si[64];
        for (unsigned lane = 0; lane < 64; ++lane) {
            Planes *slot[4] = {&d, &rst, &en, &q};
            for (unsigned s = 0; s < 4; ++s) {
                si[lane][s] = kDomain[rng() % 6];
                packed::setLane(*slot[s], lane, si[lane][s]);
            }
            if (rng() & 1)
                rstVal |= 1ULL << lane;
        }
        const Planes out = packed::dffNextKernel(d, rst, en, q, rstVal);
        for (unsigned lane = 0; lane < 64; ++lane) {
            const Signal expect =
                dffNext(si[lane][0], si[lane][1], si[lane][2],
                        si[lane][3], (rstVal >> lane) & 1);
            ASSERT_EQ(packed::getLane(out, lane), expect)
                << "lane " << lane << " iter " << iter;
        }
    }
}

// --- compiler invariants ---------------------------------------------

TEST(CompiledNetlist, SocProgramInvariantsHold)
{
    Soc soc;
    const Netlist &nl = soc.netlist();
    const std::vector<EvalStep> order = levelize(nl);
    const CompiledNetlist cn = compileNetlist(nl, order);

    // The slot map is a bijection: every net has a slot inside the
    // plane space and every used slot maps back to its net.
    ASSERT_EQ(cn.slotOfNet.size(), nl.numNets());
    ASSERT_EQ(cn.slotNet.size(), cn.planeWords * 64);
    size_t used = 0;
    for (uint32_t slot = 0; slot < cn.slotNet.size(); ++slot) {
        if (cn.slotNet[slot] == kNoNet)
            continue;
        ++used;
        EXPECT_EQ(cn.slotOfNet[cn.slotNet[slot]], slot);
    }
    EXPECT_EQ(used, nl.numNets());

    // Batches are well-formed: live lanes, low-bit lane masks, gather
    // ops only for real input slots and only into valid plane words.
    size_t lanes = 0;
    for (const PackedBatch &b : cn.batches) {
        ASSERT_GE(b.lanes, 1u);
        ASSERT_LE(b.lanes, 64u);
        lanes += b.lanes;
        EXPECT_EQ(b.laneMask, b.lanes == 64
                                  ? ~0ULL
                                  : (1ULL << b.lanes) - 1);
        EXPECT_LT(b.outWord, cn.planeWords);
        EXPECT_EQ(b.arity, gateArity(b.kind));
        for (unsigned s = 0; s < 3; ++s) {
            for (const PlaneOp &op : cn.opsOf(b.gather[s])) {
                EXPECT_LT(op.word, cn.planeWords);
                EXPECT_NE(op.mask & b.laneMask, 0u);
                if (s >= b.arity)
                    ADD_FAILURE() << "gather for unused input slot";
            }
        }
    }
    EXPECT_EQ(lanes, cn.combLanes);

    // Every producer unit strictly precedes all of its consuming
    // units, so the ascending dirty-unit drain settles in one pass:
    // each unit a word's index marks runs after the producer of every
    // lane it reads.
    ASSERT_EQ(cn.markOffsets.size(), cn.planeWords + 1);
    for (uint32_t w = 0; w < cn.planeWords; ++w) {
        for (const WordMark &m : cn.marksOf(w)) {
            if (m.target >= cn.units.size())
                continue;
            for (unsigned lane = 0; lane < 64; ++lane) {
                if (!((m.lanes >> lane) & 1))
                    continue;
                const NetId n = cn.slotNet[(w << 6) + lane];
                ASSERT_NE(n, kNoNet) << "word " << w << " lane " << lane;
                const int32_t p = cn.producerUnit[n];
                if (p >= 0) {
                    EXPECT_GT(m.target, static_cast<uint32_t>(p))
                        << "net " << n;
                }
            }
        }
    }

    // Dff words cover every flip-flop exactly once.
    size_t dffLanes = 0;
    for (const DffWord &dw : cn.dffWords) {
        ASSERT_GE(dw.lanes, 1u);
        ASSERT_LE(dw.lanes, 64u);
        dffLanes += dw.lanes;
        EXPECT_LT(dw.qWord, cn.planeWords);
        EXPECT_EQ(dw.rstVal & ~dw.laneMask, 0u);
    }
    EXPECT_EQ(dffLanes, nl.dffs().size());
}

TEST(CompiledNetlist, WordIndexMatchesPerNetConsumers)
{
    Soc soc;
    const Netlist &nl = soc.netlist();
    const CompiledNetlist cn = compileNetlist(nl, levelize(nl));
    const uint32_t numUnits = static_cast<uint32_t>(cn.units.size());

    // The consumer relation per net, straight from the netlist: the
    // unit of every gate or read port reading it, and the dff word of
    // every flop reading it through D/RST/EN or owning it as Q.
    std::vector<std::set<uint32_t>> want(nl.numNets());
    for (GateId g = 0; g < nl.numGates(); ++g) {
        const Gate &gate = nl.gate(g);
        if (gate.type != GateType::Comb)
            continue;
        for (unsigned i = 0; i < gateArity(gate.kind); ++i) {
            if (gate.in[i] != kNoNet) {
                want[gate.in[i]].insert(
                    static_cast<uint32_t>(cn.producerUnit[gate.out]));
            }
        }
    }
    for (size_t i = 0; i < nl.dffs().size(); ++i) {
        const Gate &ff = nl.gate(nl.dffs()[i]);
        const uint32_t target = numUnits + static_cast<uint32_t>(i / 64);
        for (unsigned in = 0; in < 3; ++in) {
            if (ff.in[in] != kNoNet)
                want[ff.in[in]].insert(target);
        }
        want[ff.out].insert(target);
    }
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        for (NetId a : nl.memory(m).readAddr) {
            if (a != kNoNet)
                want[a].insert(cn.unitOfMem[m]);
        }
    }

    // The word index holds one pair per distinct target of a word,
    // and the targets whose mask has a lane are that net's consumers.
    size_t pairs = 0;
    for (uint32_t w = 0; w < cn.planeWords; ++w) {
        std::set<uint32_t> seen;
        for (const WordMark &m : cn.marksOf(w)) {
            EXPECT_TRUE(seen.insert(m.target).second)
                << "duplicate target " << m.target << " in word " << w;
            EXPECT_NE(m.lanes, 0u) << "word " << w;
            EXPECT_LT(m.target, numUnits + cn.dffWords.size());
            ++pairs;
        }
        for (unsigned lane = 0; lane < 64; ++lane) {
            const NetId n = cn.slotNet[(w << 6) + lane];
            std::set<uint32_t> got;
            for (const WordMark &m : cn.marksOf(w)) {
                if ((m.lanes >> lane) & 1)
                    got.insert(m.target);
            }
            if (n == kNoNet) {
                EXPECT_TRUE(got.empty()) << "unused slot " << lane
                                         << " of word " << w;
                continue;
            }
            EXPECT_EQ(got, want[n]) << "net " << n << " (" << nl.net(n).name
                                    << ")";
        }
    }
    EXPECT_EQ(pairs, cn.marks.size());
}

TEST(CompiledNetlist, FlopAndReadPortLanesFollowTheNetlist)
{
    // Flop i of nl.dffs() is lane i % 64 of Q word i / 64, the bit a
    // SymState gives it, so flop state moves a plane word at a time.
    Soc soc;
    const Netlist &nl = soc.netlist();
    const CompiledNetlist cn = compileNetlist(nl, levelize(nl));
    ASSERT_EQ(cn.dffWords.size(), (nl.dffs().size() + 63) / 64);
    for (size_t i = 0; i < nl.dffs().size(); ++i) {
        const DffWord &dw = cn.dffWords[i / 64];
        EXPECT_EQ(cn.slotOfNet[nl.gate(nl.dffs()[i]).out],
                  (dw.qWord << 6) + i % 64)
            << "flop " << i;
    }
    // A memory's read data bit b is lane b of its read word.
    for (MemId m = 0; m < nl.numMemories(); ++m) {
        const MemoryDecl &decl = nl.memory(m);
        for (unsigned b = 0; b < decl.width; ++b) {
            EXPECT_EQ(cn.slotOfNet[decl.readData[b]],
                      (cn.memReadWord[m] << 6) + b)
                << decl.name << " bit " << b;
        }
    }
}

TEST(PackedEvalState, SignalStateRoundTripsOnBothMaps)
{
    // The net planes encode every signal on either slot map: the
    // identity map of SignalState(nl) (the oracle's) and the compiled
    // permutation (the packed path's, reached via setBackend).
    Soc soc;
    const Netlist &nl = soc.netlist();
    const ProgramImage image;
    PathSim ps(soc, benchmarkPolicy(0x10, 0x7f), EngineConfig{}, image);
    const CompiledNetlist cn = compileNetlist(nl, levelize(nl));
    const Tern kVals[] = {Tern::Zero, Tern::One, Tern::X};
    std::mt19937 rng(99);
    auto randSig = [&] {
        return Signal{kVals[rng() % 3], (rng() & 4) != 0};
    };

    // A fresh state reads the same through either map.
    const SignalState identity(nl);
    const SignalState permuted(nl, cn.slotOfNet, cn.planeWords);
    for (NetId n = 0; n < nl.numNets(); ++n)
        ASSERT_EQ(identity.net(n), permuted.net(n)) << "net " << n;

    std::vector<Signal> ref;
    for (const bool compiled : {false, true}) {
        SCOPED_TRACE(compiled ? "compiled map" : "identity map");
        ps.sim.setBackend(compiled ? SimBackend::Packed
                                   : SimBackend::Interp);
        SignalState &st = ps.sim.state();
        ASSERT_EQ(st.netPlanes().size(),
                  compiled ? cn.planeWords : (nl.numNets() + 63) / 64);
        // The path switch re-laid the previous map's nets.
        for (NetId n = 0; n < ref.size(); ++n)
            ASSERT_EQ(st.net(n), ref[n]) << "re-laid net " << n;

        ref.assign(nl.numNets(), Signal{});
        for (NetId n = 0; n < nl.numNets(); ++n) {
            ref[n] = randSig();
            st.setNet(n, ref[n]);
        }
        for (NetId n = 0; n < nl.numNets(); ++n)
            ASSERT_EQ(st.net(n), ref[n]) << "net " << n;

        // A point write changes its own net and no other.
        for (int i = 0; i < 1000; ++i) {
            const NetId n = rng() % nl.numNets();
            ref[n] = randSig();
            st.setNet(n, ref[n]);
            for (NetId m = 0; m < nl.numNets(); ++m) {
                if (!(st.net(m) == ref[m]))
                    FAIL() << "write " << i << " to net " << n
                           << " left net " << m << " at "
                           << st.net(m).str() << ", want "
                           << ref[m].str();
            }
        }

        // accumulateTaint ORs every tainted net into net order and
        // keeps the bits already set, like a per-net sweep.
        BitPlane got(nl.numNets());
        for (int i = 0; i < 50; ++i)
            got.set(rng() % nl.numNets(), true);
        BitPlane want = got;
        for (NetId n = 0; n < nl.numNets(); ++n) {
            if (ref[n].taint)
                want.set(n, true);
        }
        ps.accumulateTaint(got);
        for (NetId n = 0; n < nl.numNets(); ++n)
            ASSERT_EQ(got.get(n), want.get(n)) << "net " << n;
    }
}

} // namespace
} // namespace glifs
