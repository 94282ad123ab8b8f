#include "sim/packed_eval.hh"

#include <bit>

namespace glifs
{

using packed::Planes;

PackedEval::PackedEval(const Netlist &nl,
                       const std::vector<EvalStep> &order)
    : cn(compileNetlist(nl, order)),
      numUnits(static_cast<uint32_t>(cn.units.size()))
{
    unitDirty.assign((cn.units.size() + 63) / 64, 0);
    dffDirty.assign((cn.dffWords.size() + 63) / 64, 0);
    dffNextQ.resize(cn.dffWords.size());
}

void
PackedEval::clearAllDirty()
{
    std::fill(unitDirty.begin(), unitDirty.end(), 0);
    std::fill(dffDirty.begin(), dffDirty.end(), 0);
}

Planes
PackedEval::gather(const OpRange &r,
                   const std::vector<Planes> &planes) const
{
    Planes p;
    for (const PlaneOp &op : cn.opsOf(r)) {
        const Planes &src = planes[op.word];
        if (op.rot & PlaneOp::kBroadcast) {
            const unsigned b = op.rot & 63;
            p.lo |= (0 - ((src.lo >> b) & 1)) & op.mask;
            p.hi |= (0 - ((src.hi >> b) & 1)) & op.mask;
            p.tnt |= (0 - ((src.tnt >> b) & 1)) & op.mask;
        } else {
            p.lo |= std::rotl(src.lo, op.rot) & op.mask;
            p.hi |= std::rotl(src.hi, op.rot) & op.mask;
            p.tnt |= std::rotl(src.tnt, op.rot) & op.mask;
        }
    }
    return p;
}

size_t
PackedEval::storeWord(std::vector<Planes> &planes, uint32_t w,
                      uint64_t mask, const Planes &out, bool track)
{
    Planes &cur = planes[w];
    const Planes next = {(cur.lo & ~mask) | (out.lo & mask),
                         (cur.hi & ~mask) | (out.hi & mask),
                         (cur.tnt & ~mask) | (out.tnt & mask)};
    const uint64_t valueDiff = (cur.lo ^ next.lo) | (cur.hi ^ next.hi);
    uint64_t diff = valueDiff | (cur.tnt ^ next.tnt);
    if (!diff)
        return 0;
    cur = next;
    if (track) {
        const uint32_t base = w << 6;
        while (diff) {
            markConsumersDirty(
                cn.slotNet[base +
                           static_cast<uint32_t>(std::countr_zero(diff))]);
            diff &= diff - 1;
        }
    }
    return std::popcount(valueDiff);
}

size_t
PackedEval::runBatch(uint32_t batch, SignalState &st, bool track)
{
    const PackedBatch &pb = cn.batches[batch];
    Planes in[3];
    for (unsigned s = 0; s < pb.arity; ++s)
        in[s] = gather(pb.gather[s], st.netPlanes());
    const Planes out = packed::evalKernel(pb.kind, in[0], in[1], in[2]);
    return storeWord(st.netPlanes(), pb.outWord, pb.laneMask, out, track);
}

void
PackedEval::computeDffWord(uint32_t i, const SignalState &st)
{
    const DffWord &dw = cn.dffWords[i];
    const std::vector<Planes> &planes = st.netPlanes();
    dffNextQ[i] = packed::dffNextKernel(
        gather(dw.gatherD, planes), gather(dw.gatherRst, planes),
        gather(dw.gatherEn, planes), planes[dw.qWord], dw.rstVal);
}

size_t
PackedEval::commitDffWord(uint32_t i, SignalState &st, bool track)
{
    const DffWord &dw = cn.dffWords[i];
    return storeWord(st.netPlanes(), dw.qWord, dw.laneMask, dffNextQ[i],
                     track);
}

} // namespace glifs
