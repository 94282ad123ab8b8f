#include "ift/engine.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <tuple>

#include "base/logging.hh"
#include "base/stats.hh"
#include "base/strutil.hh"
#include "base/trace.hh"
#include "ift/checkpoint.hh"
#include "ift/engine_stats.hh"
#include "ift/path_sim.hh"
#include "ift/segment_memo.hh"
#include "ift/symstate.hh"

namespace glifs
{

bool
EngineResult::degradedUnsound() const
{
    for (const Degradation &d : degradations) {
        if (d.level == DegradeLevel::StarLogicPath ||
            d.level == DegradeLevel::PartialStop) {
            return true;
        }
    }
    return false;
}

bool
EngineResult::secure() const
{
    if (!completed || starAborted || degradedUnsound())
        return false;
    for (const Violation &v : violations) {
        if (v.kind != ViolationKind::TaintedControlFlow)
            return false;
    }
    return true;
}

Verdict
EngineResult::verdict() const
{
    for (const Violation &v : violations) {
        if (v.kind != ViolationKind::TaintedControlFlow)
            return Verdict::Violations;
    }
    if (completed && !starAborted && !degradedUnsound())
        return Verdict::Secure;
    return Verdict::UnknownDegraded;
}

bool
EngineResult::onlyFixable() const
{
    for (const Violation &v : violations) {
        if (violationIsError(v.kind))
            return false;
    }
    return completed && !starAborted;
}

std::string
EngineResult::summary() const
{
    std::ostringstream oss;
    oss << (completed ? "completed" : "INCOMPLETE");
    if (starAborted)
        oss << " (*-logic aborted)";
    oss << ": " << cyclesSimulated << " cycles, " << pathsExplored
        << " paths, " << branchPoints << " branch points, " << merges
        << " merges, " << subsumptions << " subsumptions, "
        << statesTracked << " tracked branches, "
        << violations.size() << " violation(s), "
        << percent(taintedGateFraction, 1) << " gates ever tainted, "
        << analysisSeconds << "s";
    if (!degradations.empty())
        oss << ", " << degradations.size() << " degradation(s)";
    oss << ", verdict " << verdictName(verdict());
    return oss.str();
}

namespace
{

/** Everything one run() invocation needs: the one exploration loop. */
struct RunCtx
{
    PathSim ps; ///< sim, layout, checker and the Algorithm-1 helpers
    SegmentMemo *memo; ///< segment-result cache, or nullptr

    ViolationLog log;
    StateTable table;
    ExecTree tree;
    ResourceGovernor gov;
    std::vector<FrontierEntry> stack;
    BitPlane everTainted;

    uint64_t totalCycles = 0;
    uint64_t pathsExplored = 0;
    bool starAborted = false;
    bool budgetHit = false;
    size_t branchPoints = 0;
    /** (tainted, total) gates of the *-logic abort's saturation. */
    std::pair<size_t, size_t> starGates{0, 0};

    DegradeLevel level = DegradeLevel::None;
    std::vector<Degradation> degradations;

    RunCtx(const Soc &s, const Policy &p, const EngineConfig &c,
           const ProgramImage &img, SegmentMemo *m)
        : ps(s, p, c, img), memo(m), gov(c.budgets),
          everTainted(s.netlist().numNets())
    {
    }

    void
    recordDegradation(DegradeLevel lvl, ResourceKind trigger,
                      BudgetSeverity severity, uint16_t instr_addr,
                      std::string detail)
    {
        Degradation d;
        d.level = lvl;
        d.trigger = trigger;
        d.severity = severity;
        d.cycle = totalCycles;
        d.instrAddr = instr_addr;
        d.detail = std::move(detail);
        ++engineStats().escalations;
        GLIFS_TRACE_INSTANT_ARGS(
            "engine", "degrade",
            add("level", degradeLevelName(lvl))
                .add("trigger", resourceKindName(trigger))
                .add("severity",
                     severity == BudgetSeverity::Hard ? "hard"
                                                      : "soft")
                .add("cycle", totalCycles)
                .add("instr", hex16(instr_addr)));
        degradations.push_back(std::move(d));
    }

    /** Outcome of a soft-budget escalation. */
    enum class Escalation
    {
        Widened,  ///< merging widened; the path continues
        KillPath, ///< hand the current path to the *-logic abstraction
    };

    /**
     * Climb one rung of the degradation ladder: first widen merging
     * (drop the precise CFG successors so the bit-wise superset feeds
     * the state table), then give the offending path to *-logic.
     */
    Escalation
    escalate(const BudgetEvent &ev, uint16_t instr_addr)
    {
        if (level == DegradeLevel::None) {
            level = DegradeLevel::WidenedMerging;
            ps.cfg.preciseJumpTargets = false;
            recordDegradation(DegradeLevel::WidenedMerging, ev.kind,
                              ev.severity, instr_addr, ev.detail);
            return Escalation::Widened;
        }
        level = DegradeLevel::StarLogicPath;
        recordDegradation(DegradeLevel::StarLogicPath, ev.kind,
                          ev.severity, instr_addr, ev.detail);
        return Escalation::KillPath;
    }

    /**
     * Resource governance, before every simulated cycle of the path
     * at tree node @p node: poll every budget dimension. Soft
     * exhaustion degrades in place; hard exhaustion stops the run
     * with a partial result (and a resumable snapshot of the
     * frontier) -- never a fatal. A memo hit polls with its segment's
     * @p start state, which the simulator does not hold; the
     * degradation records then read the instruction address from it.
     */
    CycleAction
    poll(uint32_t node, const SymState *start = nullptr)
    {
        auto ev = gov.poll();
        if (!ev)
            return CycleAction::Continue;
        const uint16_t at =
            start ? ps.stateInstrAddr(*start)
                  : ps.tryBusValue(ps.soc.probes().instrAddrQ);
        if (ev->severity == BudgetSeverity::Hard) {
            recordDegradation(DegradeLevel::PartialStop, ev->kind,
                              ev->severity, at, ev->detail);
            budgetHit = true;
            tree.node(node).end = PathEnd::Budget;
            tree.node(node).endInstr = at;
            return CycleAction::Stop;
        }
        if (escalate(*ev, at) == Escalation::KillPath) {
            tree.node(node).end = PathEnd::Degraded;
            tree.node(node).endInstr = at;
            return CycleAction::Kill;
        }
        return CycleAction::Continue;
    }

    /**
     * Cycles left before the next cycle-budget threshold. The poll
     * runs before *every* cycle, so a cached segment this long or
     * longer would skip the exact cycle where the run degrades or
     * stops; it is simulated instead. (Wall-clock and RSS budgets are
     * timing-dependent anyway and fire at its boundary.)
     */
    uint64_t
    cycleLimit() const
    {
        uint64_t limit = UINT64_MAX;
        for (uint64_t t :
             {ps.cfg.budgets.softCycles, ps.cfg.budgets.hardCycles}) {
            if (t && totalCycles < t)
                limit = std::min(limit, t - totalCycles);
        }
        return limit;
    }

    /**
     * Fold one finished segment of the path at tree node @p node into
     * the run, in the order the cycles happened: taint, violations
     * (rebased from segment-relative onto the run's clock, which read
     * @p c0 at the segment start), POR forks, then the segment end --
     * stop, kill, *-logic abort, HALT, or the commit's state-table
     * visit and branch enumeration.
     *
     * Returns the state the path continues from (a commit with a
     * concrete PC that the table did not subsume), or nullopt when
     * the path ends. @p merged reports whether that state was widened
     * by a merge. @p simulated is false for a memo hit, whose end
     * state the simulator does not hold.
     */
    std::optional<SymState>
    apply(uint32_t node, SegmentResult seg, uint64_t c0,
          bool simulated, bool &merged)
    {
        EngineStats &es = engineStats();
        trace::Tracer &tr = trace::Tracer::instance();

        if (ps.cfg.trackTaintedNets && seg.taintDelta.size() > 0)
            everTainted.orWith(seg.taintDelta);
        for (Violation &v : seg.violations) {
            v.firstCycle += c0;
            log.merge(v);
        }
        // Unknown watchdog expiry: the fired branch becomes a fresh
        // execution point; the not-fired one went on in the segment.
        // A simulated segment traced its forks as they happened.
        for (SegmentPorFork &f : seg.porForks) {
            ++branchPoints;
            ++es.branchPoints;
            ++es.porForks;
            if (!simulated) {
                GLIFS_TRACE_INSTANT_ARGS("engine", "por_fork",
                                         add("instr", hex16(f.instr))
                                             .add("cycle", c0 + f.cycle));
            }
            uint32_t cn = tree.addNode(node, f.startPc);
            stack.push_back({std::move(f.fired), cn});
        }

        if (seg.killed) {
            // *-logic the offending path: saturate to tainted-X and
            // terminate it conservatively.
            ps.starSaturate(&everTainted);
            return std::nullopt;
        }
        if (seg.stopped) {
            if (ps.cfg.checkpointOnStop) {
                // Park the in-flight path back on the frontier so the
                // snapshot resumes it; it will be popped (and counted)
                // again.
                stack.push_back({std::move(seg.end), node});
                --pathsExplored;
            }
            return std::nullopt;
        }
        const uint16_t instr_addr = seg.endInstr;
        if (seg.starAborted) {
            starGates = ps.starSaturate(&everTainted);
            starAborted = true;
            tree.node(node).end = PathEnd::StarAborted;
            tree.node(node).endInstr = instr_addr;
            return std::nullopt;
        }
        if (seg.halted) {
            // The segment already ran the halt memory-invariant scan.
            tree.node(node).end = PathEnd::Halted;
            tree.node(node).endInstr = instr_addr;
            return std::nullopt;
        }

        const uint16_t fsm = seg.endFsm;
        SymState &cur = seg.end;
        const uint32_t table_key =
            (static_cast<uint32_t>(instr_addr) << 4) | fsm;
        // Plain conservative merge: cross-path differences that could
        // leak are all caught by the per-cycle C1-C5 checks (untainted
        // code with a tainted PC, partition escapes, port escapes),
        // mirroring the proof structure of Section 5.4, so the merge
        // itself need not re-taint.
        StateTable::Visit visit =
            ps.cfg.disableMerging ? StateTable::Visit::New
                                  : table.visit(table_key, cur);
        gov.noteStates(table.size());
        if (tr.enabled()) {
            static const char *const visitNames[] = {"new", "subsumed",
                                                     "merged"};
            tr.instant("engine", "visit",
                       trace::Args()
                           .add("instr", hex16(instr_addr))
                           .add("fsm", static_cast<uint64_t>(fsm))
                           .add("result",
                                visitNames[static_cast<int>(visit)])
                           .add("cycle", totalCycles)
                           .str());
        }
        if (visit == StateTable::Visit::Subsumed) {
            tree.node(node).end = PathEnd::Subsumed;
            tree.node(node).endInstr = instr_addr;
            if (!simulated) {
                // The scan below reads the data-memory cells out of
                // the simulator; put the segment's end state there.
                cur.restore(ps.layout, ps.sim.state());
                ps.sim.markAllDirty();
            }
            ps.checker.checkMemoryInvariant(ps.sim, instr_addr,
                                            totalCycles, log);
            return std::nullopt;
        }

        // visit() merged or stored; cur is now the conservative state
        // to continue from.
        const size_t pc_xbits = ps.statePcXBits(cur).size();
        if (pc_xbits == 0) {
            merged = visit == StateTable::Visit::Merged;
            return std::move(cur);
        }

        // Soft branch-fanout threshold: a wide unknown-PC branch
        // escalates the ladder before enumerating.
        if (ps.cfg.budgets.softBranchBits &&
            pc_xbits > ps.cfg.budgets.softBranchBits &&
            level == DegradeLevel::None) {
            BudgetEvent ev{ResourceKind::BranchFanout,
                           BudgetSeverity::Soft,
                           detail::concat(pc_xbits,
                                          " unknown PC bits at ",
                                          hex16(instr_addr))};
            escalate(ev, instr_addr);
        }

        bool overflow = false;
        std::vector<uint16_t> pcs =
            ps.candidatePcs(instr_addr, cur, overflow);
        if (overflow) {
            // Hard fanout exhaustion: unbounded indirect control flow.
            // Degrade the path to the *-logic abstraction instead of
            // aborting the analysis. starSaturate overwrites every
            // flop, memory cell and input before settling, so it
            // needs no particular simulator state to start from.
            recordDegradation(
                DegradeLevel::StarLogicPath, ResourceKind::BranchFanout,
                BudgetSeverity::Hard, instr_addr,
                detail::concat(pc_xbits, " unknown PC bits exceed ",
                               ps.cfg.maxBranchBits,
                               " (consider masking the target)"));
            ps.starSaturate(&everTainted);
            tree.node(node).end = PathEnd::Degraded;
            tree.node(node).endInstr = instr_addr;
            return std::nullopt;
        }
        ++branchPoints;
        ++es.branchPoints;
        ++es.pcFanouts;
        es.fanoutWidth.sample(static_cast<double>(pcs.size()));
        GLIFS_TRACE_INSTANT_ARGS(
            "engine", "branch",
            add("instr", hex16(instr_addr))
                .add("successors", static_cast<uint64_t>(pcs.size()))
                .add("cycle", totalCycles));
        for (uint16_t pc : pcs) {
            uint32_t cn = tree.addNode(node, pc);
            stack.push_back({ps.concretizePc(cur, pc), cn});
        }
        es.frontierPeak.set(static_cast<double>(stack.size()));
        gov.noteFrontier(stack.size());
        tree.node(node).end = PathEnd::Branched;
        tree.node(node).endInstr = instr_addr;
        return std::nullopt;
    }

    /**
     * Run one popped path segment by segment until it halts, is
     * subsumed, branches, degrades or stops. Each segment is taken
     * from the memo when it holds one, else simulated: from the
     * simulator's own state when the path goes on past a commit whose
     * state the table stored unchanged (no restore, no untracked
     * settle), else from the segment's start state.
     */
    void
    runPath(FrontierEntry e)
    {
        EngineStats &es = engineStats();
        const uint32_t node = e.node;
        SegmentHooks hooks;
        hooks.poll = [&] { return poll(node); };
        hooks.tracePorForks = true;
        hooks.cycleCharged = [&] {
            ++totalCycles;
            ++es.cycles;
            gov.chargeCycles(1);
            ++tree.node(node).cycles;
        };
        bool live = false; ///< the simulator holds e.state
        while (true) {
            const uint64_t c0 = totalCycles;
            hooks.cycleBase = c0;
            const SegmentResult *hit =
                memo ? memo->find(e.state, cycleLimit()) : nullptr;
            SegmentResult seg;
            if (hit) {
                // The segment's first governor poll, without loading
                // its start state into the simulator.
                const CycleAction act = poll(node, &e.state);
                if (act == CycleAction::Stop) {
                    seg.stopped = true;
                    seg.end = std::move(e.state);
                } else if (act == CycleAction::Kill) {
                    seg.killed = true;
                } else {
                    seg = *hit;
                    totalCycles += seg.cycles;
                    es.cycles += seg.cycles;
                    gov.chargeCycles(seg.cycles);
                    tree.node(node).cycles += seg.cycles;
                }
            } else {
                seg = live ? ps.continueSegment(hooks)
                           : ps.runSegment(e.state, hooks);
                if (memo)
                    memo->remember(e.state, seg);
            }
            bool merged = false;
            std::optional<SymState> next =
                apply(node, std::move(seg), c0, !hit, merged);
            if (!next)
                return;
            live = !hit && !merged;
            e = FrontierEntry{std::move(*next), node};
        }
    }

    /** Algorithm 1's outer loop: pop execution points until the
     *  frontier drains, the budget stops the run or *-logic aborts. */
    void
    explore()
    {
        EngineStats &es = engineStats();
        trace::Tracer &tr = trace::Tracer::instance();
        while (!stack.empty() && !budgetHit && !starAborted) {
            FrontierEntry e = std::move(stack.back());
            stack.pop_back();
            ++pathsExplored;
            ++es.paths;
            es.frontierDepth.sample(static_cast<double>(stack.size()));
            es.frontierPeak.set(static_cast<double>(stack.size() + 1));
            gov.noteFrontier(stack.size() + 1);
            if (tr.enabled()) {
                tr.instant("engine", "pop",
                           trace::Args()
                               .add("node",
                                    static_cast<uint64_t>(e.node))
                               .add("pc", hex16(ps.statePcBase(e.state)))
                               .add("stack",
                                    static_cast<uint64_t>(stack.size()))
                               .str());
            }
            // Children are pushed concretized; defensive check.
            GLIFS_ASSERT(ps.statePcXBits(e.state).empty(),
                         "execution point with unknown PC");
            runPath(std::move(e));
        }
    }
};

} // namespace

IftEngine::IftEngine(const Soc &s, const Policy &p,
                     const EngineConfig &c)
    : soc(s), policy(p), cfg(c)
{
}

EngineResult
IftEngine::run(const ProgramImage &image)
{
    return run(image, nullptr);
}

EngineResult
IftEngine::run(const ProgramImage &image, const EngineCheckpoint *resume)
{
    SegmentMemo memo;
    return run(image, resume, &memo);
}

EngineResult
IftEngine::run(const ProgramImage &image, const EngineCheckpoint *resume,
               SegmentMemo *memo)
{
    GLIFS_TRACE_SCOPE("engine", "run");
    EngineStats &es = engineStats();
    ++es.runs;
    trace::Tracer &tr = trace::Tracer::instance();
    const auto t0 = std::chrono::steady_clock::now();
    const uint64_t traceT0 = tr.enabled() ? tr.nowUs() : 0;
    auto secondsSince = [](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t)
            .count();
    };

    // Fold the legacy cycle budget into the governed budgets as a hard
    // cycle budget (keeping the smaller of the two if both are set).
    EngineConfig effective = cfg;
    if (effective.maxCycles > 0 &&
        (effective.budgets.hardCycles == 0 ||
         effective.maxCycles < effective.budgets.hardCycles)) {
        effective.budgets.hardCycles = effective.maxCycles;
    }

    RunCtx ctx(soc, policy, effective, image, memo);
    EngineResult res;

    // Heartbeat and budget checks share the governor's poll clock
    // (docs/OBSERVABILITY.md): one firing proves the other is live.
    if (effective.progressSeconds > 0 && effective.progressFn) {
        ctx.gov.setHeartbeat(effective.progressSeconds,
                             effective.progressFn);
    }

    ctx.ps.loadProgram();
    const uint64_t fingerprint = checkpointFingerprint(
        image, ctx.ps.layout.slots(), soc.netlist().numNets());

    if (resume) {
        if (resume->fingerprint != fingerprint) {
            GLIFS_RECOVERABLE(
                "checkpoint does not match this program image and "
                "netlist (was the firmware or SoC changed?)");
        }
        if (resume->everTainted.size() != soc.netlist().numNets())
            GLIFS_RECOVERABLE("checkpoint: tainted-net plane mismatch");

        ctx.totalCycles = resume->totalCycles;
        ctx.gov.chargeCycles(resume->totalCycles);
        ctx.pathsExplored = resume->pathsExplored;
        ctx.branchPoints = resume->branchPoints;
        ctx.level = resume->level;
        if (ctx.level >= DegradeLevel::WidenedMerging)
            ctx.ps.cfg.preciseJumpTargets = false;
        ctx.degradations = resume->degradations;
        for (const Violation &v : resume->violations)
            ctx.log.restore(v);
        ctx.everTainted = resume->everTainted;
        for (const auto &[key, state] : resume->table)
            ctx.table.insertRestored(key, state);
        ctx.table.setCounters(resume->merges, resume->subsumptions);
        ctx.gov.noteStates(ctx.table.size());
        ctx.tree.setNodes(resume->tree);
        for (const auto &[state, node] : resume->frontier)
            ctx.stack.push_back({state, node});
    } else {
        // Algorithm 1 line 5: propagate the (untainted) reset.
        ctx.ps.setInputs(true);
        ctx.ps.sim.step();
        ++ctx.totalCycles;
        ++es.cycles;
        ctx.gov.chargeCycles(1);

        SymState s0(ctx.ps.layout);
        s0.capture(ctx.ps.layout, ctx.ps.sim.state());
        uint32_t root = ctx.tree.addNode(-1, 0);
        ctx.stack.push_back({std::move(s0), root});
    }

    es.setupSeconds.add(secondsSince(t0));
    if (tr.enabled())
        tr.complete("engine", "setup", traceT0, tr.nowUs() - traceT0);
    const auto tExplore = std::chrono::steady_clock::now();
    const uint64_t traceTExplore = tr.enabled() ? tr.nowUs() : 0;

    ctx.explore();

    es.exploreSeconds.add(secondsSince(tExplore));
    if (tr.enabled()) {
        tr.complete("engine", "explore", traceTExplore,
                    tr.nowUs() - traceTExplore);
    }
    const auto tFinalize = std::chrono::steady_clock::now();
    const uint64_t traceTFinalize = tr.enabled() ? tr.nowUs() : 0;

    res.completed = ctx.stack.empty() && !ctx.budgetHit &&
                    !ctx.starAborted;
    res.starAborted = ctx.starAborted;
    res.cyclesSimulated = ctx.totalCycles;
    res.pathsExplored = ctx.pathsExplored;
    res.branchPoints = ctx.branchPoints;
    res.merges = ctx.table.merges();
    res.subsumptions = ctx.table.subsumptions();
    res.statesTracked = ctx.table.size();
    res.violations = ctx.log.list();
    res.degradations = ctx.degradations;

    if (ctx.budgetHit && ctx.ps.cfg.checkpointOnStop) {
        auto ckpt = std::make_shared<EngineCheckpoint>();
        ckpt->fingerprint = fingerprint;
        ckpt->totalCycles = ctx.totalCycles;
        ckpt->pathsExplored = ctx.pathsExplored;
        ckpt->branchPoints = ctx.branchPoints;
        ckpt->merges = ctx.table.merges();
        ckpt->subsumptions = ctx.table.subsumptions();
        ckpt->level = ctx.level;
        // The PartialStop record of this very stop is not carried
        // over: resumed to completion, it cost no coverage.
        for (const Degradation &d : ctx.degradations) {
            if (d.level != DegradeLevel::PartialStop)
                ckpt->degradations.push_back(d);
        }
        ckpt->violations = res.violations;
        ckpt->everTainted = ctx.everTainted;
        ckpt->table.reserve(ctx.table.entries().size());
        for (const auto &[key, state] : ctx.table.entries())
            ckpt->table.emplace_back(key, state);
        ckpt->frontier.reserve(ctx.stack.size());
        for (FrontierEntry &e : ctx.stack)
            ckpt->frontier.emplace_back(std::move(e.state), e.node);
        ckpt->tree = ctx.tree.all();
        res.checkpoint = std::move(ckpt);
    }

    res.tree = std::move(ctx.tree);

    if (cfg.starLogicMode) {
        std::tie(res.taintedGates, res.totalGates) = ctx.starGates;
    } else {
        // Fraction of tracked gates whose output ever carried taint.
        const Netlist &nl = soc.netlist();
        size_t tainted = 0;
        size_t total = 0;
        for (const Gate &g : nl.gates()) {
            if (g.type != GateType::Comb && g.type != GateType::Dff)
                continue;
            ++total;
            if (ctx.everTainted.get(g.out))
                ++tainted;
        }
        res.taintedGates = tainted;
        res.totalGates = total;
    }
    res.taintedGateFraction =
        res.totalGates == 0
            ? 0.0
            : static_cast<double>(res.taintedGates) / res.totalGates;

    es.finalizeSeconds.add(secondsSince(tFinalize));
    if (tr.enabled()) {
        tr.complete("engine", "finalize", traceTFinalize,
                    tr.nowUs() - traceTFinalize);
    }

    const auto t1 = std::chrono::steady_clock::now();
    res.analysisSeconds =
        std::chrono::duration<double>(t1 - t0).count();
    return res;
}

} // namespace glifs
