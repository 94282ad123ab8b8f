/**
 * @file
 * Per-cycle information-flow policy checking (Section 4.2) over the
 * symbolic simulation, reporting violations of the sufficient
 * conditions of Section 5.1 plus the direct non-interference checks.
 */

#ifndef GLIFS_IFT_CHECKER_HH
#define GLIFS_IFT_CHECKER_HH

#include <concepts>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ift/policy.hh"
#include "sim/simulator.hh"
#include "soc/soc.hh"

namespace glifs
{

/** Violation categories, mapped to the paper's sufficient conditions. */
enum class ViolationKind : uint8_t
{
    /** C1: the PC is tainted while a tainted task runs (needs the
     *  watchdog mechanism to recover untainted control). */
    TaintedControlFlow,
    /** C1 (hard): the PC is tainted while untainted code executes. */
    UntaintedCodeTaintedPc,
    /** C2: a store may taint an untainted memory partition. */
    StoreUntaintedPartition,
    /** C3: untainted code loads from tainted memory / tainted cells. */
    LoadTaintedData,
    /** C4: untainted code reads a tainted input port. */
    UntaintedReadTaintedPort,
    /** C5: a tainted store may reach a trusted output port. */
    TaintedWriteTrustedPort,
    /** Non-interference break: a trusted output register is tainted. */
    TrustedOutputTainted,
    /** The watchdog control write-enable carries taint. */
    WatchdogTainted,
};

/** Printable name of a violation kind. */
const char *violationKindName(ViolationKind kind);

/** Does this kind make the system insecure by itself (error), or is it
 *  fixable by the software techniques of Section 5.2 (warning)? */
bool violationIsError(ViolationKind kind);

/** One (aggregated) policy violation. */
struct Violation
{
    ViolationKind kind;
    uint16_t instrAddr = 0;     ///< the responsible instruction
    uint64_t firstCycle = 0;    ///< first cycle it was observed
    uint32_t count = 0;         ///< number of cycles it was observed
    /** True when the violation is an actual store whose address
     *  register can be masked (set by the write-site checks; cleared
     *  for persistent downstream symptoms). */
    bool maskable = false;
    std::string detail;

    std::string str() const;
};

/**
 * Aggregating log of violations keyed by (kind, instruction). Every
 * record() is one observation (checker.violations, a trace instant,
 * +1 count); only the first observation of a key keeps its cycle and
 * detail, so the detail is built only for a key not yet in the log.
 */
class ViolationLog
{
  public:
    void
    record(ViolationKind kind, uint16_t instr_addr, uint64_t cycle,
           std::string_view detail, bool maskable = false)
    {
        if (Violation *v = observe(kind, instr_addr, cycle, maskable))
            v->detail = detail;
    }

    /** record() with the detail built by @p make_detail(), called only
     *  when the (kind, instruction) key is new. */
    template <typename MakeDetail>
        requires std::invocable<MakeDetail &>
    void
    record(ViolationKind kind, uint16_t instr_addr, uint64_t cycle,
           MakeDetail &&make_detail, bool maskable = false)
    {
        if (Violation *v = observe(kind, instr_addr, cycle, maskable))
            v->detail = make_detail();
    }

    /** Checkpoint restore: re-insert an aggregated entry verbatim. */
    void restore(const Violation &v);

    /**
     * Fold an already-aggregated entry (e.g. from a worker segment)
     * into the log: absent keys insert it verbatim, present keys add
     * the observation counts and OR maskability, keeping the earlier
     * firstCycle/detail -- the same aggregation record() performs
     * cycle by cycle.
     */
    void merge(const Violation &v);

    std::vector<Violation> list() const;
    bool empty() const { return entries.empty(); }
    size_t distinct() const { return entries.size(); }

  private:
    std::map<std::pair<uint8_t, uint16_t>, Violation> entries;

    /** Count one observation; the entry if it was just inserted (its
     *  detail still empty), else null. */
    Violation *observe(ViolationKind kind, uint16_t instr_addr,
                       uint64_t cycle, bool maskable);
};

/**
 * Per-cycle checker bound to one SoC and policy.
 */
class FlowChecker
{
  public:
    FlowChecker(const Soc &soc, const Policy &policy);

    /**
     * Inspect one settled cycle (call after evalComb, before the clock
     * edge). @p instr_addr is the concrete address of the executing
     * instruction.
     */
    void checkCycle(const Simulator &sim, uint16_t instr_addr,
                    uint64_t cycle, ViolationLog &log) const;

    /**
     * Scan all RAM cells for taint in untainted partitions (invariant
     * check, used at path ends). One observation per tainted RAM word
     * of each untainted partition, in ascending address order.
     */
    void checkMemoryInvariant(const Simulator &sim, uint16_t instr_addr,
                              uint64_t cycle, ViolationLog &log) const;

  private:
    const Soc &soc;
    const Policy &policy;

    bool pcTainted(const Simulator &sim) const;
    void checkWrite(const Simulator &sim, uint16_t instr_addr,
                    uint64_t cycle, bool code_tainted,
                    ViolationLog &log) const;
    void checkRead(const Simulator &sim, uint16_t instr_addr,
                   uint64_t cycle, bool code_tainted,
                   ViolationLog &log) const;
};

} // namespace glifs

#endif // GLIFS_IFT_CHECKER_HH
