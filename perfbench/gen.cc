/**
 * @file
 * Workload generation: the fixed paper firmware set, written as the
 * files glifs_audit receives.
 *
 *  - `<kernel>.s` / `<kernel>.policy` for the 13 Table-1 kernels under
 *    their benchmark policy, and `expect.tsv` (name, expectC1,
 *    expectC2) with their Table-2 answers;
 *  - `rtos.s` / `rtos.policy`: the protected MiniRTOS of Section 7.3;
 *  - `halt.s`: a one-instruction firmware for timing audit set-up.
 */

#include <sstream>

#include "ift/policy_file.hh"
#include "tool.hh"
#include "workloads/rtos.hh"
#include "workloads/workload.hh"

namespace perfbench
{

int
genMain(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        throw std::runtime_error("usage: perfbench_tool gen DIR");
    const std::string dir = args[0] + "/";

    std::ostringstream expect;
    for (const glifs::Workload &w : glifs::allWorkloads()) {
        writeTextFile(dir + w.name + ".s", w.source());
        writeTextFile(dir + w.name + ".policy",
                      glifs::renderPolicy(w.policy()));
        expect << w.name << '\t' << int(w.expectC1) << '\t'
               << int(w.expectC2) << '\n';
    }
    writeTextFile(dir + "expect.tsv", expect.str());

    const glifs::MicroBenchmark rtos = glifs::rtosProtected();
    writeTextFile(dir + "rtos.s", rtos.source);
    writeTextFile(dir + "rtos.policy", glifs::renderPolicy(rtos.policy));

    writeTextFile(dir + "halt.s", "        halt\n");
    return 0;
}

} // namespace perfbench
