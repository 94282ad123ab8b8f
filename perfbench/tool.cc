/**
 * @file
 * perfbench_tool: workload generation and the traced layer replay of
 * the audit benchmark. Usage:
 *
 *   perfbench_tool gen DIR
 *   perfbench_tool replay --seed N --stride CYCLES --seconds S \
 *       --out SPANS.json FW POLICY [FW POLICY ...]
 */

#include "tool.hh"

#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench
{

void
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    out.close();
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
readTextFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty()) {
        std::fprintf(stderr, "usage: perfbench_tool gen|replay ...\n");
        return 2;
    }
    const std::string cmd = args.front();
    args.erase(args.begin());
    try {
        if (cmd == "gen")
            return perfbench::genMain(args);
        if (cmd == "replay")
            return perfbench::replayMain(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_tool: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "perfbench_tool: unknown command %s\n",
                 cmd.c_str());
    return 2;
}
