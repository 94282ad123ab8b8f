/**
 * @file
 * Entry points of perfbench_tool, the compiled half of the audit
 * benchmark (run.py is the other half; see README.md).
 */

#ifndef GLIFS_PERFBENCH_TOOL_HH
#define GLIFS_PERFBENCH_TOOL_HH

#include <string>
#include <vector>

namespace perfbench
{

/**
 * `gen DIR`: write every firmware image the benchmark audits, with its
 * rendered policy, into DIR, plus `expect.tsv` holding the kernels'
 * Table-2 answers.
 */
int genMain(const std::vector<std::string> &args);

/**
 * `replay --seed N --stride CYCLES --seconds S --out SPANS.json
 * FW POLICY [FW POLICY...]`: the traced layer replay (replay.cc). Prints
 * one JSON object of layer metrics.
 */
int replayMain(const std::vector<std::string> &args);

/** Write @p text to @p path; throws std::runtime_error on failure. */
void writeTextFile(const std::string &path, const std::string &text);

/** Read a whole file; throws std::runtime_error on failure. */
std::string readTextFile(const std::string &path);

} // namespace perfbench

#endif // GLIFS_PERFBENCH_TOOL_HH
