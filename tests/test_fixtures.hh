/**
 * @file
 * Firmware and trace helpers shared by the engine test files.
 */

#ifndef GLIFS_TESTS_TEST_FIXTURES_HH
#define GLIFS_TESTS_TEST_FIXTURES_HH

#include <cstdint>
#include <cstdlib>
#include <string>

namespace glifs::testutil
{

/**
 * Figure 8 right-hand listing: untainted system code arms the
 * watchdog, then runs a tainted task whose control flow becomes
 * tainted. Audit it with benchmarkPolicy(0x20, 0x7F). Its paths go on
 * past commits whose visit stored a new state (`jmp task`, the first
 * `t1: jmp t1`) and past commits whose visit merged (later rounds of
 * the `t1` loop), and its watchdog expiry forks the path.
 */
inline constexpr const char *kFigure8WatchdogProgram =
    // Untainted system partition at the reset vector.
    "start:  mov &0x0A00, r4\n"     // pass flag (untainted RAM)
    "        cmp #1, r4\n"
    "        jz done\n"
    "        mov #1, &0x0A00\n"
    "        mov #0x0000, &0x0010\n" // arm watchdog, 64 cycles
    "        jmp task\n"
    "done:   halt\n"
    "        .org 0x20\n"
    // Tainted task: control flow depends on a tainted input.
    "task:   mov &0x0000, r4\n"
    "        tst r4\n"
    "        jz t1\n"
    "        nop\n"
    "t1:     jmp t1\n";

/** Numeric argument @p key of a rendered trace-args body, or ~0 when
 *  it is absent. */
inline uint64_t
traceArgNum(const std::string &args, const std::string &key)
{
    size_t at = args.find("\"" + key + "\": ");
    return at == std::string::npos
               ? ~0ull
               : std::strtoull(args.c_str() + at + key.size() + 4,
                               nullptr, 10);
}

/** String argument @p key of a rendered trace-args body, or "" when
 *  it is absent. */
inline std::string
traceArgStr(const std::string &args, const std::string &key)
{
    size_t at = args.find("\"" + key + "\": \"");
    if (at == std::string::npos)
        return "";
    at += key.size() + 5;
    return args.substr(at, args.find('"', at) - at);
}

} // namespace glifs::testutil

#endif // GLIFS_TESTS_TEST_FIXTURES_HH
