/**
 * @file
 * Lowercase hex rendering of byte strings, for the golden tests that
 * pin the checkpoint, batch-journal and telemetry formats byte for
 * byte.
 */

#ifndef GLIFS_TESTS_TEST_HEX_HH
#define GLIFS_TESTS_TEST_HEX_HH

#include <string>
#include <string_view>

namespace glifs::testutil
{

inline std::string
hexOf(std::string_view bytes)
{
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (char c : bytes) {
        const auto b = static_cast<unsigned char>(c);
        out += kDigits[b >> 4];
        out += kDigits[b & 0xF];
    }
    return out;
}

} // namespace glifs::testutil

#endif // GLIFS_TESTS_TEST_HEX_HH
