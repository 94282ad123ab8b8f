/**
 * @file
 * A content digest of a captured symbolic state.
 *
 * The engine itself compares states in full (ift/segment_memo.hh); the
 * digest names a state compactly for tools that index states outside
 * the engine, such as the benchmark's layer replay.
 */

#ifndef GLIFS_EXPLORE_PROTOCOL_HH
#define GLIFS_EXPLORE_PROTOCOL_HH

#include <string>

#include "ift/symstate.hh"

namespace glifs::explore
{

/** SHA-256 of a captured state's three planes (32 raw bytes). */
std::string stateDigest(const SymState &s);

} // namespace glifs::explore

#endif // GLIFS_EXPLORE_PROTOCOL_HH
