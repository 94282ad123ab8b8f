/**
 * @file
 * The one little-endian byte format of glifs' records: the engine
 * checkpoint body (ift/checkpoint.hh), the batch journal
 * (batch/journal.hh) and worker telemetry (base/telemetry.hh).
 *
 * Writer appends fixed-width little-endian integers, u32-length-
 * prefixed strings and doubles (their IEEE-754 bits as a u64) to a
 * std::string. Reader is the bounds-checked inverse over a
 * std::string_view: a read past the end sets a sticky bad() flag and
 * yields zero or empty, so a caller decodes a whole record and checks
 * once, with its own policy on damage.
 *
 * Journal records and telemetry events travel in the same frame:
 *
 *   u32 payload_len | u8 type | payload | u32 crc32(type + payload)
 *
 * built by appendFrame() and recognised by parseFrame(), which tells
 * a frame still arriving from one whose length or CRC is wrong.
 */

#ifndef GLIFS_BASE_WIRE_HH
#define GLIFS_BASE_WIRE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace glifs::wire
{

/** Little-endian primitive writer appending to a caller's buffer. */
class Writer
{
  public:
    explicit Writer(std::string &out) : out(out) {}

    void u8(uint8_t v) { out.push_back(static_cast<char>(v)); }
    void u16(uint16_t v) { put(v, 2); }
    void u32(uint32_t v) { put(v, 4); }
    void u64(uint64_t v) { put(v, 8); }
    /** u32 length, then the bytes. */
    void str(std::string_view s);
    /** The IEEE-754 bit pattern as a u64. */
    void real(double v);

  private:
    void put(uint64_t v, unsigned bytes);

    std::string &out;
};

/** Bounds-checked little-endian cursor with a sticky bad() flag. */
class Reader
{
  public:
    explicit Reader(std::string_view buf) : buf(buf) {}

    uint8_t u8() { return static_cast<uint8_t>(get(1)); }
    uint16_t u16() { return static_cast<uint16_t>(get(2)); }
    uint32_t u32() { return static_cast<uint32_t>(get(4)); }
    uint64_t u64() { return get(8); }
    /** A u32-length-prefixed string; never longer than remaining(). */
    std::string str();
    double real();
    /** The next @p n bytes, or empty (and bad) if fewer are left. */
    std::string_view bytes(size_t n);

    /** Bytes not yet consumed (0 once bad). */
    size_t remaining() const { return buf.size() - pos; }
    bool bad() const { return badFlag; }
    /** Mark the input bad (a caller's semantic check failed): every
     *  later read yields zero. */
    void fail();

  private:
    uint64_t get(unsigned bytes);

    std::string_view buf;
    size_t pos = 0;
    bool badFlag = false;
};

/** Append one frame carrying @p payload as record type @p type. */
void appendFrame(std::string &out, uint8_t type, std::string_view payload);

enum class FrameStatus : uint8_t
{
    Complete,   ///< a whole frame whose CRC matches
    Incomplete, ///< the input ends inside the frame: wait for more
    TooLong,    ///< the length word exceeds the caller's bound
    BadCrc,     ///< a whole frame whose CRC does not match
};

/** What parseFrame() found at the start of its input. */
struct Frame
{
    FrameStatus status = FrameStatus::Incomplete;
    uint8_t type = 0;
    /** Points into the parsed input (Complete only). */
    std::string_view payload;
    /** The frame's whole size on the wire (Complete and BadCrc). */
    size_t bytes = 0;
};

/** Recognise the frame at the start of @p in, believing no payload
 *  longer than @p maxLen. */
Frame parseFrame(std::string_view in, uint32_t maxLen);

} // namespace glifs::wire

#endif // GLIFS_BASE_WIRE_HH
