#include "base/wire.hh"

#include <bit>

#include "base/hash.hh"

namespace glifs::wire
{

void
Writer::put(uint64_t v, unsigned bytes)
{
    char le[8];
    for (unsigned i = 0; i < bytes; ++i)
        le[i] = static_cast<char>(v >> (8 * i));
    out.append(le, bytes);
}

void
Writer::str(std::string_view s)
{
    u32(static_cast<uint32_t>(s.size()));
    out.append(s);
}

void
Writer::real(double v)
{
    u64(std::bit_cast<uint64_t>(v));
}

uint64_t
Reader::get(unsigned bytes)
{
    if (remaining() < bytes) {
        fail();
        return 0;
    }
    uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i)
        v |= uint64_t{static_cast<uint8_t>(buf[pos + i])} << (8 * i);
    pos += bytes;
    return v;
}

std::string
Reader::str()
{
    const uint32_t n = u32();
    return std::string(bytes(n));
}

double
Reader::real()
{
    return std::bit_cast<double>(u64());
}

std::string_view
Reader::bytes(size_t n)
{
    if (remaining() < n) {
        fail();
        return {};
    }
    std::string_view v = buf.substr(pos, n);
    pos += n;
    return v;
}

void
Reader::fail()
{
    badFlag = true;
    pos = buf.size();
}

void
appendFrame(std::string &out, uint8_t type, std::string_view payload)
{
    Writer w(out);
    w.u32(static_cast<uint32_t>(payload.size()));
    const size_t body = out.size();
    w.u8(type);
    out.append(payload);
    w.u32(crc32(out.data() + body, out.size() - body));
}

Frame
parseFrame(std::string_view in, uint32_t maxLen)
{
    Frame f;
    Reader r(in);
    const uint32_t len = r.u32();
    if (r.bad())
        return f; // Incomplete
    if (len > maxLen) {
        f.status = FrameStatus::TooLong;
        return f;
    }
    const std::string_view body = r.bytes(size_t{1} + len);
    const uint32_t crc = r.u32();
    if (r.bad())
        return f; // Incomplete
    f.bytes = in.size() - r.remaining();
    if (crc32(body.data(), body.size()) != crc) {
        f.status = FrameStatus::BadCrc;
        return f;
    }
    f.status = FrameStatus::Complete;
    f.type = static_cast<uint8_t>(body[0]);
    f.payload = body.substr(1);
    return f;
}

} // namespace glifs::wire
