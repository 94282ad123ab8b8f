/**
 * @file
 * Small bit-manipulation helpers used throughout glifs.
 */

#ifndef GLIFS_BASE_BITUTIL_HH
#define GLIFS_BASE_BITUTIL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/logging.hh"

namespace glifs
{

/** Extract bit @p pos of @p value. */
inline bool
bit(uint64_t value, unsigned pos)
{
    return (value >> pos) & 1ULL;
}

/** Return @p value with bit @p pos set to @p b. */
inline uint64_t
setBit(uint64_t value, unsigned pos, bool b)
{
    return b ? (value | (1ULL << pos)) : (value & ~(1ULL << pos));
}

/** Mask with the low @p n bits set (n in [0,64]). */
inline uint64_t
lowMask(unsigned n)
{
    return n >= 64 ? ~0ULL : ((1ULL << n) - 1);
}

/** Population count. */
unsigned popcount64(uint64_t v);

/** Number of bits needed to represent values 0..n-1 (at least 1). */
unsigned bitsFor(uint64_t n);

/** Sign-extend the low @p bits of @p v to 64 bits. */
int64_t signExtend(uint64_t v, unsigned bits);

/**
 * A simple growable bitset backed by 64-bit words with word-level
 * merge/subset operations; the workhorse behind symbolic state planes.
 */
class BitPlane
{
  public:
    BitPlane() = default;
    explicit BitPlane(size_t nbits);

    void resize(size_t nbits);
    size_t size() const { return numBits; }

    bool
    get(size_t i) const
    {
        GLIFS_ASSERT(i < numBits, "BitPlane index ", i, " >= ", numBits);
        return (data[i / 64] >> (i % 64)) & 1ULL;
    }

    void
    set(size_t i, bool b)
    {
        GLIFS_ASSERT(i < numBits, "BitPlane index ", i, " >= ", numBits);
        if (b)
            data[i / 64] |= (1ULL << (i % 64));
        else
            data[i / 64] &= ~(1ULL << (i % 64));
    }

    /**
     * Bits [pos, pos + len) as an integer, bit pos in the LSB; len in
     * [1, 64]. The field spans at most two words.
     */
    uint64_t
    field(size_t pos, unsigned len) const
    {
        GLIFS_ASSERT(len >= 1 && len <= 64 && pos + len <= numBits,
                     "BitPlane field ", pos, "+", len, " > ", numBits);
        const size_t w = pos / 64;
        const unsigned b = pos % 64;
        uint64_t v = data[w] >> b;
        if (b + len > 64)
            v |= data[w + 1] << (64 - b);
        return v & lowMask(len);
    }

    /** Overwrite bits [pos, pos + len) with the low @p len bits of
     *  @p v; len in [1, 64], every other bit is kept. */
    void
    setField(size_t pos, unsigned len, uint64_t v)
    {
        GLIFS_ASSERT(len >= 1 && len <= 64 && pos + len <= numBits,
                     "BitPlane field ", pos, "+", len, " > ", numBits);
        v &= lowMask(len);
        const size_t w = pos / 64;
        const unsigned b = pos % 64;
        data[w] = (data[w] & ~(lowMask(len) << b)) | (v << b);
        if (b + len > 64) {
            const unsigned hi = b + len - 64;
            data[w + 1] =
                (data[w + 1] & ~lowMask(hi)) | (v >> (64 - b));
        }
    }

    /**
     * Copy bits [src_pos, src_pos + len) of @p src into bits
     * [dst_pos, dst_pos + len) of this plane, a destination word at a
     * time; bits outside the range, the tail included, are kept.
     * @p src must not be this plane.
     */
    void copyBits(size_t dst_pos, const BitPlane &src, size_t src_pos,
                  size_t len);

    void clearAll();
    void setAll();

    /** Number of set bits. */
    size_t count() const;

    /** this |= other (sizes must match). */
    void orWith(const BitPlane &other);
    /** this &= other (sizes must match). */
    void andWith(const BitPlane &other);

    /** True if every set bit of this is also set in other. */
    bool subsetOf(const BitPlane &other) const;

    bool operator==(const BitPlane &other) const;

    const std::vector<uint64_t> &words() const { return data; }
    std::vector<uint64_t> &words() { return data; }

  private:
    size_t numBits = 0;
    std::vector<uint64_t> data;

    void maskTail();
};

} // namespace glifs

#endif // GLIFS_BASE_BITUTIL_HH
