/**
 * @file
 * A small dynamic bit vector used as the computational-basis state of a
 * Feynman path.
 *
 * QRAM circuits easily exceed 64 qubits (a dual-rail bucket-brigade tree
 * of address width m holds ~6*2^m qubits), so a fixed-width word is not
 * enough. The simulator manipulates millions of these per benchmark, so
 * the representation is a flat word array with inlined accessors, and
 * equality/hashing work word-at-a-time.
 */

#ifndef QRAMSIM_COMMON_BITVEC_HH
#define QRAMSIM_COMMON_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace qramsim {

/**
 * Fixed-size-after-construction vector of bits. Index 0 is the least
 * significant bit of word 0.
 */
class BitVec
{
  public:
    BitVec() = default;

    /** Create an all-zero vector of @p nbits bits. */
    explicit BitVec(std::size_t nbits)
        : numBits(nbits), words((nbits + 63) / 64, 0)
    {}

    /** Create a vector initialized from the low bits of @p value. */
    BitVec(std::size_t nbits, std::uint64_t value)
        : BitVec(nbits)
    {
        QRAMSIM_ASSERT(nbits >= 64 || value < (std::uint64_t(1) << nbits) ||
                       nbits == 0, "initial value wider than vector");
        if (!words.empty())
            words[0] = value;
    }

    std::size_t size() const { return numBits; }

    bool
    get(std::size_t i) const
    {
        QRAMSIM_ASSERT(i < numBits, "bit index ", i, " out of range ",
                       numBits);
        return (words[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(std::size_t i, bool v)
    {
        QRAMSIM_ASSERT(i < numBits, "bit index ", i, " out of range ",
                       numBits);
        std::uint64_t mask = std::uint64_t(1) << (i & 63);
        if (v)
            words[i >> 6] |= mask;
        else
            words[i >> 6] &= ~mask;
    }

    void
    flip(std::size_t i)
    {
        QRAMSIM_ASSERT(i < numBits, "bit index ", i, " out of range ",
                       numBits);
        words[i >> 6] ^= std::uint64_t(1) << (i & 63);
    }

    /** Swap the values of two bits. */
    void
    swapBits(std::size_t i, std::size_t j)
    {
        bool bi = get(i), bj = get(j);
        if (bi != bj) {
            set(i, bj);
            set(j, bi);
        }
    }

    /** Number of set bits. */
    std::size_t
    popcount() const
    {
        std::size_t n = 0;
        for (auto w : words)
            n += static_cast<std::size_t>(__builtin_popcountll(w));
        return n;
    }

    /** True iff every bit is zero. */
    bool
    none() const
    {
        for (auto w : words)
            if (w)
                return false;
        return true;
    }

    void
    clear()
    {
        for (auto &w : words)
            w = 0;
    }

    /**
     * Interpret bits [lo, lo+width) as an unsigned little-endian integer.
     */
    std::uint64_t
    extract(std::size_t lo, std::size_t width) const
    {
        QRAMSIM_ASSERT(width <= 64, "extract width too large");
        std::uint64_t v = 0;
        for (std::size_t b = 0; b < width; ++b)
            v |= std::uint64_t(get(lo + b)) << b;
        return v;
    }

    /** Write @p value into bits [lo, lo+width), little-endian. */
    void
    deposit(std::size_t lo, std::size_t width, std::uint64_t value)
    {
        QRAMSIM_ASSERT(width <= 64, "deposit width too large");
        for (std::size_t b = 0; b < width; ++b)
            set(lo + b, (value >> b) & 1);
    }

    /// @name Word-level access
    ///
    /// The compiled Feynman engine (sim/feynman.hh) lowers gates to
    /// precomputed (word index, mask, value) triples, turning per-bit
    /// control loops into a handful of AND/XOR word operations. These
    /// accessors expose the raw words for that purpose; callers are
    /// responsible for keeping masks within the vector's width.
    /// @{

    std::size_t numWords() const { return words.size(); }

    std::uint64_t
    word(std::size_t w) const
    {
        QRAMSIM_ASSERT(w < words.size(), "word index out of range");
        return words[w];
    }

    /** XOR @p mask into word @p w (bulk bit flip). */
    void
    xorWord(std::size_t w, std::uint64_t mask)
    {
        QRAMSIM_ASSERT(w < words.size(), "word index out of range");
        words[w] ^= mask;
    }

    /** AND word @p w with @p mask (bulk bit clear). */
    void
    andWord(std::size_t w, std::uint64_t mask)
    {
        QRAMSIM_ASSERT(w < words.size(), "word index out of range");
        words[w] &= mask;
    }

    /** Raw word storage (hot loops index this without bounds checks). */
    std::uint64_t *wordData() { return words.data(); }
    const std::uint64_t *wordData() const { return words.data(); }

    /// @}

    bool
    operator==(const BitVec &o) const
    {
        return numBits == o.numBits && words == o.words;
    }

    bool operator!=(const BitVec &o) const { return !(*this == o); }

    /** FNV-style hash over the word array. */
    std::size_t hash() const { return hashWords(words.data(), words.size()); }

    /** hash() of a vector whose words are @p w[0..nw) (raw word
     *  buffers keyed like BitVecs). */
    static std::size_t
    hashWords(const std::uint64_t *w, std::size_t nw)
    {
        std::size_t h = 1469598103934665603ull;
        for (std::size_t i = 0; i < nw; ++i) {
            h ^= static_cast<std::size_t>(w[i]);
            h *= 1099511628211ull;
        }
        return h;
    }

    /** Render as a bit string, index 0 leftmost (qubit order). */
    std::string
    toString() const
    {
        std::string s;
        s.reserve(numBits);
        for (std::size_t i = 0; i < numBits; ++i)
            s.push_back(get(i) ? '1' : '0');
        return s;
    }

  private:
    std::size_t numBits = 0;
    std::vector<std::uint64_t> words;
};

} // namespace qramsim

#endif // QRAMSIM_COMMON_BITVEC_HH
