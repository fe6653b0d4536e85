/**
 * @file
 * Runtime-dispatched SIMD kernels for the bit-sliced ensemble rows.
 *
 * The hot loops of the ensemble engine (sim/feynman.cc
 * runSpanEnsemble and the estimator's deviation-mask / Z-parity
 * reductions) are pure word-level AND/XOR sweeps over packed
 * bit-across-paths rows (common/pathensemble.hh). Those sweeps are
 * expressed here as four row kernels plus their four block twins
 * (op-major sweeps over the fused multi-shot EnsembleBlock arena),
 * next to the noise samplers' counter-stream site filter,
 * each provided in three tiers —
 * portable scalar, AVX2 (4 words per step), AVX-512F (8 words per
 * step) — compiled with per-function target attributes so one binary
 * carries all tiers and picks the widest one the CPU supports at
 * runtime (overridable via the QRAMSIM_SIMD environment variable or
 * setActiveTier, which the differential tests use to pin a tier).
 *
 * Every kernel is pure bit arithmetic, so all tiers are bit-identical
 * by construction; tests/test_simd.cc enforces it on random row
 * patterns and full circuits anyway.
 *
 * Rows handed to the kernels are expected to be 64-byte aligned with
 * a word stride that is a multiple of kRowAlignWords (PathEnsemble
 * pads its rows accordingly); the kernels use unaligned loads so
 * arbitrary buffers remain legal (tests, tail cases), but the aligned
 * layout keeps every vector step within one cache line.
 */

#ifndef QRAMSIM_COMMON_SIMD_HH
#define QRAMSIM_COMMON_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace qramsim {

/**
 * One ensemble control term: an op fires for the paths whose bit of
 * @c qubit matches the polarity. A compiled op's control list is a
 * conjunction of these; evaluating them over one row word yields a
 * 64-path fire mask. Lives here (not pathensemble.hh) because it is
 * part of the kernel ABI.
 */
struct EnsembleCtrl
{
    std::uint32_t qubit;
    /** 0 for a positive control, ~0ull for a negative one. */
    std::uint64_t invert;
};

namespace simd {

/** Row alignment in bytes: one cache line == one AVX-512 vector. */
inline constexpr std::size_t kRowAlign = 64;

/** Row stride granularity in 64-bit words. */
inline constexpr std::size_t kRowAlignWords = kRowAlign / 8;

/** Minimal 64-byte-aligning allocator for the packed row storage. */
template <class T>
struct AlignedAlloc
{
    using value_type = T;

    AlignedAlloc() = default;

    template <class U>
    AlignedAlloc(const AlignedAlloc<U> &) noexcept
    {}

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(::operator new(
            n * sizeof(T), std::align_val_t(kRowAlign)));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(kRowAlign));
    }

    template <class U>
    bool
    operator==(const AlignedAlloc<U> &) const noexcept
    {
        return true;
    }
};

/** 64-byte-aligned word buffer (rows, parity/deviation scratch). */
using AlignedWords = std::vector<std::uint64_t, AlignedAlloc<std::uint64_t>>;

/** Kernel tiers, widest last. */
enum class Tier : std::uint8_t { Scalar = 0, Avx2 = 1, Avx512 = 2 };

/** Lowercase tier name ("scalar", "avx2", "avx512"). */
const char *tierName(Tier t);

/**
 * The row-kernel ABI. All kernels operate on @p nw-word rows; control
 * rows are addressed as @p rows + ctrls[c].qubit * @p stride, exactly
 * the PathEnsemble layout, and the fire mask of word w is
 *
 *   vmask[w] & AND_c (rows[ctrls[c].qubit * stride + w] ^ ctrls[c].invert)
 *
 * where @p vmask carries the tail/padding zeros so no kernel ever
 * flips an invalid path bit.
 */
struct RowKernels
{
    /** Controlled X: target[w] ^= fire(w). */
    void (*xorFire)(std::uint64_t *target, const std::uint64_t *rows,
                    std::size_t stride, const EnsembleCtrl *ctrls,
                    std::size_t nc, const std::uint64_t *vmask,
                    std::size_t nw);

    /** Controlled Swap: masked XOR-swap of two rows under fire(w). */
    void (*swapFire)(std::uint64_t *t0, std::uint64_t *t1,
                     const std::uint64_t *rows, std::size_t stride,
                     const EnsembleCtrl *ctrls, std::size_t nc,
                     const std::uint64_t *vmask, std::size_t nw);

    /**
     * dst[w] ^= src[w]. The whole-row X-event flip (src = the valid
     * mask) and the Z-parity snapshot reduction of the estimator.
     */
    void (*xorRow)(std::uint64_t *dst, const std::uint64_t *src,
                   std::size_t nw);

    /**
     * Deviation-mask accumulate: dev[w] |= a[w] ^ b[w]; returns the
     * OR over all diff words (nonzero iff the rows differ anywhere).
     */
    std::uint64_t (*diffOr)(std::uint64_t *dev, const std::uint64_t *a,
                            const std::uint64_t *b, std::size_t nw);

    /// @name Block kernels (op-major batched replay)
    ///
    /// Twins of the row kernels over the fused EnsembleBlock arena
    /// (common/pathensemble.hh): a qubit's "block row" concatenates
    /// every batched shot's padded word-row back to back, so one
    /// contiguous sweep applies one op to all shots at once. @p bmask
    /// is the arena's combined mask row — the per-shot valid mask for
    /// shots that have joined the replay, all-zero slices for shots
    /// that have not — which is what keeps shots entering at different
    /// checkpoints exact: an op can never touch a slice whose shot has
    /// not reached it. Block rows keep the PathEnsemble guarantees
    /// (64-byte-aligned slices, word counts that are multiples of
    /// kRowAlignWords), so these kernels run whole vector steps with
    /// no scalar tail.
    /// @{

    /** Controlled X over the arena: target[w] ^= fire(w), w in [0, nw). */
    void (*xorFireBlock)(std::uint64_t *target, const std::uint64_t *rows,
                         std::size_t stride, const EnsembleCtrl *ctrls,
                         std::size_t nc, const std::uint64_t *bmask,
                         std::size_t nw);

    /** Controlled Swap over the arena: masked XOR-swap of two block rows. */
    void (*swapFireBlock)(std::uint64_t *t0, std::uint64_t *t1,
                          const std::uint64_t *rows, std::size_t stride,
                          const EnsembleCtrl *ctrls, std::size_t nc,
                          const std::uint64_t *bmask, std::size_t nw);

    /**
     * Broadcast row flip: dst[s*pw + w] ^= src[w] for every shot slice
     * s in [0, n), w in [0, pw). The X-error whole-row flip of the
     * block path (src = the shot valid mask, n = 1 for a single shot's
     * slice); src stays register-resident across slices.
     */
    void (*xorRowBlock)(std::uint64_t *dst, const std::uint64_t *src,
                        std::size_t pw, std::size_t n);

    /**
     * Per-slice deviation accumulate against one shared row:
     * dev[s*pw + w] |= a[s*pw + w] ^ b[w], and anyOut[s] = OR of slice
     * s's diff words — the block twin of diffOr, comparing every
     * batched shot's row of one qubit against the single ideal row in
     * one sweep.
     */
    void (*diffOrBlock)(std::uint64_t *dev, const std::uint64_t *a,
                        const std::uint64_t *b, std::size_t pw,
                        std::size_t n, std::uint64_t *anyOut);

    /// @}

    /**
     * Counter-stream site filter (the noise samplers' rejection
     * test, sim/noise.cc): for the @p n <= 64 consecutive
     * CounterRng steps after counter value @p ctr, returns the mask
     * whose bit i is set iff CounterRng::outputAt(ctr, i + 1) <=
     * cut[i]. Pure integer arithmetic — the vector tiers evaluate 4
     * or 8 SplitMix64 outputs per step — so every tier returns the
     * same mask.
     */
    std::uint64_t (*counterSiteMask)(std::uint64_t ctr,
                                     const std::uint64_t *cut,
                                     std::size_t n);
};

/** True if this build + CPU can execute @p t's kernels. */
bool tierSupported(Tier t);

/** The widest tier the running CPU supports. */
Tier bestSupportedTier();

/**
 * Kernel table of @p t. Calling an unsupported tier's kernels is
 * undefined (illegal instruction); guard with tierSupported.
 */
const RowKernels &kernels(Tier t);

/**
 * The tier the engine dispatches to. Initialized on first use to
 * bestSupportedTier(), or to the QRAMSIM_SIMD environment variable
 * ("scalar" / "avx2" / "avx512") when set and supported.
 */
Tier activeTier();

/**
 * Force the dispatch tier (clamped to the best supported one when the
 * request is unavailable); returns the tier actually selected. For
 * tests and benchmarks — not thread-safe against concurrently running
 * engines, so switch only between runs.
 */
Tier setActiveTier(Tier t);

/** Kernel table of the active tier. */
const RowKernels &activeKernels();

} // namespace simd
} // namespace qramsim

#endif // QRAMSIM_COMMON_SIMD_HH
