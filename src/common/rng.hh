/**
 * @file
 * Deterministic random number generation for Monte Carlo noise sampling.
 *
 * All stochastic results in the benchmark suite are reproducible: every
 * experiment owns an Rng seeded from its parameters, never from the
 * wall clock.
 */

#ifndef QRAMSIM_COMMON_RNG_HH
#define QRAMSIM_COMMON_RNG_HH

#include <cstdint>
#include <random>

namespace qramsim {

/**
 * Thin wrapper over a 64-bit Mersenne twister with the handful of
 * draw shapes the simulator needs.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : engine(seed)
    {}

    /**
     * The uniform() mapping applied to one raw engine output:
     * scale by 2^-64, clamp below 1.0 for the (rare) raw values that
     * round up to 2^64. Monotone non-decreasing in @p r — the
     * property the integer threshold cuts (cutFor) rely on.
     */
    static double
    uniformFromBits(std::uint64_t r)
    {
        const double d = static_cast<double>(r) * 0x1.0p-64;
        return d < 1.0 ? d : 0x1.fffffffffffffp-1;
    }

    /**
     * Uniform double in [0, 1): one engine step through
     * uniformFromBits. This is bit-for-bit the sequence libstdc++'s
     * generate_canonical<double, 53>(mt19937_64) produces — verified
     * by tests/test_common.cc — but a single multiply instead of the
     * library's long-division normalization (the noise samplers draw
     * one uniform per gate site, so this is the hottest scalar op of
     * the whole estimator), and pinned-down behavior on every
     * platform instead of an implementation-defined sequence.
     */
    double uniform() { return uniformFromBits(engine()); }

    /**
     * Smallest raw value whose uniform() image reaches @p t
     * (saturating to UINT64_MAX when none, or when only UINT64_MAX
     * itself does): for every raw draw r, uniformFromBits(r) < t
     * implies r <= cutFor(t), so `r <= cut` is an exact-no-miss
     * integer rejection test — a false positive (at most the cut
     * value itself) just falls through to the exact double compares.
     * The flattened noise samplers precompute one cut per draw site,
     * so the common no-event case never converts to double at all.
     */
    static std::uint64_t cutFor(double t);

    /** Bernoulli draw with probability @p p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Uniform integer in [0, bound). @p bound must be positive. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return std::uniform_int_distribution<std::uint64_t>(
            0, bound - 1)(engine);
    }

    /** Raw 64 random bits. */
    std::uint64_t bits() { return engine(); }

    /** Derive an independent child stream (for per-shot seeding). */
    Rng
    fork()
    {
        return Rng(engine() ^ 0xd1342543de82ef95ull);
    }

    std::mt19937_64 &raw() { return engine; }

  private:
    std::mt19937_64 engine;
};

/**
 * Counter-based generator (SplitMix64): the output at step n is a
 * finalizer hash of (state0 + n*gamma), so constructing a stream is
 * two multiplies — no 312-word twister table to fill — and streams
 * for different (key, stream) pairs are independent without seeking a
 * sequential generator. The parallel shot loop of
 * FidelityEstimator::estimate derives one stream per shot from the
 * shot index; the sequential loop keeps the Mersenne twister Rng, so
 * threads <= 1 results stay bit-identical to the seed implementation.
 */
class CounterRng
{
  public:
    explicit CounterRng(std::uint64_t key, std::uint64_t stream = 0)
        : state(mix(key + kGamma * stream))
    {}

    /** The uniform() mapping applied to one raw output (monotone
     *  non-decreasing in @p r; see Rng::uniformFromBits). */
    static double
    uniformFromBits(std::uint64_t r)
    {
        return static_cast<double>(r >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [0, 1). */
    double uniform() { return uniformFromBits(next()); }

    /** Integer threshold cut; see Rng::cutFor. */
    static std::uint64_t cutFor(double t);

    /** Bernoulli draw with probability @p p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** Uniform integer in [0, bound) via rejection-free scaling. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // 128-bit multiply-shift (Lemire); bias < 2^-64 per draw.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Raw 64 random bits. */
    std::uint64_t bits() { return next(); }

    /// @name Counter access (batched site filters, common/simd.hh)
    ///
    /// The output of step i (i >= 1) after counter value c is
    /// outputAt(c, i), so a filter can evaluate a run of steps from
    /// counter() alone and then advance() past them — leaving the
    /// stream exactly where as many bits() calls would.
    /// @{

    /** Counter increment per step (the SplitMix64 gamma). */
    static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

    /** Multipliers of the SplitMix64 finalizer. */
    static constexpr std::uint64_t kMix1 = 0xbf58476d1ce4e5b9ull;
    static constexpr std::uint64_t kMix2 = 0x94d049bb133111ebull;

    static std::uint64_t
    mix(std::uint64_t x)
    {
        x = (x ^ (x >> 30)) * kMix1;
        x = (x ^ (x >> 27)) * kMix2;
        return x ^ (x >> 31);
    }

    /** The raw output @p step steps after counter value @p ctr. */
    static std::uint64_t
    outputAt(std::uint64_t ctr, std::uint64_t step)
    {
        return mix(ctr + step * kGamma);
    }

    std::uint64_t counter() const { return state; }

    /** Skip @p steps outputs. */
    void advance(std::uint64_t steps) { state += steps * kGamma; }

    /// @}

  private:
    std::uint64_t
    next()
    {
        state += kGamma;
        return mix(state);
    }

    std::uint64_t state;
};

namespace detail {

/**
 * Shared cutFor body: binary-search the smallest raw value whose
 * (monotone non-decreasing) bits→uniform image reaches @p t. Both
 * generator families hold the exact-no-miss contract through this
 * one implementation.
 */
template <class G>
inline std::uint64_t
rngCutFor(double t)
{
    if (G::uniformFromBits(0) >= t)
        return 0;
    if (G::uniformFromBits(~std::uint64_t(0)) < t)
        return ~std::uint64_t(0); // every draw resolves exactly
    std::uint64_t lo = 0, hi = ~std::uint64_t(0);
    while (hi - lo > 1) { // u(lo) < t <= u(hi)
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (G::uniformFromBits(mid) >= t)
            hi = mid;
        else
            lo = mid;
    }
    return hi;
}

} // namespace detail

inline std::uint64_t
Rng::cutFor(double t)
{
    return detail::rngCutFor<Rng>(t);
}

inline std::uint64_t
CounterRng::cutFor(double t)
{
    return detail::rngCutFor<CounterRng>(t);
}

} // namespace qramsim

#endif // QRAMSIM_COMMON_RNG_HH
