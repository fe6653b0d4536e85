/**
 * @file
 * The counter-stream site filter (simd::RowKernels::counterSiteMask)
 * against the per-site loop it replaces.
 *
 * The filter must reproduce, at every tier the CPU supports, exactly
 * what one CounterRng::bits() draw and one compare per site would:
 * the same candidate sites, and so the same events, and the stream
 * left in the same state (the next bits() draw agrees). The kernel is
 * checked directly over every block length 0..64 and cut values at
 * the edges of the unsigned order; the plain and sweep samplers are
 * checked end to end against their unprepared Gate-walk twins, which
 * draw rng.uniform() site by site and never touch the filter.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "qram/bucket_brigade.hh"
#include "sim/noise.hh"

namespace qramsim {
namespace {

/** Restore the dispatch tier on scope exit. */
struct TierGuard
{
    simd::Tier prev;

    explicit TierGuard(simd::Tier t) : prev(simd::activeTier())
    {
        simd::setActiveTier(t);
    }

    ~TierGuard() { simd::setActiveTier(prev); }
};

std::vector<simd::Tier>
supportedTiers()
{
    std::vector<simd::Tier> tiers;
    for (simd::Tier t : {simd::Tier::Scalar, simd::Tier::Avx2,
                         simd::Tier::Avx512})
        if (simd::tierSupported(t))
            tiers.push_back(t);
    return tiers;
}

/** Cut values at the edges of the unsigned order (the AVX2 tier
 *  compares with flipped sign bits). */
const std::uint64_t kEdgeCuts[] = {
    0,
    1,
    std::uint64_t(1) << 11,
    (std::uint64_t(1) << 63) - 1,
    std::uint64_t(1) << 63,
    (std::uint64_t(1) << 63) + 1,
    ~std::uint64_t(0) - 1,
    ~std::uint64_t(0),
};

TEST(SiteFilter, KernelMatchesPerSiteDraws)
{
    Rng pick(20261019);
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        const simd::RowKernels &K = simd::kernels(tier);
        for (std::size_t n = 0; n <= 64; ++n) {
            for (int pattern = 0; pattern < 13; ++pattern) {
                CounterRng rng(pick.bits(), pick.below(1000));
                CounterRng jumped = rng;
                const std::uint64_t ctr = rng.counter();
                std::vector<std::uint64_t> cut(n);
                for (std::size_t i = 0; i < n; ++i) {
                    // The last pattern puts each cut on its own draw
                    // or just below it: the compare is inclusive.
                    const std::uint64_t draw =
                        CounterRng::outputAt(ctr, i + 1);
                    if (pattern < 8)
                        cut[i] = kEdgeCuts[pattern];
                    else if (pattern < 11)
                        cut[i] = kEdgeCuts[pick.below(8)];
                    else if (pattern < 12)
                        cut[i] = pick.bits();
                    else
                        cut[i] = draw - pick.below(2);
                }
                std::uint64_t want = 0;
                for (std::size_t i = 0; i < n; ++i)
                    want |= std::uint64_t(rng.bits() <= cut[i]) << i;
                EXPECT_EQ(K.counterSiteMask(ctr, cut.data(), n), want)
                    << "n=" << n << " pattern=" << pattern;
                // advance(n) leaves the stream where n draws would.
                jumped.advance(n);
                EXPECT_EQ(jumped.bits(), rng.bits());
            }
        }
    }
}

/** Events of two realizations, field by field. */
void
expectSameEvents(const FlatRealization &a, const FlatRealization &b)
{
    ASSERT_EQ(a.events.size(), b.events.size());
    EXPECT_EQ(a.zOnly, b.zOnly);
    for (std::size_t e = 0; e < a.events.size(); ++e) {
        EXPECT_EQ(a.events[e].pos, b.events[e].pos) << "event " << e;
        EXPECT_EQ(a.events[e].qubit, b.events[e].qubit) << "event " << e;
        EXPECT_EQ(a.events[e].pauli, b.events[e].pauli) << "event " << e;
    }
}

/** n single-qubit gates over three qubits: exactly n draw sites. */
Circuit
siteCircuit(std::size_t n)
{
    Circuit c;
    c.allocRegister(3, "q");
    for (std::size_t i = 0; i < n; ++i)
        c.x(static_cast<Qubit>(i % 3));
    return c;
}

/**
 * Rates whose any-event thresholds put the integer cut at 0, at a
 * few units, near 2^63, at UINT64_MAX (every draw a candidate), and
 * at a physical rate. Unweighted, so a single-qubit gate's threshold
 * is the rate sum itself.
 */
const PauliRates kRates[] = {
    {0.0, 0.0, 0.0},
    {1e-18, 1e-18, 1e-18},
    {0.2, 0.2, 0.1},
    {0.5, 0.5, 0.5},
    {1e-3, 1e-3, 1e-3},
};

/** Sample @p shots counter-stream shots with the filtered (prepared)
 *  and the per-site (unprepared) sampler of the same model. */
template <class Model>
void
expectPlainSamplersAgree(const Circuit &c, const Model &filtered,
                         const Model &walk, std::size_t shots)
{
    FeynmanExecutor exec(c);
    filtered.prepare(exec);
    FlatRealization a, b;
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        for (std::size_t s = 0; s < shots; ++s) {
            CounterRng ra(77, s), rb(77, s);
            filtered.sampleFlat(exec, ra, a);
            walk.sampleFlat(exec, rb, b);
            expectSameEvents(a, b);
            EXPECT_EQ(ra.bits(), rb.bits()) << "shot " << s;
        }
    }
}

template <class Model>
void
expectSweepSamplersAgree(const Circuit &c, const Model &filtered,
                         const Model &walk,
                         const std::vector<double> &factors,
                         std::size_t shots)
{
    FeynmanExecutor exec(c);
    filtered.prepareSweep(exec, factors.data(), factors.size());
    std::vector<FlatRealization> a(factors.size()), b(factors.size());
    for (simd::Tier tier : supportedTiers()) {
        SCOPED_TRACE(simd::tierName(tier));
        TierGuard guard(tier);
        for (std::size_t s = 0; s < shots; ++s) {
            CounterRng ra(91, s), rb(91, s);
            ASSERT_TRUE(filtered.sampleFlatSweep(
                exec, ra, factors.data(), factors.size(), a.data()));
            ASSERT_TRUE(walk.sampleFlatSweep(
                exec, rb, factors.data(), factors.size(), b.data()));
            for (std::size_t j = 0; j < factors.size(); ++j)
                expectSameEvents(a[j], b[j]);
            EXPECT_EQ(ra.bits(), rb.bits()) << "shot " << s;
        }
    }
}

TEST(SiteFilter, PlainSamplerMatchesPerSiteLoopAtEverySiteCount)
{
    for (std::size_t n = 0; n <= 17; ++n) {
        SCOPED_TRACE(n);
        const Circuit c = siteCircuit(n);
        for (const PauliRates &r : kRates) {
            GateNoise filtered(r, false), walk(r, false);
            expectPlainSamplersAgree(c, filtered, walk, 8);
        }
    }
}

TEST(SiteFilter, PlainSamplerMatchesPerSiteLoopOnFullSchedule)
{
    Rng rng(4242);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = BucketBrigadeQram(4).build(mem);
    for (const PauliRates &r : kRates) {
        GateNoise filtered(r, false), walk(r, false);
        expectPlainSamplersAgree(qc.circuit, filtered, walk, 16);
    }
    GateNoise filtered(PauliRates::depolarizing(1e-2));
    GateNoise walk(PauliRates::depolarizing(1e-2));
    expectPlainSamplersAgree(qc.circuit, filtered, walk, 32);
    DeviceNoise dfiltered(1e-3, 2e-2), dwalk(1e-3, 2e-2);
    expectPlainSamplersAgree(qc.circuit, dfiltered, dwalk, 32);
}

TEST(SiteFilter, SweepSamplerMatchesPerSiteLoop)
{
    // Factor sets whose per-gate sweep cut (the max threshold over
    // the points) lands at 0, a few units, mid-range and saturation.
    const std::vector<std::vector<double>> factorSets = {
        {0.0}, {1e-16}, {0.125, 0.5, 1.0, 2.0}, {1.0, 400.0}, {1.0}};
    for (std::size_t n = 0; n <= 17; ++n) {
        SCOPED_TRACE(n);
        const Circuit c = siteCircuit(n);
        for (const std::vector<double> &f : factorSets) {
            GateNoise filtered({1e-3, 1e-3, 1e-3}, false);
            GateNoise walk({1e-3, 1e-3, 1e-3}, false);
            expectSweepSamplersAgree(c, filtered, walk, f, 8);
        }
    }
    Rng rng(977);
    Memory mem = Memory::random(4, rng);
    QueryCircuit qc = BucketBrigadeQram(4).build(mem);
    for (const std::vector<double> &f : factorSets) {
        GateNoise filtered(PauliRates::depolarizing(3e-3));
        GateNoise walk(PauliRates::depolarizing(3e-3));
        expectSweepSamplersAgree(qc.circuit, filtered, walk, f, 16);
        GateNoise zf(PauliRates::phaseFlip(1e-3), false);
        GateNoise zw(PauliRates::phaseFlip(1e-3), false);
        expectSweepSamplersAgree(qc.circuit, zf, zw, f, 16);
    }
}

} // namespace
} // namespace qramsim
