#include "sim/noise.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "circuit/cost_model.hh"
#include "common/simd.hh"

namespace qramsim {

namespace {

/** Draw at most one Pauli for a qubit and append it to @p out. */
void
drawPauli(const PauliRates &r, std::uint32_t qubit, Rng &rng,
          std::vector<ErrorEvent> &out)
{
    // Independent draws; multiple Paulis on one qubit compose fine
    // (X then Z == -iY up to phase), but for the small rates used here
    // a sequential exclusive draw is the conventional channel sampling.
    double u = rng.uniform();
    if (u < r.x)
        out.push_back({qubit, PauliKind::X});
    else if (u < r.x + r.y)
        out.push_back({qubit, PauliKind::Y});
    else if (u < r.x + r.y + r.z)
        out.push_back({qubit, PauliKind::Z});
}

/**
 * Flat-realization twin of drawPauli: one uniform() per call, same
 * thresholds, so the consumed RNG stream is identical. Templated over
 * the generator so the sequential Mersenne stream and the threaded
 * counter stream share one sampling body.
 */
template <class R>
inline void
drawPauliFlat(const PauliRates &r, std::uint32_t pos,
              std::uint32_t qubit, R &rng, FlatRealization &out)
{
    double u = rng.uniform();
    if (u < r.x)
        out.push(pos, qubit, PauliKind::X);
    else if (u < r.x + r.y)
        out.push(pos, qubit, PauliKind::Y);
    else if (u < r.x + r.y + r.z)
        out.push(pos, qubit, PauliKind::Z);
}

/**
 * Sweep twin of drawPauliFlat: ONE uniform for the exposure site,
 * compared against per-point thresholds (tx/txy/txyz; @p cut is the
 * max of txyz, so one compare rejects every point at once) — common
 * random numbers across the sweep. The threshold layout and
 * comparison order are exactly drawPauliFlat's per point, which is
 * what keeps sweep point j draw-for-draw identical to sampleFlat
 * with the rates scaled by factors[j]. Shared by every model's
 * sampleFlatSweep so the identity guarantee lives in one place.
 */
inline void
resolvePauliSweep(double u, const double *tx, const double *txy,
                  const double *txyz, std::size_t n, double cut,
                  std::uint32_t pos, std::uint32_t qubit,
                  FlatRealization *outs)
{
    if (u >= cut)
        return; // no event at any sweep point
    for (std::size_t j = 0; j < n; ++j) {
        if (u < tx[j])
            outs[j].push(pos, qubit, PauliKind::X);
        else if (u < txy[j])
            outs[j].push(pos, qubit, PauliKind::Y);
        else if (u < txyz[j])
            outs[j].push(pos, qubit, PauliKind::Z);
    }
}

/** resolvePauliSweep of one uniform drawn from @p rng. */
template <class R>
inline void
drawPauliFlatSweep(const double *tx, const double *txy,
                   const double *txyz, std::size_t n, double cut,
                   std::uint32_t pos, std::uint32_t qubit, R &rng,
                   FlatRealization *outs)
{
    resolvePauliSweep(rng.uniform(), tx, txy, txyz, n, cut, pos, qubit,
                      outs);
}

/**
 * Flatten a gate-anchored channel's draw schedule: one SampleSites
 * entry per operand site in program order (controls then targets,
 * barriers skipped — the exact draw order of the Gate-walking
 * samplers), thresholds from @p ratesOf(gi). The cumulative sums are
 * computed once here with the same association drawPauliFlat uses,
 * so streaming the table is draw-for-draw and compare-for-compare
 * identical to the walk.
 */
template <class RatesOf>
void
buildSampleSites(const FeynmanExecutor &exec, RatesOf &&ratesOf,
                 SampleSites &out)
{
    out.clear();
    const auto &gates = exec.circuit().gates();
    const auto &gatePos = exec.stream().gatePos;
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates r = ratesOf(gi, g);
        const double tx = r.x;
        const double txy = r.x + r.y;
        const double txyz = r.x + r.y + r.z;
        const std::uint64_t cutSeq = Rng::cutFor(txyz);
        const std::uint64_t cutCtr = CounterRng::cutFor(txyz);
        const std::uint32_t pos = gatePos[gi] + 1;
        for (Qubit q : g.controls) {
            out.sites.push_back({pos, q, tx, txy, txyz});
            out.gate.push_back(static_cast<std::uint32_t>(gi));
            out.cutSeq.push_back(cutSeq);
            out.cutCtr.push_back(cutCtr);
        }
        for (Qubit q : g.targets) {
            out.sites.push_back({pos, q, tx, txy, txyz});
            out.gate.push_back(static_cast<std::uint32_t>(gi));
            out.cutSeq.push_back(cutSeq);
            out.cutCtr.push_back(cutCtr);
        }
    }
}

/** The cut row matching a generator family (see SampleSites). */
inline const std::uint64_t *
siteCuts(const SampleSites &ss, const Rng &)
{
    return ss.cutSeq.data();
}

inline const std::uint64_t *
siteCuts(const SampleSites &ss, const CounterRng &)
{
    return ss.cutCtr.data();
}

/** A site whose raw draw @p r passed its rejection cut: the
 *  generator's bits→uniform mapping and the original threshold
 *  compares. */
template <class R>
inline void
resolveSite(const SampleSites::Site &s, std::uint64_t r,
            FlatRealization &out)
{
    const double u = R::uniformFromBits(r);
    if (u < s.tx)
        out.push(s.pos, s.qubit, PauliKind::X);
    else if (u < s.txy)
        out.push(s.pos, s.qubit, PauliKind::Y);
    else if (u < s.txyz)
        out.push(s.pos, s.qubit, PauliKind::Z);
}

/**
 * The counter-stream site filter: the active tier's counterSiteMask
 * kernel tests up to 64 sites' draws against their cuts at once, and
 * fn(i, raw) runs for the passing sites only, in ascending i, with
 * the raw draw recomputed from the counter. @p rng ends advanced past
 * all @p n draws — the same visits, draws and final stream state as
 * one bits() call and one compare per site.
 */
template <class Fn>
inline void
filterCounterSites(CounterRng &rng, const std::uint64_t *cut,
                   std::size_t n, Fn &&fn)
{
    const auto siteMask = simd::activeKernels().counterSiteMask;
    for (std::size_t base = 0; base < n; base += 64) {
        const std::size_t nb = std::min<std::size_t>(64, n - base);
        const std::uint64_t ctr = rng.counter();
        std::uint64_t m = siteMask(ctr, cut + base, nb);
        while (m) {
            const unsigned i = static_cast<unsigned>(__builtin_ctzll(m));
            m &= m - 1;
            fn(base + i, CounterRng::outputAt(ctr, i + 1));
        }
        rng.advance(nb);
    }
}

/**
 * Stream a flattened schedule: per site one raw engine draw and one
 * integer compare against the precomputed rejection cut (almost
 * always a miss at physical rates — no double conversion at all);
 * a potential event resolves through resolveSite. rng.uniform() is
 * uniformFromBits(one engine step), so the consumed stream and every
 * decision are identical to drawPauliFlat over the Gate walk. The
 * counter stream runs the compares through filterCounterSites.
 */
template <class R>
void
sampleSitesFlat(const SampleSites &ss, R &rng, FlatRealization &out)
{
    out.clear();
    const SampleSites::Site *s = ss.sites.data();
    const std::uint64_t *cut = siteCuts(ss, rng);
    const std::size_t n = ss.sites.size();
    if constexpr (std::is_same_v<R, CounterRng>) {
        filterCounterSites(rng, cut, n,
                           [&](std::size_t i, std::uint64_t r) {
                               resolveSite<R>(s[i], r, out);
                           });
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t r = rng.bits();
            if (r <= cut[i])
                resolveSite<R>(s[i], r, out);
        }
    }
    out.sortByPos();
}

/**
 * log P(no event fires at any of @p k independent sites whose
 * any-event threshold is @p t): k * log1p(-t), with the degenerate
 * ends handled exactly — a threshold >= 1 fires every draw
 * (P(u < t) = 1 for u in [0,1)), a threshold <= 0 never fires.
 */
inline double
logNoEvent(double t, double k)
{
    if (t >= 1.0)
        return -HUGE_VAL;
    if (t <= 0.0 || k <= 0.0)
        return 0.0;
    return k * std::log1p(-t);
}

/** Cheap structural fingerprint of a gate list (cache invalidation). */
std::uint64_t
circuitFingerprint(const Circuit &c)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(c.numGates());
    for (const Gate &g : c.gates()) {
        mix(static_cast<std::uint64_t>(g.kind));
        mix(g.controls.size());
        mix(g.targets.empty() ? ~0ull : g.targets[0]);
    }
    return h;
}

} // namespace

void
NoiseModel::sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                       FlatRealization &out) const
{
    ErrorRealization real = sample(exec, rng);
    exec.flatten(real, out);
}

ErrorRealization
QubitChannelNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    real.afterMoment.resize(depth);
    if (rounds == 0 || rounds >= depth) {
        for (std::size_t t = 0; t < depth; ++t)
            for (std::uint32_t q = 0; q < nq; ++q)
                drawPauli(rates, q, rng, real.afterMoment[t]);
        return real;
    }
    // Round-based exposure: R draws per qubit at evenly spaced moments.
    for (unsigned r = 0; r < rounds; ++r) {
        std::size_t t = (std::size_t(r) * depth) / rounds;
        for (std::uint32_t q = 0; q < nq; ++q)
            drawPauli(rates, q, rng, real.afterMoment[t]);
    }
    return real;
}

template <class R>
void
QubitChannelNoise::sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                                  FlatRealization &out) const
{
    out.clear();
    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    const auto &momentEnd = exec.stream().momentEndPos;
    // Moments are visited in ascending order, so positions come out
    // already sorted; no sort pass is needed.
    if (rounds == 0 || rounds >= depth) {
        for (std::size_t t = 0; t < depth; ++t)
            for (std::uint32_t q = 0; q < nq; ++q)
                drawPauliFlat(rates, momentEnd[t], q, rng, out);
        return;
    }
    for (unsigned r = 0; r < rounds; ++r) {
        std::size_t t = (std::size_t(r) * depth) / rounds;
        for (std::uint32_t q = 0; q < nq; ++q)
            drawPauliFlat(rates, momentEnd[t], q, rng, out);
    }
}

void
QubitChannelNoise::prepareSweep(const FeynmanExecutor &exec,
                                const double *factors,
                                std::size_t n) const
{
    prepare(exec);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin()))
        return;
    sweepFactors.clear(); // invalidate while in flux
    swTx.resize(n);
    swTxy.resize(n);
    swTxyz.resize(n);
    swCut = 0.0;
    // Per-point thresholds built exactly as drawPauliFlat sees them
    // for rates.scaled(factors[j]) — x*f, x*f + y*f, x*f + y*f + z*f
    // — so a single-point sweep is draw-for-draw identical to
    // sampleFlat with the scaled model.
    for (std::size_t j = 0; j < n; ++j) {
        const double f = factors[j];
        swTx[j] = rates.x * f;
        swTxy[j] = swTx[j] + rates.y * f;
        swTxyz[j] = swTxy[j] + rates.z * f;
        swCut = std::max(swCut, swTxyz[j]);
    }
    sweepFactors.assign(factors, factors + n);
}

template <class R>
void
QubitChannelNoise::sampleFlatSweepImpl(const FeynmanExecutor &exec,
                                       R &rng, const double *factors,
                                       std::size_t n,
                                       FlatRealization *outs) const
{
    // Read-only cache probe; on a miss (prepareSweep not called for
    // these factors) compute the thresholds in place.
    const bool cached =
        sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin());
    std::vector<double> ltx, ltxy, ltxyz;
    const double *tx = swTx.data(), *txy = swTxy.data(),
                 *txyz = swTxyz.data();
    double cut = swCut;
    if (!cached) {
        ltx.resize(n);
        ltxy.resize(n);
        ltxyz.resize(n);
        cut = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double f = factors[j];
            ltx[j] = rates.x * f;
            ltxy[j] = ltx[j] + rates.y * f;
            ltxyz[j] = ltxy[j] + rates.z * f;
            cut = std::max(cut, ltxyz[j]);
        }
        tx = ltx.data();
        txy = ltxy.data();
        txyz = ltxyz.data();
    }

    for (std::size_t j = 0; j < n; ++j)
        outs[j].clear();

    // One uniform per exposure site, shared by every sweep point:
    // the same site layout and draw order as sampleFlatImpl.
    auto site = [&](std::uint32_t pos, std::uint32_t q) {
        drawPauliFlatSweep(tx, txy, txyz, n, cut, pos, q, rng, outs);
    };

    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    const auto &momentEnd = exec.stream().momentEndPos;
    if (rounds == 0 || rounds >= depth) {
        for (std::size_t t = 0; t < depth; ++t)
            for (std::uint32_t q = 0; q < nq; ++q)
                site(momentEnd[t], q);
        return;
    }
    for (unsigned r = 0; r < rounds; ++r) {
        std::size_t t = (std::size_t(r) * depth) / rounds;
        for (std::uint32_t q = 0; q < nq; ++q)
            site(momentEnd[t], q);
    }
}

bool
QubitChannelNoise::sampleFlatSweep(const FeynmanExecutor &exec,
                                   Rng &rng, const double *factors,
                                   std::size_t n,
                                   FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

bool
QubitChannelNoise::sampleFlatSweep(const FeynmanExecutor &exec,
                                   CounterRng &rng,
                                   const double *factors, std::size_t n,
                                   FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

bool
QubitChannelNoise::classProbabilities(const FeynmanExecutor &exec,
                                      const double *factors,
                                      std::size_t n, double *pEmpty,
                                      double *pZOnly) const
{
    // Every exposure site is identical: depth x nq draws (or
    // rounds x nq under round-based exposure), each with the same
    // scaled thresholds sampleFlatImpl / the sweep tables use
    // (x*f, x*f + y*f, x*f + y*f + z*f).
    const std::size_t depth = exec.schedule().depth();
    const std::size_t nq = exec.circuit().numQubits();
    const std::size_t exposures =
        (rounds == 0 || rounds >= depth) ? depth : rounds;
    const double sites = static_cast<double>(exposures * nq);
    for (std::size_t j = 0; j < n; ++j) {
        const double f = factors[j];
        const double txy = rates.x * f + rates.y * f;
        const double txyz = txy + rates.z * f;
        pEmpty[j] = std::exp(logNoEvent(txyz, sites));
        pZOnly[j] = std::max(
            0.0, std::exp(logNoEvent(txy, sites)) - pEmpty[j]);
    }
    return true;
}

void
QubitChannelNoise::sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                              FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

void
QubitChannelNoise::sampleFlat(const FeynmanExecutor &exec,
                              CounterRng &rng,
                              FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

PauliRates
GateNoise::effectiveRatesFor(const PauliRates &base, const Gate &g,
                             bool weighted)
{
    if (!weighted)
        return base;
    // Weight by the decomposed two-qubit-gate count: a gate that
    // compiles to w CXs exposes each operand ~w times.
    Cost gc = gateCost(g);
    const double w = std::max<std::uint64_t>(1, gc.cxCount);
    auto scale = [&](double p) {
        return 1.0 - std::pow(1.0 - p, w);
    };
    return PauliRates{scale(base.x), scale(base.y), scale(base.z)};
}

PauliRates
GateNoise::effectiveRates(const Gate &g) const
{
    return effectiveRatesFor(rates, g, weighted);
}

void
GateNoise::prepare(const FeynmanExecutor &exec) const
{
    const Circuit *c = &exec.circuit();
    const std::uint64_t fp = circuitFingerprint(*c);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (preparedFor == c && preparedFingerprint == fp &&
        perGate.size() == c->numGates())
        return;
    preparedFor = nullptr; // invalidate while the table is in flux
    perGate.clear();
    perGate.reserve(c->numGates());
    for (const Gate &g : c->gates())
        perGate.push_back(g.kind == GateKind::Barrier
                              ? PauliRates{}
                              : effectiveRates(g));
    buildSampleSites(
        exec, [&](std::size_t gi, const Gate &) { return perGate[gi]; },
        sched);
    preparedFingerprint = fp;
    preparedFor = c;
}

void
GateNoise::prepareSweep(const FeynmanExecutor &exec,
                        const double *factors, std::size_t n) const
{
    prepare(exec);
    const Circuit *c = &exec.circuit();
    const std::uint64_t fp = circuitFingerprint(*c);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (sweepPreparedFor == c && sweepFingerprint == fp &&
        sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin()))
        return;
    sweepPreparedFor = nullptr; // invalidate while in flux
    const std::size_t ng = c->numGates();
    swTx.assign(ng * n, 0.0);
    swTxy.assign(ng * n, 0.0);
    swTxyz.assign(ng * n, 0.0);
    swCut.assign(ng, 0.0);
    const auto &gates = c->gates();
    for (std::size_t gi = 0; gi < ng; ++gi) {
        if (gates[gi].kind == GateKind::Barrier)
            continue;
        double cut = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            // Same computation, same order, as sampleFlat on a model
            // built with rates.scaled(factors[j]) — the thresholds
            // drawPauliFlat would see, so each sweep point is
            // draw-for-draw identical to that scaled model.
            const PauliRates er = effectiveRatesFor(
                rates.scaled(factors[j]), gates[gi], weighted);
            swTx[gi * n + j] = er.x;
            swTxy[gi * n + j] = er.x + er.y;
            swTxyz[gi * n + j] = er.x + er.y + er.z;
            cut = std::max(cut, swTxyz[gi * n + j]);
        }
        swCut[gi] = cut;
    }
    // Per-site integer rejection cuts of swCut for the counter
    // stream's site filter (see SampleSites::cutCtr).
    std::vector<std::uint64_t> gateCut(ng);
    for (std::size_t gi = 0; gi < ng; ++gi)
        gateCut[gi] = CounterRng::cutFor(swCut[gi]);
    swSiteCutCtr.resize(sched.sites.size());
    for (std::size_t i = 0; i < sched.sites.size(); ++i)
        swSiteCutCtr[i] = gateCut[sched.gate[i]];
    sweepFactors.assign(factors, factors + n);
    sweepFingerprint = fp;
    sweepPreparedFor = c;
}

template <class R>
void
GateNoise::sampleFlatSweepImpl(const FeynmanExecutor &exec, R &rng,
                               const double *factors, std::size_t n,
                               FlatRealization *outs) const
{
    for (std::size_t j = 0; j < n; ++j)
        outs[j].clear();
    const auto &gates = exec.circuit().gates();
    const auto &gatePos = exec.stream().gatePos;

    // Read-only table probe; on a miss fall back to per-gate
    // computation in place (same discipline as sampleFlat).
    const bool cached =
        sweepPreparedFor == &exec.circuit() &&
        sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin()) &&
        swTx.size() == gates.size() * n;

    if (cached && preparedFor == &exec.circuit() && !sched.empty()) {
        // Fully prepared: stream the flattened schedule, reading
        // each site's sweep-table row through its gate index — same
        // draw order, same comparisons, no Gate walk.
        const SampleSites::Site *s = sched.sites.data();
        const std::uint32_t *sg = sched.gate.data();
        const std::size_t ns = sched.sites.size();
        if constexpr (std::is_same_v<R, CounterRng>) {
            // A site whose draw is above its integer cut is above
            // swCut at every point, so only the filter's candidates
            // resolve.
            if (swSiteCutCtr.size() == ns) {
                filterCounterSites(
                    rng, swSiteCutCtr.data(), ns,
                    [&](std::size_t i, std::uint64_t r) {
                        const std::size_t gi = sg[i];
                        resolvePauliSweep(
                            CounterRng::uniformFromBits(r),
                            swTx.data() + gi * n, swTxy.data() + gi * n,
                            swTxyz.data() + gi * n, n, swCut[gi],
                            s[i].pos, s[i].qubit, outs);
                    });
                for (std::size_t j = 0; j < n; ++j)
                    outs[j].sortByPos();
                return;
            }
        }
        for (std::size_t i = 0; i < ns; ++i) {
            const std::size_t gi = sg[i];
            drawPauliFlatSweep(swTx.data() + gi * n,
                               swTxy.data() + gi * n,
                               swTxyz.data() + gi * n, n, swCut[gi],
                               s[i].pos, s[i].qubit, rng, outs);
        }
        for (std::size_t j = 0; j < n; ++j)
            outs[j].sortByPos();
        return;
    }

    std::vector<double> ltx, ltxy, ltxyz;
    if (!cached) {
        ltx.resize(n);
        ltxy.resize(n);
        ltxyz.resize(n);
    }

    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const double *tx, *txy, *txyz;
        double cut;
        if (cached) {
            tx = swTx.data() + gi * n;
            txy = swTxy.data() + gi * n;
            txyz = swTxyz.data() + gi * n;
            cut = swCut[gi];
        } else {
            cut = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                const PauliRates er = effectiveRatesFor(
                    rates.scaled(factors[j]), g, weighted);
                ltx[j] = er.x;
                ltxy[j] = er.x + er.y;
                ltxyz[j] = er.x + er.y + er.z;
                cut = std::max(cut, ltxyz[j]);
            }
            tx = ltx.data();
            txy = ltxy.data();
            txyz = ltxyz.data();
        }
        const std::uint32_t pos = gatePos[gi] + 1;
        for (Qubit q : g.controls)
            drawPauliFlatSweep(tx, txy, txyz, n, cut, pos, q, rng,
                               outs);
        for (Qubit q : g.targets)
            drawPauliFlatSweep(tx, txy, txyz, n, cut, pos, q, rng,
                               outs);
    }
    for (std::size_t j = 0; j < n; ++j)
        outs[j].sortByPos();
}

bool
GateNoise::sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                           const double *factors, std::size_t n,
                           FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

bool
GateNoise::sampleFlatSweep(const FeynmanExecutor &exec,
                           CounterRng &rng, const double *factors,
                           std::size_t n, FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

ErrorRealization
GateNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const auto &gates = exec.circuit().gates();
    real.afterGate.resize(gates.size());
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates r = effectiveRates(g);
        for (Qubit q : g.controls)
            drawPauli(r, q, rng, real.afterGate[gi]);
        for (Qubit q : g.targets)
            drawPauli(r, q, rng, real.afterGate[gi]);
    }
    return real;
}

template <class R>
void
GateNoise::sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                          FlatRealization &out) const
{
    const auto &gates = exec.circuit().gates();
    // Read-only cache probe: on a miss (prepare() not called for this
    // circuit) fall back to computing each gate's rates in place
    // rather than mutating shared state from what may be a worker
    // thread.
    if (preparedFor == &exec.circuit() &&
        perGate.size() == gates.size()) {
        // Prepared path: stream the flattened schedule (same draws,
        // same events, no Gate walk).
        sampleSitesFlat(sched, rng, out);
        return;
    }
    out.clear();
    const auto &gatePos = exec.stream().gatePos;
    // Draw in program order (the sample() RNG stream), then stable-sort
    // onto execution order.
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates r = effectiveRates(g);
        const std::uint32_t pos = gatePos[gi] + 1;
        for (Qubit q : g.controls)
            drawPauliFlat(r, pos, q, rng, out);
        for (Qubit q : g.targets)
            drawPauliFlat(r, pos, q, rng, out);
    }
    out.sortByPos();
}

void
GateNoise::sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                      FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

void
GateNoise::sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                      FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

bool
GateNoise::classProbabilities(const FeynmanExecutor &exec,
                              const double *factors, std::size_t n,
                              double *pEmpty, double *pZOnly) const
{
    // Per-gate thresholds exactly as the sweep tables build them:
    // effectiveRatesFor(rates.scaled(f), g, weighted) — the
    // decomposition-weighted nonlinearity included — applied once per
    // operand site (controls + targets of non-barrier gates).
    std::vector<double> logE(n, 0.0), logXY(n, 0.0);
    const auto &gates = exec.circuit().gates();
    for (const Gate &g : gates) {
        if (g.kind == GateKind::Barrier)
            continue;
        const double sites = static_cast<double>(g.controls.size() +
                                                 g.targets.size());
        for (std::size_t j = 0; j < n; ++j) {
            const PauliRates er = effectiveRatesFor(
                rates.scaled(factors[j]), g, weighted);
            const double txy = er.x + er.y;
            logE[j] += logNoEvent(txy + er.z, sites);
            logXY[j] += logNoEvent(txy, sites);
        }
    }
    for (std::size_t j = 0; j < n; ++j) {
        pEmpty[j] = std::exp(logE[j]);
        pZOnly[j] =
            std::max(0.0, std::exp(logXY[j]) - pEmpty[j]);
    }
    return true;
}

void
DeviceNoise::prepareSweep(const FeynmanExecutor &exec,
                          const double *factors, std::size_t n) const
{
    prepare(exec);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin()))
        return;
    sweepFactors.clear(); // invalidate while in flux
    sw1x.resize(n);
    sw1xy.resize(n);
    sw1xyz.resize(n);
    sw2x.resize(n);
    sw2xy.resize(n);
    sw2xyz.resize(n);
    swCut1 = swCut2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const PauliRates r1 = rates1q.scaled(factors[j]);
        const PauliRates r2 = rates2q.scaled(factors[j]);
        sw1x[j] = r1.x;
        sw1xy[j] = r1.x + r1.y;
        sw1xyz[j] = r1.x + r1.y + r1.z;
        sw2x[j] = r2.x;
        sw2xy[j] = r2.x + r2.y;
        sw2xyz[j] = r2.x + r2.y + r2.z;
        swCut1 = std::max(swCut1, sw1xyz[j]);
        swCut2 = std::max(swCut2, sw2xyz[j]);
    }
    sweepFactors.assign(factors, factors + n);
}

template <class R>
void
DeviceNoise::sampleFlatSweepImpl(const FeynmanExecutor &exec, R &rng,
                                 const double *factors, std::size_t n,
                                 FlatRealization *outs) const
{
    for (std::size_t j = 0; j < n; ++j)
        outs[j].clear();
    const auto &gates = exec.circuit().gates();
    const auto &gatePos = exec.stream().gatePos;

    const bool cached =
        sweepFactors.size() == n &&
        std::equal(factors, factors + n, sweepFactors.begin());
    std::vector<double> l1x, l1xy, l1xyz, l2x, l2xy, l2xyz;
    const double *t1x = sw1x.data(), *t1xy = sw1xy.data(),
                 *t1xyz = sw1xyz.data(), *t2x = sw2x.data(),
                 *t2xy = sw2xy.data(), *t2xyz = sw2xyz.data();
    double cut1 = swCut1, cut2 = swCut2;
    if (!cached) {
        l1x.resize(n); l1xy.resize(n); l1xyz.resize(n);
        l2x.resize(n); l2xy.resize(n); l2xyz.resize(n);
        cut1 = cut2 = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const PauliRates r1 = rates1q.scaled(factors[j]);
            const PauliRates r2 = rates2q.scaled(factors[j]);
            l1x[j] = r1.x;
            l1xy[j] = r1.x + r1.y;
            l1xyz[j] = r1.x + r1.y + r1.z;
            l2x[j] = r2.x;
            l2xy[j] = r2.x + r2.y;
            l2xyz[j] = r2.x + r2.y + r2.z;
            cut1 = std::max(cut1, l1xyz[j]);
            cut2 = std::max(cut2, l2xyz[j]);
        }
        t1x = l1x.data(); t1xy = l1xy.data(); t1xyz = l1xyz.data();
        t2x = l2x.data(); t2xy = l2xy.data(); t2xyz = l2xyz.data();
    }

    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const bool multi = g.aritytotal() >= 2;
        const double *tx = multi ? t2x : t1x;
        const double *txy = multi ? t2xy : t1xy;
        const double *txyz = multi ? t2xyz : t1xyz;
        const double cut = multi ? cut2 : cut1;
        const std::uint32_t pos = gatePos[gi] + 1;
        for (Qubit q : g.controls)
            drawPauliFlatSweep(tx, txy, txyz, n, cut, pos, q, rng,
                               outs);
        for (Qubit q : g.targets)
            drawPauliFlatSweep(tx, txy, txyz, n, cut, pos, q, rng,
                               outs);
    }
    for (std::size_t j = 0; j < n; ++j)
        outs[j].sortByPos();
}

bool
DeviceNoise::sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                             const double *factors, std::size_t n,
                             FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

bool
DeviceNoise::sampleFlatSweep(const FeynmanExecutor &exec,
                             CounterRng &rng, const double *factors,
                             std::size_t n,
                             FlatRealization *outs) const
{
    sampleFlatSweepImpl(exec, rng, factors, n, outs);
    return true;
}

ErrorRealization
DeviceNoise::sample(const FeynmanExecutor &exec, Rng &rng) const
{
    ErrorRealization real;
    const auto &gates = exec.circuit().gates();
    real.afterGate.resize(gates.size());
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates &r =
            g.aritytotal() >= 2 ? rates2q : rates1q;
        for (Qubit q : g.controls)
            drawPauli(r, q, rng, real.afterGate[gi]);
        for (Qubit q : g.targets)
            drawPauli(r, q, rng, real.afterGate[gi]);
    }
    return real;
}

void
DeviceNoise::prepare(const FeynmanExecutor &exec) const
{
    const Circuit *c = &exec.circuit();
    const std::uint64_t fp = circuitFingerprint(*c);
    std::lock_guard<std::mutex> lock(prepMutex);
    if (preparedFor == c && preparedFingerprint == fp &&
        !sched.empty())
        return;
    preparedFor = nullptr; // invalidate while the table is in flux
    buildSampleSites(exec,
                     [&](std::size_t, const Gate &g) {
                         return g.aritytotal() >= 2 ? rates2q
                                                    : rates1q;
                     },
                     sched);
    preparedFingerprint = fp;
    preparedFor = c;
}

template <class R>
void
DeviceNoise::sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                            FlatRealization &out) const
{
    // Read-only probe of the prepared schedule (same discipline as
    // GateNoise: never mutate from a sampling thread).
    if (preparedFor == &exec.circuit() && !sched.empty()) {
        sampleSitesFlat(sched, rng, out);
        return;
    }
    out.clear();
    const auto &gates = exec.circuit().gates();
    const auto &gatePos = exec.stream().gatePos;
    for (std::size_t gi = 0; gi < gates.size(); ++gi) {
        const Gate &g = gates[gi];
        if (g.kind == GateKind::Barrier)
            continue;
        const PauliRates &r =
            g.aritytotal() >= 2 ? rates2q : rates1q;
        const std::uint32_t pos = gatePos[gi] + 1;
        for (Qubit q : g.controls)
            drawPauliFlat(r, pos, q, rng, out);
        for (Qubit q : g.targets)
            drawPauliFlat(r, pos, q, rng, out);
    }
    out.sortByPos();
}

void
DeviceNoise::sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                        FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

void
DeviceNoise::sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                        FlatRealization &out) const
{
    sampleFlatImpl(exec, rng, out);
}

bool
DeviceNoise::classProbabilities(const FeynmanExecutor &exec,
                                const double *factors, std::size_t n,
                                double *pEmpty, double *pZOnly) const
{
    // Only the arity class matters per operand site, so count the 1q-
    // and 2q-gate sites once and apply each factor's scaled rates to
    // the two totals.
    double sites1 = 0.0, sites2 = 0.0;
    for (const Gate &g : exec.circuit().gates()) {
        if (g.kind == GateKind::Barrier)
            continue;
        const double sites = static_cast<double>(g.controls.size() +
                                                 g.targets.size());
        (g.aritytotal() >= 2 ? sites2 : sites1) += sites;
    }
    for (std::size_t j = 0; j < n; ++j) {
        const PauliRates r1 = rates1q.scaled(factors[j]);
        const PauliRates r2 = rates2q.scaled(factors[j]);
        const double logE = logNoEvent(r1.x + r1.y + r1.z, sites1) +
                            logNoEvent(r2.x + r2.y + r2.z, sites2);
        const double logXY = logNoEvent(r1.x + r1.y, sites1) +
                             logNoEvent(r2.x + r2.y, sites2);
        pEmpty[j] = std::exp(logE);
        pZOnly[j] = std::max(0.0, std::exp(logXY) - pEmpty[j]);
    }
    return true;
}

} // namespace qramsim
