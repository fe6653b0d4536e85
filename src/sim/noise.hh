/**
 * @file
 * Noise models (Secs. 5-6).
 *
 * Two sampling granularities, both Pauli channels so the Feynman-path
 * property is preserved:
 *
 *  - QubitChannelNoise — the Sec. 5.1 analysis model: at every schedule
 *    moment each qubit independently suffers X with probability epsX and
 *    Z with probability epsZ. Pure phase-flip / bit-flip channels are the
 *    special cases used for Figs. 10-11.
 *
 *  - GateNoise — the Sec. 6.3 evaluation model: after each gate, each
 *    operand qubit suffers a Pauli error drawn with per-gate-class rates
 *    (Monte Carlo sampling applied to quantum gates). DeviceNoise (for
 *    the Appendix A experiment) is GateNoise with separate 1q/2q rates.
 *
 * An "error reduction factor" eps_r divides all rates, matching the
 * paper's definition eps_r = current error rate / future error rate.
 */

#ifndef QRAMSIM_SIM_NOISE_HH
#define QRAMSIM_SIM_NOISE_HH

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/feynman.hh"

namespace qramsim {

/** Per-Pauli error probabilities. */
struct PauliRates
{
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;

    PauliRates scaled(double factor) const
    {
        return {x * factor, y * factor, z * factor};
    }

    static PauliRates phaseFlip(double eps) { return {0.0, 0.0, eps}; }
    static PauliRates bitFlip(double eps) { return {eps, 0.0, 0.0}; }

    /** Depolarizing split: each Pauli with eps/3. */
    static PauliRates
    depolarizing(double eps)
    {
        return {eps / 3.0, eps / 3.0, eps / 3.0};
    }
};

/**
 * A flattened sampling schedule for gate-anchored channels: one entry
 * per operand site, in program order (controls then targets, barriers
 * skipped — exactly the draw order of sample()/sampleFlat), carrying
 * the stream position the event anchors to and the gate's cumulative
 * Pauli thresholds (r.x, r.x + r.y, (r.x + r.y) + r.z — the very
 * sums drawPauliFlat computes, so precomputing them changes no
 * comparison). prepare() builds it once per circuit; sampleFlat then
 * streams one contiguous array — one uniform and usually one compare
 * per site — instead of re-walking heap-allocated Gate operand
 * vectors every shot, which is the dominant sampling cost at QRAM
 * circuit sizes.
 */
struct SampleSites
{
    struct Site
    {
        std::uint32_t pos; ///< stream position (gatePos + 1)
        std::uint32_t qubit;
        double tx;   ///< X threshold
        double txy;  ///< X+Y threshold
        double txyz; ///< X+Y+Z threshold (any-event cut)
    };

    std::vector<Site> sites;

    /** Program gate index per site (sweep-table row lookup). */
    std::vector<std::uint32_t> gate;

    /**
     * Per-site integer rejection cuts (Rng::cutFor /
     * CounterRng::cutFor of txyz): the streaming sampler compares the
     * raw engine draw against the cut and only converts to double —
     * with exactly the original threshold compares — when an event
     * might have fired. One row per generator family, since their
     * bits→uniform mappings differ.
     */
    std::vector<std::uint64_t> cutSeq; ///< Rng (sequential Mersenne)
    std::vector<std::uint64_t> cutCtr; ///< CounterRng (threaded)

    bool empty() const { return sites.empty(); }

    void
    clear()
    {
        sites.clear();
        gate.clear();
        cutSeq.clear();
        cutCtr.clear();
    }
};

/** Interface: sample one error realization for one Monte Carlo shot. */
class NoiseModel
{
  public:
    virtual ~NoiseModel() = default;

    /** Sample a shot's error realization for @p exec's circuit. */
    virtual ErrorRealization sample(const FeynmanExecutor &exec,
                                    Rng &rng) const = 0;

    /**
     * One-time per-circuit precomputation (e.g. effective per-gate
     * rates). Call it before a shot loop; subsequent sampleFlat calls
     * for the same executor are then read-only and safe to run
     * concurrently. Idempotent, and itself safe to call from several
     * threads — but sharing one model instance between concurrently
     * running shot loops over *different* circuits is unsupported
     * (one loop's prepare would invalidate the other's cache
     * mid-flight; use one instance per circuit instead).
     */
    virtual void prepare(const FeynmanExecutor &exec) const
    {
        (void)exec;
    }

    /**
     * Sweep twin of prepare(): additionally precompute whatever the
     * model needs to serve sampleFlatSweep for these @p factors
     * read-only (e.g. the per-factor effective-rate threshold tables
     * of the weighted gate channels). The base implementation just
     * calls prepare(). Same idempotence and concurrency contract as
     * prepare(); estimateSweep and sharded sweeps call it before
     * their shot loops.
     */
    virtual void prepareSweep(const FeynmanExecutor &exec,
                              const double *factors,
                              std::size_t n) const
    {
        (void)factors;
        (void)n;
        prepare(exec);
    }

    /**
     * Sample a shot directly into a flattened, position-sorted
     * realization (reusing @p out's storage). Draws from @p rng in
     * exactly the same sequence as sample(), so a fixed seed yields
     * the same errors through either entry point. The base
     * implementation samples and flattens; subclasses override with
     * allocation-free fast paths.
     */
    virtual void sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                            FlatRealization &out) const;

    /**
     * Counter-stream twin for the threaded shot loop: identical event
     * distribution and draw sequence, fed by a cheap per-shot
     * counter-based generator instead of a seeked sequential RNG.
     */
    virtual void sampleFlat(const FeynmanExecutor &exec,
                            CounterRng &rng,
                            FlatRealization &out) const = 0;

    /**
     * Sweep sampling for batched eps_r sweeps
     * (FidelityEstimator::estimateSweep): draw ONE shot's worth of
     * uniforms and emit, for each rate scale factor factors[j], the
     * realization sampleFlat would produce with every rate multiplied
     * by factors[j] given the same draws — common random numbers
     * across the sweep, so the per-shot sampling cost is paid once
     * instead of once per sweep point and the resulting curves are
     * smooth in the factor. outs[j] receives point j's realization.
     * All bundled models support sweeps (QubitChannelNoise scales
     * its per-site thresholds; GateNoise / DeviceNoise read the
     * per-factor effective-rate tables built by prepareSweep); a
     * model without a sweep sampler returns false (the base
     * implementation) and callers must check.
     */
    virtual bool
    sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                    const double *factors, std::size_t n,
                    FlatRealization *outs) const
    {
        (void)exec; (void)rng; (void)factors; (void)n; (void)outs;
        return false;
    }

    /** Counter-stream twin of the sweep sampler. */
    virtual bool
    sampleFlatSweep(const FeynmanExecutor &exec, CounterRng &rng,
                    const double *factors, std::size_t n,
                    FlatRealization *outs) const
    {
        (void)exec; (void)rng; (void)factors; (void)n; (void)outs;
        return false;
    }

    /**
     * Closed-form shot-class probabilities, per sweep factor: the
     * probability that a sampled realization is *empty* (no event at
     * any exposure site) and that it is *Z-only* (at least one event,
     * all of them Z). Because every site draws independently with the
     * cumulative thresholds tx <= txy <= txyz,
     *
     *   P(empty)  = prod_sites (1 - txyz_i),
     *   P(Z-only) = prod_sites (1 - txy_i) - P(empty),
     *
     * evaluated in log space (sum of log1p) over exactly the site
     * multiset the model's samplers draw from. The adaptive estimator
     * folds the empty stratum's fidelity contribution analytically
     * with these weights — zero shots spent on the empty class — and
     * uses them as stratum weights for Z-only/general allocation.
     * Writes pEmpty[j] / pZOnly[j] for each factors[j] and returns
     * true; a model without closed-form probabilities returns false
     * (the base implementation) and callers must check.
     */
    virtual bool
    classProbabilities(const FeynmanExecutor &exec,
                       const double *factors, std::size_t n,
                       double *pEmpty, double *pZOnly) const
    {
        (void)exec; (void)factors; (void)n;
        (void)pEmpty; (void)pZOnly;
        return false;
    }

    virtual std::string name() const = 0;
};

/**
 * Qubit-based channel (Sec. 5.1's rho -> (1-eps) rho + eps Z rho Z and
 * its X analog).
 *
 * Granularity: with rounds == 0 every qubit draws at every ASAP
 * moment — the most pessimistic exposure. The paper's analysis model
 * charges one channel application per *logical round* (one per
 * address-loading step, one per retrieval phase: the (1-eps)^(m^2)
 * branch-survival term counts m routers x O(m) rounds), so passing
 * rounds = R > 0 draws per qubit exactly R times, at evenly spaced
 * moments. Eqs. 3/5/6 are lower bounds under this round-based model.
 */
class QubitChannelNoise : public NoiseModel
{
  public:
    explicit QubitChannelNoise(PauliRates rates_, unsigned rounds_ = 0)
        : rates(rates_), rounds(rounds_)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    /** Precompute the per-factor threshold row (the rates are linear
     *  in the factor) so sampleFlatSweep runs allocation-free. */
    void prepareSweep(const FeynmanExecutor &exec,
                      const double *factors,
                      std::size_t n) const override;

    void sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                    FlatRealization &out) const override;

    void sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                    FlatRealization &out) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, CounterRng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    /** Closed form over the (depth or rounds) x numQubits identical
     *  sites of the channel. */
    bool classProbabilities(const FeynmanExecutor &exec,
                            const double *factors, std::size_t n,
                            double *pEmpty,
                            double *pZOnly) const override;

    std::string name() const override { return "qubit-channel"; }

    /**
     * The logical round count of a virtual QRAM query at (m, k):
     * m loading + m unloading rounds, and two compression rounds plus
     * the MCX per segment.
     */
    static unsigned
    virtualQramRounds(unsigned m, unsigned k)
    {
        return 2 * m + 3 * (1u << k) + 2;
    }

  private:
    template <class R>
    void sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                        FlatRealization &out) const;

    template <class R>
    void sampleFlatSweepImpl(const FeynmanExecutor &exec, R &rng,
                             const double *factors, std::size_t n,
                             FlatRealization *outs) const;

    PauliRates rates;
    unsigned rounds;

    /** prepareSweep() cache (factor-keyed; no circuit dependence). */
    mutable std::mutex prepMutex;
    mutable std::vector<double> sweepFactors;
    mutable std::vector<double> swTx, swTxy, swTxyz;
    mutable double swCut = 0.0;
};

/**
 * Gate-based channel: after each gate, each operand qubit suffers an
 * independent Pauli draw (Sec. 6.3 Monte Carlo model).
 *
 * By default the draw probability is weighted by the gate's Clifford+T
 * decomposition size (its two-qubit-gate count), so a CSWAP is ~6x as
 * error-prone as a CX and a wide MCX pays for its Toffoli ladder —
 * matching how a transpiled circuit would accumulate noise. Pass
 * weightByDecomposition = false for the flat per-gate model.
 */
class GateNoise : public NoiseModel
{
  public:
    explicit GateNoise(PauliRates rates_,
                       bool weightByDecomposition = true)
        : rates(rates_), weighted(weightByDecomposition)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    void prepare(const FeynmanExecutor &exec) const override;

    /**
     * prepare() plus the per-factor effective-rate table: for every
     * (gate, factor) pair the decomposition-weighted thresholds of
     * the base rates scaled by that factor — the nonlinearity
     * 1-(1-p*f)^w makes this a genuine table, not a rescale of the
     * eps_r = 1 rates. sampleFlatSweep then runs read-only; point j
     * is draw-for-draw identical to sampleFlat with
     * rates.scaled(factors[j]).
     */
    void prepareSweep(const FeynmanExecutor &exec,
                      const double *factors,
                      std::size_t n) const override;

    void sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                    FlatRealization &out) const override;

    void sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                    FlatRealization &out) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, CounterRng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    /** Closed form over the per-gate operand sites, with the same
     *  effectiveRatesFor thresholds the sweep tables are built from
     *  (the 1-(1-p*f)^w nonlinearity included). */
    bool classProbabilities(const FeynmanExecutor &exec,
                            const double *factors, std::size_t n,
                            double *pEmpty,
                            double *pZOnly) const override;

    std::string name() const override { return "gate"; }

  private:
    /**
     * Effective (decomposition-weighted) rates of @p base for one
     * gate — shared by the eps_r = 1 prepare() table and the sweep
     * tables (base = rates.scaled(factor)) so both compute
     * bit-identical thresholds.
     */
    static PauliRates effectiveRatesFor(const PauliRates &base,
                                        const Gate &g, bool weighted);

    /** Effective rates for one gate at the model's own rates. */
    PauliRates effectiveRates(const Gate &g) const;

    template <class R>
    void sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                        FlatRealization &out) const;

    template <class R>
    void sampleFlatSweepImpl(const FeynmanExecutor &exec, R &rng,
                             const double *factors, std::size_t n,
                             FlatRealization *outs) const;

    PauliRates rates;
    bool weighted;

    /**
     * prepare() cache: per-gate effective rates for one circuit,
     * keyed by address plus a structural fingerprint of the gate
     * list so a mutated circuit (or a new one reusing the address)
     * recomputes instead of reading stale — or out-of-bounds — rates.
     * Guarded by prepMutex; sampleFlat only reads (and falls back to
     * per-gate computation on a cache miss rather than mutating).
     */
    mutable std::mutex prepMutex;
    mutable const Circuit *preparedFor = nullptr;
    mutable std::uint64_t preparedFingerprint = 0;
    mutable std::vector<PauliRates> perGate;

    /** Flattened draw schedule (built with perGate; same validity). */
    mutable SampleSites sched;

    /**
     * prepareSweep() cache: per-(gate, factor) thresholds in
     * gate-major layout ([gi*n + j]) plus the per-gate max threshold
     * (one uniform rejects all sweep points at once). Same guard and
     * read-only probe discipline as the perGate cache.
     */
    mutable std::vector<double> sweepFactors;
    mutable const Circuit *sweepPreparedFor = nullptr;
    mutable std::uint64_t sweepFingerprint = 0;
    mutable std::vector<double> swTx, swTxy, swTxyz;
    mutable std::vector<double> swCut;

    /** CounterRng::cutFor(swCut[gate]) per schedule site: the cut
     *  row of the counter stream's sweep site filter. */
    mutable std::vector<std::uint64_t> swSiteCutCtr;
};

/**
 * Device-calibrated gate channel: separate depolarizing-split rates for
 * single-qubit and multi-qubit gates, the stand-in for the IBMQ noise
 * models of Appendix A.
 */
class DeviceNoise : public NoiseModel
{
  public:
    DeviceNoise(double eps1q, double eps2q)
        : rates1q(PauliRates::depolarizing(eps1q)),
          rates2q(PauliRates::depolarizing(eps2q))
    {}

    /** Explicit per-arity Pauli rates (sweep oracles, tests). */
    DeviceNoise(PauliRates r1q, PauliRates r2q)
        : rates1q(r1q), rates2q(r2q)
    {}

    ErrorRealization sample(const FeynmanExecutor &exec,
                            Rng &rng) const override;

    /** Flatten the per-arity draw schedule (see SampleSites). */
    void prepare(const FeynmanExecutor &exec) const override;

    /** Precompute the per-factor 1q/2q threshold rows so
     *  sampleFlatSweep runs read-only. */
    void prepareSweep(const FeynmanExecutor &exec,
                      const double *factors,
                      std::size_t n) const override;

    void sampleFlat(const FeynmanExecutor &exec, Rng &rng,
                    FlatRealization &out) const override;

    void sampleFlat(const FeynmanExecutor &exec, CounterRng &rng,
                    FlatRealization &out) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, Rng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    bool sampleFlatSweep(const FeynmanExecutor &exec, CounterRng &rng,
                         const double *factors, std::size_t n,
                         FlatRealization *outs) const override;

    /** Closed form over the 1q/2q operand-site counts. */
    bool classProbabilities(const FeynmanExecutor &exec,
                            const double *factors, std::size_t n,
                            double *pEmpty,
                            double *pZOnly) const override;

    std::string name() const override { return "device"; }

  private:
    template <class R>
    void sampleFlatImpl(const FeynmanExecutor &exec, R &rng,
                        FlatRealization &out) const;

    template <class R>
    void sampleFlatSweepImpl(const FeynmanExecutor &exec, R &rng,
                             const double *factors, std::size_t n,
                             FlatRealization *outs) const;

    PauliRates rates1q;
    PauliRates rates2q;

    /** prepareSweep() cache: per-factor thresholds for each arity
     *  class (the rates are linear in the factor, so no per-gate
     *  table is needed). */
    mutable std::mutex prepMutex;

    /** prepare() cache: the flattened draw schedule (SampleSites),
     *  keyed like GateNoise's per-gate table. */
    mutable const Circuit *preparedFor = nullptr;
    mutable std::uint64_t preparedFingerprint = 0;
    mutable SampleSites sched;

    mutable std::vector<double> sweepFactors;
    mutable std::vector<double> sw1x, sw1xy, sw1xyz;
    mutable std::vector<double> sw2x, sw2xy, sw2xyz;
    mutable double swCut1 = 0.0, swCut2 = 0.0;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_NOISE_HH
