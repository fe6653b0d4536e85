/**
 * @file
 * Monte Carlo query-fidelity estimation (Secs. 5-7).
 *
 * A query takes sum_i alpha_i |i>_A |0>_B to sum_i alpha_i |i>_A |x_i>_B
 * with every internal qubit (router, carrier, data node) restored to
 * |0>. Per shot, one error realization is sampled and every address path
 * is propagated through the same noisy circuit; because all gates are
 * classical-reversible, the shot output is sum_i alpha_i phi_i |out_i>
 * for basis states out_i.
 *
 * Two fidelity metrics are reported:
 *
 *  - full:    F = |<psi_ideal | psi_noisy>|^2 over the entire register,
 *             the paper's Sec. 5 definition;
 *  - reduced: F = <psi_ideal| Tr_ancilla(rho_noisy) |psi_ideal> on the
 *             address+bus subsystem, the operational figure when
 *             internal qubits are discarded or reused after the query.
 *
 * Z-error experiments give identical values under both metrics (Z never
 * moves a basis state); they differ only when X errors strand internal
 * qubits away from |0>.
 *
 * The estimator exploits error sparsity (src/sim/README.md): most
 * sampled shots carry few — often zero — Pauli events, so shots are
 * replayed from cached per-path checkpoints of the ideal propagation
 * instead of re-running the whole circuit:
 *
 *  - empty realization:   the cached ideal shot result is returned
 *                         outright (zero propagation);
 *  - Z-only realization:  bits never deviate from the ideal trajectory
 *                         (no gate in the QRAM set turns a Z into an
 *                         X — the lightcone rules of analysis/lightcone
 *                         keep pure-Z cones X-free), so each event's
 *                         sign is read from a precomputed per-qubit
 *                         bit-across-paths snapshot and no gate is
 *                         replayed at all; the cached ideal output
 *                         supplies bits and base phase;
 *  - general realization: bit-sliced ensemble replay
 *                         (common/pathensemble.hh) starting at the
 *                         checkpoint preceding the first event — every
 *                         word-level op advances 64 paths at once.
 *                         Batched shots replay op-major through one
 *                         fused EnsembleBlock arena (each op decoded
 *                         once, one contiguous kernel sweep over all
 *                         shots' rows), and only the deviating paths
 *                         whose visible keys can contribute are
 *                         materialized for accumulation.
 *
 * All three produce bit-identical results to full propagation (the
 * ensemble applies the identical ordered flips and phase factors to
 * each path as the scalar engine). The shot loop can additionally run
 * on multiple threads with deterministic per-shot counter-based RNG
 * streams (see estimate()).
 */

#ifndef QRAMSIM_SIM_FIDELITY_HH
#define QRAMSIM_SIM_FIDELITY_HH

#include <chrono>
#include <complex>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <mutex>
#include <vector>

#include "sim/feynman.hh"
#include "sim/noise.hh"
#include "sim/sharding.hh"

namespace qramsim {

class ThreadPool;

/** Input superposition over classical addresses. */
struct AddressSuperposition
{
    std::vector<std::uint64_t> addresses;
    std::vector<std::complex<double>> amps;

    /** Uniform superposition over all 2^n addresses. */
    static AddressSuperposition uniform(unsigned addressWidth);

    /** A single classical address. */
    static AddressSuperposition single(std::uint64_t address,
                                       unsigned addressWidth);

    /** Random-amplitude superposition over all addresses. */
    static AddressSuperposition random(unsigned addressWidth, Rng &rng);

    std::size_t size() const { return addresses.size(); }
};

/** Fidelity estimate with sampling error. */
struct FidelityResult
{
    double full = 0.0;       ///< mean full-state fidelity
    double reduced = 0.0;    ///< mean reduced (address+bus) fidelity
    double fullStderr = 0.0;
    double reducedStderr = 0.0;
    std::size_t shots = 0;
};

/**
 * Stage accounting of one estimate/sweep/shard run, on every
 * executor. sampleSec..accumulateSec are summed task-seconds per
 * stage (on the pipelined executor they can exceed wallSec when
 * stages overlap — that excess IS the pipeline win); occupancy() is
 * the fraction of the worker-second budget (threads x wall) the
 * stages kept busy. Empty and Z-only shots count as accumulation.
 */
struct PipelineStats
{
    bool pipelined = false; ///< did the pipelined executor run?
    unsigned threads = 0;   ///< resolved worker count of the run
    double wallSec = 0.0;   ///< shot-loop wall time
    double sampleSec = 0.0; ///< realization sampling + classification
    double gatherSec = 0.0; ///< checkpoint-row gather into the arena
    double replaySec = 0.0; ///< block/slot/scalar replay kernels
    double accumulateSec = 0.0; ///< deviation masks + overlap sums
    std::size_t batches = 0;    ///< general replay batches dispatched

    double busySec() const
    {
        return sampleSec + gatherSec + replaySec + accumulateSec;
    }

    double occupancy() const
    {
        const double budget = threads * wallSec;
        return budget > 0.0 ? busySec() / budget : 0.0;
    }
};

/**
 * Outcome of one adaptive estimation run (estimateAdaptive /
 * estimateSweepAdaptive): the per-point results plus the stratum
 * accounting behind them — what fraction of the draw space each class
 * covers analytically, how many shots each sampled stratum consumed,
 * and whether each point reached the CI target before the draw budget
 * ran out.
 */
struct AdaptiveReport
{
    /** One result per sweep point (one element for a plain run). */
    std::vector<FidelityResult> results;

    /** Closed-form class probabilities per point. */
    std::vector<double> emptyProb, zOnlyProb, generalProb;

    /** Kept (evaluated) shots per point and stratum. */
    std::vector<std::size_t> zOnlyShots, generalShots;

    /** 1 where the CI half-width target was met (all zero when the
     *  policy disables stopping). */
    std::vector<char> converged;

    /** Raw draws consumed and total shots actually evaluated. */
    std::size_t rawDraws = 0;
    std::size_t keptShots = 0;
};

/**
 * Reusable estimator: schedules and compiles the circuit once, caches
 * ideal outputs and replay checkpoints, then evaluates shots under any
 * noise model.
 */
class FidelityEstimator
{
  public:
    /**
     * Which engine replays general (X-containing) realizations. All
     * three produce bit-identical results:
     *
     *  - Ensemble (default): op-major block replay — batched shots
     *    live in one fused EnsembleBlock arena and every op is
     *    decoded once and applied to all shots' rows in one
     *    contiguous block-kernel sweep;
     *  - EnsembleSlots: the shot-major slot loop (one PathEnsemble
     *    per batched shot, per-op per-shot kernel calls) — the
     *    differential baseline the op-major speedup is measured
     *    against;
     *  - Scalar: the path-by-path oracle kept for differential tests
     *    and as the perf baseline of the recorded ensemble speedup.
     */
    enum class ReplayEngine { Ensemble, EnsembleSlots, Scalar };

    /**
     * @param circuit      the query circuit (all non-address qubits
     *                     assumed initialized |0>)
     * @param addressQubits address register, LSB-first
     * @param busQubit     the output bus
     * @param input        address superposition to query with
     */
    FidelityEstimator(const Circuit &circuit,
                      const std::vector<Qubit> &addressQubits,
                      Qubit busQubit,
                      const AddressSuperposition &input);

    ~FidelityEstimator();

    /**
     * Select the general-realization replay engine (default:
     * Ensemble). Switching to Scalar materializes per-path checkpoint
     * copies from the ensemble checkpoints on first use, so the
     * scalar oracle pays no per-shot transpose.
     */
    void setReplayEngine(ReplayEngine engine);

    ReplayEngine replayEngine() const { return replay; }

    /** Fidelities of a single error realization. */
    void shotFidelity(const ErrorRealization &errors,
                      double &fullOut, double &reducedOut) const;

    /** Fidelities of a flattened (position-sorted) realization. */
    void shotFidelity(const FlatRealization &errors,
                      double &fullOut, double &reducedOut) const;

    /**
     * Average fidelity over @p shots Monte Carlo realizations.
     *
     * With @p threads <= 1 the shot loop runs sequentially, drawing
     * every realization from one Rng(seed) stream — bit-identical to
     * the original estimator for a fixed seed. With threads > 1
     * (0 = hardware concurrency) shot s draws from its own
     * counter-based CounterRng(seed, s) stream (cheap to construct,
     * no sequential seeking), so the result depends only on
     * (seed, shots), not on the thread count, and agrees with the
     * sequential estimate within Monte Carlo error.
     *
     * Internally shots are sampled ahead in chunks (same RNG stream,
     * same draw order) and the general realizations of a chunk are
     * replayed as one batched ensemble pass per replayBatch() shots —
     * shot-by-shot results and their reduction order are unchanged,
     * so both modes stay bit-identical to the per-shot loop.
     */
    FidelityResult estimate(const NoiseModel &noise, std::size_t shots,
                            std::uint64_t seed,
                            unsigned threads = 1) const;

    /**
     * Batched eps_r-sweep estimation: one FidelityResult per rate
     * scale factor, with every sweep point of a shot built from the
     * SAME uniform draws (NoiseModel::sampleFlatSweep — common random
     * numbers, so the sweep is smooth in the factor and the sampling
     * cost is paid once per shot instead of once per point). The
     * points of a shot are replayed as one batched ensemble pass.
     * Requires a model with sweep support (all bundled models:
     * QubitChannelNoise, GateNoise, DeviceNoise); panics otherwise.
     * A single factor f reproduces estimate() with all rates scaled
     * by f bit for bit.
     */
    std::vector<FidelityResult>
    estimateSweep(const NoiseModel &noise,
                  const std::vector<double> &factors, std::size_t shots,
                  std::uint64_t seed, unsigned threads = 1) const;

    /**
     * Execute one shard of a partitioned estimate or sweep
     * (sim/sharding.hh): evaluate the spec's global shot range and
     * return its mergeable PartialEstimate. Shards share no mutable
     * state, so disjoint specs may run concurrently, in other
     * processes, or on other hosts; merging any partition of
     * [0, totalShots) reproduces the single-process result for the
     * spec's stream kind bit for bit (Sequential == estimate() with
     * threads <= 1, Counter == the threaded estimate()). estimate()
     * and estimateSweep() are themselves thin wrappers over a
     * single full-range shard.
     *
     * Sequential-stream shards with shotBegin > 0 fast-forward the
     * Mersenne stream by sampling-and-discarding the preceding
     * shots' draws (noise samplers consume a fixed draw count per
     * shot); Counter shards start at their first shot for free.
     * Replay-engine / SIMD-tier pins are NOT applied here (this
     * method is const) — orchestrators call applyShardPins first.
     */
    PartialEstimate runShard(const NoiseModel &noise,
                             const ShardSpec &spec) const;

    /**
     * Select the estimation policy estimate()/estimateSweep() run
     * under (default Replay — the bit-identical fixed-budget path;
     * see EstimateMode). Under Adaptive their `shots` argument is the
     * RAW DRAW budget, the stream is forced to Counter, and results
     * are statistically equivalent but not bit-identical to Replay.
     */
    void setEstimateMode(EstimateMode m) { estMode = m; }

    EstimateMode estimateMode() const { return estMode; }

    /** Adaptive policy used by estimate()/estimateSweep() under
     *  EstimateMode::Adaptive and by estimate{,Sweep}Adaptive(). */
    void setAdaptivePolicy(const AdaptivePolicy &p) { apolicy = p; }

    const AdaptivePolicy &adaptivePolicy() const { return apolicy; }

    /**
     * Adaptive estimation with full stratum accounting. The raw-draw
     * budget comes from the policy (maxDraws, or derived from
     * maxShots and the smallest non-empty class probability when 0);
     * shots run in policy.batch-sized batches until every point's CI
     * half-width reaches the target (or the budget runs out), with
     * the empty class folded in analytically at zero shot cost and
     * kept shots allocated Neyman-style across the Z-only/general
     * strata. Requires a noise model with closed-form class
     * probabilities (all bundled models); panics otherwise.
     */
    AdaptiveReport estimateAdaptive(const NoiseModel &noise,
                                    std::uint64_t seed,
                                    unsigned threads = 1) const;

    /**
     * The sweep counterpart of estimateAdaptive: one result per rate
     * scale factor, sampled with common random numbers like
     * estimateSweep. Points that converge early stop keeping and
     * evaluating shots, so the remaining draw budget flows to the
     * slow-converging points (the pooled-budget rollover).
     */
    AdaptiveReport
    estimateSweepAdaptive(const NoiseModel &noise,
                          const std::vector<double> &factors,
                          std::uint64_t seed,
                          unsigned threads = 1) const;

    /**
     * Set the number of general-realization shots replayed per
     * batched ensemble pass (clamped to [1, kShotChunk]; default 16,
     * overridable via the QRAMSIM_REPLAY_BATCH environment variable
     * at construction). Any width produces bit-identical results —
     * batching never changes per-shot values or reduction order —
     * so this is purely a throughput knob (bench_kernels records the
     * best width per host; 16 won on the op-major block path's
     * contiguous arenas, where 8 was best for the slot loop's
     * separate allocations). Returns the applied width. Not
     * thread-safe against a concurrently running estimate.
     */
    std::size_t setReplayBatch(std::size_t n);

    std::size_t replayBatch() const { return replayBatchN; }

    /**
     * Enable/disable the pipelined shot executor (default on;
     * overridable via the QRAMSIM_PIPELINE environment variable at
     * construction). The pipeline engages for counter-stream runs
     * with >= 2 effective threads — sampling chunks, Z-only batches
     * and general replay batches become overlapped stage tasks on a
     * persistent worker pool instead of phase-sequential per-thread
     * shot ranges. Sequential Mersenne runs always keep the
     * non-pipelined path. On/off is purely a scheduling choice:
     * every per-shot row is keyed by global shot index and the
     * reduction re-runs in global shot order, so results are
     * bit-identical either way at every thread count and batch width
     * (enforced by tests/test_pipeline.cc). Returns the applied
     * value. Not thread-safe against a concurrently running
     * estimate.
     */
    bool setPipeline(bool on);

    bool pipeline() const { return pipelineOn; }

    /**
     * Stage timing/occupancy of this estimator's most recent
     * estimate / estimateSweep / runShard call (valid once the call
     * returned), whichever executor ran it. The instrumentation
     * behind the bench_simulator stage record fields.
     */
    PipelineStats lastPipelineStats() const;

    const FeynmanExecutor &executor() const { return exec; }

    /** The ideal (noiseless) bus value for input path @p k. */
    bool idealBus(std::size_t k) const;

  private:
    /** Pack address+bus bits of a basis state into one word. */
    std::uint64_t visibleKey(const BitVec &bits) const;

    /** Copy of @p bits with address+bus positions cleared. */
    BitVec ancillaPart(const BitVec &bits) const;

    /** Shots sampled ahead per chunk of the estimate loop (also the
     *  upper clamp of the replay-batch width: wider batches could
     *  never fill from one chunk). */
    static constexpr std::size_t kShotChunk = 64;

    /** General-realization shots replayed per batched ensemble pass
     *  (runtime knob; see setReplayBatch). */
    std::size_t replayBatchN = 16;

    /** Reusable per-shot replay scratch (one per batched shot). */
    struct ShotWorkspace
    {
        PathState path;           ///< scalar replay state
        PathEnsemble ens;         ///< ensemble replay state
        simd::AlignedWords parity; ///< Z-path sign bits per path
        simd::AlignedWords dev;    ///< per-path deviation mask
        std::vector<std::uint32_t> devRows; ///< qubits with deviation
    };

    /**
     * Reusable accumulation scratch. Shots accumulate one at a time,
     * so one instance serves every shot of an EvalScratch (batch
     * width and pipeline lanes do not multiply it), and nothing in
     * it is allocated once it has grown to the largest shot seen.
     */
    struct AccumScratch
    {
        std::vector<std::uint64_t> keys;        ///< visible key per path
        std::vector<std::uint64_t> uniformMask; ///< all-path flip words
        std::vector<std::uint32_t> partialRows; ///< per-path-flip rows
        std::vector<std::uint64_t> hitMask; ///< paths on an ideal key
        std::vector<std::uint32_t> owner;   ///< key owner per hit path
        std::vector<std::uint32_t> slot;    ///< output slot per hit path
        std::vector<std::uint64_t> out;     ///< hit paths' outputs

        /// @name Reduced-overlap groups (ShotAccumulator)
        /// @{
        std::vector<std::uint64_t> anc;      ///< ancilla-part scratch
        std::vector<std::uint64_t> keyArena; ///< new groups' keys
        std::size_t keysUsed = 0;            ///< keyArena cursor
        /** Node and bucket memory of the per-shot group map. */
        std::unique_ptr<std::pmr::unsynchronized_pool_resource> pool;
        /// @}
    };

    /** Shot evaluation with caller-provided scratch. */
    void shotFlat(const FlatRealization &errors, ShotWorkspace &ws,
                  AccumScratch &as, double &fullOut,
                  double &reducedOut) const;

    /** The Z-only fast path of shotFlat (no gate replayed at all). */
    void shotZOnly(const FlatRealization &errors, ShotWorkspace &ws,
                   AccumScratch &as, double &fullOut,
                   double &reducedOut) const;

    /** Reusable per-caller scratch for evalShots (workspaces, the
     *  batched-replay queue, the op-major block arena, and the
     *  accumulation scratch), so the hot loop never allocates. */
    struct EvalScratch
    {
        AccumScratch accum;
        std::vector<ShotWorkspace> wss;
        std::vector<std::size_t> queue;
        std::vector<const FlatRealization *> ptrs;
        std::vector<FeynmanExecutor::EnsembleReplaySlot> slots;

        /// @name Op-major block replay (ReplayEngine::Ensemble)
        /// @{
        EnsembleBlock block;                ///< fused multi-shot arena
        std::vector<FeynmanExecutor::BlockReplayShot> bshots;
        simd::AlignedWords devBlock;        ///< per-shot deviation slices
        std::vector<std::uint64_t> anyDev;  ///< diffOrBlock per-shot OR
        /// @}
    };

    /**
     * An EvalScratch borrowed for one task of a run from a
     * process-wide cache and handed back when the lease ends. Nothing
     * in an EvalScratch is tied to one estimator (every buffer is
     * resized to the circuit at hand), so the cache holds as many
     * scratches as ran concurrently, whatever the number of
     * estimators. The scratches (the block arena alone holds one
     * padded path row per qubit and batched shot, 1.5 MB at
     * bucket-brigade m=8) are thus not freed and reallocated every
     * run: freeing blocks that size raises
     * glibc's adaptive mmap threshold, so later ones came from the
     * heap, whose holes ratcheted a long-running process's peak RSS
     * up round after round.
     */
    class ScratchLease
    {
      public:
        ScratchLease();
        ~ScratchLease();
        ScratchLease(ScratchLease &&) = default;
        ScratchLease &operator=(ScratchLease &&) = delete;

        EvalScratch &operator*() const { return *scratch; }
        EvalScratch *operator->() const { return scratch.get(); }

      private:
        std::unique_ptr<EvalScratch> scratch;
    };

    /** Wall time per stage, summed over the batches of one task. */
    struct StageTimes
    {
        double sample = 0.0;
        double gather = 0.0;
        double replay = 0.0;
        double accumulate = 0.0;

        void
        add(const StageTimes &o)
        {
            sample += o.sample;
            gather += o.gather;
            replay += o.replay;
            accumulate += o.accumulate;
        }
    };

    /**
     * Evaluate @p n presampled realizations into fs/rs. Empty and
     * Z-only realizations take their fast paths; general ones are
     * replayed in batches of replayBatch() through one ensemble pass
     * each (ReplayEngine::Scalar falls back to per-shot replay).
     * Per-realization results are identical to shotFlat's. Stage
     * wall times accumulate into @p times: empty and Z-only shots as
     * accumulation, Scalar replays as replay.
     */
    void evalShots(const FlatRealization *reals, std::size_t n,
                   EvalScratch &scratch, double *fs, double *rs,
                   StageTimes &times) const;

    /**
     * The batched general-realization evaluation core shared by the
     * phase-sequential evalShots flush and the pipelined replay
     * lanes: replay batch[0..qn) (all guaranteed non-empty and not
     * Z-only) through the selected engine and write the per-shot
     * fidelities to fs[rows[b]] / rs[rows[b]]. @p times accumulates
     * the batch's gather/replay/accumulate stage wall times (the
     * Scalar oracle books its whole replay under 'replay').
     * Identical arithmetic for any batch composition — per-shot
     * values never depend on which other shots share the batch.
     */
    void evalGeneralBatch(const FlatRealization *const *batch,
                          const std::size_t *rows, std::size_t qn,
                          EvalScratch &scratch, double *fs, double *rs,
                          StageTimes &times) const;

    /**
     * The pool a spec's threaded execution runs on: spec.pool when
     * set, else the estimator's lazily created persistent pool
     * (grown by re-creation under poolMu when a run wants more
     * workers than it has — hence the ShardSpec::pool requirement
     * for concurrent in-process shards on one estimator).
     */
    ThreadPool &poolFor(const ShardSpec &spec, unsigned threads) const;

    /**
     * The pipelined shot executor (stage diagram in
     * src/sim/README.md): a coordinator on the calling thread keeps
     * sampling chunks, Z-only batches and general replay lanes in
     * flight on @p pool, capped at @p threads concurrent tasks.
     * Every result row is written at its global-shot-keyed index, so
     * the caller's recomputeSums() reduction — and hence the final
     * result — is bit-identical to the phase-sequential path.
     * Counter streams only (sampling runs out of order).
     */
    void runPipelined(const NoiseModel &noise, const ShardSpec &spec,
                      unsigned threads, std::size_t npts,
                      PartialEstimate &part, ThreadPool &pool) const;

    /**
     * runShard body. With @p keepRows false AND a single-threaded
     * spec, the per-shot rows are not materialized: values are
     * reduced chunk by chunk in shot order into the summary sums
     * (identical arithmetic and order), restoring the O(kShotChunk)
     * footprint of the plain sequential estimator. Such a partial is
     * finalize()-able but not mergeable — it is the internal path of
     * estimate()/estimateSweep() only.
     */
    PartialEstimate runShardImpl(const NoiseModel &noise,
                                 const ShardSpec &spec,
                                 bool keepRows) const;

    /**
     * The adaptive estimator core (EstimateMode::Adaptive): consume
     * the spec's raw-draw range in policy.batch-sized batches. Each
     * draw d samples from CounterRng(seed, d) (Counter stream
     * required — keep decisions must never disturb a shared Mersenne
     * sequence); empty realizations are never kept (their
     * contribution is analytic), the rest pass a deterministic
     * per-batch Neyman keep rule and are evaluated — chunked across
     * the worker pool when the spec is threaded, with stopping
     * decisions taken only after the batch's in-flight chunks drain.
     * Returns an adaptive-shape PartialEstimate covering the full
     * spec range (unconsumed draws simply kept nothing).
     */
    PartialEstimate runShardAdaptive(const NoiseModel &noise,
                                     const ShardSpec &spec) const;

    /** Publish a non-pipelined run's stage sums and wall time as
     *  lastPipelineStats(). */
    void publishStats(unsigned threads,
                      std::chrono::steady_clock::time_point wallBegin,
                      const std::vector<StageTimes> &times) const;

    /** Shared body of estimateAdaptive / estimateSweepAdaptive. */
    AdaptiveReport adaptiveRun(const NoiseModel &noise,
                               const std::vector<double> &factors,
                               std::uint64_t seed,
                               unsigned threads) const;

    /** Accumulation core shared by shotFlat and the empty-shot cache. */
    struct ShotAccumulator;

    /**
     * Ensemble-native accumulation of a replayed shot: deviation
     * masks row-wise against the ideal cache, then
     * accumulateShotRows.
     */
    void accumulateEnsembleShot(ShotWorkspace &ws, AccumScratch &as,
                                ShotAccumulator &acc) const;

    /**
     * The layout-agnostic core of the ensemble accumulation: qubit q
     * of the shot's noisy output lives at rows + q * stride (a
     * PathEnsemble, or one shot's slice view of an EnsembleBlock),
     * @p dev is the shot's ready-made per-path deviation mask and
     * @p devRows its deviating qubits in ascending order. Visible
     * keys come by word transpose of the visible rows; only the
     * deviating paths whose key hits an ideal key are materialized,
     * as ideal-output words XOR the uniform-flip mask, with each
     * partial row scattered once into exactly the hit paths it flips.
     * Arithmetic and per-path order are the same for every engine —
     * the bit-identity contract between the slot and block replay
     * engines and the scalar oracle.
     */
    void accumulateShotRows(const std::uint64_t *rows,
                            std::size_t stride,
                            const std::complex<double> *phases,
                            const std::uint64_t *dev,
                            const std::vector<std::uint32_t> &devRows,
                            AccumScratch &as,
                            ShotAccumulator &acc) const;
    void accumulatePath(ShotAccumulator &acc, std::size_t k,
                        const BitVec &outBits,
                        std::complex<double> outPhase) const;

    /** accumulatePath with the visible key already computed. */
    void accumulatePathKeyed(ShotAccumulator &acc, std::size_t k,
                             const BitVec &outBits, std::uint64_t key,
                             std::complex<double> outPhase) const;

    /**
     * accumulatePathKeyed specialized to a path known to have left
     * its ideal output (any path with a set deviation bit): skips
     * the self-overlap compare and keeps the reduced-overlap group
     * key in the accumulator's scratch so per-path lookups never
     * allocate. Same arithmetic, same group-map population sequence.
     */
    void accumulateDeviatingPath(ShotAccumulator &acc, std::size_t k,
                                 const BitVec &outBits,
                                 std::uint64_t key,
                                 std::complex<double> outPhase) const;

    /**
     * The body of accumulateDeviatingPath after the visible-key hit:
     * @p out holds the path's output words, @p owner is the key's
     * ideal-path index (visIndex lookup result). Split out so
     * accumulateShotRows can check the key BEFORE materializing a
     * path's output — a deviating path whose key misses every ideal
     * key contributes nothing and is skipped without materialization.
     */
    void accumulateVisiblePath(ShotAccumulator &acc, std::size_t k,
                               const std::uint64_t *out,
                               std::size_t owner,
                               std::complex<double> outPhase) const;

    /**
     * accumulatePath specialized to a path that landed on its ideal
     * output (the Z-only and ensemble non-deviating fast paths).
     */
    void accumulateIdealPath(ShotAccumulator &acc, std::size_t k,
                             std::complex<double> phase) const;

    FeynmanExecutor exec;
    std::vector<Qubit> addrQubits;
    Qubit bus;
    AddressSuperposition input;

    std::vector<PathState> ideals;       ///< cached ideal outputs

    /** The ideal outputs in ensemble layout (deviation-mask oracle). */
    PathEnsemble idealEns;

    /** ancillaPart(ideals[k].bits), precomputed for the Z-only path,
     *  and its hash() (the group-map key of an ideal path). */
    std::vector<BitVec> idealAnc;
    std::vector<std::size_t> idealAncHash;

    /** visIndex.find(visibleKey(ideals[k].bits)), precomputed (== k
     *  for unique keys). */
    std::vector<std::size_t> idealVisOwner;

    /**
     * Ideal visible key -> owning path index as one flat
     * open-addressing table (linear probing, multiplicative hashing,
     * load factor <= 1/2), the same for every key width. Resolves the
     * full-overlap collision check and the reduced-overlap amplitude
     * in O(1) without rescanning paths or chasing list nodes.
     */
    class VisibleKeyTable
    {
      public:
        static constexpr std::uint32_t kNone = UINT32_MAX;

        /** Map keys[k] -> k; a repeated key keeps its last path.
         *  Returns true if any key repeated. */
        bool build(const std::vector<std::uint64_t> &keys);

        /** Owning path of @p key, or kNone. */
        std::uint32_t
        find(std::uint64_t key) const
        {
            for (std::size_t i = slotOf(key);; i = (i + 1) & mask) {
                const Slot &s = slots[i];
                if (s.path == kNone || s.key == key)
                    return s.path;
            }
        }

      private:
        struct Slot
        {
            std::uint64_t key = 0;
            std::uint32_t path = kNone;
        };

        std::size_t
        slotOf(std::uint64_t key) const
        {
            return static_cast<std::size_t>(
                (key * 0x9e3779b97f4a7c15ull) >> shift);
        }

        std::vector<Slot> slots;
        std::size_t mask = 0;
        unsigned shift = 63;
    };

    VisibleKeyTable visIndex;

    /** True if two paths share a visible key (degenerate input). */
    bool dupVisibleKeys = false;

    /** Per-word mask of visible (address+bus) bit positions. */
    std::vector<std::uint64_t> visMaskWords;

    /** Words of one path's basis state (BitVec::numWords()). */
    std::size_t stateWords = 0;

    /**
     * ckpts[c]: the whole ensemble's ideal state after the first
     * c*ckptStride compiled ops — the replay starting points for
     * noisy shots. ckpts[0] is the input ensemble itself, so its rows
     * double as the Z-parity tables' initial bit-across-paths
     * vectors.
     */
    std::vector<PathEnsemble> ckpts;
    std::uint32_t ckptStride = 1;

    /** Replay engine for general realizations. */
    ReplayEngine replay = ReplayEngine::Ensemble;

    /**
     * Per-path checkpoint copies, gathered lazily from 'ckpts' when
     * the Scalar engine is selected (empty otherwise).
     */
    std::vector<std::vector<PathState>> scalarCkpts;

    /// @name Z-parity tables
    ///
    /// For a Z-only realization no bit ever deviates from the ideal
    /// trajectory, so each event (pos, q) contributes a sign given by
    /// the *ideal* bit of q at pos — a shot-independent quantity.
    /// These tables are rows in the ensemble layout: for every qubit,
    /// the bit-across-paths row captured at each position where it
    /// toggles (the initial rows live in ckpts[0]); a shot then XORs
    /// one such row per event into a parity accumulator and never
    /// replays any gate at all.
    /// @{

    /** Words per packed path row: PathEnsemble::wordsPerQubit(). */
    std::size_t pathWords = 0;

    /** snapBegin[q]..snapBegin[q+1]: qubit q's toggle entries. */
    std::vector<std::uint32_t> snapBegin;

    /** snapPos[e]: stream position the entry is valid from. */
    std::vector<std::uint32_t> snapPos;

    /** snapBits[e*pathWords..]: bit-across-paths after the toggle
     *  (aligned rows at the ensemble stride, kernel-ready). */
    simd::AlignedWords snapBits;

    /// @}

    /** Cached shot result of the empty realization. */
    double emptyFull = 0.0;
    double emptyReduced = 0.0;

    /** Pipelined executor on/off (see setPipeline). */
    bool pipelineOn = true;

    /** Estimation policy of estimate()/estimateSweep()
     *  (setEstimateMode). */
    EstimateMode estMode = EstimateMode::Replay;

    /** Adaptive knobs (setAdaptivePolicy). */
    AdaptivePolicy apolicy;

    /** Lazily created persistent worker pool (see poolFor); reused
     *  across estimate/sweep/shard calls for the estimator's
     *  lifetime. */
    mutable std::unique_ptr<ThreadPool> ownPool;

    /** Guards ownPool growth and pstats publication (runShard may
     *  legally run concurrently for disjoint specs). */
    mutable std::mutex poolMu;

    /** Stage timing of the most recent run (lastPipelineStats). */
    mutable PipelineStats pstats;
};

} // namespace qramsim

#endif // QRAMSIM_SIM_FIDELITY_HH
