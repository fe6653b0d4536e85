#include "sim/fidelity.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <limits>
#include <thread>
#include <unordered_map>

#include "common/env.hh"
#include "common/stats.hh"
#include "common/threadpool.hh"

namespace qramsim {

AddressSuperposition
AddressSuperposition::uniform(unsigned addressWidth)
{
    AddressSuperposition s;
    const std::uint64_t n = std::uint64_t(1) << addressWidth;
    const double a = 1.0 / std::sqrt(static_cast<double>(n));
    s.addresses.reserve(n);
    s.amps.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        s.addresses.push_back(i);
        s.amps.emplace_back(a, 0.0);
    }
    return s;
}

AddressSuperposition
AddressSuperposition::single(std::uint64_t address, unsigned addressWidth)
{
    QRAMSIM_ASSERT(address < (std::uint64_t(1) << addressWidth),
                   "address out of range");
    AddressSuperposition s;
    s.addresses.push_back(address);
    s.amps.emplace_back(1.0, 0.0);
    return s;
}

AddressSuperposition
AddressSuperposition::random(unsigned addressWidth, Rng &rng)
{
    AddressSuperposition s;
    const std::uint64_t n = std::uint64_t(1) << addressWidth;
    double norm = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
        double re = rng.uniform() - 0.5;
        double im = rng.uniform() - 0.5;
        s.addresses.push_back(i);
        s.amps.emplace_back(re, im);
        norm += re * re + im * im;
    }
    norm = std::sqrt(norm);
    for (auto &a : s.amps)
        a /= norm;
    return s;
}

/**
 * Per-shot overlap accumulator. The reduced-overlap group map is
 * created fresh per shot with the same initial capacity regardless of
 * entry point, and its keys hash to BitVec::hash() of the ancilla
 * configuration, so group iteration order — and hence floating-point
 * summation order — is reproducible and the same as a map keyed by
 * BitVec. Nothing is allocated per shot once the scratch has grown:
 * an ideal path's key points at the estimator's idealAnc words, a
 * deviating path's new key is copied into the scratch's key arena,
 * and the map's nodes and buckets come from the scratch's pool.
 */
struct FidelityEstimator::ShotAccumulator
{
    struct Group
    {
        std::complex<double> sum{0.0, 0.0};
    };

    /** An ancilla configuration: its words and their hash. */
    struct Key
    {
        const std::uint64_t *words;
        std::size_t hash;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const { return k.hash; }
    };
    struct KeyEq
    {
        std::size_t nw;

        bool
        operator()(const Key &a, const Key &b) const
        {
            return std::equal(a.words, a.words + nw, b.words);
        }
    };

    std::complex<double> fullOverlap{0.0, 0.0};
    std::pmr::unordered_map<Key, Group, KeyHash, KeyEq> groups;
    AccumScratch &scratch;

    /** @p nw words per key, at most @p maxKeys new keys per shot. */
    ShotAccumulator(AccumScratch &as, std::size_t nw,
                    std::size_t maxKeys)
        : groups(0, KeyHash{}, KeyEq{nw}, poolOf(as)), scratch(as)
    {
        groups.reserve(8);
        as.keysUsed = 0;
        if (as.keyArena.size() < maxKeys * nw)
            as.keyArena.resize(maxKeys * nw);
        if (as.anc.size() < nw)
            as.anc.resize(nw);
    }

    static std::pmr::memory_resource *
    poolOf(AccumScratch &as)
    {
        if (!as.pool)
            as.pool =
                std::make_unique<std::pmr::unsynchronized_pool_resource>();
        return as.pool.get();
    }

    double full() const { return std::norm(fullOverlap); }

    double
    reduced() const
    {
        double red = 0.0;
        for (const auto &[anc, g] : groups)
            red += std::norm(g.sum);
        return red;
    }
};

FidelityEstimator::FidelityEstimator(
    const Circuit &circuit, const std::vector<Qubit> &addressQubits,
    Qubit busQubit, const AddressSuperposition &input_)
    : exec(circuit), addrQubits(addressQubits), bus(busQubit),
      input(input_)
{
    QRAMSIM_ASSERT(addrQubits.size() + 1 <= 64,
                   "visible register too wide to pack");

    // Runtime knobs, parsed strictly (common/env.hh rejects garbage,
    // signs, and overflow loudly instead of misparsing).
    if (auto v = env::readUnsigned("QRAMSIM_REPLAY_BATCH",
                                   std::numeric_limits<
                                       unsigned long>::max())) {
        if (*v > 0)
            setReplayBatch(static_cast<std::size_t>(*v));
        else
            std::fprintf(stderr, "warning: ignoring "
                                 "QRAMSIM_REPLAY_BATCH=0\n");
    }
    if (auto on = env::readBool("QRAMSIM_PIPELINE"))
        pipelineOn = *on;

    // The working state of the construction pass is the bit-sliced
    // ensemble itself: address bits scattered column-wise, phases 1.
    PathEnsemble ens(circuit.numQubits(), input.size());
    for (std::size_t k = 0; k < input.size(); ++k)
        for (std::size_t b = 0; b < addrQubits.size(); ++b)
            if ((input.addresses[k] >> b) & 1)
                ens.set(addrQubits[b], k, true);

    // Checkpoint layout: snapshots every ckptStride ops, bounded both
    // in count and in memory so wide circuits with many paths stay
    // within a fixed budget. Checkpoint 0 is the input itself.
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::size_t words = (circuit.numQubits() + 63) / 64;
    const std::size_t stateBytes = words * 8 + sizeof(PathState);
    const std::size_t budget = std::size_t(64) << 20;
    std::size_t maxCkpts =
        budget / std::max<std::size_t>(1, input.size() * stateBytes);
    maxCkpts = std::clamp<std::size_t>(maxCkpts, 2, 257);
    ckptStride = static_cast<std::uint32_t>(numOps / maxCkpts + 1);
    const std::size_t numCkpts = numOps / ckptStride + 1;

    // Z-parity snapshot layout: one entry per flippable target of
    // every X/Swap op, in stream order per qubit.
    const CompiledStream &cs = exec.stream();
    const std::size_t nq = circuit.numQubits();
    pathWords = ens.wordsPerQubit();
    std::vector<std::uint32_t> opQ0(numOps, UINT32_MAX);
    std::vector<std::uint32_t> opQ1(numOps, UINT32_MAX);
    snapBegin.assign(nq + 1, 0);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        const auto op = static_cast<CompiledStream::Op>(cs.kind[i]);
        if (op != CompiledStream::Op::X &&
            op != CompiledStream::Op::Swap)
            continue;
        opQ0[i] = cs.word0[i] * 64 +
                  static_cast<std::uint32_t>(
                      __builtin_ctzll(cs.mask0[i]));
        ++snapBegin[opQ0[i] + 1];
        if (op == CompiledStream::Op::Swap) {
            opQ1[i] = cs.word1[i] * 64 +
                      static_cast<std::uint32_t>(
                          __builtin_ctzll(cs.mask1[i]));
            ++snapBegin[opQ1[i] + 1];
        }
    }
    for (std::size_t q = 0; q < nq; ++q)
        snapBegin[q + 1] += snapBegin[q];
    const std::size_t numEntries = snapBegin[nq];
    snapPos.resize(numEntries);
    snapBits.assign(numEntries * pathWords, 0);
    std::vector<std::uint32_t> cursor(snapBegin.begin(),
                                      snapBegin.end() - 1);
    std::vector<std::uint32_t> opEntry0(numOps, UINT32_MAX);
    std::vector<std::uint32_t> opEntry1(numOps, UINT32_MAX);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        if (opQ0[i] != UINT32_MAX) {
            opEntry0[i] = cursor[opQ0[i]]++;
            snapPos[opEntry0[i]] = i + 1;
        }
        if (opQ1[i] != UINT32_MAX) {
            opEntry1[i] = cursor[opQ1[i]]++;
            snapPos[opEntry1[i]] = i + 1;
        }
    }

    // One ensemble sweep builds every checkpoint, every snapshot row,
    // and the ideal outputs: checkpoints are whole-ensemble copies,
    // snapshots are row copies taken right after the toggling op.
    ckpts.reserve(numCkpts);
    for (std::uint32_t i = 0; i < numOps; ++i) {
        if (i % ckptStride == 0)
            ckpts.push_back(ens);
        exec.runSpanEnsemble(ens, i, i + 1, nullptr, 0);
        if (opEntry0[i] != UINT32_MAX)
            std::copy(ens.row(opQ0[i]), ens.row(opQ0[i]) + pathWords,
                      snapBits.begin() +
                          std::size_t(opEntry0[i]) * pathWords);
        if (opEntry1[i] != UINT32_MAX)
            std::copy(ens.row(opQ1[i]), ens.row(opQ1[i]) + pathWords,
                      snapBits.begin() +
                          std::size_t(opEntry1[i]) * pathWords);
    }
    if (numOps % ckptStride == 0)
        ckpts.push_back(ens);
    idealEns = std::move(ens);

    // Gather the per-path ideal outputs (the accumulation code works
    // on scalar bit vectors and hash keys).
    ideals.reserve(input.size());
    std::vector<std::uint64_t> idealKeys;
    idealKeys.reserve(input.size());
    for (std::size_t k = 0; k < input.size(); ++k) {
        PathState p(circuit.numQubits());
        idealEns.gatherPath(k, p.bits);
        p.phase = idealEns.phase(k);
        QRAMSIM_ASSERT(std::abs(p.phase.real() - 1.0) < 1e-12 &&
                       std::abs(p.phase.imag()) < 1e-12,
                       "ideal path acquired a phase; circuit contains "
                       "non-classical diagonal gates");
        ideals.push_back(std::move(p));
        idealKeys.push_back(visibleKey(ideals.back().bits));
    }
    dupVisibleKeys = visIndex.build(idealKeys);
    stateWords = words;

    visMaskWords.assign(words, 0);
    for (Qubit q : addrQubits)
        visMaskWords[q >> 6] |= std::uint64_t(1) << (q & 63);
    visMaskWords[bus >> 6] |= std::uint64_t(1) << (bus & 63);

    idealAnc.reserve(input.size());
    idealAncHash.reserve(input.size());
    idealVisOwner.reserve(input.size());
    for (std::size_t k = 0; k < input.size(); ++k) {
        idealAnc.push_back(ancillaPart(ideals[k].bits));
        idealAncHash.push_back(idealAnc.back().hash());
        idealVisOwner.push_back(visIndex.find(idealKeys[k]));
    }

    // Cache the empty-realization shot: identical accumulation to a
    // real shot whose every path lands on its ideal output.
    AccumScratch as;
    ShotAccumulator acc(as, stateWords, input.size());
    for (std::size_t k = 0; k < input.size(); ++k)
        accumulatePath(acc, k, ideals[k].bits, ideals[k].phase);
    emptyFull = acc.full();
    emptyReduced = acc.reduced();
}

bool
FidelityEstimator::VisibleKeyTable::build(
    const std::vector<std::uint64_t> &keys)
{
    unsigned bits = 1;
    while ((std::size_t(1) << bits) < 2 * keys.size())
        ++bits;
    slots.assign(std::size_t(1) << bits, Slot{});
    mask = slots.size() - 1;
    shift = 64 - bits;
    bool dup = false;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        std::size_t i = slotOf(keys[k]);
        while (slots[i].path != kNone && slots[i].key != keys[k])
            i = (i + 1) & mask;
        dup |= slots[i].path != kNone;
        slots[i] = {keys[k], static_cast<std::uint32_t>(k)};
    }
    return dup;
}

std::uint64_t
FidelityEstimator::visibleKey(const BitVec &bits) const
{
    std::uint64_t key = 0;
    for (std::size_t b = 0; b < addrQubits.size(); ++b)
        key |= std::uint64_t(bits.get(addrQubits[b])) << b;
    key |= std::uint64_t(bits.get(bus)) << addrQubits.size();
    return key;
}

BitVec
FidelityEstimator::ancillaPart(const BitVec &bits) const
{
    BitVec a = bits;
    for (std::size_t w = 0; w < visMaskWords.size(); ++w)
        a.andWord(w, ~visMaskWords[w]);
    return a;
}

bool
FidelityEstimator::idealBus(std::size_t k) const
{
    return ideals.at(k).bits.get(bus);
}

void
FidelityEstimator::accumulatePath(ShotAccumulator &acc, std::size_t k,
                                  const BitVec &outBits,
                                  std::complex<double> outPhase) const
{
    accumulatePathKeyed(acc, k, outBits, visibleKey(outBits), outPhase);
}

void
FidelityEstimator::accumulatePathKeyed(
    ShotAccumulator &acc, std::size_t k, const BitVec &outBits,
    std::uint64_t key, std::complex<double> outPhase) const
{
    // A path that landed on its ideal output takes the precomputed
    // route (same arithmetic, same group key and owner — the map
    // population sequence is unchanged); anything else is a
    // deviating path.
    if (outBits == ideals[k].bits)
        accumulateIdealPath(acc, k, outPhase);
    else
        accumulateDeviatingPath(acc, k, outBits, key, outPhase);
}

void
FidelityEstimator::accumulateDeviatingPath(
    ShotAccumulator &acc, std::size_t k, const BitVec &outBits,
    std::uint64_t key, std::complex<double> outPhase) const
{
    // Caller guarantees outBits != ideals[k].bits (a set deviation
    // bit means some row differs), so the self-overlap branch of the
    // general accumulation is skipped outright.
    const std::uint32_t owner = visIndex.find(key);
    if (owner == VisibleKeyTable::kNone)
        return;
    accumulateVisiblePath(acc, k, outBits.wordData(), owner, outPhase);
}

void
FidelityEstimator::accumulateVisiblePath(
    ShotAccumulator &acc, std::size_t k, const std::uint64_t *out,
    std::size_t owner, std::complex<double> outPhase) const
{
    const std::size_t nw = stateWords;
    auto isIdealOf = [&](std::size_t j) {
        return std::equal(out, out + nw, ideals[j].bits.wordData());
    };

    // Full-state overlap: the noisy output contributes iff it lands
    // exactly on some OTHER path's ideal output (distinct addresses
    // give orthogonal ideal outputs, and the circuit is a
    // permutation).
    if (!dupVisibleKeys) {
        // Visible keys are unique, so the key owner is the only
        // candidate; one exact-bits check resolves the collision.
        if (isIdealOf(owner))
            acc.fullOverlap += std::conj(input.amps[owner]) *
                               input.amps[k] * outPhase;
    } else {
        // Degenerate input with repeated visible keys: fall back
        // to the exhaustive scan to keep historical semantics.
        for (std::size_t j = 0; j < input.size(); ++j) {
            if (isIdealOf(j)) {
                acc.fullOverlap += std::conj(input.amps[j]) *
                                   input.amps[k] * outPhase;
                break;
            }
        }
    }

    // Reduced overlap: group by ancilla configuration; within a
    // group, the visible component projects onto psi_ideal. The
    // ancilla key is built in the scratch and copied into the key
    // arena only when it opens a new group; find-then-emplace
    // inserts exactly the keys (in exactly the order) operator[]
    // would, keeping the group iteration — and thus summation —
    // order unchanged.
    AccumScratch &as = acc.scratch;
    std::uint64_t *anc = as.anc.data();
    for (std::size_t w = 0; w < nw; ++w)
        anc[w] = out[w] & ~visMaskWords[w];
    ShotAccumulator::Key key{anc, BitVec::hashWords(anc, nw)};
    auto git = acc.groups.find(key);
    if (git == acc.groups.end()) {
        QRAMSIM_ASSERT((as.keysUsed + 1) * nw <= as.keyArena.size(),
                       "group key arena exhausted");
        std::uint64_t *dst = as.keyArena.data() + as.keysUsed++ * nw;
        std::copy(anc, anc + nw, dst);
        key.words = dst;
        git = acc.groups.emplace(key, ShotAccumulator::Group{}).first;
    }
    git->second.sum +=
        std::conj(input.amps[owner]) * input.amps[k] * outPhase;
}

void
FidelityEstimator::accumulateIdealPath(
    ShotAccumulator &acc, std::size_t k,
    std::complex<double> phase) const
{
    // accumulatePath specialized to outBits == ideals[k].bits with
    // every per-path invariant precomputed; bit-identical to the
    // general form for paths that land on their ideal output.
    acc.fullOverlap +=
        std::conj(input.amps[k]) * input.amps[k] * phase;
    acc.groups[ShotAccumulator::Key{idealAnc[k].wordData(),
                                    idealAncHash[k]}]
        .sum +=
        std::conj(input.amps[idealVisOwner[k]]) * input.amps[k] *
        phase;
}

// Z-only realization: no bit ever deviates from the ideal
// trajectory (Z errors do not flip, and no reversible gate maps a
// Z component onto an X component — see analysis/lightcone), so
// every event's sign is the precomputed ideal bit of its qubit at
// its position. XOR the per-event snapshot vectors into one
// parity-per-path accumulator (the Z-parity row-reduction kernel);
// no gate is replayed at all. This stays bit-identical even for
// circuits with diagonal phase ops: multiplying by -1 is exact and
// commutes exactly through complex products, so out.phase ==
// +-ideals[k].phase to the last ulp.
void
FidelityEstimator::shotZOnly(const FlatRealization &errors,
                             ShotWorkspace &ws, AccumScratch &as,
                             double &fullOut, double &reducedOut) const
{
    const simd::RowKernels &K = simd::activeKernels();
    const FlatEvent *events = errors.events.data();
    const std::size_t numEvents = errors.events.size();

    ShotAccumulator acc(as, stateWords, input.size());
    ws.parity.assign(pathWords, 0);
    for (std::size_t e = 0; e < numEvents; ++e) {
        const std::uint32_t q = events[e].qubit;
        const std::uint32_t *lo = snapPos.data() + snapBegin[q];
        const std::uint32_t *hi = snapPos.data() + snapBegin[q + 1];
        const std::uint32_t *it =
            std::upper_bound(lo, hi, events[e].pos);
        const std::uint64_t *vec =
            it == lo
                ? ckpts.front().row(q)
                : snapBits.data() +
                      std::size_t(it - snapPos.data() - 1) *
                          pathWords;
        K.xorRow(ws.parity.data(), vec, pathWords);
    }
    for (std::size_t k = 0; k < input.size(); ++k) {
        const bool neg = (ws.parity[k >> 6] >> (k & 63)) & 1;
        accumulateIdealPath(acc, k,
                            neg ? -ideals[k].phase : ideals[k].phase);
    }
    fullOut = acc.full();
    reducedOut = acc.reduced();
}

void
FidelityEstimator::accumulateEnsembleShot(ShotWorkspace &ws,
                                          AccumScratch &as,
                                          ShotAccumulator &acc) const
{
    const simd::RowKernels &K = simd::activeKernels();
    const std::size_t nq = exec.circuit().numQubits();
    const std::uint64_t *noisy = ws.ens.rowData();
    const std::uint64_t *ideal = idealEns.rowData();

    // Row-wise deviation masks against the ideal cache, recording the
    // qubits (rows) where any path deviated — for sparse noise that
    // set is the lightcone of the shot's events, a few rows out of
    // hundreds.
    ws.dev.assign(pathWords, 0);
    ws.devRows.clear();
    for (std::size_t q = 0; q < nq; ++q) {
        if (K.diffOr(ws.dev.data(), noisy + q * pathWords,
                     ideal + q * pathWords, pathWords))
            ws.devRows.push_back(static_cast<std::uint32_t>(q));
    }

    accumulateShotRows(noisy, pathWords, ws.ens.phaseData(),
                       ws.dev.data(), ws.devRows, as, acc);
}

void
FidelityEstimator::accumulateShotRows(
    const std::uint64_t *rows, std::size_t stride,
    const std::complex<double> *phases, const std::uint64_t *dev,
    const std::vector<std::uint32_t> &devRows, AccumScratch &as,
    ShotAccumulator &acc) const
{
    const std::size_t np = input.size();
    const std::size_t nw = stateWords;
    const std::size_t dw = idealEns.dataWords();
    const std::uint64_t *ideal = idealEns.rowData();

    // Visible keys by word transpose of the visible rows only
    // (address bits + bus; <= 64 rows), and only for words that hold
    // a deviating path — non-deviating paths never read a key.
    if (!devRows.empty()) {
        as.keys.assign(np, 0);
        for (std::size_t w = 0; w < dw; ++w) {
            if (!dev[w])
                continue;
            const std::size_t base = w * 64;
            for (std::size_t b = 0; b < addrQubits.size(); ++b) {
                std::uint64_t m = rows[addrQubits[b] * stride + w];
                while (m) {
                    const std::size_t k = static_cast<std::size_t>(
                        __builtin_ctzll(m));
                    m &= m - 1;
                    as.keys[base + k] |= std::uint64_t(1) << b;
                }
            }
            std::uint64_t m = rows[std::size_t(bus) * stride + w];
            while (m) {
                const std::size_t k =
                    static_cast<std::size_t>(__builtin_ctzll(m));
                m &= m - 1;
                as.keys[base + k] |= std::uint64_t(1)
                                     << addrQubits.size();
            }
        }
    }

    // Split the deviating rows into uniform flips (every valid path
    // deviates — the typical shape of an X event's whole-row flip
    // before per-path routing divergence) and partial rows. Uniform
    // rows fold into ONE output-word mask applied to every path;
    // only the partial rows flip per path.
    as.uniformMask.assign(nw, 0);
    as.partialRows.clear();
    for (std::uint32_t q : devRows) {
        bool uniform = true;
        for (std::size_t w = 0; w < dw && uniform; ++w)
            uniform = (rows[q * stride + w] ^
                       ideal[q * pathWords + w]) ==
                      idealEns.validMask(w);
        if (uniform)
            as.uniformMask[q >> 6] ^= std::uint64_t(1) << (q & 63);
        else
            as.partialRows.push_back(q);
    }

    // A deviating path contributes nothing unless its visible key is
    // some ideal path's, and the keys are already gathered — so the
    // owners are looked up FIRST and only the hit paths get an
    // output slot.
    as.hitMask.assign(dw, 0);
    if (as.owner.size() < np) {
        as.owner.resize(np);
        as.slot.resize(np);
    }
    std::uint32_t hits = 0;
    for (std::size_t w = 0; w < dw; ++w) {
        std::uint64_t m = dev[w] & idealEns.validMask(w);
        while (m) {
            const std::size_t k =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
            m &= m - 1;
            const std::uint32_t o = visIndex.find(as.keys[k]);
            if (o == VisibleKeyTable::kNone)
                continue; // off every ideal key
            as.hitMask[w] |= std::uint64_t(1) << (k & 63);
            as.owner[k] = o;
            as.slot[k] = hits++;
        }
    }

    // Scatter-build the hit paths' outputs: ideal words XOR the
    // uniform mask, then each partial row flips its bit in exactly
    // the hit paths that deviate on it (one ctz walk per row, so the
    // cost follows the actual deviations, not paths x rows).
    if (as.out.size() < std::size_t(hits) * nw)
        as.out.resize(std::size_t(hits) * nw);
    std::uint64_t *out = as.out.data();
    const std::uint64_t *um = as.uniformMask.data();
    for (std::size_t w = 0; w < dw; ++w) {
        for (std::uint64_t m = as.hitMask[w]; m; m &= m - 1) {
            const std::size_t k =
                w * 64 + static_cast<std::size_t>(__builtin_ctzll(m));
            const std::uint64_t *iw = ideals[k].bits.wordData();
            std::uint64_t *o = out + std::size_t(as.slot[k]) * nw;
            for (std::size_t i = 0; i < nw; ++i)
                o[i] = iw[i] ^ um[i];
        }
    }
    for (std::uint32_t q : as.partialRows) {
        const std::uint64_t *row = rows + q * stride;
        const std::uint64_t *irow = ideal + q * pathWords;
        const std::size_t qw = q >> 6;
        const std::uint64_t qb = std::uint64_t(1) << (q & 63);
        for (std::size_t w = 0; w < dw; ++w) {
            for (std::uint64_t m = (row[w] ^ irow[w]) & as.hitMask[w]; m;
                 m &= m - 1) {
                const std::size_t k =
                    w * 64 +
                    static_cast<std::size_t>(__builtin_ctzll(m));
                out[std::size_t(as.slot[k]) * nw + qw] ^= qb;
            }
        }
    }

    // Accumulate in path order: non-deviating paths from precomputed
    // ideal lookups (same arithmetic, same order as the scalar
    // engine), hit paths from their built outputs. A set deviation
    // bit proves the output differs from ideals[k], so the
    // self-overlap compare of the general form is skipped.
    for (std::size_t k = 0; k < np; ++k) {
        const std::uint64_t bit = std::uint64_t(1) << (k & 63);
        if (!(dev[k >> 6] & bit))
            accumulateIdealPath(acc, k, phases[k]);
        else if (as.hitMask[k >> 6] & bit)
            accumulateVisiblePath(acc, k,
                                  out + std::size_t(as.slot[k]) * nw,
                                  as.owner[k], phases[k]);
    }
}

void
FidelityEstimator::shotFlat(const FlatRealization &errors,
                            ShotWorkspace &ws, AccumScratch &as,
                            double &fullOut, double &reducedOut) const
{
    if (errors.empty()) {
        fullOut = emptyFull;
        reducedOut = emptyReduced;
        return;
    }
    if (errors.zOnly) {
        shotZOnly(errors, ws, as, fullOut, reducedOut);
        return;
    }

    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const FlatEvent *events = errors.events.data();
    const std::size_t numEvents = errors.events.size();

    ShotAccumulator acc(as, stateWords, input.size());

    // General realization: replay from the checkpoint preceding the
    // first event to the end of the stream.
    const std::uint32_t lastCkpt =
        static_cast<std::uint32_t>(ckpts.size() - 1);
    const std::uint32_t ckpt =
        std::min(events[0].pos / ckptStride, lastCkpt);
    const std::uint32_t from = ckpt * ckptStride;

    if (replay == ReplayEngine::Scalar) {
        // Path-by-path oracle: the pre-ensemble replay loop, fed from
        // the materialized per-path checkpoint copies.
        for (std::size_t k = 0; k < input.size(); ++k) {
            ws.path = scalarCkpts[ckpt][k];
            exec.runSpan(ws.path, from, numOps, events, numEvents);
            accumulatePath(acc, k, ws.path.bits, ws.path.phase);
        }
        fullOut = acc.full();
        reducedOut = acc.reduced();
        return;
    }

    // Ensemble replay: one word-level sweep advances all paths, then
    // the ensemble-native accumulation classifies and scores them.
    ws.ens = ckpts[ckpt];
    exec.runSpanEnsemble(ws.ens, from, numOps, events, numEvents);
    accumulateEnsembleShot(ws, as, acc);
    fullOut = acc.full();
    reducedOut = acc.reduced();
}

namespace {

/**
 * Books wall time into StageTimes slots: each stage() call charges
 * the time since the previous call (or construction) to one slot.
 */
template <class Times>
class StageClock
{
  public:
    explicit StageClock(Times &t) : times(t), tp(Clock::now()) {}

    void restart() { tp = Clock::now(); }

    void
    stage(double Times::*slot)
    {
        const Clock::time_point now = Clock::now();
        times.*slot += std::chrono::duration<double>(now - tp).count();
        tp = now;
    }

  private:
    using Clock = std::chrono::steady_clock;
    Times &times;
    Clock::time_point tp;
};

} // namespace

void
FidelityEstimator::evalGeneralBatch(
    const FlatRealization *const *batch, const std::size_t *rows,
    std::size_t qn, EvalScratch &scratch, double *fs, double *rs,
    StageTimes &times) const
{
    StageClock<StageTimes> clock(times);
    std::vector<ShotWorkspace> &wss = scratch.wss;
    if (wss.size() < qn)
        wss.resize(qn);
    const std::uint32_t numOps =
        static_cast<std::uint32_t>(exec.stream().size());
    const std::uint32_t lastCkpt =
        static_cast<std::uint32_t>(ckpts.size() - 1);

    if (replay == ReplayEngine::Scalar) {
        // Path-by-path oracle (pipelined lanes only: evalShots never
        // queues under Scalar). One whole-shot replay per entry,
        // booked entirely as 'replay'.
        for (std::size_t b = 0; b < qn; ++b)
            shotFlat(*batch[b], wss[0], scratch.accum, fs[rows[b]],
                     rs[rows[b]]);
        clock.stage(&StageTimes::replay);
        return;
    }

    if (replay == ReplayEngine::EnsembleSlots) {
        // Shot-major baseline: one PathEnsemble per queued shot,
        // per-op per-shot kernel calls (the pre-transpose engine).
        if (scratch.slots.size() < qn)
            scratch.slots.resize(qn);
        FeynmanExecutor::EnsembleReplaySlot *slots =
            scratch.slots.data();
        for (std::size_t b = 0; b < qn; ++b) {
            const FlatRealization &r = *batch[b];
            const std::uint32_t ckpt = std::min(
                r.events[0].pos / ckptStride, lastCkpt);
            wss[b].ens = ckpts[ckpt];
            slots[b] = {&wss[b].ens, r.events.data(),
                        r.events.size(), ckpt * ckptStride, 0};
        }
        clock.stage(&StageTimes::gather);
        exec.runSpanEnsembleBatch(slots, qn, numOps);
        clock.stage(&StageTimes::replay);
        for (std::size_t b = 0; b < qn; ++b) {
            ShotAccumulator acc(scratch.accum, stateWords,
                                input.size());
            accumulateEnsembleShot(wss[b], scratch.accum, acc);
            fs[rows[b]] = acc.full();
            rs[rows[b]] = acc.reduced();
        }
        clock.stage(&StageTimes::accumulate);
        return;
    }

    // Op-major block replay: gather the queued shots' checkpoint rows
    // into the fused arena qubit-major (contiguous writes per block
    // row), run one transposed pass, then accumulate straight off the
    // block rows — deviation masks for all shots of a qubit in one
    // diffOrBlock sweep against the shared ideal row.
    EnsembleBlock &blk = scratch.block;
    const std::size_t nq = exec.circuit().numQubits();
    blk.reshape(nq, input.size(), qn);
    const std::size_t pw = blk.wordsPerQubit();
    if (scratch.bshots.size() < qn)
        scratch.bshots.resize(qn);
    FeynmanExecutor::BlockReplayShot *bshots = scratch.bshots.data();
    for (std::size_t b = 0; b < qn; ++b) {
        const FlatRealization &r = *batch[b];
        const std::uint32_t ckpt =
            std::min(r.events[0].pos / ckptStride, lastCkpt);
        bshots[b] = {r.events.data(), r.events.size(),
                     ckpt * ckptStride, 0};
    }
    for (std::size_t q = 0; q < nq; ++q) {
        std::uint64_t *dst = blk.blockRow(q);
        for (std::size_t b = 0; b < qn; ++b, dst += pw) {
            const std::uint32_t ckpt = bshots[b].from / ckptStride;
            const std::uint64_t *src = ckpts[ckpt].row(q);
            std::copy(src, src + pw, dst);
        }
    }
    for (std::size_t b = 0; b < qn; ++b) {
        const std::uint32_t ckpt = bshots[b].from / ckptStride;
        const std::complex<double> *src = ckpts[ckpt].phaseData();
        std::copy(src, src + input.size(), blk.phaseSlice(b));
    }
    clock.stage(&StageTimes::gather);

    exec.runSpanEnsembleBlock(blk, bshots, numOps);
    clock.stage(&StageTimes::replay);

    const simd::RowKernels &K = simd::activeKernels();
    scratch.devBlock.assign(qn * pw, 0);
    scratch.anyDev.resize(qn);
    for (std::size_t b = 0; b < qn; ++b)
        wss[b].devRows.clear();
    for (std::size_t q = 0; q < nq; ++q) {
        K.diffOrBlock(scratch.devBlock.data(), blk.blockRow(q),
                      idealEns.row(q), pw, qn, scratch.anyDev.data());
        for (std::size_t b = 0; b < qn; ++b)
            if (scratch.anyDev[b])
                wss[b].devRows.push_back(
                    static_cast<std::uint32_t>(q));
    }
    for (std::size_t b = 0; b < qn; ++b) {
        ShotAccumulator acc(scratch.accum, stateWords, input.size());
        accumulateShotRows(blk.rowData() + b * pw, blk.rowWords(),
                           blk.phaseSlice(b),
                           scratch.devBlock.data() + b * pw,
                           wss[b].devRows, scratch.accum, acc);
        fs[rows[b]] = acc.full();
        rs[rows[b]] = acc.reduced();
    }
    clock.stage(&StageTimes::accumulate);
}

void
FidelityEstimator::evalShots(const FlatRealization *reals,
                             std::size_t n, EvalScratch &scratch,
                             double *fs, double *rs,
                             StageTimes &times) const
{
    std::vector<ShotWorkspace> &wss = scratch.wss;
    if (wss.size() < replayBatchN)
        wss.resize(replayBatchN);
    if (scratch.queue.size() < replayBatchN) {
        scratch.queue.resize(replayBatchN);
        scratch.ptrs.resize(replayBatchN);
    }

    // General realizations queue up and replay replayBatchN at a time
    // through one batched pass — op-major over the fused block arena
    // (default), or the shot-major slot loop (EnsembleSlots, the
    // differential baseline); empty / Z-only / scalar-oracle
    // realizations resolve immediately. Results land at their own
    // indices, so the caller's reduction order is untouched.
    std::size_t *queue = scratch.queue.data();
    std::size_t qn = 0;
    StageClock<StageTimes> clock(times);

    auto flush = [&]() {
        if (qn == 0)
            return;
        clock.stage(&StageTimes::accumulate);
        for (std::size_t b = 0; b < qn; ++b)
            scratch.ptrs[b] = &reals[queue[b]];
        evalGeneralBatch(scratch.ptrs.data(), queue, qn, scratch, fs,
                         rs, times);
        clock.restart();
        qn = 0;
    };

    for (std::size_t j = 0; j < n; ++j) {
        const FlatRealization &r = reals[j];
        if (r.empty()) {
            fs[j] = emptyFull;
            rs[j] = emptyReduced;
        } else if (r.zOnly) {
            shotZOnly(r, wss[0], scratch.accum, fs[j], rs[j]);
        } else if (replay == ReplayEngine::Scalar) {
            clock.stage(&StageTimes::accumulate);
            shotFlat(r, wss[0], scratch.accum, fs[j], rs[j]);
            clock.stage(&StageTimes::replay);
        } else {
            queue[qn++] = j;
            if (qn == replayBatchN)
                flush();
        }
    }
    flush();
    clock.stage(&StageTimes::accumulate);
}

void
FidelityEstimator::setReplayEngine(ReplayEngine engine)
{
    if (engine != ReplayEngine::Scalar) {
        // Release the scalar oracle's duplicate of the checkpoint
        // data; it is re-materialized on the next switch to Scalar.
        // The block and slot engines share the ensemble checkpoints.
        scalarCkpts.clear();
        scalarCkpts.shrink_to_fit();
    }
    if (engine == ReplayEngine::Scalar && scalarCkpts.empty()) {
        // Materialize per-path checkpoint copies so the scalar oracle
        // replays exactly like the pre-ensemble estimator (checkpoint
        // copy + scalar sweep, no per-shot transpose).
        scalarCkpts.resize(ckpts.size());
        const std::size_t nq = exec.circuit().numQubits();
        for (std::size_t c = 0; c < ckpts.size(); ++c) {
            scalarCkpts[c].reserve(input.size());
            for (std::size_t k = 0; k < input.size(); ++k) {
                PathState p(nq);
                ckpts[c].gatherPath(k, p.bits);
                p.phase = ckpts[c].phase(k);
                scalarCkpts[c].push_back(std::move(p));
            }
        }
    }
    replay = engine;
}

void
FidelityEstimator::shotFidelity(const FlatRealization &errors,
                                double &fullOut,
                                double &reducedOut) const
{
    ScratchLease scratch;
    if (scratch->wss.empty())
        scratch->wss.resize(1);
    shotFlat(errors, scratch->wss[0], scratch->accum, fullOut,
             reducedOut);
}

void
FidelityEstimator::shotFidelity(const ErrorRealization &errors,
                                double &fullOut,
                                double &reducedOut) const
{
    FlatRealization flat;
    exec.flatten(errors, flat);
    shotFidelity(flat, fullOut, reducedOut);
}

std::size_t
FidelityEstimator::setReplayBatch(std::size_t n)
{
    replayBatchN = std::clamp<std::size_t>(n, 1, kShotChunk);
    return replayBatchN;
}

// Out of line so the unique_ptr<ThreadPool> member destroys where
// ThreadPool is complete.
FidelityEstimator::~FidelityEstimator() = default;

namespace {

/** The idle scratches behind ScratchLease. Never destroyed, so a
 *  lease may end during static destruction. */
template <class Scratch>
struct IdleScratches
{
    std::mutex mu;
    std::vector<std::unique_ptr<Scratch>> idle;

    static IdleScratches &
    get()
    {
        static IdleScratches *cache = new IdleScratches;
        return *cache;
    }
};

} // namespace

FidelityEstimator::ScratchLease::ScratchLease()
{
    auto &cache = IdleScratches<EvalScratch>::get();
    {
        std::lock_guard<std::mutex> lock(cache.mu);
        if (!cache.idle.empty()) {
            scratch = std::move(cache.idle.back());
            cache.idle.pop_back();
        }
    }
    if (!scratch)
        scratch = std::make_unique<EvalScratch>();
}

FidelityEstimator::ScratchLease::~ScratchLease()
{
    if (!scratch)
        return;
    auto &cache = IdleScratches<EvalScratch>::get();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.idle.push_back(std::move(scratch));
}

bool
FidelityEstimator::setPipeline(bool on)
{
    pipelineOn = on;
    return pipelineOn;
}

PipelineStats
FidelityEstimator::lastPipelineStats() const
{
    std::lock_guard<std::mutex> lock(poolMu);
    return pstats;
}

ThreadPool &
FidelityEstimator::poolFor(const ShardSpec &spec,
                           unsigned threads) const
{
    if (spec.pool)
        return *spec.pool;
    std::lock_guard<std::mutex> lock(poolMu);
    if (!ownPool || ownPool->size() < threads)
        ownPool = std::make_unique<ThreadPool>(
            std::max(threads, ownPool ? ownPool->size() : 0u));
    return *ownPool;
}

PartialEstimate
FidelityEstimator::runShard(const NoiseModel &noise,
                            const ShardSpec &spec) const
{
    const auto t0 = std::chrono::steady_clock::now();
    PartialEstimate part = runShardImpl(noise, spec, /*keepRows=*/true);
    part.computeSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return part;
}

/**
 * The pipelined shot executor. Work decomposes into independent
 * units — (global shot, sweep point) pairs, one per shot for a plain
 * estimate — and flows through three task kinds on the pool:
 *
 *   sample   one kShotChunk-wide chunk of shots: draw each shot's
 *            CounterRng(seed, s) realization(s) (order-free, the
 *            counter-stream property the pipeline rests on), resolve
 *            empty units inline from the cached ideal result, and
 *            classify the rest;
 *   Z-batch  a batch of Z-only units through the snapshot-XOR fast
 *            path (no replay);
 *   lane     a replayBatch()-wide batch of general units through
 *            evalGeneralBatch — gather into the lane's own
 *            EnsembleBlock arena, one op-major replay, accumulate.
 *
 * A coordinator on the calling thread keeps at most `threads` tasks
 * in flight (so pipelined and phase-sequential runs compete with the
 * same worker budget), hands drained sampling output to pending
 * queues, and dispatches lanes as batches fill: while lane A replays
 * batch N, lane B gathers/accumulates batch N±1 and sampling tasks
 * prepare the chunks behind it — the ping/pong arena overlap, with
 * per-lane scratch. Bounded buffers throughout: chunk slots recycle,
 * and a chunk is only drained while the pending queues are below
 * their high-water marks, so sampling can never run unboundedly
 * ahead of replay.
 *
 * Determinism: every unit's value is a pure function of
 * (estimator, noise, seed, shot, point) and is written at its
 * global-shot-keyed row; the caller re-reduces the rows in global
 * shot order (PartialEstimate::recomputeSums — the same mechanism
 * that makes shard merges deterministic), so scheduling order never
 * reaches the result and the pipelined path is bit-identical to the
 * phase-sequential one at every thread count and batch width.
 */
void
FidelityEstimator::runPipelined(const NoiseModel &noise,
                                const ShardSpec &spec,
                                unsigned threads, std::size_t npts,
                                PartialEstimate &part,
                                ThreadPool &pool) const
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();
    const bool sweep = !spec.factors.empty();
    const std::size_t n = spec.shots();
    const std::size_t totalUnits = n * npts;
    const std::size_t batchN = replayBatchN;
    const std::size_t zBatchN = kShotChunk;
    double *full = part.full.data();
    double *reduced = part.reduced.data();

    // A unit moved out of its sampling chunk: the realization plus
    // the global-shot-keyed result row it must land in.
    struct Pending
    {
        FlatRealization real;
        std::size_t row;
    };

    struct Chunk
    {
        std::size_t firstShot = 0;
        std::size_t nShots = 0;
        std::vector<FlatRealization> reals; ///< nShots * npts units
        std::vector<std::uint32_t> general; ///< unit offsets
        std::vector<std::uint32_t> zonly;   ///< unit offsets
        std::size_t emptyCount = 0;
        double sec = 0.0;
    };

    // A lane owns everything one in-flight batch needs — its own
    // block arena, workspaces, and unit storage — so any two lanes
    // (and any sampling task) share no mutable state.
    struct Lane
    {
        ScratchLease scratch;
        std::vector<Pending> units;
        std::vector<const FlatRealization *> batch;
        std::vector<std::size_t> rows;
        std::size_t count = 0;
        bool zOnly = false;
        StageTimes times;
        double zSec = 0.0;
    };

    // Two replay lanes give the ping/pong arena double-buffering; a
    // couple more at high thread counts keep wide pools from
    // serializing on replay once sampling has run ahead.
    const std::size_t laneCount =
        std::max<std::size_t>(2, std::min<std::size_t>(threads / 2, 4));
    const std::size_t chunkSlots = threads + 2;
    // Drain backpressure: hold ready chunks once the pending queues
    // can already fill every lane, bounding queued realizations.
    const std::size_t genHigh = std::max<std::size_t>(2, laneCount) *
                                batchN;
    const std::size_t zHigh = 2 * zBatchN;

    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;
    std::vector<Chunk> chunks(chunkSlots);
    std::vector<std::size_t> freeChunks;
    std::deque<std::size_t> readyChunks;
    std::vector<Lane> lanes(laneCount);
    std::vector<std::size_t> freeLanes;
    std::deque<Pending> pendG, pendZ;
    std::size_t nextShot = spec.shotBegin;
    std::size_t resolved = 0; ///< units with their row written
    unsigned inflight = 0;    ///< unfinished pool tasks (all kinds)
    unsigned sampling = 0;    ///< unfinished sampling tasks
    PipelineStats st;
    st.pipelined = true;
    st.threads = threads;
    for (std::size_t i = 0; i < chunkSlots; ++i)
        freeChunks.push_back(i);
    for (std::size_t i = 0; i < laneCount; ++i)
        freeLanes.push_back(i);

    // --- pool task bodies -------------------------------------------
    auto sampleChunk = [&](std::size_t ci) {
        Chunk &c = chunks[ci];
        const auto ts = Clock::now();
        try {
            c.general.clear();
            c.zonly.clear();
            c.emptyCount = 0;
            if (c.reals.size() < c.nShots * npts)
                c.reals.resize(c.nShots * npts);
            for (std::size_t j = 0; j < c.nShots; ++j) {
                const std::size_t s = c.firstShot + j;
                CounterRng rng(spec.seed, s);
                if (sweep) {
                    const bool ok = noise.sampleFlatSweep(
                        exec, rng, spec.factors.data(), npts,
                        c.reals.data() + j * npts);
                    QRAMSIM_ASSERT(ok, "noise model '", noise.name(),
                                   "' has no sweep sampler");
                } else {
                    noise.sampleFlat(exec, rng, c.reals[j]);
                }
                const std::size_t rowBase =
                    (s - spec.shotBegin) * npts;
                for (std::size_t p = 0; p < npts; ++p) {
                    const std::size_t u = j * npts + p;
                    const FlatRealization &r = c.reals[u];
                    if (r.empty()) {
                        // Rows are disjoint across units, so the
                        // cached result is written directly from the
                        // sampling task.
                        full[rowBase + p] = emptyFull;
                        reduced[rowBase + p] = emptyReduced;
                        ++c.emptyCount;
                    } else if (r.zOnly) {
                        c.zonly.push_back(
                            static_cast<std::uint32_t>(u));
                    } else {
                        c.general.push_back(
                            static_cast<std::uint32_t>(u));
                    }
                }
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!error)
                error = std::current_exception();
        }
        c.sec = std::chrono::duration<double>(Clock::now() - ts)
                    .count();
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
        --sampling;
        readyChunks.push_back(ci);
        cv.notify_all();
    };

    auto runLane = [&](std::size_t li) {
        Lane &L = lanes[li];
        try {
            if (L.zOnly) {
                const auto ts = Clock::now();
                if (L.scratch->wss.empty())
                    L.scratch->wss.resize(1);
                for (std::size_t i = 0; i < L.count; ++i)
                    shotZOnly(L.units[i].real, L.scratch->wss[0],
                              L.scratch->accum, full[L.units[i].row],
                              reduced[L.units[i].row]);
                L.zSec += std::chrono::duration<double>(Clock::now() -
                                                        ts)
                              .count();
            } else {
                if (L.batch.size() < L.count) {
                    L.batch.resize(L.count);
                    L.rows.resize(L.count);
                }
                for (std::size_t i = 0; i < L.count; ++i) {
                    L.batch[i] = &L.units[i].real;
                    L.rows[i] = L.units[i].row;
                }
                evalGeneralBatch(L.batch.data(), L.rows.data(),
                                 L.count, *L.scratch, full, reduced,
                                 L.times);
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(mu);
            if (!error)
                error = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(mu);
        --inflight;
        resolved += L.count;
        freeLanes.push_back(li);
        cv.notify_all();
    };

    // --- coordinator ------------------------------------------------
    std::unique_lock<std::mutex> lock(mu);
    auto samplingDone = [&] {
        return nextShot >= spec.shotEnd && sampling == 0 &&
               readyChunks.empty();
    };
    auto dispatchLane = [&](std::deque<Pending> &pend,
                            std::size_t want, bool zOnly) {
        Lane &L = lanes[freeLanes.back()];
        const std::size_t li = freeLanes.back();
        freeLanes.pop_back();
        const std::size_t take = std::min(want, pend.size());
        if (L.units.size() < take)
            L.units.resize(take);
        for (std::size_t i = 0; i < take; ++i) {
            L.units[i] = std::move(pend.front());
            pend.pop_front();
        }
        L.count = take;
        L.zOnly = zOnly;
        ++inflight;
        if (!zOnly)
            ++st.batches;
        pool.post([&runLane, li] { runLane(li); });
    };

    while (resolved < totalUnits && !error) {
        bool progress = false;

        // Drain sampled chunks into the pending queues (coordinator
        // work, costs no task slot), recycling the chunk slot.
        while (!readyChunks.empty() && pendG.size() < genHigh &&
               pendZ.size() < zHigh) {
            const std::size_t ci = readyChunks.front();
            readyChunks.pop_front();
            Chunk &c = chunks[ci];
            st.sampleSec += c.sec;
            resolved += c.emptyCount;
            const std::size_t rowBase =
                (c.firstShot - spec.shotBegin) * npts;
            for (std::uint32_t u : c.general)
                pendG.push_back(
                    {std::move(c.reals[u]), rowBase + u});
            for (std::uint32_t u : c.zonly)
                pendZ.push_back(
                    {std::move(c.reals[u]), rowBase + u});
            freeChunks.push_back(ci);
            progress = true;
        }

        // Replay lanes first — the critical path — then Z batches,
        // then sampling with whatever task budget remains.
        while (!freeLanes.empty() && inflight < threads &&
               (pendG.size() >= batchN ||
                (samplingDone() && !pendG.empty()))) {
            dispatchLane(pendG, batchN, /*zOnly=*/false);
            progress = true;
        }
        while (!freeLanes.empty() && inflight < threads &&
               (pendZ.size() >= zBatchN ||
                (samplingDone() && !pendZ.empty()))) {
            dispatchLane(pendZ, zBatchN, /*zOnly=*/true);
            progress = true;
        }
        while (nextShot < spec.shotEnd && !freeChunks.empty() &&
               inflight < threads) {
            const std::size_t ci = freeChunks.back();
            freeChunks.pop_back();
            Chunk &c = chunks[ci];
            c.firstShot = nextShot;
            c.nShots =
                std::min(kShotChunk, spec.shotEnd - nextShot);
            nextShot += c.nShots;
            ++inflight;
            ++sampling;
            pool.post([&sampleChunk, ci] { sampleChunk(ci); });
            progress = true;
        }

        if (!progress)
            cv.wait(lock);
    }

    // Quiesce before touching any shared state (mandatory on the
    // error path: in-flight tasks still reference this frame).
    cv.wait(lock, [&] { return inflight == 0; });
    lock.unlock();
    if (error)
        std::rethrow_exception(error);

    for (const Lane &L : lanes) {
        st.gatherSec += L.times.gather;
        st.replaySec += L.times.replay;
        // The Z fast path never gathers or replays; its work is
        // accumulation.
        st.accumulateSec += L.times.accumulate + L.zSec;
    }
    st.wallSec =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::lock_guard<std::mutex> statsLock(poolMu);
    pstats = st;
}

/**
 * The adaptive estimator core. One pass over the spec's raw-draw
 * range in policy.batch-sized batches:
 *
 *   classify  draw d's realization(s) come from CounterRng(seed, d)
 *             — the same partition-invariant streams as a Counter
 *             replay shard, with sweep points sharing one draw's
 *             uniforms (common random numbers). Empty realizations
 *             are resolved analytically (their class probability and
 *             exact fidelity travel with the partial) and NEVER cost
 *             an evaluation.
 *   keep      a deterministic per-batch rule: with stopping disabled
 *             every non-empty draw is kept (keep decisions then
 *             depend only on the draw's class — the partition-
 *             invariant mode shard merges rely on); with a CI target,
 *             warm-up keeps everything until a stratum has kWarmup
 *             shots, after which batches are rationed Neyman-style —
 *             stratum s of point j gets a share proportional to
 *             p_s * sigma_s, floored at kMinKeep so no live stratum
 *             starves.
 *   evaluate  kept realizations run through the same evalShots core
 *             as replay mode, chunked across the worker pool when the
 *             spec is threaded; rows are accumulated in draw order
 *             after the chunks drain, so results are thread-count
 *             independent.
 *   stop      at each batch boundary (only there — a stop signal
 *             drains the batch's in-flight chunks first) a point
 *             whose CI half-width z * sqrt(sum_s p_s^2 se_s^2)
 *             reaches the target stops keeping and evaluating; the
 *             remaining budget flows to the live points (pooled
 *             rollover). The run ends when every point converged,
 *             the draw range is exhausted, or the pooled kept-shot
 *             budget (maxShots * numPoints) is spent.
 */
PartialEstimate
FidelityEstimator::runShardAdaptive(const NoiseModel &noise,
                                    const ShardSpec &spec) const
{
    QRAMSIM_ASSERT(spec.shotBegin <= spec.shotEnd &&
                   spec.shotEnd <= spec.totalShots,
                   "malformed shard shot range");
    QRAMSIM_ASSERT(spec.stream == ShotStream::Counter,
                   "adaptive estimation requires the counter stream "
                   "(keep decisions must not disturb a shared "
                   "Mersenne draw sequence)");
    const std::size_t npts =
        spec.factors.empty() ? 1 : spec.factors.size();
    if (spec.factors.empty())
        noise.prepare(exec);
    else
        noise.prepareSweep(exec, spec.factors.data(), npts);

    static const double kUnitFactor = 1.0;
    const double *facs =
        spec.factors.empty() ? &kUnitFactor : spec.factors.data();
    std::vector<double> pE(npts), pZ(npts), pG(npts);
    QRAMSIM_ASSERT(noise.classProbabilities(exec, facs, npts,
                                            pE.data(), pZ.data()),
                   "noise model '", noise.name(),
                   "' has no closed-form class probabilities "
                   "(required by EstimateMode::Adaptive)");
    for (std::size_t j = 0; j < npts; ++j)
        pG[j] = std::max(0.0, 1.0 - pE[j] - pZ[j]);

    PartialEstimate part;
    part.shotBegin = spec.shotBegin;
    part.shotEnd = spec.shotEnd;
    part.totalShots = spec.totalShots;
    part.seed = spec.seed;
    part.stream = spec.stream;
    part.factors = spec.factors;
    part.numPoints = npts;
    part.adaptive = true;
    part.probEmpty = pE;
    part.probZOnly = pZ;
    part.emptyFullShot = emptyFull;
    part.emptyReducedShot = emptyReduced;

    const AdaptivePolicy &pol = spec.policy;
    const bool stopping = pol.targetHalfWidth > 0.0;
    const double target = pol.targetHalfWidth;
    const double zq = stats::normalZ(pol.confidence);
    const std::size_t batchN = std::max<std::size_t>(1, pol.batch);
    const unsigned threads = spec.resolvedThreads();
    const auto wallBegin = std::chrono::steady_clock::now();

    constexpr std::size_t kWarmup = 32;
    constexpr std::size_t kMinKeep = 8;
    constexpr std::size_t kAll =
        std::numeric_limits<std::size_t>::max();

    // Per-point per-stratum running sums of the full fidelity (the
    // stopping rule and the Neyman weights watch the headline
    // metric; finalize() recomputes both metrics from the rows).
    struct Strat
    {
        std::size_t n = 0;
        double sF = 0.0, sF2 = 0.0;
    };
    std::vector<Strat> zs(npts), gs(npts);
    std::vector<char> converged(npts, 0);
    std::size_t liveCount = npts;
    for (std::size_t j = 0; j < npts; ++j) {
        if (pZ[j] + pG[j] <= 0.0) {
            // Every draw is empty at this point: the analytic term IS
            // the answer, with zero variance and zero shots.
            converged[j] = 1;
            --liveCount;
        }
    }
    const std::size_t keptCap = stopping ? pol.maxShots * npts : kAll;
    std::size_t keptTotal = 0;

    std::vector<FlatRealization> reals(npts);
    std::vector<FlatRealization> keptReals;
    struct Meta
    {
        std::size_t draw, point;
        std::uint8_t stratum;
    };
    std::vector<Meta> keptMeta;
    std::vector<double> fvals, rvals;
    std::vector<ScratchLease> scratches(std::max(1u, threads));
    std::vector<StageTimes> times(scratches.size());
    using Clock = std::chrono::steady_clock;
    std::vector<std::size_t> quotaZ(npts), quotaG(npts);
    std::vector<std::size_t> usedZ(npts), usedG(npts);

    std::size_t draw = spec.shotBegin;
    while (draw < spec.shotEnd && liveCount > 0 &&
           keptTotal < keptCap) {
        const std::size_t batchEnd =
            std::min(spec.shotEnd, draw + batchN);

        for (std::size_t j = 0; j < npts; ++j) {
            if (converged[j]) {
                quotaZ[j] = quotaG[j] = 0;
                continue;
            }
            if (!stopping) {
                quotaZ[j] = quotaG[j] = kAll;
                continue;
            }
            const bool zLive = pZ[j] > 0.0;
            const bool gLive = pG[j] > 0.0;
            if ((zLive && zs[j].n < kWarmup) ||
                (gLive && gs[j].n < kWarmup)) {
                quotaZ[j] = quotaG[j] = kAll;
                continue;
            }
            const double sigZ =
                zLive ? std::sqrt(stats::varianceFromSums(
                            zs[j].sF, zs[j].sF2, zs[j].n))
                      : 0.0;
            const double sigG =
                gLive ? std::sqrt(stats::varianceFromSums(
                            gs[j].sF, gs[j].sF2, gs[j].n))
                      : 0.0;
            const double wZ = pZ[j] * sigZ;
            const double wG = pG[j] * sigG;
            const double wSum = wZ + wG;
            const double total =
                static_cast<double>(zs[j].n + gs[j].n) +
                static_cast<double>(batchEnd - draw) *
                    (pZ[j] + pG[j]);
            auto quota = [&](bool live, double w,
                             std::size_t have) -> std::size_t {
                if (!live)
                    return 0;
                if (wSum <= 0.0)
                    return kMinKeep;
                const double want = std::ceil(
                    total * (w / wSum) - static_cast<double>(have));
                return want <= static_cast<double>(kMinKeep)
                           ? kMinKeep
                           : static_cast<std::size_t>(want);
            };
            quotaZ[j] = quota(zLive, wZ, zs[j].n);
            quotaG[j] = quota(gLive, wG, gs[j].n);
        }
        std::fill(usedZ.begin(), usedZ.end(), 0);
        std::fill(usedG.begin(), usedG.end(), 0);

        // Sample and keep, first-come in draw order (deterministic).
        const auto ts = Clock::now();
        keptReals.clear();
        keptMeta.clear();
        for (; draw < batchEnd; ++draw) {
            CounterRng rng(spec.seed, draw);
            if (spec.factors.empty()) {
                noise.sampleFlat(exec, rng, reals[0]);
            } else {
                const bool ok = noise.sampleFlatSweep(
                    exec, rng, spec.factors.data(), npts,
                    reals.data());
                QRAMSIM_ASSERT(ok, "noise model '", noise.name(),
                               "' has no sweep sampler");
            }
            for (std::size_t j = 0; j < npts; ++j) {
                if (converged[j])
                    continue;
                FlatRealization &r = reals[j];
                if (r.empty())
                    continue; // folded in analytically
                const std::uint8_t stratum = r.zOnly ? 0 : 1;
                std::size_t &used =
                    stratum == 0 ? usedZ[j] : usedG[j];
                if (used >= (stratum == 0 ? quotaZ[j] : quotaG[j]))
                    continue;
                ++used;
                keptMeta.push_back({draw, j, stratum});
                keptReals.push_back(std::move(r));
            }
        }

        times[0].sample +=
            std::chrono::duration<double>(Clock::now() - ts).count();
        const std::size_t kn = keptReals.size();
        fvals.assign(kn, 0.0);
        rvals.assign(kn, 0.0);
        if (kn > 0) {
            if (threads <= 1 || kn == 1) {
                evalShots(keptReals.data(), kn, *scratches[0],
                          fvals.data(), rvals.data(), times[0]);
            } else {
                // Contiguous chunks at disjoint result indices; the
                // stopping decision below runs only after wait(), so
                // a stop drains the batch's in-flight chunks.
                TaskGroup group(poolFor(spec, threads));
                const std::size_t chunk =
                    (kn + threads - 1) / threads;
                for (unsigned t = 0; t < threads; ++t) {
                    const std::size_t b0 = std::size_t(t) * chunk;
                    const std::size_t b1 = std::min(kn, b0 + chunk);
                    if (b0 >= b1)
                        break;
                    EvalScratch &scr = *scratches[t];
                    StageTimes &tt = times[t];
                    group.run([this, &keptReals, &scr, &tt, &fvals,
                               &rvals, b0, b1] {
                        evalShots(keptReals.data() + b0, b1 - b0,
                                  scr, fvals.data() + b0,
                                  rvals.data() + b0, tt);
                    });
                }
                group.wait();
            }
        }

        // Accumulate rows in draw order — thread-count independent.
        for (std::size_t i = 0; i < kn; ++i) {
            const Meta &m = keptMeta[i];
            part.rowDraw.push_back(static_cast<double>(m.draw));
            part.rowPoint.push_back(static_cast<double>(m.point));
            part.rowStratum.push_back(
                static_cast<double>(m.stratum));
            part.full.push_back(fvals[i]);
            part.reduced.push_back(rvals[i]);
            Strat &st = m.stratum == 0 ? zs[m.point] : gs[m.point];
            st.n += 1;
            st.sF += fvals[i];
            st.sF2 += fvals[i] * fvals[i];
        }
        keptTotal += kn;

        if (!stopping)
            continue;
        for (std::size_t j = 0; j < npts; ++j) {
            if (converged[j])
                continue;
            const std::size_t nZ = zs[j].n, nG = gs[j].n;
            if (nZ + nG < pol.minShots)
                continue;
            // A stratum with non-negligible weight needs >= 2 shots
            // before its stderr is meaningful; below that weight the
            // worst-case unsampled bias is already a fraction of the
            // target.
            const double negligible = 0.25 * target;
            if (pZ[j] > negligible && nZ < 2)
                continue;
            if (pG[j] > negligible && nG < 2)
                continue;
            const double seZ =
                stats::stderrFromSums(zs[j].sF, zs[j].sF2, nZ);
            const double seG =
                stats::stderrFromSums(gs[j].sF, gs[j].sF2, nG);
            const double se =
                std::sqrt(pZ[j] * pZ[j] * seZ * seZ +
                          pG[j] * pG[j] * seG * seG);
            if (zq * se <= target) {
                converged[j] = 1;
                --liveCount;
            }
        }
    }
    part.drawsUsed = draw - spec.shotBegin;
    part.recomputeSums();
    publishStats(threads, wallBegin, times);
    return part;
}

void
FidelityEstimator::publishStats(
    unsigned threads, std::chrono::steady_clock::time_point wallBegin,
    const std::vector<StageTimes> &times) const
{
    StageTimes sum;
    for (const StageTimes &t : times)
        sum.add(t);
    PipelineStats st;
    st.pipelined = false;
    st.threads = threads;
    st.wallSec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wallBegin)
                     .count();
    st.sampleSec = sum.sample;
    st.gatherSec = sum.gather;
    st.replaySec = sum.replay;
    st.accumulateSec = sum.accumulate;
    std::lock_guard<std::mutex> lock(poolMu);
    pstats = st;
}

PartialEstimate
FidelityEstimator::runShardImpl(const NoiseModel &noise,
                                const ShardSpec &spec,
                                bool keepRows) const
{
    if (spec.mode == EstimateMode::Adaptive)
        return runShardAdaptive(noise, spec);
    QRAMSIM_ASSERT(spec.shotBegin <= spec.shotEnd &&
                   spec.shotEnd <= spec.totalShots,
                   "malformed shard shot range");
    const std::size_t npts =
        spec.factors.empty() ? 1 : spec.factors.size();
    if (spec.factors.empty())
        noise.prepare(exec);
    else
        noise.prepareSweep(exec, spec.factors.data(), npts);

    PartialEstimate part;
    part.shotBegin = spec.shotBegin;
    part.shotEnd = spec.shotEnd;
    part.totalShots = spec.totalShots;
    part.seed = spec.seed;
    part.stream = spec.stream;
    part.factors = spec.factors;
    part.numPoints = npts;
    const std::size_t n = spec.shots();

    const unsigned threads = spec.resolvedThreads();
    const auto wallBegin = std::chrono::steady_clock::now();

    // Summary-only mode (estimate()/estimateSweep() single-threaded):
    // values are reduced chunk by chunk in shot order — identical
    // arithmetic — without materializing O(shots) rows. The threaded
    // mode always keeps rows; it needs them for the deterministic
    // shot-order reduction anyway.
    const bool summaryOnly = !keepRows && threads <= 1;
    if (!summaryOnly) {
        part.full.assign(n * npts, 0.0);
        part.reduced.assign(n * npts, 0.0);
    }
    std::vector<double> aF(npts, 0.0), aF2(npts, 0.0),
        aR(npts, 0.0), aR2(npts, 0.0);

    // Rows are indexed by GLOBAL shot: the value of (shot s, point j)
    // lives at [(s - shotBegin)*npts + j]. All loops below run over
    // global shot indices so per-shot draws are partition-invariant.
    auto rowsAt = [&](std::size_t globalShot) {
        return (globalShot - spec.shotBegin) * npts;
    };

    // Stage times, one slot per phase-sequential task.
    using Clock = std::chrono::steady_clock;
    std::vector<StageTimes> times(std::max(1u, threads));

    // The per-chunk evaluation bodies (plain estimate vs sweep),
    // shared by every stream/thread dispatch below. Each evaluates
    // global shots [begin, end) using makeRng(s) for shot s's draws.
    auto plainRange = [&](auto makeRng, std::size_t begin,
                          std::size_t end, StageTimes &tt) {
        std::vector<FlatRealization> reals(std::min<std::size_t>(
            std::max<std::size_t>(1, end - begin), kShotChunk));
        ScratchLease scratch;
        std::vector<double> fbuf, rbuf;
        if (summaryOnly) {
            fbuf.resize(reals.size());
            rbuf.resize(reals.size());
        }
        for (std::size_t base = begin; base < end;
             base += kShotChunk) {
            const std::size_t nThis = std::min(kShotChunk, end - base);
            const auto ts = Clock::now();
            for (std::size_t j = 0; j < nThis; ++j) {
                auto &&rng = makeRng(base + j);
                noise.sampleFlat(exec, rng, reals[j]);
            }
            tt.sample +=
                std::chrono::duration<double>(Clock::now() - ts).count();
            double *fs = summaryOnly ? fbuf.data()
                                     : part.full.data() + rowsAt(base);
            double *rs = summaryOnly
                             ? rbuf.data()
                             : part.reduced.data() + rowsAt(base);
            evalShots(reals.data(), nThis, *scratch, fs, rs, tt);
            if (summaryOnly) {
                for (std::size_t j = 0; j < nThis; ++j) {
                    aF[0] += fs[j];
                    aF2[0] += fs[j] * fs[j];
                    aR[0] += rs[j];
                    aR2[0] += rs[j] * rs[j];
                }
            }
        }
    };
    auto sweepRange = [&](auto makeRng, std::size_t begin,
                          std::size_t end, StageTimes &tt) {
        std::vector<FlatRealization> reals(npts);
        ScratchLease scratch;
        std::vector<double> fbuf, rbuf;
        if (summaryOnly) {
            fbuf.resize(npts);
            rbuf.resize(npts);
        }
        for (std::size_t s = begin; s < end; ++s) {
            const auto ts = Clock::now();
            auto &&rng = makeRng(s);
            const bool ok = noise.sampleFlatSweep(
                exec, rng, spec.factors.data(), npts, reals.data());
            QRAMSIM_ASSERT(ok, "noise model '", noise.name(),
                           "' has no sweep sampler");
            tt.sample +=
                std::chrono::duration<double>(Clock::now() - ts).count();
            // One shot's sweep points replay as one ensemble batch.
            double *fs = summaryOnly ? fbuf.data()
                                     : part.full.data() + rowsAt(s);
            double *rs = summaryOnly ? rbuf.data()
                                     : part.reduced.data() + rowsAt(s);
            evalShots(reals.data(), npts, *scratch, fs, rs, tt);
            if (summaryOnly) {
                for (std::size_t j = 0; j < npts; ++j) {
                    aF[j] += fs[j];
                    aF2[j] += fs[j] * fs[j];
                    aR[j] += rs[j];
                    aR2[j] += rs[j] * rs[j];
                }
            }
        }
    };

    // Stream / thread dispatch, shared by both bodies.
    auto dispatch = [&](auto &&range) {
        if (spec.stream == ShotStream::Sequential) {
            // The sequential stream draws shots [0, shotEnd) in order
            // from one Rng(seed); a shard not starting at 0
            // fast-forwards by sampling-and-discarding the earlier
            // shots. Exact — every sampler consumes a fixed number of
            // uniforms per shot, and sampleFlat consumes the
            // identical draw sequence as sampleFlatSweep, so it
            // serves as the cheaper skipper for sweep shards too.
            const auto ts = Clock::now();
            Rng rng(spec.seed);
            FlatRealization skip;
            for (std::size_t s = 0; s < spec.shotBegin; ++s)
                noise.sampleFlat(exec, rng, skip);
            times[0].sample +=
                std::chrono::duration<double>(Clock::now() - ts).count();
            range([&](std::size_t) -> Rng & { return rng; },
                  spec.shotBegin, spec.shotEnd, times[0]);
        } else if (threads <= 1) {
            range([&](std::size_t s) {
                      return CounterRng(spec.seed, s);
                  },
                  spec.shotBegin, spec.shotEnd, times[0]);
        } else {
            // In-process shards: each pool task evaluates a
            // contiguous sub-range through the same counter streams.
            // The persistent pool replaces the former per-call
            // std::thread spawn/join, and TaskGroup::wait propagates
            // the first worker exception instead of terminating.
            TaskGroup group(poolFor(spec, threads));
            const std::size_t chunk = (n + threads - 1) / threads;
            for (unsigned t = 0; t < threads; ++t) {
                const std::size_t begin =
                    spec.shotBegin + std::size_t(t) * chunk;
                const std::size_t end =
                    std::min(begin + chunk, spec.shotEnd);
                if (begin >= end)
                    break;
                StageTimes &tt = times[t];
                group.run([&range, &spec, &tt, begin, end] {
                    range([&spec](std::size_t s) {
                              return CounterRng(spec.seed, s);
                          },
                          begin, end, tt);
                });
            }
            group.wait();
        }
    };

    // The pipelined executor takes over counter-stream multi-threaded
    // runs (unless setPipeline(false) / QRAMSIM_PIPELINE=0 pins the
    // phase-sequential A/B baseline); out-of-order sampling needs the
    // per-shot counter streams, so sequential Mersenne runs always
    // take the non-pipelined dispatch.
    const bool usePipeline = pipelineOn &&
                             spec.stream == ShotStream::Counter &&
                             threads >= 2 && n > 0;
    if (usePipeline)
        runPipelined(noise, spec, threads, npts, part,
                     poolFor(spec, threads));
    else if (spec.factors.empty())
        dispatch(plainRange);
    else
        dispatch(sweepRange);

    // The pipelined executor publishes its own stage breakdown.
    if (!usePipeline)
        publishStats(threads, wallBegin, times);

    if (summaryOnly) {
        part.sumF = std::move(aF);
        part.sumF2 = std::move(aF2);
        part.sumR = std::move(aR);
        part.sumR2 = std::move(aR2);
    } else {
        part.recomputeSums();
    }
    return part;
}

FidelityResult
FidelityEstimator::estimate(const NoiseModel &noise, std::size_t shots,
                            std::uint64_t seed, unsigned threads) const
{
    threads = resolveThreads(threads);

    // One full-range shard through the sharding layer. The sequential
    // mode keeps the one-Rng(seed) stream (bit-identical to the seed
    // estimator); the threaded mode is the counter-stream shard split
    // across in-process workers, with per-shot rows reduced in shot
    // order — both exactly as before the sharding refactor.
    ShardSpec spec;
    spec.shotEnd = spec.totalShots = shots;
    spec.seed = seed;
    spec.threads = threads;
    spec.stream = (threads <= 1 || shots <= 1)
                      ? ShotStream::Sequential
                      : ShotStream::Counter;
    if (estMode == EstimateMode::Adaptive) {
        // Adaptive runs treat `shots` as the raw-draw budget and
        // need the partition-invariant counter streams.
        spec.mode = EstimateMode::Adaptive;
        spec.policy = apolicy;
        spec.stream = ShotStream::Counter;
    }
    return runShardImpl(noise, spec, /*keepRows=*/false)
        .finalize()
        .front();
}

std::vector<FidelityResult>
FidelityEstimator::estimateSweep(const NoiseModel &noise,
                                 const std::vector<double> &factors,
                                 std::size_t shots, std::uint64_t seed,
                                 unsigned threads) const
{
    const std::size_t npts = factors.size();
    if (npts == 0 || shots == 0)
        return std::vector<FidelityResult>(npts);
    threads = resolveThreads(threads);

    ShardSpec spec;
    spec.shotEnd = spec.totalShots = shots;
    spec.seed = seed;
    spec.threads = threads;
    spec.factors = factors;
    spec.stream = (threads <= 1 || shots <= 1)
                      ? ShotStream::Sequential
                      : ShotStream::Counter;
    if (estMode == EstimateMode::Adaptive) {
        spec.mode = EstimateMode::Adaptive;
        spec.policy = apolicy;
        spec.stream = ShotStream::Counter;
    }
    return runShardImpl(noise, spec, /*keepRows=*/false).finalize();
}

AdaptiveReport
FidelityEstimator::adaptiveRun(const NoiseModel &noise,
                               const std::vector<double> &factors,
                               std::uint64_t seed,
                               unsigned threads) const
{
    const std::size_t npts = factors.empty() ? 1 : factors.size();
    ShardSpec spec;
    spec.seed = seed;
    spec.threads = threads;
    spec.stream = ShotStream::Counter;
    spec.factors = factors;
    spec.mode = EstimateMode::Adaptive;
    spec.policy = apolicy;

    // Raw-draw budget: the explicit policy.maxDraws, else sized so
    // the point with the smallest non-empty class probability can
    // still fill its kept-shot budget (with 2x headroom), capped to
    // keep pE -> 1 workloads from demanding astronomically many
    // draws — the stopping rule usually ends the run far earlier.
    std::size_t budget = apolicy.maxDraws;
    if (budget == 0) {
        if (factors.empty())
            noise.prepare(exec);
        else
            noise.prepareSweep(exec, factors.data(), npts);
        static const double kUnitFactor = 1.0;
        const double *facs =
            factors.empty() ? &kUnitFactor : factors.data();
        std::vector<double> pEv(npts), pZv(npts);
        double minRate = 1.0;
        if (noise.classProbabilities(exec, facs, npts, pEv.data(),
                                     pZv.data())) {
            for (std::size_t j = 0; j < npts; ++j) {
                const double rate = std::max(0.0, 1.0 - pEv[j]);
                if (rate > 0.0)
                    minRate = std::min(minRate, rate);
            }
        }
        const double perPoint =
            2.0 * static_cast<double>(apolicy.maxShots) /
            std::max(minRate, 1e-9);
        const double cap = static_cast<double>(
            std::max<std::size_t>(std::size_t(1) << 20,
                                  apolicy.maxShots * 1024));
        budget = static_cast<std::size_t>(
            std::max(1.0, std::min(perPoint, cap)));
    }
    spec.shotEnd = spec.totalShots = budget;

    const PartialEstimate part = runShardAdaptive(noise, spec);
    AdaptiveReport rep;
    rep.results = part.finalize();
    rep.emptyProb = part.probEmpty;
    rep.zOnlyProb = part.probZOnly;
    rep.generalProb.resize(npts);
    rep.zOnlyShots.resize(npts);
    rep.generalShots.resize(npts);
    rep.converged.assign(npts, 0);
    const double zq = stats::normalZ(apolicy.confidence);
    for (std::size_t j = 0; j < npts; ++j) {
        rep.generalProb[j] = std::max(
            0.0, 1.0 - part.probEmpty[j] - part.probZOnly[j]);
        rep.zOnlyShots[j] =
            static_cast<std::size_t>(part.zCount[j]);
        rep.generalShots[j] =
            static_cast<std::size_t>(part.gCount[j]);
        if (apolicy.targetHalfWidth > 0.0 &&
            zq * rep.results[j].fullStderr <= apolicy.targetHalfWidth)
            rep.converged[j] = 1;
    }
    rep.rawDraws = part.drawsUsed;
    rep.keptShots = part.rowDraw.size();
    return rep;
}

AdaptiveReport
FidelityEstimator::estimateAdaptive(const NoiseModel &noise,
                                    std::uint64_t seed,
                                    unsigned threads) const
{
    return adaptiveRun(noise, {}, seed, threads);
}

AdaptiveReport
FidelityEstimator::estimateSweepAdaptive(
    const NoiseModel &noise, const std::vector<double> &factors,
    std::uint64_t seed, unsigned threads) const
{
    return adaptiveRun(noise, factors, seed, threads);
}

} // namespace qramsim
