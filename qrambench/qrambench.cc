/**
 * @file
 * qrambench: the in-process half of the qramsim benchmark
 * (qrambench/run.py is the other half and the entry point).
 *
 *   qrambench stamp
 *   qrambench setup   --reps K                   [workload flags]
 *   qrambench replay  --seconds S --nthreads T [--trace 0|1] --out FILE
 *                                                [workload flags]
 *   qrambench inproc  --out FILE                 [workload flags]
 *   qrambench verify  --partials F1,F2,... --sample K
 *                     [--result FILE]            [workload flags]
 *   qrambench probe   --dir DIR --nshards N      [workload flags]
 *
 * Workload flags are exactly `qramsim_shard run`'s (tools/workload.hh
 * parses them), so every input this helper builds is the one the
 * shipped CLIs build from the same flags. Every subcommand prints one
 * JSON object on stdout and exits 0, or explains on stderr and exits
 * 1 (a failed output check) or 2 (bad usage). The helper refuses to
 * run from anything but a Release build: timings of an unoptimized
 * build say nothing about the program.
 *
 * The independent output check lives in `verify`: a sample of a
 * run's shots is drawn again from the run's own per-shot streams,
 * replayed path by path through the per-gate reference interpreter
 * (FeynmanExecutor::runNoisyReference), and the full and reduced
 * overlaps are computed here from their definitions — never from a
 * stored copy of an earlier output.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/atomicfile.hh"
#include "common/json.hh"
#include "common/simd.hh"
#include "common/threadpool.hh"
#include "sim/broker.hh"
#include "sim/server.hh"
#include "tools/workload.hh"

using namespace qramsim;

namespace {

using Clock = std::chrono::steady_clock;

#ifndef QRAMBENCH_BUILD_TYPE
#define QRAMBENCH_BUILD_TYPE "unknown"
#endif
#ifndef QRAMBENCH_COMPILER
#define QRAMBENCH_COMPILER "unknown"
#endif

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seconds on CLOCK_MONOTONIC (steady_clock), comparable with
 *  Python's time.monotonic() in run.py, so spans of both halves share
 *  one time axis. */
double
monoNow()
{
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Exact decimal form of a double (what the CLIs parse back). */
std::string
fmt(double v)
{
    std::string s;
    json::appendDouble(s, v);
    return s;
}

[[noreturn]] void
die(int code, const std::string &msg)
{
    std::fprintf(stderr, "qrambench: %s\n", msg.c_str());
    std::exit(code);
}

// --- Spans -------------------------------------------------------------

/**
 * In-memory spans around this helper's calls into each layer: name,
 * start, end, parent, and the job/round/shard id they belong to.
 * Written out once, in the subcommand's JSON, when it finishes.
 */
class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}

    /** Record from now on, or stop recording. */
    void
    enable(bool on)
    {
        on_ = on;
    }

    /** Open a span; returns its index (or -1 when tracing is off). */
    int
    open(const char *name, long id, int parent = -1)
    {
        if (!on_)
            return -1;
        spans_.push_back({name, id, parent, monoNow(), 0.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void
    close(int idx)
    {
        if (idx >= 0)
            spans_[idx].end = monoNow();
    }

    void
    appendJson(std::string &s) const
    {
        s += "\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &sp = spans_[i];
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\": \"%s\", \"id\": %ld, "
                          "\"parent\": %d, \"start\": %.9f, "
                          "\"end\": %.9f}",
                          i ? ", " : "", sp.name, sp.id, sp.parent,
                          sp.start, sp.end);
            s += buf;
        }
        s += "]";
    }

  private:
    struct Span
    {
        const char *name;
        long id;
        int parent;
        double start, end;
    };
    bool on_;
    std::vector<Span> spans_;
};

// --- Output ------------------------------------------------------------

/** A flat JSON object built key by key (doubles round-trip). */
class Out
{
  public:
    Out() : s_("{") {}

    Out &
    num(const char *key, double v)
    {
        sep(key);
        json::appendDouble(s_, v);
        return *this;
    }

    Out &
    str(const char *key, const std::string &v)
    {
        sep(key);
        json::appendEscaped(s_, v);
        return *this;
    }

    Out &
    arr(const char *key, const std::vector<double> &v)
    {
        sep(key);
        json::appendDoubleArray(s_, v);
        return *this;
    }

    Out &
    raw(const std::string &fragment)
    {
        if (s_.size() > 1)
            s_ += ", ";
        s_ += fragment;
        return *this;
    }

    void
    print()
    {
        s_ += "}\n";
        std::fwrite(s_.data(), 1, s_.size(), stdout);
        std::fflush(stdout);
    }

  private:
    void
    sep(const char *key)
    {
        if (s_.size() > 1)
            s_ += ", ";
        json::appendEscaped(s_, key);
        s_ += ": ";
    }
    std::string s_;
};

// --- Arguments ---------------------------------------------------------

/** This helper's own flags; everything else is workload vocabulary. */
struct Args
{
    std::map<std::string, std::string> own;
    tool::RunOptions run;

    std::string
    get(const char *key, const char *dflt = "") const
    {
        auto it = own.find(key);
        return it == own.end() ? dflt : it->second;
    }

    unsigned long
    getU(const char *key, unsigned long dflt) const
    {
        auto it = own.find(key);
        if (it == own.end())
            return dflt;
        unsigned long v = 0;
        if (!env::parseUnsigned(it->second.c_str(), ~0ul, v))
            die(2, std::string("malformed ") + key);
        return v;
    }

    double
    getD(const char *key, double dflt) const
    {
        auto it = own.find(key);
        if (it == own.end())
            return dflt;
        double v = 0.0;
        if (!env::parseDouble(it->second.c_str(), v))
            die(2, std::string("malformed ") + key);
        return v;
    }
};

Args
parseArgs(int argc, char **argv)
{
    static const char *const kOwn[] = {"--reps",  "--seconds",
                                       "--trace", "--out",
                                       "--partials", "--sample",
                                       "--result", "--dir",
                                       "--nshards", "--nthreads"};
    Args a;
    std::vector<char *> rest;
    for (int i = 0; i < argc; ++i) {
        bool mine = false;
        for (const char *k : kOwn) {
            if (std::strcmp(argv[i], k) == 0) {
                if (i + 1 >= argc)
                    die(2, std::string(k) + " wants a value");
                a.own[k] = argv[++i];
                mine = true;
                break;
            }
        }
        if (!mine)
            rest.push_back(argv[i]);
    }
    if (!tool::parseRunFlags(static_cast<int>(rest.size()), rest.data(),
                             a.run))
        die(2, "bad workload flags");
    return a;
}

/** The workload's estimator with everything it needs alive. */
struct Setup
{
    QueryCircuit qc;
    std::unique_ptr<FidelityEstimator> est;
    std::unique_ptr<NoiseModel> noise;
    double buildSec = 0.0, initSec = 0.0;

    explicit Setup(const tool::Workload &w)
    {
        const auto t0 = Clock::now();
        qc = w.build();
        buildSec = secondsSince(t0);
        const auto t1 = Clock::now();
        est = std::make_unique<FidelityEstimator>(
            qc.circuit, qc.addressQubits, qc.busQubit,
            AddressSuperposition::uniform(w.addressWidth()));
        initSec = secondsSince(t1);
        noise = w.makeNoise();
    }
};

/** The full-range Counter-stream spec of a workload's run options. */
ShardSpec
fullSpec(const tool::RunOptions &opt, unsigned threads)
{
    SweepPlan plan = SweepPlan::partition(opt.shots, 1, opt.seed,
                                          opt.factors,
                                          ShotStream::Counter);
    ShardSpec spec = plan.shards.front();
    spec.threads = threads;
    return spec;
}

/** 0 <= F_full <= F_reduced <= 1 on every row and every point;
 *  returns the number of violations. */
std::size_t
boundViolations(const PartialEstimate &p)
{
    std::size_t bad = 0;
    auto check = [&](double f, double r) {
        if (!(f >= 0.0 && f <= r && r <= 1.0))
            ++bad;
    };
    for (std::size_t i = 0; i < p.full.size(); ++i)
        check(p.full[i], p.reduced[i]);
    if (p.shotBegin == 0 && p.shotEnd == p.totalShots)
        for (const FidelityResult &r : p.finalize())
            check(r.full, r.reduced);
    return bad;
}

/** Partial JSON with the reporting-only timing zeroed (the byte form
 *  that must agree between runs of the same work). */
std::string
timingFreeJson(PartialEstimate p)
{
    p.setupSeconds = p.computeSeconds = 0.0;
    return p.toJson();
}

// --- stamp -------------------------------------------------------------

int
cmdStamp()
{
    Out o;
    o.num("nproc", hardwareThreads())
        .str("simd", simd::tierName(simd::activeTier()))
        .str("compiler", QRAMBENCH_COMPILER)
        .str("build_type", QRAMBENCH_BUILD_TYPE);
    o.print();
    return 0;
}

// --- setup -------------------------------------------------------------

/** Median of K fresh set-ups: circuit build + estimator construction
 *  (schedule, compile, ideal propagation, checkpoints). */
int
cmdSetup(const Args &a)
{
    const unsigned long reps = std::max(1ul, a.getU("--reps", 9));
    std::vector<double> total, build, init;
    for (unsigned long r = 0; r < reps; ++r) {
        Setup s(a.run.w);
        build.push_back(s.buildSec);
        init.push_back(s.initSec);
        total.push_back(s.buildSec + s.initSec);
    }
    Out o;
    o.num("setup_s", median(total))
        .num("build_ms", 1e3 * median(build))
        .num("init_ms", 1e3 * median(init))
        .arr("samples", total);
    o.print();
    return 0;
}

// --- replay ------------------------------------------------------------

/**
 * The depol_replay timed loop: whole rounds, each one fixed-budget
 * Replay estimate of the Counter stream at 1 thread and at --nthreads
 * threads on one warm estimator (round r uses seed + r). The two
 * partials of a round must be byte-identical and within the fidelity
 * bounds. The last round's multi-thread partial goes to --out for
 * `verify`. With --trace 1 only the odd rounds record spans, so the
 * traced and untraced rounds interleave and their medians can be
 * compared without the host's drift between them.
 */
int
cmdReplay(const Args &a)
{
    const double seconds = a.getD("--seconds", 10.0);
    const bool trace = a.getU("--trace", 0) != 0;
    const std::string outPath = a.get("--out");
    if (outPath.empty())
        die(2, "replay wants --out");
    const unsigned nproc = static_cast<unsigned>(
        a.getU("--nthreads", hardwareThreads()));
    Spans spans(trace);

    Setup s(a.run.w);
    // Warm the estimator: the lazily grown pool and the noise tables
    // are built once here, not inside the first timed round.
    {
        tool::RunOptions warm = a.run;
        warm.seed = a.run.seed ^ 0x5eedull;
        warm.shots = std::min<std::size_t>(a.run.shots, 512);
        s.est->runShard(*s.noise, fullSpec(warm, nproc));
        s.est->runShard(*s.noise, fullSpec(warm, 1));
    }

    // Peak RSS is read after a fixed amount of work: the warm-up plus
    // kRssRounds rounds, whatever --seconds says. The high-water mark
    // of a process that keeps estimating climbs for its first dozen or
    // so rounds and then levels off (see README); the reading is taken
    // on that plateau, so it includes the growth, and at a fixed round
    // count, since the round count of a timed run depends on the
    // host's speed.
    constexpr std::size_t kRssRounds = 18;
    double rssMb = 0.0;
    std::vector<double> t1, tn, traced;
    std::size_t mismatches = 0, violations = 0, rounds = 0;
    PartialEstimate last;
    std::vector<double> sampleSec, gatherSec, replaySec, accumSec,
        occupancy;
    const auto start = Clock::now();
    while (rounds < kRssRounds || secondsSince(start) < seconds) {
        tool::RunOptions opt = a.run;
        opt.seed = a.run.seed + rounds;
        spans.enable(trace && rounds % 2 == 1);
        traced.push_back(trace && rounds % 2 == 1 ? 1.0 : 0.0);
        const int rs = spans.open("round", static_cast<long>(rounds));

        int sp = spans.open("estimate.1t", static_cast<long>(rounds), rs);
        auto t0 = Clock::now();
        PartialEstimate p1 = s.est->runShard(*s.noise, fullSpec(opt, 1));
        t1.push_back(secondsSince(t0));
        spans.close(sp);

        sp = spans.open("estimate.nt", static_cast<long>(rounds), rs);
        t0 = Clock::now();
        PartialEstimate pn =
            s.est->runShard(*s.noise, fullSpec(opt, nproc));
        tn.push_back(secondsSince(t0));
        spans.close(sp);
        const PipelineStats ps = s.est->lastPipelineStats();
        sampleSec.push_back(ps.sampleSec);
        gatherSec.push_back(ps.gatherSec);
        replaySec.push_back(ps.replaySec);
        accumSec.push_back(ps.accumulateSec);
        occupancy.push_back(ps.occupancy());

        sp = spans.open("check", static_cast<long>(rounds), rs);
        if (timingFreeJson(p1) != timingFreeJson(pn))
            ++mismatches;
        violations += boundViolations(p1) + boundViolations(pn);
        spans.close(sp);
        spans.close(rs);
        last = std::move(pn);
        if (++rounds == kRssRounds) {
            struct rusage ru;
            ::getrusage(RUSAGE_SELF, &ru);
            rssMb = ru.ru_maxrss / 1024.0;
        }
    }
    const double wall = secondsSince(start);
    last.workload = a.run.w.fingerprint(a.run.shots);
    std::string err;
    if (!atomicWriteFile(outPath, last.toJson(), &err))
        die(1, err);

    Out o;
    o.num("rounds", static_cast<double>(rounds))
        .num("shots", static_cast<double>(a.run.shots))
        .num("threads", nproc)
        .num("wall_s", wall)
        .num("rss_mb", rssMb)
        .num("last_seed", static_cast<double>(a.run.seed + rounds - 1))
        .num("mismatches", static_cast<double>(mismatches))
        .num("bound_violations", static_cast<double>(violations))
        .num("setup_build_s", s.buildSec)
        .num("setup_init_s", s.initSec)
        .arr("t1", t1)
        .arr("tn", tn)
        .arr("traced", traced)
        .num("stage_sample_s", median(sampleSec))
        .num("stage_gather_s", median(gatherSec))
        .num("stage_replay_s", median(replaySec))
        .num("stage_accumulate_s", median(accumSec))
        .num("occupancy", median(occupancy));
    std::string sj;
    spans.appendJson(sj);
    o.raw(sj);
    o.print();
    return mismatches || violations ? 1 : 0;
}

// --- inproc ------------------------------------------------------------

/** One full-range Counter-stream run in this process, written as the
 *  merged result JSON a drive would write for the same workload. */
int
cmdInproc(const Args &a)
{
    const std::string outPath = a.get("--out");
    if (outPath.empty())
        die(2, "inproc wants --out");
    Setup s(a.run.w);
    const auto t0 = Clock::now();
    PartialEstimate p = s.est->runShard(
        *s.noise, fullSpec(a.run, resolveThreads(a.run.threads)));
    const double sec = secondsSince(t0);
    p.workload = a.run.w.fingerprint(a.run.shots);
    std::string err;
    if (!atomicWriteFile(outPath, p.resultJson(), &err))
        die(1, err);
    const std::size_t violations = boundViolations(p);
    Out o;
    o.num("seconds", sec).num("violations",
                              static_cast<double>(violations));
    o.print();
    return violations ? 1 : 0;
}

// --- verify ------------------------------------------------------------

/**
 * The reference evaluation: every input path replayed through the
 * per-gate interpreter, overlaps computed from their definitions.
 *
 *   full    = |<psi_ideal|psi_noisy>|^2 — a noisy path k contributes
 *             conj(a_j) a_k phi_k when its whole output equals ideal
 *             path j's output;
 *   reduced = <chi| Tr_anc rho |chi>, chi = sum_j a_j |v_j> on the
 *             address+bus register — noisy paths are grouped by their
 *             ancilla bits, and within a group a path whose visible
 *             bits equal v_j contributes conj(a_j) a_k phi_k.
 */
class Reference
{
  public:
    Reference(const QueryCircuit &qc, const FeynmanExecutor &exec,
              const AddressSuperposition &in)
        : exec_(exec), amps_(in.amps)
    {
        const std::size_t nq = qc.circuit.numQubits();
        visible_.assign(nq, false);
        for (Qubit q : qc.addressQubits)
            visible_[q] = true;
        visible_[qc.busQubit] = true;
        for (std::size_t k = 0; k < in.size(); ++k) {
            PathState p(nq);
            for (std::size_t b = 0; b < qc.addressQubits.size(); ++b)
                if ((in.addresses[k] >> b) & 1)
                    p.bits.set(qc.addressQubits[b], true);
            inputs_.push_back(p);
            ideals_.push_back(exec.runIdealReference(p));
            owner_[visibleBits(ideals_.back().bits)] = k;
        }
        const auto &gatePos = exec.stream().gatePos;
        posGate_.assign(exec.stream().size() + 1, ~0u);
        for (std::size_t g = 0; g < gatePos.size(); ++g)
            if (gatePos[g] != ~0u)
                posGate_[gatePos[g] + 1] = static_cast<std::uint32_t>(g);
    }

    /** Gate-anchored flat events back onto the program's gates. */
    ErrorRealization
    unflatten(const FlatRealization &flat) const
    {
        ErrorRealization er;
        er.afterGate.resize(exec_.circuit().numGates());
        for (const FlatEvent &e : flat.events) {
            if (e.pos >= posGate_.size() || posGate_[e.pos] == ~0u)
                die(1, "event not anchored after a gate");
            er.afterGate[posGate_[e.pos]].push_back({e.qubit, e.pauli});
        }
        return er;
    }

    void
    fidelity(const FlatRealization &flat, double &full,
             double &reduced) const
    {
        const ErrorRealization er = unflatten(flat);
        std::complex<double> fullAmp{0.0, 0.0};
        std::map<std::string, std::complex<double>> groups;
        for (std::size_t k = 0; k < inputs_.size(); ++k) {
            const PathState out = exec_.runNoisyReference(inputs_[k], er);
            const auto it = owner_.find(visibleBits(out.bits));
            if (it == owner_.end())
                continue;
            const std::size_t j = it->second;
            const std::complex<double> c =
                std::conj(amps_[j] * ideals_[j].phase) * amps_[k] *
                out.phase;
            if (out.bits == ideals_[j].bits)
                fullAmp += c;
            groups[ancillaBits(out.bits)] += c;
        }
        full = std::norm(fullAmp);
        reduced = 0.0;
        for (const auto &[anc, amp] : groups)
            reduced += std::norm(amp);
    }

  private:
    std::string
    visibleBits(const BitVec &b) const
    {
        std::string s;
        for (std::size_t q = 0; q < visible_.size(); ++q)
            if (visible_[q])
                s += b.get(q) ? '1' : '0';
        return s;
    }

    std::string
    ancillaBits(const BitVec &b) const
    {
        std::string s;
        for (std::size_t q = 0; q < visible_.size(); ++q)
            if (!visible_[q])
                s += b.get(q) ? '1' : '0';
        return s;
    }

    const FeynmanExecutor &exec_;
    std::vector<std::complex<double>> amps_;
    std::vector<bool> visible_;
    std::vector<PathState> inputs_, ideals_;
    std::map<std::string, std::size_t> owner_;
    std::vector<std::uint32_t> posGate_;
};

/** Shot s's realization(s), drawn again from its Counter stream. */
void
redraw(const Setup &s, const tool::RunOptions &opt, std::size_t shot,
       std::vector<FlatRealization> &outs)
{
    CounterRng rng(opt.seed, shot);
    if (opt.factors.empty()) {
        outs.resize(1);
        s.noise->sampleFlat(s.est->executor(), rng, outs[0]);
    } else {
        outs.resize(opt.factors.size());
        if (!s.noise->sampleFlatSweep(s.est->executor(), rng,
                                      opt.factors.data(),
                                      opt.factors.size(), outs.data()))
            die(1, "noise model has no sweep sampler");
    }
}

std::vector<std::string>
splitList(const std::string &v)
{
    std::vector<std::string> out;
    std::size_t b = 0;
    while (b <= v.size()) {
        const std::size_t e = std::min(v.find(',', b), v.size());
        if (e > b)
            out.push_back(v.substr(b, e - b));
        b = e + 1;
    }
    return out;
}

int
cmdVerify(const Args &a)
{
    const tool::RunOptions &opt = a.run;
    if (opt.w.noise.rfind("gate-", 0) != 0 && opt.w.noise != "device")
        die(2, "verify re-anchors gate-channel events only");
    std::vector<PartialEstimate> parts;
    for (const std::string &path : splitList(a.get("--partials"))) {
        std::string text, err;
        PartialEstimate p;
        if (!tool::readFile(path, text) ||
            !PartialEstimate::fromJson(text, p, &err))
            die(1, "unreadable partial " + path + ": " + err);
        parts.push_back(std::move(p));
    }
    if (parts.empty())
        die(2, "verify wants --partials");
    PartialEstimate merged;
    std::string err;
    if (!mergePartials(parts, merged, &err))
        die(1, "partials do not tile the run: " + err);
    if (merged.seed != opt.seed || merged.totalShots != opt.shots ||
        merged.factors != opt.factors ||
        merged.stream != ShotStream::Counter)
        die(1, "partials belong to another run");
    std::size_t failures = boundViolations(merged);
    if (!a.get("--result").empty()) {
        std::string text;
        if (!tool::readFile(a.get("--result"), text))
            die(1, "unreadable result " + a.get("--result"));
        if (merged.workload.empty())
            merged.workload = opt.w.fingerprint(opt.shots);
        if (text != merged.resultJson()) {
            std::fprintf(stderr, "qrambench: result differs from the "
                                 "merge of its partials\n");
            ++failures;
        }
    }

    Setup s(opt.w);
    s.noise->prepare(s.est->executor());
    if (!opt.factors.empty())
        s.noise->prepareSweep(s.est->executor(), opt.factors.data(),
                              opt.factors.size());
    const Reference ref(s.qc, s.est->executor(),
                        AddressSuperposition::uniform(
                            opt.w.addressWidth()));
    const std::size_t npts = merged.numPoints;
    const std::size_t sample =
        std::min<std::size_t>(a.getU("--sample", 8), opt.shots);
    std::vector<FlatRealization> reals;
    std::size_t checked = 0, general = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < sample; ++i) {
        // Evenly spread shots, so each run checks the same share.
        const std::size_t shot = (2 * i + 1) * opt.shots / (2 * sample);
        redraw(s, opt, shot, reals);
        for (std::size_t j = 0; j < npts; ++j) {
            double f = 0.0, r = 0.0, rf = 0.0, rr = 0.0;
            s.est->shotFidelity(reals[j], f, r);
            ref.fidelity(reals[j], rf, rr);
            const std::size_t row = shot * npts + j;
            const double dev =
                std::max(std::fabs(f - rf), std::fabs(r - rr));
            worst = std::max(worst, dev);
            const bool ok = merged.full[row] == f &&
                            merged.reduced[row] == r && dev <= 1e-9;
            if (!ok) {
                std::fprintf(stderr,
                             "qrambench: shot %zu point %zu: run "
                             "(%.17g, %.17g) shotFidelity (%.17g, "
                             "%.17g) reference (%.17g, %.17g)\n",
                             shot, j, merged.full[row],
                             merged.reduced[row], f, r, rf, rr);
                ++failures;
            }
            general += !reals[j].empty() && !reals[j].zOnly;
            ++checked;
        }
    }
    Out o;
    o.num("checked", static_cast<double>(checked))
        .num("general", static_cast<double>(general))
        .num("failures", static_cast<double>(failures))
        .num("max_deviation", worst);
    o.print();
    return failures ? 1 : 0;
}

// --- probe -------------------------------------------------------------

/** Repeat @p fn (one call = @p unit operations) until >= 0.1 s have
 *  run, five times over, and return the median seconds per unit. */
template <typename Fn>
double
perUnit(Fn &&fn, double unit)
{
    std::vector<double> per;
    for (int rep = 0; rep < 5; ++rep) {
        std::size_t calls = 0;
        const auto t0 = Clock::now();
        double sec = 0.0;
        do {
            fn();
            ++calls;
            sec = secondsSince(t0);
        } while (sec < 0.1);
        per.push_back(sec / (static_cast<double>(calls) * unit));
    }
    return median(per);
}

/** Shot classes of a realization list. */
struct Classes
{
    std::vector<FlatRealization> empty, zonly, general;

    void
    add(const FlatRealization &r)
    {
        (r.empty() ? empty : r.zOnly ? zonly : general).push_back(r);
    }
};

/**
 * Per-shot shotFidelity cost over @p reals (1 thread). When the
 * workload's own draws hold fewer than kMinClass of a class, the
 * class is drawn from the same circuit under the gate channel that
 * produces it at the workload's rate (depolarizing for general,
 * phase-flip for Z-only), so the layer's figure stays a measurement;
 * the workload's exact class counts say whether it pays that cost.
 */
constexpr std::size_t kMinClass = 16;

std::vector<FlatRealization>
classFallback(const Setup &s, const tool::Workload &w, bool wantGeneral,
              std::uint64_t seed)
{
    tool::Workload alt = w;
    alt.noise = wantGeneral ? "gate-depol" : "gate-z";
    const auto noise = alt.makeNoise();
    noise->prepare(s.est->executor());
    std::vector<FlatRealization> out;
    FlatRealization r;
    for (std::uint64_t d = 0; out.size() < 256 && d < (1u << 20); ++d) {
        CounterRng rng(seed, d);
        noise->sampleFlat(s.est->executor(), rng, r);
        if (!r.empty() && r.zOnly != wantGeneral)
            out.push_back(r);
    }
    return out;
}

double
shotCost(const Setup &s, const std::vector<FlatRealization> &reals)
{
    if (reals.empty())
        return 0.0;
    // The results land in a volatile so the timed calls stay.
    volatile double sink = 0.0;
    return perUnit(
        [&] {
            for (const FlatRealization &r : reals) {
                double f = 0.0, red = 0.0;
                s.est->shotFidelity(r, f, red);
                sink = sink + f;
            }
        },
        static_cast<double>(reals.size()));
}

/** Shots per second of a full-range Counter run at @p threads. */
double
rateAt(const Setup &s, const tool::RunOptions &opt, unsigned threads,
       PartialEstimate *keep = nullptr)
{
    std::vector<double> rates;
    for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        PartialEstimate p = s.est->runShard(*s.noise, fullSpec(opt, threads));
        rates.push_back(static_cast<double>(opt.shots) / secondsSince(t0));
        if (keep)
            *keep = std::move(p);
    }
    return median(rates);
}

/** `qramsim_shard run` flags of the workload with another memory
 *  and shot seed (what a drive would forward). */
std::vector<std::string>
jobArgs(const tool::RunOptions &opt, std::uint64_t memSeed,
        std::uint64_t seed)
{
    std::vector<std::string> args = {
        "--arch", opt.w.arch, "--m", std::to_string(opt.w.m), "--k",
        std::to_string(opt.w.k), "--mem-seed", std::to_string(memSeed),
        "--noise", opt.w.noise, "--eps", fmt(opt.w.eps), "--shots",
        std::to_string(opt.shots), "--seed", std::to_string(seed)};
    if (!opt.factors.empty()) {
        std::string f;
        for (std::size_t i = 0; i < opt.factors.size(); ++i)
            f += (i ? "," : "") + fmt(opt.factors[i]);
        args.push_back("--factors");
        args.push_back(f);
    }
    return args;
}

int
cmdProbe(const Args &a)
{
    const tool::RunOptions &opt = a.run;
    const std::string dir = a.get("--dir");
    if (dir.empty())
        die(2, "probe wants --dir");
    const std::size_t nshards = std::max(1ul, a.getU("--nshards", 4));
    const unsigned nproc = hardwareThreads();
    Spans spans(true);
    Out o;

    // Set-up layers.
    int sp = spans.open("probe.setup", 0);
    std::vector<double> build, init;
    for (int r = 0; r < 7; ++r) {
        Setup s(opt.w);
        build.push_back(s.buildSec);
        init.push_back(s.initSec);
    }
    spans.close(sp);
    o.num("qram.build_ms", 1e3 * median(build))
        .num("fidelity.init_ms", 1e3 * median(init));

    Setup s(opt.w);
    const FeynmanExecutor &exec = s.est->executor();
    const std::size_t npts = std::max<std::size_t>(1, opt.factors.size());
    s.noise->prepare(exec);
    if (!opt.factors.empty())
        s.noise->prepareSweep(exec, opt.factors.data(), npts);

    // Noise sampling: one shot = one sampleFlat / sampleFlatSweep.
    sp = spans.open("probe.noise", 0);
    const std::size_t nSample = std::min<std::size_t>(opt.shots, 4096);
    Classes cls;
    std::vector<FlatRealization> reals;
    for (std::size_t shot = 0; shot < nSample; ++shot) {
        redraw(s, opt, shot, reals);
        for (const FlatRealization &r : reals)
            cls.add(r);
    }
    std::size_t cursor = 0;
    const double sampleSec = perUnit(
        [&] {
            for (int i = 0; i < 64; ++i)
                redraw(s, opt, cursor++ % nSample, reals);
        },
        64.0);
    spans.close(sp);
    o.num("noise.sample_us", 1e6 * sampleSec)
        .num("noise.empty_shots", static_cast<double>(cls.empty.size()))
        .num("noise.zonly_shots", static_cast<double>(cls.zonly.size()))
        .num("noise.general_shots",
             static_cast<double>(cls.general.size()));

    // Per-class evaluation cost on presampled realizations.
    sp = spans.open("probe.fidelity", 0);
    auto cap = [](std::vector<FlatRealization> v) {
        if (v.size() > 256)
            v.resize(256);
        return v;
    };
    const auto general = cls.general.size() >= kMinClass
                             ? cap(cls.general)
                             : classFallback(s, opt.w, true, opt.seed);
    const auto zonly = cls.zonly.size() >= kMinClass
                           ? cap(cls.zonly)
                           : classFallback(s, opt.w, false, opt.seed);
    o.num("fidelity.general_us", 1e6 * shotCost(s, general))
        .num("fidelity.zonly_us", 1e6 * shotCost(s, zonly));
    spans.close(sp);

    // Pipeline stages and thread scaling on the workload's stream; a
    // stream without general realizations runs the depolarizing twin
    // for the stage figures (see classFallback).
    sp = spans.open("probe.threadpool", 0);
    const double r1 = rateAt(s, opt, 1);
    const double r2 = rateAt(s, opt, std::min(2u, nproc));
    PartialEstimate whole;
    const double rn = rateAt(s, opt, nproc, &whole);
    PipelineStats ps = s.est->lastPipelineStats();
    if (cls.general.size() < kMinClass) {
        tool::Workload alt = opt.w;
        alt.noise = "gate-depol";
        const auto depol = alt.makeNoise();
        s.est->runShard(*depol, fullSpec(opt, nproc));
        ps = s.est->lastPipelineStats();
    }
    spans.close(sp);
    o.num("fidelity.stage_sample_s", ps.sampleSec)
        .num("fidelity.stage_gather_s", ps.gatherSec)
        .num("fidelity.stage_replay_s", ps.replaySec)
        .num("fidelity.stage_accumulate_s", ps.accumulateSec)
        .num("threadpool.occupancy", ps.occupancy())
        .num("threadpool.speedup_2t", r2 / r1)
        .num("threadpool.speedup", rn / r1)
        .num("probe.rate_1t", r1);

    // Sharding: the workload's own partials, nshards ways.
    sp = spans.open("probe.sharding", 0);
    SweepPlan plan = SweepPlan::partition(opt.shots, nshards, opt.seed,
                                          opt.factors,
                                          ShotStream::Counter);
    std::vector<PartialEstimate> parts;
    std::vector<std::string> blobs;
    for (ShardSpec spec : plan.shards) {
        spec.threads = nproc;
        parts.push_back(s.est->runShard(*s.noise, spec));
        parts.back().workload = opt.w.fingerprint(opt.shots);
        blobs.push_back(parts.back().toJson());
    }
    double kb = 0.0;
    for (const std::string &b : blobs)
        kb += b.size() / 1024.0;
    kb /= static_cast<double>(blobs.size());
    const double enc = perUnit(
        [&] {
            for (const PartialEstimate &p : parts)
                blobs[0] = p.toJson();
        },
        static_cast<double>(parts.size()));
    blobs[0] = parts[0].toJson();
    std::vector<PartialEstimate> decoded(parts.size());
    const double dec = perUnit(
        [&] {
            for (std::size_t i = 0; i < blobs.size(); ++i)
                if (!PartialEstimate::fromJson(blobs[i], decoded[i]))
                    die(1, "own partial failed to decode");
        },
        static_cast<double>(blobs.size()));
    PartialEstimate mergedAll;
    const double mrg = perUnit(
        [&] {
            if (!mergePartials(parts, mergedAll))
                die(1, "own partials failed to merge");
        },
        1.0);
    whole.workload = opt.w.fingerprint(opt.shots);
    if (timingFreeJson(mergedAll) != timingFreeJson(whole))
        die(1, "sharded merge differs from the single-shard run");
    spans.close(sp);
    o.num("sharding.encode_us", 1e6 * enc)
        .num("sharding.decode_us", 1e6 * dec)
        .num("sharding.merge_us", 1e6 * mrg)
        .num("sharding.partial_kb", kb);

    // One checkpoint-sized atomic write with fsync.
    sp = spans.open("probe.atomicfile", 0);
    const std::string ckpt = dir + "/probe-checkpoint.json";
    std::vector<double> commits;
    for (int r = 0; r < 15; ++r) {
        const auto t0 = Clock::now();
        std::string err;
        if (!atomicWriteFile(ckpt, blobs[0], &err))
            die(1, err);
        commits.push_back(secondsSince(t0));
    }
    std::remove(ckpt.c_str());
    spans.close(sp);
    o.num("atomicfile.commit_us", 1e6 * median(commits));

    // Frame transport: a result-sized payload over a socketpair.
    sp = spans.open("probe.frames", 0);
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            die(1, "socketpair failed");
        const std::string payload = mergedAll.toJson();
        std::thread echo([fd = fds[1]] {
            std::string msg;
            while (srv::recvFrame(fd, msg, srv::kDefaultMaxFrameBytes))
                if (!srv::sendFrame(fd, msg))
                    break;
        });
        std::string back;
        const double rtt = perUnit(
            [&] {
                if (!srv::sendFrame(fds[0], payload) ||
                    !srv::recvFrame(fds[0], back,
                                    srv::kDefaultMaxFrameBytes) ||
                    back != payload)
                    die(1, "frame round trip failed");
            },
            1.0);
        ::shutdown(fds[0], SHUT_RDWR);
        echo.join();
        ::close(fds[0]);
        ::close(fds[1]);
        o.num("server.frame_rtt_us", 1e6 * rtt)
            .num("probe.frame_kb", payload.size() / 1024.0);
    }
    spans.close(sp);

    // Server::handle on a compiled-cache miss (fresh memory seed) and
    // hit (same workload, fresh shot seed): one shard of the job.
    sp = spans.open("probe.server", 0);
    {
        srv::ServerConfig cfg;
        cfg.threads = 1;
        srv::Server server(cfg);
        auto request = [&](std::uint64_t memSeed, std::uint64_t seed) {
            std::vector<std::string> args = jobArgs(opt, memSeed, seed);
            args.push_back("--shard");
            args.push_back("0/" + std::to_string(nshards));
            const auto t0 = Clock::now();
            const srv::ShardResponse r = server.handle(args);
            const double sec = secondsSince(t0);
            if (r.status != 0)
                die(1, "server refused the probe: " + r.error);
            return std::make_pair(sec, r.cache);
        };
        std::vector<double> cold, warm;
        for (int r = 0; r < 5; ++r) {
            const std::uint64_t mem = opt.w.memSeed + 1000 + r;
            auto c = request(mem, opt.seed);
            auto w = request(mem, opt.seed + 1);
            if (c.second != "cold" || w.second != "compiled")
                die(1, "unexpected server cache outcome " + c.second +
                           "/" + w.second);
            cold.push_back(c.first);
            warm.push_back(w.first);
        }
        if (request(opt.w.memSeed + 1000, opt.seed).second != "result")
            die(1, "a repeated request missed the result cache");
        const srv::Server::Stats st = server.stats();
        o.num("server.handle_cold_ms", 1e3 * median(cold))
            .num("server.handle_warm_ms", 1e3 * median(warm))
            .num("probe.compiled_builds",
                 static_cast<double>(st.compiledBuilds))
            .num("probe.result_hits", static_cast<double>(st.resultHits));
    }
    spans.close(sp);

    // Broker message handling with a journal: submit, pull, commit
    // (journal append + fsync), poll — real partials as payloads.
    sp = spans.open("probe.broker", 0);
    {
        const std::string stateDir = dir + "/probe-broker";
        brk::BrokerConfig cfg;
        cfg.stateDir = stateDir;
        cfg.parkAfterSec = 0.0;
        brk::Broker broker(cfg);
        std::string err;
        if (!broker.start(&err))
            die(1, "probe broker: " + err);
        const std::vector<std::string> args =
            jobArgs(opt, opt.w.memSeed, opt.seed);
        auto call = [&](const brk::Msg &m, std::vector<double> &times) {
            const std::string frame = brk::buildMsg(m);
            const auto t0 = Clock::now();
            const std::string resp = broker.handleMessage(frame);
            times.push_back(secondsSince(t0));
            brk::Msg out;
            if (!brk::parseMsg(resp, out))
                die(1, "probe broker sent an unparsable reply");
            return out;
        };
        std::vector<double> tSub, tPull, tCommit, tPoll;
        for (int job = 0; job < 8; ++job) {
            brk::Msg sub;
            sub.type = "submit";
            sub.fingerprint = "probe-" + std::to_string(job);
            sub.nshards = nshards;
            sub.args = args;
            const brk::Msg jr = call(sub, tSub);
            if (jr.type != "job" || jr.total != parts.size())
                die(1, "probe submit refused: " + jr.error);
            for (std::size_t k = 0; k < parts.size(); ++k) {
                brk::Msg pull;
                pull.type = "pull";
                pull.worker = "probe";
                const brk::Msg as = call(pull, tPull);
                if (as.type != "assign")
                    die(1, "probe pull got " + as.type);
                brk::Msg com;
                com.type = "commit";
                com.worker = "probe";
                com.lease = as.lease;
                com.job = as.job;
                com.shard = as.shard;
                com.payload = blobs[as.shard];
                const brk::Msg ok = call(com, tCommit);
                if (ok.type != "ok" || !ok.accepted)
                    die(1, "probe commit refused: " + ok.error);
            }
            brk::Msg poll;
            poll.type = "poll";
            poll.job = jr.job;
            const brk::Msg st = call(poll, tPoll);
            if (st.type != "status" || !st.complete)
                die(1, "probe job did not complete");
        }
        broker.stop();
        std::remove(brk::Broker::journalPath(stateDir).c_str());
        ::rmdir(stateDir.c_str());
        o.num("broker.submit_us", 1e6 * median(tSub))
            .num("broker.pull_us", 1e6 * median(tPull))
            .num("broker.commit_us", 1e6 * median(tCommit))
            .num("broker.poll_us", 1e6 * median(tPoll));
    }
    spans.close(sp);

    std::string sj;
    spans.appendJson(sj);
    o.raw(sj);
    o.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    const bool optimized = false;
#else
    const bool optimized = true;
#endif
    if (std::strcmp(QRAMBENCH_BUILD_TYPE, "Release") != 0 || !optimized) {
        std::fprintf(stderr,
                     "qrambench: refusing to run from a %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     QRAMBENCH_BUILD_TYPE);
        return 2;
    }
    if (argc < 2)
        die(2, "usage: qrambench stamp|setup|replay|inproc|verify|probe "
               "[flags]; see the file header");
    const std::string cmd = argv[1];
    if (cmd == "stamp")
        return cmdStamp();
    const Args a = parseArgs(argc - 2, argv + 2);
    if (cmd == "setup")
        return cmdSetup(a);
    if (cmd == "replay")
        return cmdReplay(a);
    if (cmd == "inproc")
        return cmdInproc(a);
    if (cmd == "verify")
        return cmdVerify(a);
    if (cmd == "probe")
        return cmdProbe(a);
    die(2, "unknown subcommand '" + cmd + "'");
}
