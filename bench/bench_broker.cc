/**
 * @file
 * Work-stealing broker benchmark: what does brokered dispatch with a
 * forced steal cost against the plain fork/exec orchestrator?
 *
 *   bench_broker --json BENCH_simulator.json [--m M] [--shots N]
 *                [--shards K] [--workers W]
 *
 * Runs the paper's gate-depolarizing sweep workload (factors
 * 0.5/1/2) through an in-process Broker (sim/broker.hh) with W
 * worker threads computing on one resident Server — and ONE forced
 * fault: a "lazy" worker pulls the first shard, goes silent holding
 * the lease, and is declared dead, so the broker must re-dispatch
 * that shard to a live worker. Measures:
 *
 *  - e2e_broker_sec:    submit -> all shards committed (steal
 *    recovery included) -> fetch -> merged result.json
 *  - e2e_forkexec_sec:  the identical job driven by the Orchestrator
 *    via fork/exec, merged result byte-compared (byte_identical)
 *  - steal_latency_sec: queue-return -> re-pickup, from broker stats
 *  - redispatches / dead_workers / duplicate_mismatches
 *
 * The record is only appended when the run is clean: at least one
 * steal happened, zero duplicate cross-check mismatches, and the
 * brokered result is byte-identical to fork/exec. Appends one dated
 * "broker" record (bench_util.hh appendJsonRecord).
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/atomicfile.hh"
#include "sim/broker.hh"
#include "sim/orchestrator.hh"
#include "sim/server.hh"

using namespace qramsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One in-process broker round trip; exits on a protocol error — a
 *  bench against a broken broker would record garbage. */
brk::Msg
ask(brk::Broker &b, const brk::Msg &req)
{
    brk::Msg resp;
    std::string err;
    if (!brk::parseMsg(b.handleMessage(brk::buildMsg(req)), resp,
                       &err)) {
        std::fprintf(stderr, "bench_broker: bad response: %s\n",
                     err.c_str());
        std::exit(1);
    }
    return resp;
}

/** Drive the job through the Orchestrator (fork/exec, or a resume
 *  merge over pre-fetched checkpoints); fills @p resultJson. */
double
driveJob(const std::string &jobDir,
         const std::vector<std::string> &workloadArgs,
         std::size_t shots, unsigned shards, unsigned workers,
         bool resume, std::string &resultJson)
{
    OrchestratorConfig cfg;
    cfg.jobDir = jobDir;
    cfg.workerBin = QRAMSIM_SHARD_BIN;
    cfg.requestedShards = shards;
    cfg.workers = workers;
    cfg.resume = resume;
    cfg.workloadArgs = workloadArgs;
    cfg.plan =
        SweepPlan::partition(shots, shards, 2023, {0.5, 1.0, 2.0});
    const Clock::time_point t0 = Clock::now();
    Orchestrator orch(std::move(cfg));
    const DriveReport report = orch.run();
    const double sec = secondsSince(t0);
    if (!report.complete) {
        std::fprintf(stderr, "bench_broker: job in %s DEGRADED: %s\n",
                     jobDir.c_str(), report.error.c_str());
        std::exit(1);
    }
    resultJson = report.resultJson;
    return sec;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonPath;
    unsigned m = 6;
    std::size_t shots = 96;
    unsigned shards = 6;
    unsigned workers = 3;
    for (int i = 1; i < argc; ++i) {
        auto want = [&](const char *flag) {
            return std::strcmp(argv[i], flag) == 0 && i + 1 < argc;
        };
        if (want("--json"))
            jsonPath = argv[++i];
        else if (want("--m"))
            m = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (want("--shots"))
            shots = std::strtoul(argv[++i], nullptr, 10);
        else if (want("--shards"))
            shards = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else if (want("--workers"))
            workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        else {
            std::fprintf(stderr,
                         "usage: bench_broker [--json FILE] [--m M] "
                         "[--shots N] [--shards K] [--workers W]\n");
            return 2;
        }
    }
    if (shards < 2)
        shards = 2; // the steal needs a queue behind the victim
    if (workers == 0)
        workers = 1;

    const std::string stem =
        "/tmp/qramsim_bench_broker_" +
        std::to_string(static_cast<unsigned>(getpid()));
    std::system(("rm -rf " + stem + ".jobB " + stem + ".jobF")
                    .c_str());

    const std::vector<std::string> workloadArgs = {
        "--arch",    "bb",      "--m",     std::to_string(m),
        "--noise",   "gate-depol", "--eps", "2e-3",
        "--shots",   std::to_string(shots), "--seed", "2023",
        "--factors", "0.5,1,2"};

    srv::ServerConfig scfg;
    scfg.threads = 2;
    srv::Server server(scfg);

    brk::BrokerConfig bcfg;
    bcfg.heartbeatSec = 0.05;
    bcfg.workerDeadSec = 0.2;
    bcfg.parkAfterSec = 0.0;
    brk::Broker broker(bcfg);
    std::string err;
    if (!broker.start(&err)) {
        std::fprintf(stderr, "bench_broker: %s\n", err.c_str());
        return 1;
    }

    const Clock::time_point t0 = Clock::now();
    brk::Msg sub;
    sub.type = "submit";
    sub.fingerprint = "bench-broker";
    sub.nshards = shards;
    sub.args = workloadArgs;
    const brk::Msg job = ask(broker, sub);
    if (job.type != "job") {
        std::fprintf(stderr, "bench_broker: submit: %s\n",
                     job.error.c_str());
        return 1;
    }
    const std::size_t total = job.total;

    // The forced fault: "lazy" pulls the first shard and goes silent
    // holding the lease. The broker must declare it dead and steal
    // the shard back for the live workers — every run exercises the
    // recovery path, so the e2e time includes it.
    brk::Msg lazyPull;
    lazyPull.type = "pull";
    lazyPull.worker = "lazy";
    if (ask(broker, lazyPull).type != "assign") {
        std::fprintf(stderr, "bench_broker: no shard for the lazy "
                             "worker\n");
        return 1;
    }

    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back([&, w] {
            const std::string name = "w" + std::to_string(w);
            while (!stop.load()) {
                brk::Msg pull;
                pull.type = "pull";
                pull.worker = name;
                pull.pollSec = bcfg.heartbeatSec; // long poll
                const brk::Msg task = ask(broker, pull);
                if (task.type != "assign")
                    continue;
                const srv::ShardResponse r =
                    server.handle(task.args);
                brk::Msg c;
                c.type = "commit";
                c.worker = name;
                c.lease = task.lease;
                c.job = task.job;
                c.shard = task.shard;
                c.status = static_cast<std::uint64_t>(r.status);
                c.error = r.error;
                c.payload = r.payload;
                ask(broker, c);
            }
        });

    // Outside the timed section: stopping the broker ends the idle
    // workers' held pulls, so shutdown is not charged to the job.
    auto stopWorkers = [&] {
        stop.store(true);
        broker.stop();
        for (std::thread &t : pool)
            t.join();
    };

    brk::Msg poll;
    poll.type = "poll";
    poll.job = job.job;
    poll.pollSec = bcfg.heartbeatSec; // long poll
    for (;;) {
        const brk::Msg st = ask(broker, poll);
        if (st.complete || st.jobFailed) {
            if (st.jobFailed) {
                std::fprintf(stderr, "bench_broker: job failed\n");
                stopWorkers();
                return 1;
            }
            break;
        }
        poll.done = st.done;
        poll.failed = st.failed;
    }

    // Fetch every payload into a checkpoint directory and let the
    // Orchestrator do the validated merge — the exact path
    // `qramsim_drive --broker` takes, so the result bytes are
    // comparable.
    std::system(("mkdir -p " + stem + ".jobB").c_str());
    for (std::size_t i = 0; i < total; ++i) {
        brk::Msg get;
        get.type = "fetch";
        get.job = job.job;
        get.shard = i;
        const brk::Msg res = ask(broker, get);
        if (res.type != "result" ||
            !atomicWriteFile(
                Orchestrator::checkpointPath(stem + ".jobB", i),
                res.payload, &err)) {
            std::fprintf(stderr, "bench_broker: fetch %zu failed\n",
                         i);
            stopWorkers();
            return 1;
        }
    }
    std::string viaBroker;
    driveJob(stem + ".jobB", workloadArgs, shots, shards, workers,
             /*resume=*/true, viaBroker);
    const double e2eBroker = secondsSince(t0);
    stopWorkers();
    const brk::Broker::Stats st = broker.stats();

    // Baseline: the same job via plain fork/exec supervision.
    std::string viaFork;
    const double e2eFork =
        driveJob(stem + ".jobF", workloadArgs, shots, shards,
                 workers, /*resume=*/false, viaFork);
    const bool byteIdentical =
        !viaBroker.empty() && viaBroker == viaFork;
    std::system(("rm -rf " + stem + ".jobB " + stem + ".jobF")
                    .c_str());

    const double stealLatency =
        st.steals > 0 ? st.stealLatencySecTotal /
                            static_cast<double>(st.steals)
                      : 0.0;
    std::printf("bench_broker: m=%u shots=%zu shards=%u workers=%u\n"
                "  e2e broker     %.6f s (steal recovery included)\n"
                "  e2e fork/exec  %.6f s (x%.2f)\n"
                "  steals         %llu (latency %.3f s, "
                "%llu redispatches, %llu dead workers)\n"
                "  duplicates     %llu (%llu mismatches)\n"
                "  byte-identical %s\n",
                m, shots, shards, workers, e2eBroker, e2eFork,
                e2eBroker > 0.0 ? e2eFork / e2eBroker : 0.0,
                static_cast<unsigned long long>(st.steals),
                stealLatency,
                static_cast<unsigned long long>(st.redispatches),
                static_cast<unsigned long long>(st.deadWorkers),
                static_cast<unsigned long long>(st.duplicateCommits),
                static_cast<unsigned long long>(
                    st.duplicateMismatches),
                byteIdentical ? "yes" : "NO");

    if (st.steals == 0 || st.duplicateMismatches != 0 ||
        !byteIdentical) {
        std::fprintf(stderr, "bench_broker: steal/identity contract "
                             "violated — not recording\n");
        return 1;
    }

    if (!jsonPath.empty()) {
        char rec[1024];
        std::snprintf(
            rec, sizeof rec,
            "{\n"
            " \"bench\": \"broker\",\n"
            " \"date\": \"%s\",\n"
            " \"git\": \"%s\",\n"
            " \"workload\": \"bucket_brigade_gate_depol_sweep\",\n"
            " \"m\": %u,\n"
            " \"shots\": %zu,\n"
            " \"shards\": %u,\n"
            " \"workers\": %u,\n"
            " \"e2e_broker_sec\": %.6g,\n"
            " \"e2e_forkexec_sec\": %.6g,\n"
            " \"e2e_speedup\": %.4g,\n"
            " \"steals\": %llu,\n"
            " \"steal_latency_sec\": %.6g,\n"
            " \"redispatches\": %llu,\n"
            " \"dead_workers\": %llu,\n"
            " \"duplicate_commits\": %llu,\n"
            " \"duplicate_mismatches\": %llu,\n"
            " \"byte_identical\": %s,\n"
            " \"host_hw_threads\": %u\n"
            "}",
            bench::isoDateUtc().c_str(),
            bench::gitRevision().c_str(), m, shots, shards, workers,
            e2eBroker, e2eFork,
            e2eBroker > 0.0 ? e2eFork / e2eBroker : 0.0,
            static_cast<unsigned long long>(st.steals), stealLatency,
            static_cast<unsigned long long>(st.redispatches),
            static_cast<unsigned long long>(st.deadWorkers),
            static_cast<unsigned long long>(st.duplicateCommits),
            static_cast<unsigned long long>(st.duplicateMismatches),
            byteIdentical ? "true" : "false", hardwareThreads());
        if (!bench::appendJsonRecord(jsonPath, rec)) {
            std::fprintf(stderr,
                         "bench_broker: cannot append to %s\n",
                         jsonPath.c_str());
            return 1;
        }
        std::printf("appended \"broker\" record to %s\n",
                    jsonPath.c_str());
    }
    return 0;
}
