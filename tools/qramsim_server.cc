/**
 * @file
 * The resident estimation server CLI — and, with `--broker`, a
 * work-pulling broker worker.
 *
 *     qramsim_server --socket PATH [--threads N]
 *                    [--compiled-cache N] [--result-cache N]
 *                    [--spill DIR] [--spill-cap BYTES]
 *                    [--idle-timeout SEC] [--max-width N]
 *                    [--max-shots N] [--max-frame BYTES]
 *     qramsim_server --broker PATH [--name NAME] [... same knobs]
 *
 * Socket mode listens on a Unix-domain socket for framed
 * `qramsim_shard run` requests (protocol: src/sim/server.hh) and
 * executes them over resident compiled-circuit and result caches, so
 * repeated shards of the same sweep pay zero setup and identical
 * queries pay zero compute. Run it next to
 * `qramsim_drive --server PATH`.
 *
 * Broker mode inverts the transport: the same resident Server
 * executes shards, but instead of listening it PULLS assignments
 * from a qramsim_broker (protocol: src/sim/broker.hh), heartbeats
 * its leases on the broker's announced interval, and commits each
 * result. This is the only mode that consults QRAMSIM_FAULT
 * (kill-on-pull / drop-heartbeat / lease-stall) — faults are scoped
 * to the pulled shard's global shot range exactly like the shard
 * CLI's, and the resident socket path still never injects.
 *
 * Prints "listening on PATH" / "worker NAME pulling from PATH" once
 * ready, then serves until SIGINT/SIGTERM, exiting 0 after a clean
 * drain. Exit 2 on bad flags, 1 when the socket/broker cannot be
 * reached.
 */

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include <signal.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/fault.hh"
#include "sim/broker.hh"
#include "sim/server.hh"
#include "tools/workload.hh"

using namespace qramsim;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: qramsim_server --socket PATH | --broker PATH\n"
        "                      [--name NAME] [--threads N]\n"
        "                      [--compiled-cache N] [--result-cache "
        "N]\n"
        "                      [--spill DIR] [--spill-cap BYTES]\n"
        "                      [--idle-timeout SEC] [--max-width N]\n"
        "                      [--max-shots N] [--max-frame BYTES]\n");
    return 2;
}

/**
 * A stop flag that sleepers wait on: set() wakes every waitFor() at
 * once and turns fd() readable, which abandons a long poll blocked
 * in brk::roundTrip.
 */
class StopFlag
{
  public:
    StopFlag()
    {
        if (::pipe(pipe_) != 0)
            pipe_[0] = pipe_[1] = -1;
    }
    ~StopFlag()
    {
        for (int fd : pipe_)
            if (fd >= 0)
                ::close(fd);
    }
    StopFlag(const StopFlag &) = delete;
    StopFlag &operator=(const StopFlag &) = delete;

    void set()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stopped_)
                return;
            stopped_ = true;
        }
        cv_.notify_all();
        if (pipe_[1] >= 0)
            (void)!::write(pipe_[1], "x", 1);
    }

    bool isSet() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return stopped_;
    }

    /** Sleep up to @p seconds; true as soon as the flag is set. */
    bool waitFor(double seconds)
    {
        std::unique_lock<std::mutex> lk(mu_);
        return cv_.wait_for(lk, std::chrono::duration<double>(seconds),
                            [this] { return stopped_; });
    }

    int fd() const { return pipe_[0]; }

  private:
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopped_ = false;
    int pipe_[2];
};

/**
 * The broker worker loop: register, long-poll for a shard, execute
 * on the resident @p server, heartbeat the lease while computing,
 * commit. Runs until @p stop. Returns the count of shards this
 * worker committed.
 */
std::size_t
runWorker(srv::Server &server, const std::string &brokerPath,
          const std::string &name, StopFlag &stop)
{
    // Worker-side fault kinds only: the broker owns journal-truncate
    // and the classic shard kinds belong to qramsim_shard.
    std::vector<fault::Spec> faults;
    for (const fault::Spec &s : fault::fromEnv())
        if (s.kind == fault::Kind::KillOnPull ||
            s.kind == fault::Kind::DropHeartbeat ||
            s.kind == fault::Kind::LeaseStall)
            faults.push_back(s);

    double heartbeatSec = 1.0, waitSec = 1.0;
    bool registered = false;
    while (!stop.isSet()) {
        brk::Msg req, resp;
        req.type = "register";
        req.worker = name;
        std::string err;
        if (brk::roundTrip(brokerPath, req, resp, &err) &&
            resp.type == "registered") {
            if (resp.heartbeatSec > 0.0)
                heartbeatSec = resp.heartbeatSec;
            // The longest wait the broker grants a pull.
            waitSec = resp.pollSec > 0.0 ? resp.pollSec : heartbeatSec;
            registered = true;
            break;
        }
        stop.waitFor(0.2);
    }
    if (!registered)
        return 0;
    std::printf("worker %s pulling from %s\n", name.c_str(),
                brokerPath.c_str());
    std::fflush(stdout);

    std::size_t committed = 0;
    while (!stop.isSet()) {
        brk::Msg pull, task;
        pull.type = "pull";
        pull.worker = name;
        pull.pollSec = waitSec;
        std::string err;
        // The broker holds the pull until a shard is ready; a stop
        // abandons the wait at once.
        if (!brk::roundTrip(brokerPath, pull, task, &err, stop.fd())) {
            stop.waitFor(0.2); // broker gone or restarting
            continue;
        }
        if (task.type != "assign")
            continue; // the wait ran out: ask again

        // Scope faults to the pulled shard's global shot range —
        // the same selector the shard CLI uses, so a test can aim a
        // fault at "the worker that got shard k".
        std::size_t shotBegin = 0, shotEnd = 0;
        {
            std::vector<std::string> copy(task.args);
            std::vector<char *> argv;
            argv.reserve(copy.size());
            for (std::string &a : copy)
                argv.push_back(&a[0]);
            tool::RunOptions opt;
            ShardSpec spec;
            if (tool::parseRunFlags(static_cast<int>(argv.size()),
                                    argv.data(), opt) &&
                tool::cutShardSpec(opt, spec)) {
                shotBegin = spec.shotBegin;
                shotEnd = spec.shotEnd;
            }
        }
        const fault::Spec *armed =
            fault::arm(faults, shotBegin, shotEnd);
        if (armed && armed->kind == fault::Kind::KillOnPull) {
            // Die holding the lease: the broker must notice the
            // silence and re-dispatch.
            ::kill(::getpid(), SIGKILL);
        }
        const bool dropHeartbeat =
            armed && armed->kind == fault::Kind::DropHeartbeat;
        const double stallSec =
            armed && armed->kind == fault::Kind::LeaseStall
                ? armed->param
                : 0.0;

        StopFlag hbStop;
        std::thread hb;
        if (!dropHeartbeat) {
            const std::uint64_t lease = task.lease;
            hb = std::thread([&, lease] {
                std::uint64_t progress = 0;
                do {
                    // lease-stall heartbeats with FROZEN progress:
                    // the broker sees a live worker but no advance,
                    // so the lease expires on schedule.
                    if (stallSec <= 0.0)
                        ++progress;
                    brk::Msg beat, ok;
                    beat.type = "heartbeat";
                    beat.worker = name;
                    beat.lease = lease;
                    beat.progress = progress;
                    brk::roundTrip(brokerPath, beat, ok);
                } while (!hbStop.waitFor(heartbeatSec));
            });
        }
        if (stallSec > 0.0)
            stop.waitFor(stallSec);

        const srv::ShardResponse r = server.handle(task.args);

        brk::Msg commit;
        commit.type = "commit";
        commit.worker = name;
        commit.lease = task.lease;
        commit.job = task.job;
        commit.shard = task.shard;
        commit.status = static_cast<std::uint64_t>(r.status);
        commit.error = r.error;
        commit.payload = r.payload;
        for (int attempt = 0; attempt < 5; ++attempt) {
            brk::Msg ack;
            if (brk::roundTrip(brokerPath, commit, ack)) {
                ++committed;
                break;
            }
            if (stop.waitFor(0.2))
                break;
        }
        hbStop.set();
        if (hb.joinable())
            hb.join();
    }
    return committed;
}

} // namespace

int
main(int argc, char **argv)
{
    srv::ServerConfig cfg;
    std::string brokerPath, workerName;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s wants a value\n",
                             flag.c_str());
                return nullptr;
            }
            return argv[++i];
        };
        auto uintVal = [&](unsigned long cap,
                           unsigned long &dst) -> bool {
            const char *v = value();
            if (!v)
                return false;
            if (!env::parseUnsigned(v, cap, dst)) {
                std::fprintf(stderr,
                             "malformed value '%s' for %s\n", v,
                             flag.c_str());
                return false;
            }
            return true;
        };
        unsigned long u = 0;
        if (flag == "--socket") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.socketPath = v;
        } else if (flag == "--broker") {
            const char *v = value();
            if (!v)
                return usage();
            brokerPath = v;
        } else if (flag == "--name") {
            const char *v = value();
            if (!v)
                return usage();
            workerName = v;
        } else if (flag == "--threads") {
            if (!uintVal(1ul << 16, u))
                return usage();
            cfg.threads = static_cast<unsigned>(u);
        } else if (flag == "--compiled-cache") {
            if (!uintVal(1ul << 16, u))
                return usage();
            cfg.compiledCapacity = u;
        } else if (flag == "--result-cache") {
            if (!uintVal(1ul << 24, u))
                return usage();
            cfg.resultCapacity = u;
        } else if (flag == "--spill") {
            const char *v = value();
            if (!v)
                return usage();
            cfg.spillDir = v;
        } else if (flag == "--spill-cap") {
            if (!uintVal(1ul << 40, u))
                return usage();
            cfg.spillCapBytes = u;
        } else if (flag == "--idle-timeout") {
            const char *v = value();
            if (!v)
                return usage();
            double d = 0.0;
            if (!env::parseDouble(v, d) || d < 0.0) {
                std::fprintf(stderr,
                             "malformed value '%s' for %s\n", v,
                             flag.c_str());
                return usage();
            }
            cfg.idleTimeoutSec = d;
        } else if (flag == "--max-width") {
            if (!uintVal(64, u))
                return usage();
            cfg.maxAddressWidth = static_cast<unsigned>(u);
        } else if (flag == "--max-shots") {
            if (!uintVal(1ul << 30, u))
                return usage();
            cfg.maxShots = u;
        } else if (flag == "--max-frame") {
            if (!uintVal(1ul << 31, u))
                return usage();
            cfg.maxFrameBytes = static_cast<std::uint32_t>(u);
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        }
    }
    if (cfg.socketPath.empty() == brokerPath.empty()) {
        std::fprintf(stderr,
                     "exactly one of --socket / --broker is "
                     "required\n");
        return usage();
    }

    // Mask SIGINT/SIGTERM BEFORE any thread exists so every thread
    // inherits the mask and sigwait below owns delivery — otherwise
    // a signal landing on a worker thread takes the default
    // (process-killing) action instead of the clean drain.
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);

    srv::Server server(cfg);

    if (!brokerPath.empty()) {
        // Broker worker: the Server runs headless (no socket); a
        // signal thread turns SIGINT/SIGTERM into a stop flag that
        // ends the pull loop's waits at once (a shard in compute
        // still finishes and commits).
        if (workerName.empty())
            workerName = "w" + std::to_string(::getpid());
        StopFlag stop;
        std::thread sigThread([&] {
            int sig = 0;
            sigwait(&set, &sig);
            stop.set();
        });
        const std::size_t committed =
            runWorker(server, brokerPath, workerName, stop);
        if (!stop.isSet())
            ::kill(::getpid(), SIGTERM); // unblock sigwait
        sigThread.join();
        const srv::Server::Stats st = server.stats();
        std::fprintf(
            stderr,
            "worker %s committed %zu shards (%llu result hits, "
            "%llu computed, %llu builds)\n",
            workerName.c_str(), committed,
            static_cast<unsigned long long>(st.resultHits),
            static_cast<unsigned long long>(st.computed),
            static_cast<unsigned long long>(st.compiledBuilds));
        return 0;
    }

    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "cannot start server: %s\n",
                     err.c_str());
        return 1;
    }
    std::printf("listening on %s\n", cfg.socketPath.c_str());
    std::fflush(stdout);

    int sig = 0;
    sigwait(&set, &sig);

    server.stop();
    const srv::Server::Stats st = server.stats();
    std::fprintf(stderr,
                 "served %llu requests (%llu result hits, %llu "
                 "coalesced, %llu computed, %llu builds, %llu idle "
                 "timeouts)\n",
                 static_cast<unsigned long long>(st.requests),
                 static_cast<unsigned long long>(st.resultHits),
                 static_cast<unsigned long long>(st.resultCoalesced),
                 static_cast<unsigned long long>(st.computed),
                 static_cast<unsigned long long>(st.compiledBuilds),
                 static_cast<unsigned long long>(
                     st.transportTimeouts));
    return 0;
}
