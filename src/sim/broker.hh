/**
 * @file
 * The work-stealing shard broker: a resident process that owns ONE
 * global shard queue across concurrent estimation jobs.
 *
 * ## Why a broker
 *
 * PR 8 gave each qramsim_drive a private supervised shard queue and
 * PR 9 made qramsim_server a passive per-request executor — so a dead
 * or slow worker stalls exactly one client, and an idle worker on one
 * job cannot help a straggling shard of another. The broker inverts
 * the topology: drives SUBMIT jobs, workers PULL shards, and the
 * broker leases, re-dispatches, and journals in between. The same
 * correctness nets apply: shards are deterministic, so every stolen
 * or duplicated shard's commit is cross-checked byte-for-byte against
 * the first (equivalentPartials, orchestrator.hh), and a job's merged
 * result is byte-identical to the undisturbed single-process run.
 *
 * ## Protocol
 *
 * Unix-domain stream socket carrying the srv:: frame format (4-byte
 * LE length + JSON). Every message is a flat JSON object with the
 * magic key `"qramsim_broker": 1` and a `"type"`; each connection is
 * strictly request/response (workers and clients use short-lived
 * connections, one round trip each, so a worker's heartbeat thread
 * never contends with its compute loop on a socket).
 *
 * Worker-facing types (worker identity is a caller-chosen name, e.g.
 * "w<pid>"; the broker auto-registers unknown names on ANY contact,
 * which is how a restarted broker re-adopts live workers with no
 * special handshake):
 *
 *   register            -> registered {heartbeat_seconds, poll_seconds}
 *   pull {worker, poll_seconds}
 *                       -> assign {lease, job, shard, nshards, args[]}
 *                        | idle
 *   heartbeat {worker, lease, progress}
 *                       -> ok {cancel}   (lease 0 = liveness only)
 *   commit {worker, lease, job, shard, status, error, payload}
 *                       -> ok {accepted, duplicate}
 *
 * Client-facing types:
 *
 *   submit {args[], nshards, fingerprint}
 *                       -> job {job, total, resumed}
 *   poll {job, done[], failed[], poll_seconds}
 *                       -> status {total, done[], failed[], complete,
 *                                  job_failed}
 *   fetch {job, shard}  -> result {shard, payload} | pending | error
 *
 * ## Long polls
 *
 * `pull` and `poll` are long polls: a request's `poll_seconds` is the
 * longest the caller will wait for news. A `pull` is held until a
 * shard can be assigned (queued, or stealable); a `poll` is held
 * until the job's done/failed sets differ from the `done[]`/
 * `failed[]` the request carries (what the client has already seen)
 * or the job settles. Either answers `idle` / the unchanged `status`
 * when the budget runs out. The broker caps the budget at the
 * heartbeat interval — `registered.poll_seconds` announces the cap —
 * and touches the waiting worker whenever the wait wakes, so a
 * blocked pull never looks like a dead worker. A budget of 0 (the
 * default) answers at once, and so does a broker that is not
 * running. A waiting poll whose caller hangs up ends at its next
 * wake. Waits sleep on one condition variable, woken by every
 * transition that can answer them (submit, requeue — which covers
 * lease expiries and dead workers — commit, failure, unpark), by
 * each housekeeping tick, and by stop(); a waiting pull also wakes
 * on its own when an in-flight lease crosses the steal threshold.
 *
 * Connections are served one thread each; a finished connection's
 * thread is joined when the next connection is accepted
 * (srv::ConnectionSet), and stop() joins the rest.
 *
 * ## Leases and stealing
 *
 * Every assignment holds the shard under a lease whose duration is
 * the straggler-scaled median of completed-shard durations (base
 * leaseBaseSec until stragglerMinDone completions exist). A
 * heartbeat carrying the lease renews the deadline only when its
 * progress counter advanced — a stalled worker that still heartbeats
 * loses the lease on schedule. A missed worker heartbeat
 * (workerDeadSec) or an expired lease returns the shard to the queue
 * for re-dispatch; when the queue is empty, an idle pull may
 * speculatively duplicate the oldest in-flight lease past the
 * straggler threshold (cross-job stealing). First VALID commit wins;
 * later commits are duplicates and must be byte-equivalent.
 *
 * ## Journal
 *
 * With a state dir configured the broker appends every accepted
 * state transition (job admitted / shard committed / shard failed /
 * job done) to `<state>/journal.jsonl`: one line per entry,
 * `{"qramsim_broker_journal":1,"seq":N,"hash":"<16hex>","body":"…"}`
 * where hash = fnv1a64("<seq>:" + body). Appends are O_APPEND +
 * fsync (knob: atomicFileFsync), rotation is a compacted snapshot
 * through atomicWriteFile. A rotation happens when the journal
 * outgrows both rotateBytes and twice the last snapshot, so each
 * snapshot rewrite is paid for by at least as many appended bytes
 * and the number of rotations grows with the log of the journal
 * volume, not with the number of appends. The loader is hardened
 * like the orchestrator's manifest: a torn FINAL line (the SIGKILL-mid-write shape) is
 * dropped and counted; any bad line before the tail is tampering and
 * rejects the whole journal. Replayed commit payloads are
 * re-validated against the job's plan before being trusted; invalid
 * ones are dropped and recomputed.
 *
 * ## Faults
 *
 * The broker consults QRAMSIM_FAULT for exactly one kind —
 * journal-truncate, which tears the journal line committing the
 * selected shard and SIGKILLs the broker (the deterministic
 * crash-recovery drill). The worker-side kinds (kill-on-pull,
 * drop-heartbeat, lease-stall) live in qramsim_server's broker
 * worker loop; the resident socket server's request path still never
 * consults faults.
 */

#ifndef QRAMSIM_SIM_BROKER_HH
#define QRAMSIM_SIM_BROKER_HH

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hh"
#include "sim/server.hh"
#include "sim/sharding.hh"

namespace qramsim {
namespace brk {

// --- Wire messages -----------------------------------------------------

/**
 * One broker protocol message (either direction). Flat by design so
 * the hardened json::Cursor covers it; every field is emitted by
 * buildMsg and round-trips through parseMsg. Booleans travel as 0/1.
 */
struct Msg
{
    std::string type; ///< required
    std::string worker, job, fingerprint, error, payload;
    std::uint64_t lease = 0;
    std::uint64_t shard = 0;
    std::uint64_t nshards = 0; ///< requested N (worker --shard i/N)
    std::uint64_t total = 0;   ///< actual planned shard count
    std::uint64_t status = 0;  ///< ToolExit semantics
    std::uint64_t progress = 0;
    std::uint64_t cancel = 0, accepted = 0, duplicate = 0;
    std::uint64_t resumed = 0, complete = 0, jobFailed = 0;
    double heartbeatSec = 0.0;
    /** Long-poll budget on pull/poll requests; on `registered`, the
     *  longest wait the broker grants. */
    double pollSec = 0.0;
    std::vector<std::string> args;
    std::vector<double> done, failed;
};

std::string buildMsg(const Msg &m);
bool parseMsg(const std::string &json, Msg &out,
              std::string *err = nullptr);

/** One framed request/response round trip over a fresh connection to
 *  @p socketPath. False (with reason) on any transport failure. With
 *  @p cancelFd >= 0, the wait for the response (a long poll) is
 *  abandoned as soon as @p cancelFd turns readable. */
bool roundTrip(const std::string &socketPath, const Msg &req,
               Msg &resp, std::string *err = nullptr,
               int cancelFd = -1);

// --- Journal -----------------------------------------------------------

struct JournalEntry
{
    std::uint64_t seq = 0;
    std::string body; ///< one flat JSON object (see broker.cc)
};

/** `{"qramsim_broker_journal":1,"seq":N,"hash":"…","body":"…"}\n`. */
std::string buildJournalLine(std::uint64_t seq,
                             const std::string &body);

/**
 * Parse a whole journal text. Lines must carry consecutive seq
 * numbers starting at the first line's and matching hashes. A bad or
 * torn FINAL line is dropped (counted in @p droppedTail) — that is
 * what a crash mid-append legitimately leaves. A bad line with more
 * lines after it is tampering: false with the reason in @p err.
 */
bool parseJournal(const std::string &text,
                  std::vector<JournalEntry> &out,
                  std::size_t *droppedTail = nullptr,
                  std::string *err = nullptr);

// --- Broker ------------------------------------------------------------

/**
 * The upper median (sorted[n / 2]) of a growing sample, kept in two
 * heaps so add() is O(log n) and median() O(1) — the broker asks for
 * it on every assignment and idle pull, and the sample (every
 * completed shard's duration) is never trimmed.
 */
class RunningMedian
{
  public:
    void add(double v);
    std::size_t size() const { return lower_.size() + upper_.size(); }
    /** Requires size() > 0. */
    double median() const { return upper_.top(); }

  private:
    std::priority_queue<double> lower_; ///< the n/2 smallest
    std::priority_queue<double, std::vector<double>,
                        std::greater<double>>
        upper_; ///< the rest; its least is the median
};

struct BrokerConfig
{
    std::string socketPath; ///< "" = no socket (in-process tests)

    /** Journal directory; "" disables persistence. */
    std::string stateDir;

    /** Replay an existing journal on start (otherwise a leftover
     *  journal is an error — refusing beats silently recomputing). */
    bool resume = false;

    /** Heartbeat interval announced to workers. */
    double heartbeatSec = 1.0;

    /** A worker silent for this long is dead and its leases return
     *  to the queue (0 = 3 * heartbeatSec). */
    double workerDeadSec = 0.0;

    /** Lease duration until enough completions exist to scale. */
    double leaseBaseSec = 30.0;

    /** Lease duration and steal threshold = stragglerFactor * median
     *  completed duration, once stragglerMinDone completions exist. */
    double stragglerFactor = 3.0;
    std::size_t stragglerMinDone = 3;

    /** Dispatch attempts per shard before it is failed. */
    unsigned maxAttempts = 3;

    /** Park a job no client has polled for this long (0 = never);
     *  parked jobs stop dispatching until the client returns. */
    double parkAfterSec = 60.0;

    /** Compact the journal when it outgrows this AND twice the last
     *  compacted snapshot. */
    std::size_t rotateBytes = std::size_t(4) << 20;

    std::uint32_t maxFrameBytes = srv::kDefaultMaxFrameBytes;
    int backlog = 64;
};

class Broker
{
  public:
    explicit Broker(BrokerConfig cfg);
    ~Broker();

    Broker(const Broker &) = delete;
    Broker &operator=(const Broker &) = delete;

    /** Replay/compact the journal (stateDir mode), bind the socket
     *  (socketPath mode), start the housekeeping + accept threads. */
    bool start(std::string *err = nullptr);

    /** Stop serving, join threads, unlink the socket. Idempotent. */
    void stop();

    /**
     * Dispatch one request frame and return the response frame — the
     * full protocol logic without a socket. Exposed for tests; the
     * socket path is recvFrame -> handleMessage -> sendFrame, with
     * the connection as @p peerFd so a long poll ends as soon as its
     * caller hangs up (instead of leasing a shard to nobody).
     */
    std::string handleMessage(const std::string &frame,
                              int peerFd = -1);

    struct Stats
    {
        std::uint64_t jobsSubmitted = 0;
        std::uint64_t jobsResumed = 0; ///< re-submits adopting state
        std::uint64_t jobsCompleted = 0;
        std::uint64_t jobsParked = 0;
        std::uint64_t assignments = 0;
        std::uint64_t speculativeAssignments = 0; ///< queue-empty steals
        std::uint64_t redispatches = 0; ///< re-assignment of a shard
        std::uint64_t steals = 0; ///< re-assignment to a NEW worker
        std::uint64_t leaseExpiries = 0;
        std::uint64_t deadWorkers = 0;
        std::uint64_t commitsAccepted = 0;
        std::uint64_t commitsRejected = 0; ///< invalid payloads
        std::uint64_t shardsFailed = 0;
        std::uint64_t duplicateCommits = 0;
        std::uint64_t duplicateMatches = 0;
        std::uint64_t duplicateMismatches = 0;
        std::uint64_t journalReplayedCommits = 0;
        std::uint64_t journalDroppedEntries = 0;
        std::uint64_t journalCompactions = 0; ///< growth rotations
        std::uint64_t badFrames = 0;
        double stealLatencySecTotal = 0.0; ///< queue-return -> pickup
    };
    Stats stats() const;

    /** Flat JSON of the counters above (for --stats-out and CI). */
    std::string statsJson() const;

    /** `<stateDir>/journal.jsonl`. */
    static std::string journalPath(const std::string &stateDir);

    /** Connection threads not yet joined (ConnectionSet::unjoined). */
    std::size_t connectionThreads() const { return conns_.unjoined(); }

  private:
    struct ShardState;
    struct Job;
    struct Lease;
    struct Worker;
    struct QueueEntry;

    using Clock = std::chrono::steady_clock;

    void acceptLoop();
    void serveConnection(int fd);
    void housekeepingLoop();
    void tickLocked(Clock::time_point now);

    Msg handleLocked(const Msg &req, std::unique_lock<std::mutex> &lk,
                     int peerFd);
    Msg longPollLocked(const Msg &req, std::unique_lock<std::mutex> &lk,
                       int peerFd,
                       Msg (Broker::*handler)(const Msg &,
                                              Clock::time_point,
                                              Clock::time_point *),
                       bool (*answered)(const Msg &req,
                                        const Msg &resp));
    Msg handleRegister(const Msg &req, Clock::time_point now);
    /** The long-poll handlers lower @p recheckAt to the moment their
     *  answer can change with no event to announce it (a lease
     *  crossing the steal threshold). */
    Msg handlePull(const Msg &req, Clock::time_point now,
                   Clock::time_point *recheckAt);
    Msg handleHeartbeat(const Msg &req, Clock::time_point now);
    Msg handleCommit(const Msg &req, Clock::time_point now);
    Msg handleSubmit(const Msg &req, Clock::time_point now);
    Msg handlePoll(const Msg &req, Clock::time_point now,
                   Clock::time_point *recheckAt);
    Msg handleFetch(const Msg &req, Clock::time_point now);

    Worker &touchWorkerLocked(const std::string &name,
                              Clock::time_point now);
    double leaseDurationLocked() const;
    void returnShardLocked(const std::string &jobId, std::size_t shard,
                           Clock::time_point now);
    void dropLeaseLocked(std::uint64_t leaseId);
    void unparkLocked(Job &job);
    void acceptCommitLocked(Job &job, std::size_t shard,
                            const std::string &payload,
                            Clock::time_point now);
    void failShardLocked(Job &job, std::size_t shard,
                         const std::string &why);
    bool replayLocked(const std::string &text, std::string *err);
    void appendEntryLocked(const std::string &body,
                           std::size_t faultShotBegin,
                           std::size_t faultShotEnd);
    void compactLocked(std::string *err = nullptr);

    BrokerConfig cfg_;
    std::vector<fault::Spec> faults_; ///< journal-truncate only

    mutable std::mutex mu_;
    std::condition_variable cv_; ///< long polls wait here on mu_
    std::map<std::string, Job> jobs_; ///< ordered: deterministic scans
    std::map<std::string, Worker> workers_;
    std::map<std::uint64_t, Lease> leases_;
    std::deque<QueueEntry> queue_;
    RunningMedian doneDurations_; ///< lease-scaling history
    std::uint64_t nextLease_ = 1;
    std::uint64_t nextSeq_ = 1;
    std::size_t journalBytes_ = 0;
    std::size_t snapshotBytes_ = 0; ///< size of the last compaction
    int journalFd_ = -1;
    Stats stats_;

    int listenFd_ = -1;
    bool running_ = false;
    std::thread acceptThread_;
    std::thread housekeepingThread_;
    srv::ConnectionSet conns_;
};

} // namespace brk
} // namespace qramsim

#endif // QRAMSIM_SIM_BROKER_HH
