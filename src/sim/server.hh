/**
 * @file
 * The resident estimation server and its wire protocol.
 *
 * ## Why a server
 *
 * Every `qramsim_shard run` recompiles the circuit and rebuilds the
 * estimator's ideal/checkpoint caches before evaluating one shot —
 * setup the orchestrator multiplies by shards x retries x
 * speculative duplicates. qramsim_server keeps that state RESIDENT:
 * compiled circuits + estimators live across requests in a
 * CompiledCache, finished PartialEstimate blobs in a
 * content-addressed ResultCache (cachestore.hh), so the 2nd..Nth
 * shard of a sweep pays zero setup and an identical re-request pays
 * zero compute.
 *
 * ## Wire protocol
 *
 * Unix-domain stream socket. Each message is a FRAME: a 4-byte
 * little-endian unsigned payload length, then that many bytes of
 * UTF-8 JSON. A connection carries any number of request/response
 * round trips (strictly alternating); either side closes when done.
 *
 * Request:  {"qramsim_shard_request": 1, "args": ["--arch", ...]}
 *   `args` is exactly a `qramsim_shard run` argument vector (the
 *   shared parseRunFlags vocabulary, tools/workload.hh); `--out` is
 *   ignored (the result rides the response) and `--tier` is REJECTED
 *   (a SIMD tier pin is process-global state a shared server must
 *   not toggle; results are tier-invariant anyway).
 *
 * Response: {"qramsim_shard_response": 1, "status": N,
 *            "cache": "...", "setup_seconds": X,
 *            "compute_seconds": Y, "error": "...", "payload": "..."}
 *   `status` reuses the ToolExit contract the orchestrator already
 *   classifies (0 ok / 2 usage = permanent / 3 transient =
 *   retryable), `payload` is the PartialEstimate JSON on status 0,
 *   and `cache` says how it was produced: "result" (memory hit),
 *   "spill" (validated disk blob), "coalesced" (waited on an
 *   identical in-flight request), "compiled" (computed on a resident
 *   estimator), "cold" (computed after a full build). The timing pair
 *   is the cost THIS request paid — a warm hit reports
 *   setup_seconds == 0.
 *
 * The server never consults QRAMSIM_FAULT — fault injection is a
 * worker-tool testing hook, and a resident process must not inherit
 * job-scoped faults. Bad requests get status 2 and the connection
 * keeps serving; the process exits only on stop().
 */

#ifndef QRAMSIM_SIM_SERVER_HH
#define QRAMSIM_SIM_SERVER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/threadpool.hh"
#include "sim/cachestore.hh"

namespace qramsim {
namespace srv {

// --- Framing -----------------------------------------------------------

/** Default cap on one frame's payload (request or response). Partial
 *  blobs carry per-shot rows, so this is generous by design. */
constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/** Write one length-prefixed frame. False (with reason) on any short
 *  write or peer reset; never raises SIGPIPE. */
bool sendFrame(int fd, const std::string &payload,
               std::string *err = nullptr);

/**
 * Read one frame. False on EOF, short read, or a length prefix
 * exceeding @p maxBytes (a corrupt or hostile peer — the caller
 * closes the connection, it cannot resynchronize). Clean EOF before
 * any byte sets @p err to "" so callers can tell "peer done" from
 * "torn frame".
 */
bool recvFrame(int fd, std::string &payload, std::uint32_t maxBytes,
               std::string *err = nullptr);

/** Connect to a Unix-domain stream socket. Returns the fd or -1 with
 *  the reason in @p err. */
int connectUnix(const std::string &path, std::string *err = nullptr);

// --- Connection threads ------------------------------------------------

/**
 * The per-connection threads of a socket service (the Server and the
 * broker). Each accepted fd is served on its own thread, which closes
 * the fd when @p serve returns. A thread that has finished is joined
 * by the next spawn() — so a service answering N short-lived
 * connections holds O(1) unjoined threads, not N — and closeAll()
 * joins the rest.
 */
class ConnectionSet
{
  public:
    ConnectionSet() = default;
    ~ConnectionSet() { closeAll(); }

    ConnectionSet(const ConnectionSet &) = delete;
    ConnectionSet &operator=(const ConnectionSet &) = delete;

    /** Serve @p fd on a new thread; first joins every thread that
     *  finished since the last call. */
    void spawn(int fd, std::function<void(int)> serve);

    /**
     * shutdown() every live connection (unblocking its thread's
     * recv) and join every thread. The caller must have stopped
     * calling spawn() (joined its accept loop) first.
     */
    void closeAll();

    /** Threads started and not yet joined, live or finished. */
    std::size_t unjoined() const;

  private:
    mutable std::mutex mu_;
    std::uint64_t nextId_ = 0;
    std::map<std::uint64_t, std::thread> threads_;
    std::map<std::uint64_t, int> liveFds_;
    std::vector<std::uint64_t> finished_;
};

// --- Request / response JSON ------------------------------------------

std::string buildShardRequest(const std::vector<std::string> &args);
bool parseShardRequest(const std::string &json,
                       std::vector<std::string> &args,
                       std::string *err = nullptr);

struct ShardResponse
{
    /** ToolExit semantics: 0 ok, 2 usage (permanent), 3 transient
     *  (retryable). */
    int status = 0;
    /** "result" | "spill" | "coalesced" | "compiled" | "cold" | "". */
    std::string cache;
    /** Setup cost THIS request paid (estimator build; 0 on a warm
     *  hit) and the shard evaluation wall time (0 when served from
     *  any cache). */
    double setupSeconds = 0.0;
    double computeSeconds = 0.0;
    std::string error;
    /** PartialEstimate JSON when status == 0. */
    std::string payload;
};

std::string buildShardResponse(const ShardResponse &r);
bool parseShardResponse(const std::string &json, ShardResponse &out,
                        std::string *err = nullptr);

// --- Server ------------------------------------------------------------

struct ServerConfig
{
    std::string socketPath;
    /** Estimation ThreadPool size (0 = hardware concurrency). ONE
     *  pool is shared by every request via ShardSpec::pool — the
     *  resident process bounds compute, not the request. */
    unsigned threads = 0;
    /** Resident circuit+estimator entries (LRU). */
    std::size_t compiledCapacity = 8;
    /** In-memory result blobs (LRU). */
    std::size_t resultCapacity = 256;
    /** Result spill directory; "" disables the on-disk cache. */
    std::string spillDir;
    /** Spill-directory size cap in bytes; the cache sweeps the
     *  directory LRU-by-mtime on startup and after each spill write
     *  (0 = unbounded, the pre-cap behaviour). */
    std::size_t spillCapBytes = 256u << 20;
    std::uint32_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Per-connection idle deadline in seconds: a connection that
     *  sends no complete frame for this long is closed (counted in
     *  Stats::transportTimeouts) — the slow-loris defense. 0
     *  disables. */
    double idleTimeoutSec = 300.0;
    /** Reject workloads wider than this (address width ~ state
     *  cost); a shared server must bound one request's footprint. */
    unsigned maxAddressWidth = 24;
    /** Reject jobs over this raw shot/draw budget. */
    std::size_t maxShots = std::size_t(1) << 24;
    int backlog = 64;
};

class Server
{
  public:
    explicit Server(ServerConfig cfg);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + start the accept thread. A stale socket file
     *  at the path is unlinked first. */
    bool start(std::string *err = nullptr);

    /** Stop accepting, shut down live connections, join all
     *  threads, unlink the socket path. Idempotent. */
    void stop();

    /**
     * Execute one request in-process (the same path a connection
     * takes after recvFrame+parse). Exposed so tests can drive the
     * full cache/compute logic without a socket.
     */
    ShardResponse handle(const std::vector<std::string> &args);

    struct Stats
    {
        std::uint64_t requests = 0;
        std::uint64_t badRequests = 0; ///< unparseable frame/JSON
        std::uint64_t usageErrors = 0; ///< status 2
        std::uint64_t failures = 0;    ///< status 3
        std::uint64_t resultHits = 0;  ///< "result" + "spill"
        std::uint64_t resultCoalesced = 0;
        std::uint64_t computed = 0;    ///< "compiled" + "cold"
        std::uint64_t compiledBuilds = 0; ///< "cold"
        std::uint64_t transportTimeouts = 0; ///< idle connections cut
    };
    Stats stats() const;

    const ServerConfig &config() const { return cfg_; }

    /** Connection threads not yet joined (ConnectionSet::unjoined). */
    std::size_t connectionThreads() const { return conns_.unjoined(); }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    ServerConfig cfg_;
    ThreadPool pool_;
    CompiledCache compiled_;
    ResultCache results_;

    mutable std::mutex mu_;
    Stats stats_;
    int listenFd_ = -1;
    bool running_ = false;
    std::thread acceptThread_;
    ConnectionSet conns_;
};

} // namespace srv
} // namespace qramsim

#endif // QRAMSIM_SIM_SERVER_HH
