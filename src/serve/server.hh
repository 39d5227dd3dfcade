/**
 * @file
 * edgetherm-serve: the long-running simulation server.
 *
 * Wires the edgetherm-rpc-v2 protocol, the priority scheduler, and the
 * content-addressed result cache into one drainable service:
 *
 * - an acceptor thread polls the loopback listener and hands each
 *   connection to a short-lived handler thread;
 * - SUBMIT handlers parse + validate the scenario up front (errors are
 *   answered without touching the scheduler), consult the cache
 *   (hit -> ACCEPTED{cacheHit} + the cached RESULT bytes immediately),
 *   and otherwise admit the run, handing the connection to the job so
 *   STATUS/RESULT frames stream from the worker that simulates;
 * - drain (SIGTERM or a SHUTDOWN frame) stops admission, lets accepted
 *   work finish -- or, when a drain spool directory is configured,
 *   cancels in-flight runs at the next simulated minute and checkpoints
 *   them via the PR-2 checkpoint layer, answering DRAINED with the
 *   checkpoint path -- then joins every thread.
 *
 * Serving statistics are kept in plain atomically-updated structs
 * (always on) and mirrored into the telemetry registry as serve.* by
 * metricsJson(), so a --metrics-out dump carries them alongside the
 * engine's own stats.
 */

#ifndef ECOLO_SERVE_SERVER_HH
#define ECOLO_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "core/setup_cache.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/scheduler.hh"
#include "telemetry/latency.hh"
#include "util/result.hh"
#include "util/socket.hh"

namespace ecolo::serve {

/**
 * A SUBMIT payload validated and canonicalized into a runnable form:
 * the applied simulation config, the content-addressed cache key, and
 * the scheduling lane. Shared by the in-process server (admission and
 * journal replay) and the HTTP gateway, whose coordinator needs the
 * same validation and the same cache key to shard requests onto the
 * worker that will cache them.
 */
struct PreparedSubmit
{
    core::SimulationConfig config;
    CacheKey key;
    Lane lane = Lane::Interactive;
};

/**
 * Validate + canonicalize a SUBMIT payload: policy/horizon checks,
 * scenario parse/apply, default param fill-in, cache key derivation.
 * Mutates `request` (clientId default, param default) exactly like the
 * server's own admission path, so a forwarded payload hashes
 * identically on the worker.
 */
util::Result<PreparedSubmit>
prepareSubmitPayload(SubmitPayload &request,
                     std::int64_t max_horizon_minutes);

struct ServerOptions
{
    std::uint16_t port = 0;        //!< 0 = ephemeral; see port()
    std::size_t numWorkers = 2;    //!< concurrent simulations
    std::size_t maxQueued = 32;    //!< admission bound (both lanes)
    std::size_t batchBoostEvery = 4;
    std::size_t cacheMaxBytes = 32u << 20;
    std::size_t cacheMaxEntries = 1024;
    /** RETRY_AFTER hint handed to backpressured clients. */
    std::uint32_t retryAfterMs = 250;
    /** STATUS streaming granularity (simulated minutes). */
    std::int64_t statusEveryMinutes = 10080;
    /** Max accepted request horizon. */
    std::int64_t maxHorizonMinutes = 366L * 24 * 60 * 100;
    /** Kill idle/stuck request reads after this long. */
    int receiveTimeoutMs = 30000;
    /**
     * When non-empty, drain checkpoints in-flight runs into this
     * directory (request-<id>.ckpt) instead of running them to their
     * horizon.
     */
    std::string drainCheckpointDir;
    /**
     * When non-empty, admitted requests are journaled (write-ahead,
     * fdatasync'd before ACCEPTED) into `<journalDir>/requests.wal`,
     * and a restarted server replays admitted-but-unfinished requests
     * so their results land in the cache byte-identically.
     */
    std::string journalDir;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, then start the scheduler and acceptor threads. */
    util::Result<void> start();

    /** The bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    /** Begin the drain sequence; idempotent, returns immediately. */
    void requestDrain();

    /** True once a drain was requested (signal or SHUTDOWN frame). */
    bool drainRequested() const
    { return draining_.load(std::memory_order_acquire); }

    /** True from start() until the drain completed. */
    bool running() const
    { return running_.load(std::memory_order_acquire); }

    /** Block until the drain completed and every thread was joined. */
    void waitUntilStopped();

    /** Introspection for tests and the stats endpoint. */
    ResultCache::Stats cacheStats() const { return cache_.stats(); }
    Scheduler::Stats schedulerStats() const { return scheduler_.stats(); }
    core::SetupCache::Counters setupCacheCounters() const
    { return setupCache_->counters(); }

    /** Journal counters (zeros when no journalDir is configured). */
    struct JournalStats
    {
        std::uint64_t recovered = 0; //!< pending found at startup
        std::uint64_t replayed = 0;  //!< replays that reached an outcome
        std::uint64_t pending = 0;   //!< recovered minus replayed
        std::uint64_t appendFailures = 0;
    };
    JournalStats journalStats() const;

    /** Per-lane request latency (submit receipt -> terminal frame). */
    telemetry::TailLatency::Snapshot latencySnapshot(Lane lane) const
    { return latency_[static_cast<int>(lane)].snapshot(); }

    /** Requests answered with ErrorReply{DeadlineExceeded}. */
    std::uint64_t deadlineExceededCount() const
    { return deadlineExceeded_.load(std::memory_order_relaxed); }

    /**
     * Mirror serve.* stats into the telemetry registry and render the
     * edgetherm-metrics-v1 JSON document.
     */
    std::string metricsJson() const;

  private:
    void acceptLoop();
    void handleConnection(std::shared_ptr<util::TcpConnection> conn);
    void handleSubmit(std::shared_ptr<util::TcpConnection> conn,
                      const Frame &frame);
    /**
     * prepareSubmitPayload with this server's horizon bound; the
     * config shares this server's setupCache_.
     */
    util::Result<PreparedSubmit> prepareRequest(SubmitPayload &request);
    /**
     * Run one admitted simulation. `conn` may be null (journal replay):
     * all frame writes are skipped, but the cache fill, journal outcome,
     * and latency accounting still happen.
     */
    void runSimulationJob(
        std::shared_ptr<util::TcpConnection> conn,
        std::uint64_t request_id, const SubmitPayload &request,
        const core::SimulationConfig &config, const CacheKey &key,
        const CancelToken &token,
        std::optional<std::chrono::steady_clock::time_point> deadline,
        std::chrono::steady_clock::time_point received);
    void replayRecovered();
    void recordLatency(Lane lane,
                       std::chrono::steady_clock::time_point received);
    void recordJournalOutcome(std::uint64_t request_id,
                              JournalOutcome outcome);
    void reapHandlerThreadsLocked();

    const ServerOptions options_;
    util::TcpListener listener_;
    std::uint16_t port_ = 0;

    Scheduler scheduler_;
    ResultCache cache_;
    /**
     * Process-wide setup artifact cache: every admitted run shares its
     * scaled trace sets, heat matrices and factorizations.
     */
    std::shared_ptr<core::SetupCache> setupCache_;
    std::unique_ptr<RequestJournal> journal_;
    mutable telemetry::TailLatency latency_[2];

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> nextRequestId_{1};

    std::atomic<std::uint64_t> connectionsAccepted_{0};
    std::atomic<std::uint64_t> protocolErrors_{0};
    std::atomic<std::uint64_t> deadlineExceeded_{0};
    std::atomic<std::uint64_t> journalRecovered_{0};
    std::atomic<std::uint64_t> journalReplayed_{0};
    std::atomic<std::uint64_t> journalAppendFailures_{0};

    std::thread schedulerThread_;
    std::thread acceptThread_;

    /** Short-lived per-connection handlers; reaped as they finish. */
    struct Handler
    {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    std::mutex handlersMutex_;
    std::vector<Handler> handlers_;

    std::mutex stopMutex_; //!< serializes waitUntilStopped joins
    bool stopped_ = false;
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_SERVER_HH
