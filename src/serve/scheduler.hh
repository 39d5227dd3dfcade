/**
 * @file
 * The serving request scheduler: bounded admission, two priority lanes,
 * per-client fairness, backpressure, and cooperative cancellation, with
 * execution on a util::ThreadPool.
 *
 * Dispatch policy:
 *
 * - Two lanes. Interactive (one-shot what-if runs) has strict priority
 *   over Batch (year-long campaigns), so the interactive lane can never
 *   starve behind background work. To keep batch work from starving
 *   *completely* under a sustained interactive flood, every
 *   `batchBoostEvery`-th consecutive interactive dispatch yields one
 *   batch slot when batch work is waiting.
 * - Within a lane, clients are served round-robin: each client has its
 *   own FIFO, and one job is taken per client turn, so a client that
 *   dumps 100 requests cannot delay another client's first request by
 *   more than one job.
 * - Admission is bounded: past `maxQueued` waiting jobs, submit()
 *   returns QueueFull and the server translates that into RETRY_AFTER
 *   backpressure instead of buffering unboundedly.
 * - Cancellation is cooperative: every job carries a CancelToken that
 *   the job's body (ultimately Simulation's per-minute cancel check)
 *   polls. Cancelling a queued job does not unqueue it -- the job is
 *   dispatched and observes its token immediately, so the completion
 *   path (responding CANCELLED to the waiting client) always runs and
 *   no pool task is ever leaked.
 *
 * Execution: run() dispatches the worker loops onto a dedicated
 * util::ThreadPool via one long parallelFor (each index is a persistent
 * worker), so the serving stack reuses the pool's thread lifecycle,
 * telemetry task hooks, and worker naming rather than growing a second
 * threading substrate.
 */

#ifndef ECOLO_SERVE_SCHEDULER_HH
#define ECOLO_SERVE_SCHEDULER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "telemetry/latency.hh"
#include "util/parallel.hh"

namespace ecolo::serve {

/** Scheduling lane. */
enum class Lane : int
{
    Interactive = 0,
    Batch = 1,
};

/** Why a job was asked to stop. */
enum class CancelReason : int
{
    None = 0,
    Client = 1,   //!< explicit CANCEL request
    Drain = 2,    //!< server shutting down; checkpoint if configured
    Deadline = 3, //!< request budget expired (queued or mid-run)
};

/** Shared cooperative-cancellation flag; cheap to copy into jobs. */
class CancelToken
{
  public:
    CancelToken() : state_(std::make_shared<std::atomic<int>>(0)) {}

    bool cancelled() const
    { return state_->load(std::memory_order_acquire) != 0; }

    CancelReason reason() const
    {
        return static_cast<CancelReason>(
            state_->load(std::memory_order_acquire));
    }

    /** First cancellation wins; later calls with another reason no-op. */
    void cancel(CancelReason reason) const
    {
        int expected = 0;
        state_->compare_exchange_strong(expected,
                                        static_cast<int>(reason),
                                        std::memory_order_acq_rel);
    }

  private:
    std::shared_ptr<std::atomic<int>> state_;
};

class Scheduler
{
  public:
    /** A job body; must poll the token to honor cancellation. */
    using JobFn = std::function<void(const CancelToken &)>;

    struct Options
    {
        std::size_t numWorkers = 2;
        std::size_t maxQueued = 32;     //!< waiting jobs across both lanes
        std::size_t batchBoostEvery = 4; //!< see file comment
    };

    enum class Admission
    {
        Admitted,
        QueueFull, //!< backpressure: retry later
        Draining,  //!< shutting down: no new work
    };

    struct SubmitResult
    {
        Admission admission = Admission::Admitted;
        std::size_t queueDepth = 0; //!< waiting jobs after this submit
    };

    struct Stats
    {
        std::uint64_t submitted = 0;
        std::uint64_t admitted = 0;
        std::uint64_t rejectedQueueFull = 0;
        std::uint64_t rejectedDraining = 0;
        std::uint64_t completed = 0;
        std::uint64_t cancelled = 0; //!< completed with a cancelled token
        /** Jobs whose deadline had already expired at dispatch. */
        std::uint64_t deadlineExpiredQueued = 0;
        std::uint64_t dispatchedInteractive = 0;
        std::uint64_t dispatchedBatch = 0;
        std::size_t queuedNow = 0;
        std::size_t runningNow = 0;
    };

    explicit Scheduler(Options options);

    /**
     * Drains (without cancelling). The thread calling run() must have
     * been joined before the Scheduler is destroyed.
     */
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Enqueue a job under (lane, client). @param id must be unique among
     * live jobs (the server's request id). Never blocks. An optional
     * deadline makes the timeout cooperative end to end: a job whose
     * deadline has passed by the time a worker picks it up is dispatched
     * with its token already cancelled (CancelReason::Deadline), so the
     * body answers the client immediately instead of simulating.
     */
    SubmitResult
    submit(std::uint64_t id, Lane lane, const std::string &client_id,
           JobFn job,
           std::optional<std::chrono::steady_clock::time_point>
               deadline = std::nullopt);

    /**
     * Flag a queued or running job's token. Returns false when the id
     * is unknown (never admitted, or already completed).
     */
    bool cancel(std::uint64_t id, CancelReason reason);

    /**
     * Execute jobs until drain() completes. Blocks the calling thread
     * (it participates as a worker); call from a dedicated thread.
     */
    void run();

    /**
     * Stop admitting new work and let run() return once the queues are
     * empty and every in-flight job finished. With cancel_in_flight,
     * all queued and running jobs are flagged with CancelReason::Drain
     * first so long campaigns stop at the next simulated minute
     * (and can checkpoint) instead of running to their horizon.
     */
    void drain(bool cancel_in_flight);

    Stats stats() const;
    std::size_t queuedNow() const;

    /** Time jobs spent queued before dispatch, per lane (microseconds). */
    telemetry::TailLatency::Snapshot queueWaitSnapshot(Lane lane) const;

  private:
    /** Per-lane client-fair queue: round-robin of per-client FIFOs. */
    struct Job
    {
        std::uint64_t id = 0;
        Lane lane = Lane::Interactive;
        JobFn fn;
        CancelToken token;
        std::optional<std::chrono::steady_clock::time_point> deadline;
        std::chrono::steady_clock::time_point enqueued;
    };

    struct LaneQueue
    {
        std::map<std::string, std::deque<Job>> perClient;
        std::deque<std::string> rotation; //!< clients with queued work
        std::size_t size = 0;

        bool empty() const { return size == 0; }
        void push(const std::string &client, Job job);
        Job pop(); //!< precondition: !empty()
    };

    bool popNextLocked(Job &out);
    void workerLoop();

    const Options options_;
    util::ThreadPool pool_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    LaneQueue lanes_[2];
    std::map<std::uint64_t, CancelToken> liveTokens_;
    std::size_t interactiveStreak_ = 0;
    bool draining_ = false;
    Stats stats_;
    telemetry::TailLatency queueWait_[2];
};

} // namespace ecolo::serve

#endif // ECOLO_SERVE_SCHEDULER_HH
