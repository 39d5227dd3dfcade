#include "serve/server.hh"

#include <algorithm>
#include <csignal>
#include <future>
#include <sstream>
#include <utility>

#include "core/checkpoint.hh"
#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "telemetry/telemetry.hh"
#include "util/keyvalue.hh"
#include "util/logging.hh"
#include "util/sim_time.hh"

namespace ecolo::serve {

namespace {

/** Accept-poll period; bounds drain latency of an idle acceptor. */
constexpr int kAcceptPollMs = 200;

bool
isKnownPolicy(const std::string &name)
{
    return name == "standby" || name == "random" || name == "myopic" ||
           name == "foresighted" || name == "oneshot";
}

RpcErrorCode
toRpcError(util::ErrorCode code)
{
    switch (code) {
    case util::ErrorCode::ParseError:
        return RpcErrorCode::ParseError;
    case util::ErrorCode::ValidationError:
        return RpcErrorCode::ValidationError;
    default:
        return RpcErrorCode::Internal;
    }
}

void
replyError(util::TcpConnection &conn, std::uint64_t request_id,
           RpcErrorCode code, const std::string &message)
{
    (void)writeFrame(conn, MessageType::ErrorReply, request_id,
                     encodeError(ErrorPayload{code, message}));
}

} // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      scheduler_(Scheduler::Options{options_.numWorkers,
                                    options_.maxQueued,
                                    options_.batchBoostEvery}),
      cache_(options_.cacheMaxBytes, options_.cacheMaxEntries),
      setupCache_(std::make_shared<core::SetupCache>())
{}

Server::~Server()
{
    requestDrain();
    waitUntilStopped();
}

util::Result<void>
Server::start()
{
    // A client that resets mid-response must cost this process an EPIPE
    // error return (writes already use MSG_NOSIGNAL, this covers any
    // other stray pipe write), never a fatal signal.
    std::signal(SIGPIPE, SIG_IGN);

    if (!options_.journalDir.empty()) {
        auto journal = RequestJournal::open(options_.journalDir);
        if (!journal)
            return journal.error();
        journal_ = std::make_unique<RequestJournal>(journal.take());
        std::uint64_t max_id = 0;
        for (const RequestJournal::PendingRequest &p :
             journal_->recovered())
            max_id = std::max(max_id, p.id);
        // Fresh ids must stay above every journaled id so replayed and
        // new requests never collide in the scheduler or the journal.
        if (max_id >= nextRequestId_.load(std::memory_order_relaxed))
            nextRequestId_.store(max_id + 1, std::memory_order_relaxed);
        journalRecovered_.store(journal_->recovered().size(),
                                std::memory_order_relaxed);
    }

    auto listener = util::TcpListener::listenLoopback(options_.port);
    if (!listener)
        return listener.error();
    listener_ = listener.take();
    port_ = listener_.port();
    running_.store(true, std::memory_order_release);
    if (journal_)
        replayRecovered();
    schedulerThread_ = std::thread([this] { scheduler_.run(); });
    acceptThread_ = std::thread([this] { acceptLoop(); });
    ecolo::inform("edgetherm-serve listening on 127.0.0.1:", port_, " (",
                  options_.numWorkers, " workers, queue bound ",
                  options_.maxQueued, ")");
    return {};
}

void
Server::requestDrain()
{
    bool expected = false;
    if (!draining_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel))
        return;
    // With a spool dir, in-flight runs stop at the next simulated
    // minute and checkpoint; without one they run to their horizon.
    scheduler_.drain(!options_.drainCheckpointDir.empty());
}

void
Server::waitUntilStopped()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (stopped_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (schedulerThread_.joinable())
        schedulerThread_.join();
    {
        std::lock_guard<std::mutex> handlers_lock(handlersMutex_);
        for (Handler &handler : handlers_) {
            if (handler.thread.joinable())
                handler.thread.join();
        }
        handlers_.clear();
    }
    running_.store(false, std::memory_order_release);
    stopped_ = true;
}

void
Server::reapHandlerThreadsLocked()
{
    auto it = handlers_.begin();
    while (it != handlers_.end()) {
        if (it->done->load(std::memory_order_acquire)) {
            it->thread.join();
            it = handlers_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::acceptLoop()
{
    while (!draining_.load(std::memory_order_acquire)) {
        auto accepted = listener_.acceptFor(kAcceptPollMs);
        if (!accepted) {
            if (!draining_.load(std::memory_order_acquire))
                ecolo::warn("serve: accept failed: ",
                            accepted.error().message);
            break;
        }
        if (!accepted.value().has_value())
            continue; // poll timeout: re-check the drain flag
        connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
        auto conn = std::make_shared<util::TcpConnection>(
            std::move(*accepted.value()));
        auto done = std::make_shared<std::atomic<bool>>(false);
        std::thread thread([this, conn, done] {
            handleConnection(conn);
            done->store(true, std::memory_order_release);
        });
        std::lock_guard<std::mutex> lock(handlersMutex_);
        reapHandlerThreadsLocked();
        handlers_.push_back(Handler{std::move(thread), std::move(done)});
    }
    // Late connects get a hard refusal instead of an unanswered backlog.
    listener_.close();
}

void
Server::handleConnection(std::shared_ptr<util::TcpConnection> conn)
{
    (void)conn->setReceiveTimeout(options_.receiveTimeoutMs);
    auto frame = readFrame(*conn);
    if (!frame) {
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        replyError(*conn, 0, RpcErrorCode::ParseError,
                   frame.error().message);
        return;
    }

    switch (frame.value().type) {
    case MessageType::Submit:
        handleSubmit(conn, frame.value());
        return;
    case MessageType::Cancel: {
        auto payload = decodeCancel(frame.value().payload);
        if (!payload) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            replyError(*conn, 0, RpcErrorCode::ParseError,
                       payload.error().message);
            return;
        }
        const std::uint64_t target = payload.value().targetId;
        const bool found =
            scheduler_.cancel(target, CancelReason::Client);
        (void)writeFrame(*conn, MessageType::CancelAck, target,
                         encodeCancelAck(CancelAckPayload{found}));
        return;
    }
    case MessageType::Stats:
        (void)writeFrame(*conn, MessageType::StatsReport, 0,
                         encodeStatsReport(
                             StatsReportPayload{metricsJson()}));
        return;
    case MessageType::Shutdown:
        // Ack first: requestDrain() closes the listener side of the
        // world, but this connection stays answerable.
        (void)writeFrame(*conn, MessageType::ShutdownAck, 0, "");
        requestDrain();
        return;
    default:
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        replyError(*conn, frame.value().requestId,
                   RpcErrorCode::ParseError,
                   std::string("unexpected client frame type ") +
                       toString(frame.value().type));
        return;
    }
}

util::Result<PreparedSubmit>
prepareSubmitPayload(SubmitPayload &request,
                     std::int64_t max_horizon_minutes)
{
    if (request.clientId.empty())
        request.clientId = "anon";

    // Validate everything up front: a request that can't run is
    // answered here and never touches the scheduler or the cache.
    if (!isKnownPolicy(request.policy)) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "unknown policy '", request.policy,
                           "' (expected standby|random|myopic|"
                           "foresighted|oneshot)");
    }
    if (request.horizonMinutes <= 0 ||
        request.horizonMinutes > max_horizon_minutes) {
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "horizon must be in [1, ",
                           max_horizon_minutes, "] minutes, got ",
                           request.horizonMinutes);
    }
    std::istringstream scenario_stream(request.scenarioText);
    auto kv = KeyValueConfig::tryParse(scenario_stream,
                                       "<request scenario>");
    if (!kv)
        return kv.error();
    PreparedSubmit prepared;
    prepared.config = core::SimulationConfig::paperDefault();
    ECOLO_TRY_VOID(core::tryApplyScenario(kv.value(), prepared.config));
    ECOLO_TRY_VOID(prepared.config.validated());
    if (!request.paramSet) {
        request.param = core::defaultPolicyParam(request.policy);
        request.paramSet = true;
    }

    // Content address: the canonical scenario (sorted key=value pairs,
    // comments and ordering already gone) + policy + param + horizon +
    // the thermal kernel the applied config resolves to + engine schema
    // version. The kernel is hashed explicitly so a mode switch (even
    // via a changed server default, with no thermal.kernel in the
    // scenario text) can never serve a stale cross-kernel result.
    prepared.key =
        makeCacheKey(kv.value(), request.policy, request.param,
                     request.horizonMinutes, prepared.config.thermalMode);
    prepared.lane = request.priority == Priority::Batch
                        ? Lane::Batch
                        : Lane::Interactive;
    return prepared;
}

util::Result<PreparedSubmit>
Server::prepareRequest(SubmitPayload &request)
{
    auto prepared =
        prepareSubmitPayload(request, options_.maxHorizonMinutes);
    if (prepared)
        prepared.value().config.setupCache = setupCache_;
    return prepared;
}

void
Server::handleSubmit(std::shared_ptr<util::TcpConnection> conn,
                     const Frame &frame)
{
    const auto received = std::chrono::steady_clock::now();
    auto decoded = decodeSubmit(frame.payload);
    if (!decoded) {
        protocolErrors_.fetch_add(1, std::memory_order_relaxed);
        replyError(*conn, 0, RpcErrorCode::ParseError,
                   decoded.error().message);
        return;
    }
    SubmitPayload request = decoded.take();
    auto prepared = prepareRequest(request);
    if (!prepared) {
        replyError(*conn, 0, toRpcError(prepared.error().code),
                   prepared.error().message);
        return;
    }
    const CacheKey key = prepared.value().key;
    const Lane lane = prepared.value().lane;
    const std::uint64_t id =
        nextRequestId_.fetch_add(1, std::memory_order_relaxed);

    // The deadline clock starts at frame receipt on the server; it is
    // carried into the scheduler so queue time counts against it.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (frame.deadlineMs > 0)
        deadline = received + std::chrono::milliseconds(frame.deadlineMs);

    if (auto hit = cache_.lookup(key); hit.has_value()) {
        (void)writeFrame(*conn, MessageType::Accepted, id,
                         encodeAccepted(AcceptedPayload{true, 0}));
        (void)writeFrame(*conn, MessageType::ResultReport, id,
                         encodeResult(ResultPayload{*hit}));
        recordLatency(lane, received);
        return;
    }

    // Write-ahead: the admission is durable before the client can learn
    // about it, so a kill -9 between here and the RESULT frame replays
    // the run on restart.
    if (journal_) {
        if (auto logged = journal_->recordAdmit(id, request); !logged) {
            journalAppendFailures_.fetch_add(1,
                                             std::memory_order_relaxed);
            replyError(*conn, id, RpcErrorCode::Internal,
                       "request journal append failed: " +
                           logged.error().message);
            return;
        }
    }

    // The job must not stream before this handler has written ACCEPTED
    // (two threads interleaving frames on one socket would corrupt the
    // stream), so it waits on a gate the handler opens after replying.
    auto gate = std::make_shared<std::promise<void>>();
    std::shared_future<void> accepted_sent = gate->get_future().share();
    auto job = [this, conn, id, request, config = prepared.value().config,
                key, deadline, received,
                accepted_sent](const CancelToken &token) {
        accepted_sent.wait();
        runSimulationJob(conn, id, request, config, key, token, deadline,
                         received);
    };
    const Scheduler::SubmitResult submitted = scheduler_.submit(
        id, lane, request.clientId, std::move(job), deadline);
    switch (submitted.admission) {
    case Scheduler::Admission::Admitted: {
        const std::uint32_t ahead =
            submitted.queueDepth > 0
                ? static_cast<std::uint32_t>(submitted.queueDepth - 1)
                : 0;
        (void)writeFrame(*conn, MessageType::Accepted, id,
                         encodeAccepted(AcceptedPayload{false, ahead}));
        gate->set_value();
        return;
    }
    case Scheduler::Admission::QueueFull:
        recordJournalOutcome(id, JournalOutcome::Bounced);
        (void)writeFrame(
            *conn, MessageType::RetryAfter, id,
            encodeRetryAfter(RetryAfterPayload{options_.retryAfterMs}));
        return;
    case Scheduler::Admission::Draining:
        recordJournalOutcome(id, JournalOutcome::Bounced);
        replyError(*conn, id, RpcErrorCode::Unavailable,
                   "server is draining; no new work accepted");
        return;
    }
}

void
Server::replayRecovered()
{
    for (const RequestJournal::PendingRequest &pending :
         journal_->recovered()) {
        SubmitPayload request = pending.request;
        auto prepared = prepareRequest(request);
        if (!prepared) {
            // A journaled request that no longer validates (e.g. a
            // schema change across the restart) is closed out, not
            // replayed forever.
            ecolo::warn("serve: journaled request ", pending.id,
                        " no longer valid: ", prepared.error().message);
            recordJournalOutcome(pending.id, JournalOutcome::Error);
            journalReplayed_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        if (cache_.lookup(prepared.value().key).has_value()) {
            recordJournalOutcome(pending.id, JournalOutcome::Completed);
            journalReplayed_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        const auto received = std::chrono::steady_clock::now();
        auto job = [this, id = pending.id, request,
                    config = prepared.value().config,
                    key = prepared.value().key,
                    received](const CancelToken &token) {
            runSimulationJob(nullptr, id, request, config, key, token,
                             std::nullopt, received);
        };
        const Scheduler::SubmitResult submitted =
            scheduler_.submit(pending.id, prepared.value().lane,
                              request.clientId, std::move(job));
        if (submitted.admission != Scheduler::Admission::Admitted) {
            // Stays pending in the journal; the next restart retries.
            ecolo::warn("serve: journal replay of request ", pending.id,
                        " refused (queue full); deferred to the next "
                        "restart");
        }
    }
    const std::size_t n = journal_->recovered().size();
    if (n > 0)
        ecolo::inform("edgetherm-serve: replaying ", n,
                      " journaled request(s)");
}

void
Server::recordLatency(Lane lane,
                      std::chrono::steady_clock::time_point received)
{
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - received)
            .count();
    latency_[static_cast<int>(lane)].record(us);
    telemetry::registry()
        .histogram(lane == Lane::Batch ? "serve.latency.batch_us"
                                       : "serve.latency.interactive_us")
        .add(us);
}

void
Server::recordJournalOutcome(std::uint64_t request_id,
                             JournalOutcome outcome)
{
    if (!journal_)
        return;
    if (auto logged = journal_->recordOutcome(request_id, outcome);
        !logged) {
        journalAppendFailures_.fetch_add(1, std::memory_order_relaxed);
        ecolo::warn("serve: journal outcome for request ", request_id,
                    " failed: ", logged.error().message);
    }
}

void
Server::runSimulationJob(
    std::shared_ptr<util::TcpConnection> conn, std::uint64_t request_id,
    const SubmitPayload &request, const core::SimulationConfig &config,
    const CacheKey &key, const CancelToken &token,
    std::optional<std::chrono::steady_clock::time_point> deadline,
    std::chrono::steady_clock::time_point received)
{
    const Lane lane = request.priority == Priority::Batch
                          ? Lane::Batch
                          : Lane::Interactive;
    // Every exit from this job is a terminal outcome: journal it, count
    // it against the lane's latency, and (replay jobs) tick the replay
    // counter -- the "never silence" half of the chaos invariant.
    const auto finish = [&](JournalOutcome outcome) {
        recordJournalOutcome(request_id, outcome);
        recordLatency(lane, received);
        if (!conn)
            journalReplayed_.fetch_add(1, std::memory_order_relaxed);
    };

    auto policy =
        core::tryMakePolicyByName(config, request.policy, request.param);
    if (!policy) {
        // Unreachable after prepareRequest's validation; fail loudly
        // rather than silently if the name sets ever diverge.
        if (conn)
            replyError(*conn, request_id, RpcErrorCode::Internal,
                       policy.error().message);
        finish(JournalOutcome::Error);
        return;
    }
    core::Simulation sim(config, policy.take());
    // The engine polls this once per simulated minute: cancellation and
    // the deadline share one cooperative mechanism. The clock check is
    // throttled -- steady_clock::now() per minute would dominate the
    // ~200 ns streaming slot loop.
    sim.setCancelCheck([token, deadline, calls = 0]() mutable {
        if (token.cancelled())
            return true;
        if (deadline && (++calls & 63) == 0 &&
            std::chrono::steady_clock::now() >= *deadline) {
            token.cancel(CancelReason::Deadline);
            return true;
        }
        return false;
    });

    const MinuteIndex horizon = request.horizonMinutes;
    while (sim.now() < horizon && !token.cancelled()) {
        const MinuteIndex chunk = std::min<MinuteIndex>(
            options_.statusEveryMinutes, horizon - sim.now());
        sim.run(chunk);
        // A failed STATUS write means the client went away; keep
        // simulating anyway so the completed run still fills the cache.
        if (conn && sim.now() < horizon && !token.cancelled())
            (void)writeFrame(*conn, MessageType::Status, request_id,
                             encodeStatus(
                                 StatusPayload{sim.now(), horizon}));
    }

    if (token.cancelled()) {
        if (token.reason() == CancelReason::Deadline) {
            deadlineExceeded_.fetch_add(1, std::memory_order_relaxed);
            if (conn)
                replyError(*conn, request_id,
                           RpcErrorCode::DeadlineExceeded,
                           "deadline exceeded after " +
                               std::to_string(sim.now()) + " of " +
                               std::to_string(horizon) +
                               " simulated minutes");
            finish(JournalOutcome::DeadlineExceeded);
        } else if (token.reason() == CancelReason::Drain &&
                   !options_.drainCheckpointDir.empty()) {
            const std::string path = options_.drainCheckpointDir +
                                     "/request-" +
                                     std::to_string(request_id) +
                                     ".ckpt";
            if (auto saved = core::saveSimulationCheckpoint(
                    path, sim, request.policy);
                !saved) {
                ecolo::warn("serve: drain checkpoint for request ",
                            request_id,
                            " failed: ", saved.error().message);
                if (conn)
                    replyError(*conn, request_id, RpcErrorCode::Internal,
                               "drain checkpoint failed: " +
                                   saved.error().message);
                finish(JournalOutcome::Error);
                return;
            }
            if (conn)
                (void)writeFrame(
                    *conn, MessageType::Drained, request_id,
                    encodeDrained(DrainedPayload{sim.now(), path}));
            finish(JournalOutcome::Drained);
        } else if (token.reason() == CancelReason::Drain) {
            if (conn)
                (void)writeFrame(
                    *conn, MessageType::Drained, request_id,
                    encodeDrained(DrainedPayload{sim.now(), ""}));
            // No checkpoint was spooled: the run is lost unless it is
            // journaled, in which case leaving it admit-only makes the
            // next start replay it.
            if (journal_)
                return;
            finish(JournalOutcome::Drained);
        } else {
            if (conn)
                (void)writeFrame(
                    *conn, MessageType::Cancelled, request_id,
                    encodeCancelled(CancelledPayload{sim.now()}));
            finish(JournalOutcome::Cancelled);
        }
        return;
    }

    std::ostringstream report_stream;
    core::ReportInputs inputs;
    inputs.policyName = request.policy;
    inputs.policyParameter = request.param;
    inputs.simulatedDays =
        static_cast<double>(horizon) / static_cast<double>(kMinutesPerDay);
    core::writeMarkdownReport(report_stream, config, sim.metrics(),
                              inputs);
    std::string report = report_stream.str();
    cache_.insert(key, report);
    if (conn)
        (void)writeFrame(*conn, MessageType::ResultReport, request_id,
                         encodeResult(ResultPayload{std::move(report)}));
    finish(JournalOutcome::Completed);
}

Server::JournalStats
Server::journalStats() const
{
    JournalStats stats;
    stats.recovered = journalRecovered_.load(std::memory_order_relaxed);
    stats.replayed = journalReplayed_.load(std::memory_order_relaxed);
    stats.pending = stats.recovered > stats.replayed
                        ? stats.recovered - stats.replayed
                        : 0;
    stats.appendFailures =
        journalAppendFailures_.load(std::memory_order_relaxed);
    return stats;
}

std::string
Server::metricsJson() const
{
    // Serving counters are authoritative in their own structs (alive
    // even with telemetry compiled out); the registry is only the dump
    // format, refreshed here.
    auto &reg = telemetry::registry();
    const ResultCache::Stats cache = cache_.stats();
    const Scheduler::Stats sched = scheduler_.stats();
    const auto set = [&reg](const char *name, double value) {
        reg.scalar(name).set(value);
    };
    set("serve.cache.hits", static_cast<double>(cache.hits));
    set("serve.cache.misses", static_cast<double>(cache.misses));
    set("serve.cache.evictions", static_cast<double>(cache.evictions));
    set("serve.cache.insertions", static_cast<double>(cache.insertions));
    set("serve.cache.oversize_rejected",
        static_cast<double>(cache.oversizeRejected));
    set("serve.cache.entries", static_cast<double>(cache.entries));
    set("serve.cache.bytes", static_cast<double>(cache.bytes));
    set("serve.requests.submitted",
        static_cast<double>(sched.submitted));
    set("serve.requests.admitted", static_cast<double>(sched.admitted));
    set("serve.requests.rejected_queue_full",
        static_cast<double>(sched.rejectedQueueFull));
    set("serve.requests.rejected_draining",
        static_cast<double>(sched.rejectedDraining));
    set("serve.requests.completed",
        static_cast<double>(sched.completed));
    set("serve.requests.cancelled",
        static_cast<double>(sched.cancelled));
    set("serve.dispatch.interactive",
        static_cast<double>(sched.dispatchedInteractive));
    set("serve.dispatch.batch", static_cast<double>(sched.dispatchedBatch));
    const core::SetupCache::Counters setup = setupCacheCounters();
    set("serve.setup_cache.hits",
        static_cast<double>(setup.traceHits + setup.matrixHits +
                            setup.factorizationHits));
    set("serve.setup_cache.misses",
        static_cast<double>(setup.traceMisses + setup.matrixMisses +
                            setup.factorizationMisses));
    set("serve.setup_cache.trace_hits",
        static_cast<double>(setup.traceHits));
    set("serve.setup_cache.factorization_hits",
        static_cast<double>(setup.factorizationHits));
    set("serve.queue.depth", static_cast<double>(sched.queuedNow));
    set("serve.queue.running", static_cast<double>(sched.runningNow));
    set("serve.connections.accepted",
        static_cast<double>(
            connectionsAccepted_.load(std::memory_order_relaxed)));
    set("serve.protocol.errors",
        static_cast<double>(
            protocolErrors_.load(std::memory_order_relaxed)));
    set("serve.requests.deadline_exceeded",
        static_cast<double>(
            deadlineExceeded_.load(std::memory_order_relaxed)));
    set("serve.requests.deadline_expired_queued",
        static_cast<double>(sched.deadlineExpiredQueued));
    const JournalStats journal = journalStats();
    set("serve.journal.recovered",
        static_cast<double>(journal.recovered));
    set("serve.journal.replayed", static_cast<double>(journal.replayed));
    set("serve.journal.pending", static_cast<double>(journal.pending));
    set("serve.journal.append_failures",
        static_cast<double>(journal.appendFailures));
    const auto set_lane = [&set](const char *prefix,
                                 const telemetry::TailLatency::Snapshot
                                     &snap) {
        const auto gauge = [&](const char *suffix, double value) {
            telemetry::registry()
                .scalar(std::string("serve.latency.") + prefix + "." +
                        suffix)
                .set(value);
        };
        gauge("count", static_cast<double>(snap.count));
        gauge("mean_us", snap.mean);
        gauge("jitter_us", snap.jitter);
        gauge("min_us", snap.min);
        gauge("max_us", snap.max);
        gauge("p50_us", snap.p50);
        gauge("p95_us", snap.p95);
        gauge("p99_us", snap.p99);
    };
    set_lane("interactive", latencySnapshot(Lane::Interactive));
    set_lane("batch", latencySnapshot(Lane::Batch));
    set_lane("interactive.queue_wait",
             scheduler_.queueWaitSnapshot(Lane::Interactive));
    set_lane("batch.queue_wait",
             scheduler_.queueWaitSnapshot(Lane::Batch));

    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

} // namespace ecolo::serve
