#include "gateway/gateway.hh"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include "serve/server.hh" // prepareSubmitPayload
#include "telemetry/telemetry.hh"
#include "util/logging.hh"

namespace ecolo::gateway {

namespace {

constexpr std::uint64_t kListenerTag = 0;
constexpr std::uint64_t kEventTag = 1;
/** Bound on bytes buffered ahead of a busy connection (pipelining). */
constexpr std::size_t kMaxPendingBytes = 64u << 10;

/** JSON error code slug for an HTTP parse-failure status. */
const char *
httpErrorCode(int status)
{
    switch (status) {
    case 400:
        return "bad_request";
    case 404:
        return "not_found";
    case 405:
        return "method_not_allowed";
    case 413:
        return "payload_too_large";
    case 414:
        return "uri_too_long";
    case 417:
        return "expectation_failed";
    case 429:
        return "retry_later";
    case 431:
        return "headers_too_large";
    case 501:
        return "not_implemented";
    case 502:
        return "bad_gateway";
    case 503:
        return "unavailable";
    case 504:
        return "deadline_exceeded";
    case 505:
        return "http_version_not_supported";
    default:
        return "internal";
    }
}

/** The {"error":{...}} envelope every failure body uses. */
std::string
errorBody(const char *code, const std::string &message)
{
    return std::string("{\"error\":{\"code\":\"") + code +
           "\",\"message\":" + jsonQuote(message) + "}}";
}

const char *
rpcErrorCodeName(serve::RpcErrorCode code)
{
    switch (code) {
    case serve::RpcErrorCode::ParseError:
        return "parse_error";
    case serve::RpcErrorCode::ValidationError:
        return "validation_error";
    case serve::RpcErrorCode::Unavailable:
        return "unavailable";
    case serve::RpcErrorCode::UnknownRequest:
        return "unknown_request";
    case serve::RpcErrorCode::Internal:
        return "internal";
    case serve::RpcErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    }
    return "internal";
}

int
rpcErrorHttpStatus(serve::RpcErrorCode code)
{
    switch (code) {
    case serve::RpcErrorCode::ParseError:
    case serve::RpcErrorCode::ValidationError:
        return 400;
    case serve::RpcErrorCode::Unavailable:
        return 503;
    case serve::RpcErrorCode::UnknownRequest:
        return 404;
    case serve::RpcErrorCode::Internal:
        return 500;
    case serve::RpcErrorCode::DeadlineExceeded:
        return 504;
    }
    return 500;
}

double
elapsedUs(std::chrono::steady_clock::time_point started)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - started)
        .count();
}

/** "/v1/runs/<digits>" -> id, or 0 on anything else. */
std::uint64_t
parseRunIdPath(const std::string &path)
{
    static const std::string prefix = "/v1/runs/";
    if (path.size() <= prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0)
        return 0;
    std::uint64_t id = 0;
    for (std::size_t i = prefix.size(); i < path.size(); ++i) {
        const char c = path[i];
        if (c < '0' || c > '9' || id > (~0ULL) / 16)
            return 0;
        id = id * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return id;
}

} // namespace

const char *
Gateway::toString(RunState state)
{
    switch (state) {
    case RunState::Queued:
        return "queued";
    case RunState::Running:
        return "running";
    case RunState::Completed:
        return "completed";
    case RunState::Cancelled:
        return "cancelled";
    case RunState::Drained:
        return "drained";
    case RunState::RetryLater:
        return "retry-later";
    case RunState::Error:
        return "error";
    case RunState::Unreachable:
        return "unreachable";
    }
    return "?";
}

Gateway::Gateway(GatewayOptions options)
    : options_(std::move(options)),
      pool_(options_.workers, options_.pool)
{}

Gateway::~Gateway()
{
    requestDrain();
    waitUntilStopped();
    if (epollFd_ >= 0)
        ::close(epollFd_);
    if (eventFd_ >= 0)
        ::close(eventFd_);
}

util::Result<void>
Gateway::start()
{
    auto listener = util::TcpListener::listenLoopback(options_.port);
    if (!listener)
        return listener.error();
    listener_ = listener.take();
    port_ = listener_.port();

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd_ < 0)
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "epoll_create1: ", std::strerror(errno));
    eventFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (eventFd_ < 0)
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "eventfd: ", std::strerror(errno));

    struct epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listener_.nativeHandle(),
                    &ev) != 0)
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "epoll_ctl(listener): ",
                           std::strerror(errno));
    ev.events = EPOLLIN;
    ev.data.u64 = kEventTag;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, eventFd_, &ev) != 0)
        return ECOLO_ERROR(util::ErrorCode::IoError,
                           "epoll_ctl(eventfd): ",
                           std::strerror(errno));

    running_.store(true, std::memory_order_release);
    pool_.start();
    const std::size_t forwarders =
        std::max<std::size_t>(options_.numForwarders, 1);
    forwarders_.reserve(forwarders);
    for (std::size_t i = 0; i < forwarders; ++i)
        forwarders_.emplace_back([this] { forwarderLoop(); });
    loopThread_ = std::thread([this] { eventLoop(); });
    inform("edgetherm-gateway listening on 127.0.0.1:", port_, " (",
           pool_.size(), " workers, ", forwarders, " forwarders)");
    return {};
}

void
Gateway::requestDrain()
{
    draining_.store(true, std::memory_order_release);
    if (running())
        wakeLoop();
}

void
Gateway::waitUntilStopped()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (stopped_)
        return;
    if (loopThread_.joinable())
        loopThread_.join();
    // start() may have failed before threads existed; make the
    // teardown below safe to run regardless.
    {
        std::lock_guard<std::mutex> jobs(jobsMutex_);
        jobsClosed_ = true;
    }
    jobsCv_.notify_all();
    for (auto &t : forwarders_)
        if (t.joinable())
            t.join();
    pool_.stop();
    stopped_ = true;
}

void
Gateway::wakeLoop()
{
    if (eventFd_ < 0)
        return;
    const std::uint64_t one = 1;
    (void)!::write(eventFd_, &one, sizeof one);
}

void
Gateway::enqueueJob(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        jobs_.push_back(std::move(job));
    }
    jobsCv_.notify_one();
}

void
Gateway::forwarderLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(jobsMutex_);
            jobsCv_.wait(lock, [this] {
                return jobsClosed_ || !jobs_.empty();
            });
            if (jobs_.empty())
                return; // closed and drained
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
    }
}

void
Gateway::pushCompletion(Completion completion)
{
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        completions_.push_back(std::move(completion));
    }
    wakeLoop();
}

// ---- Event loop ----

void
Gateway::eventLoop()
{
    std::vector<struct epoll_event> events(64);
    bool listenerOpen = true;
    for (;;) {
        const int n = ::epoll_wait(epollFd_, events.data(),
                                   static_cast<int>(events.size()),
                                   500);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("gateway: epoll_wait failed: ",
                 std::strerror(errno));
            break;
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kListenerTag) {
                if (listenerOpen)
                    acceptReady();
                continue;
            }
            if (tag == kEventTag) {
                std::uint64_t drainCount = 0;
                while (::read(eventFd_, &drainCount,
                              sizeof drainCount) > 0) {
                }
                continue; // completions applied below
            }
            auto it = conns_.find(tag);
            if (it == conns_.end())
                continue;
            if (events[i].events & EPOLLOUT)
                onWritable(*it->second);
            it = conns_.find(tag); // onWritable may have closed it
            if (it == conns_.end())
                continue;
            if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP))
                onReadable(*it->second);
        }
        applyCompletions();
        reapIdle();
        if (draining_.load(std::memory_order_acquire)) {
            if (listenerOpen) {
                (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL,
                                  listener_.nativeHandle(), nullptr);
                listener_.close();
                listenerOpen = false;
            }
            std::vector<std::uint64_t> quiescent;
            for (const auto &[id, conn] : conns_)
                if (!conn->busy &&
                    conn->outOff == conn->outBuf.size())
                    quiescent.push_back(id);
            for (const std::uint64_t id : quiescent)
                closeConn(id);
            if (conns_.empty())
                break;
        }
    }
    {
        std::lock_guard<std::mutex> lock(jobsMutex_);
        jobsClosed_ = true;
    }
    jobsCv_.notify_all();
    running_.store(false, std::memory_order_release);
}

void
Gateway::acceptReady()
{
    for (;;) {
        auto accepted = listener_.acceptFor(0);
        if (!accepted)
            return;
        if (!accepted.value().has_value())
            return; // nothing pending
        util::TcpConnection sock = std::move(*accepted.value());
        connectionsAccepted_.fetch_add(1, std::memory_order_relaxed);
        if (draining_.load(std::memory_order_acquire) ||
            conns_.size() >= options_.maxConnections) {
            connectionsRejected_.fetch_add(1,
                                           std::memory_order_relaxed);
            const std::string body = errorBody(
                "unavailable",
                draining_.load(std::memory_order_acquire)
                    ? "gateway is draining"
                    : "connection limit reached; retry shortly");
            const std::string resp = buildHttpResponse(
                503, "application/json", body, false,
                {{"Retry-After", "1"}});
            (void)sock.writeAll(resp.data(), resp.size());
            continue; // sock closes on scope exit
        }
        if (!sock.setNonBlocking(true))
            continue;
        auto conn = std::make_unique<Conn>();
        conn->id = nextConnId_++;
        conn->sock = std::move(sock);
        conn->parser = HttpRequestParser(options_.http);
        conn->lastActivity = std::chrono::steady_clock::now();
        struct epoll_event ev;
        std::memset(&ev, 0, sizeof ev);
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD,
                        conn->sock.nativeHandle(), &ev) != 0)
            continue; // conn closes on scope exit
        conns_.emplace(conn->id, std::move(conn));
    }
}

void
Gateway::closeConn(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    (void)::epoll_ctl(epollFd_, EPOLL_CTL_DEL,
                      it->second->sock.nativeHandle(), nullptr);
    conns_.erase(it);
}

void
Gateway::setWantWrite(Conn &conn, bool want)
{
    if (conn.wantWrite == want)
        return;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
    ev.data.u64 = conn.id;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.sock.nativeHandle(),
                    &ev) == 0)
        conn.wantWrite = want;
}

void
Gateway::queueBytes(Conn &conn, const std::string &bytes)
{
    conn.outBuf += bytes;
    setWantWrite(conn, true);
}

void
Gateway::onWritable(Conn &conn)
{
    while (conn.outOff < conn.outBuf.size()) {
        auto chunk = conn.sock.tryWrite(conn.outBuf.data() + conn.outOff,
                                        conn.outBuf.size() - conn.outOff);
        if (!chunk) {
            closeConn(conn.id);
            return;
        }
        if (chunk.value().wouldBlock)
            return; // EPOLLOUT stays armed
        conn.outOff += chunk.value().bytes;
        bytesOut_.fetch_add(chunk.value().bytes,
                            std::memory_order_relaxed);
        conn.lastActivity = std::chrono::steady_clock::now();
    }
    conn.outBuf.clear();
    conn.outOff = 0;
    setWantWrite(conn, false);
    if (conn.closeAfterWrite)
        closeConn(conn.id);
}

void
Gateway::onReadable(Conn &conn)
{
    char buf[4096];
    for (;;) {
        auto chunk = conn.sock.tryRead(buf, sizeof buf);
        if (!chunk) {
            closeConn(conn.id); // transport error (incl. chaos)
            return;
        }
        if (chunk.value().wouldBlock)
            break;
        if (chunk.value().eof) {
            closeConn(conn.id);
            return;
        }
        bytesIn_.fetch_add(chunk.value().bytes,
                           std::memory_order_relaxed);
        conn.lastActivity = std::chrono::steady_clock::now();
        conn.pending.append(buf, chunk.value().bytes);
        if (conn.busy && conn.pending.size() > kMaxPendingBytes) {
            closeConn(conn.id); // pipelining past a busy request
            return;
        }
    }
    consumePending(conn);
}

void
Gateway::consumePending(Conn &conn)
{
    while (!conn.busy && !conn.closeAfterWrite) {
        if (conn.pending.empty())
            return;
        const std::size_t used =
            conn.parser.feed(conn.pending.data(), conn.pending.size());
        conn.pending.erase(0, used);
        if (conn.parser.failed()) {
            parseErrors_.fetch_add(1, std::memory_order_relaxed);
            const int status = conn.parser.errorStatus();
            respond(conn, Route::Other,
                    std::chrono::steady_clock::now(), status,
                    errorBody(httpErrorCode(status),
                              conn.parser.errorReason()),
                    false);
            return;
        }
        if (conn.parser.phase() == HttpRequestParser::Phase::Body &&
            conn.parser.request().expectContinue &&
            !conn.continueSent) {
            conn.continueSent = true;
            expectContinue_.fetch_add(1, std::memory_order_relaxed);
            queueBytes(conn, continueResponse());
        }
        if (!conn.parser.complete())
            return; // wait for more bytes
        dispatch(conn);
        conn.parser.reset();
        conn.continueSent = false;
        // loop: a pipelined next request may already be buffered
    }
}

void
Gateway::applyCompletions()
{
    std::deque<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        batch.swap(completions_);
    }
    for (Completion &c : batch) {
        if (c.connId == 0)
            continue; // async: registry already updated
        auto it = conns_.find(c.connId);
        if (it == conns_.end())
            continue; // client went away; drop the bytes
        Conn &conn = *it->second;
        queueBytes(conn, c.bytes);
        if (c.endOfResponse) {
            conn.busy = false;
            if (c.closeAfter)
                conn.closeAfterWrite = true;
            conn.lastActivity = std::chrono::steady_clock::now();
            consumePending(conn); // resume pipelined requests
        }
    }
}

void
Gateway::reapIdle()
{
    if (options_.idleTimeoutMs <= 0)
        return;
    const auto now = std::chrono::steady_clock::now();
    const auto limit = std::chrono::milliseconds(options_.idleTimeoutMs);
    std::vector<std::uint64_t> idle;
    for (const auto &[id, conn] : conns_)
        if (!conn->busy && conn->outOff == conn->outBuf.size() &&
            now - conn->lastActivity > limit)
            idle.push_back(id);
    for (const std::uint64_t id : idle) {
        idleClosed_.fetch_add(1, std::memory_order_relaxed);
        closeConn(id);
    }
}

void
Gateway::recordResponse(int status)
{
    if (status >= 500)
        responses5xx_.fetch_add(1, std::memory_order_relaxed);
    else if (status >= 400)
        responses4xx_.fetch_add(1, std::memory_order_relaxed);
    else
        responses2xx_.fetch_add(1, std::memory_order_relaxed);
}

void
Gateway::respond(Conn &conn, Route route,
                 std::chrono::steady_clock::time_point started,
                 int status, const std::string &body, bool keep_alive,
                 const std::vector<std::pair<std::string, std::string>>
                     &extra_headers)
{
    recordResponse(status);
    latency_[static_cast<int>(route)].record(elapsedUs(started));
    queueBytes(conn, buildHttpResponse(status, "application/json",
                                       body, keep_alive,
                                       extra_headers));
    if (!keep_alive)
        conn.closeAfterWrite = true;
}

// ---- Routing ----

void
Gateway::dispatch(Conn &conn)
{
    const auto started = std::chrono::steady_clock::now();
    requests_.fetch_add(1, std::memory_order_relaxed);
    const HttpRequest &req = conn.parser.request();
    const std::string &method = req.method;
    const std::string &path = req.path;
    const bool keepAlive = req.keepAlive;

    if (path == "/v1/healthz") {
        if (method != "GET")
            return respond(conn, Route::Stats, started, 405,
                           errorBody("method_not_allowed",
                                     "use GET"),
                           keepAlive, {{"Allow", "GET"}});
        return respond(conn, Route::Stats, started, 200,
                       healthzJson(), keepAlive);
    }
    if (path == "/v1/stats") {
        if (method != "GET")
            return respond(conn, Route::Stats, started, 405,
                           errorBody("method_not_allowed",
                                     "use GET"),
                           keepAlive, {{"Allow", "GET"}});
        // The document includes per-worker serve.setup_cache.*
        // counters fetched over blocking STATS
        // RPCs, so the collection runs on a forwarder thread -- the
        // epoll loop must never wait on a worker socket.
        conn.busy = true;
        const std::uint64_t connId = conn.id;
        enqueueJob([this, connId, keepAlive, started] {
            collectWorkerServeStats();
            const std::string body = metricsJson();
            recordResponse(200);
            latency_[static_cast<int>(Route::Stats)].record(
                elapsedUs(started));
            Completion reply;
            reply.connId = connId;
            reply.bytes = buildHttpResponse(200, "application/json",
                                            body, keepAlive);
            reply.endOfResponse = true;
            reply.closeAfter = !keepAlive;
            pushCompletion(std::move(reply));
        });
        return;
    }
    if (path == "/v1/runs") {
        if (method == "POST")
            return handleRuns(conn, started);
        if (method == "GET")
            return handleRunList(conn, started);
        return respond(conn, Route::Other, started, 405,
                       errorBody("method_not_allowed",
                                 "use GET or POST"),
                       keepAlive, {{"Allow", "GET, POST"}});
    }
    if (path.compare(0, 9, "/v1/runs/") == 0) {
        const std::uint64_t id = parseRunIdPath(path);
        if (id == 0)
            return respond(conn, Route::Other, started, 404,
                           errorBody("not_found",
                                     "run ids are positive integers"),
                           keepAlive);
        if (method == "GET")
            return handleRunGet(conn, started, id);
        if (method == "DELETE")
            return handleCancel(conn, started, id);
        return respond(conn, Route::Other, started, 405,
                       errorBody("method_not_allowed",
                                 "use GET or DELETE"),
                       keepAlive, {{"Allow", "GET, DELETE"}});
    }
    if (path == "/v1/fleet") {
        if (method == "POST")
            return handleFleet(conn, started);
        return respond(conn, Route::Other, started, 405,
                       errorBody("method_not_allowed", "use POST"),
                       keepAlive, {{"Allow", "POST"}});
    }
    respond(conn, Route::Other, started, 404,
            errorBody("not_found", "no route for " + method + " " +
                                       path),
            keepAlive);
}

// ---- Request parsing ----

util::Result<Gateway::ParsedRun>
Gateway::parseRunRequest(const JsonValue &doc, bool allow_modes) const
{
    if (!doc.isObject())
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "request body must be a JSON object");
    ParsedRun out;
    serve::SubmitPayload payload;
    bool sawHorizon = false;
    bool sawDays = false;
    double days = 0.0;
    std::int64_t horizon = 0;
    std::uint32_t deadlineMs = 0;

    for (const auto &[key, value] : doc.members()) {
        if (key == "policy") {
            if (!value.isString())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'policy' must be a string");
            payload.policy = value.asString();
        } else if (key == "scenario") {
            if (!value.isString())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'scenario' must be a string of "
                                   "key=value lines");
            payload.scenarioText = value.asString();
        } else if (key == "horizon_minutes") {
            if (!value.isNumber() ||
                value.asNumber() != std::floor(value.asNumber()) ||
                value.asNumber() < 1.0 || value.asNumber() > 9.0e15)
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'horizon_minutes' must be a "
                                   "positive integer");
            horizon = static_cast<std::int64_t>(value.asNumber());
            sawHorizon = true;
        } else if (key == "days") {
            if (!value.isNumber() || value.asNumber() <= 0.0 ||
                value.asNumber() > 1.0e7)
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'days' must be a positive number");
            days = value.asNumber();
            sawDays = true;
        } else if (key == "param") {
            if (!value.isNumber())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'param' must be a number");
            payload.param = value.asNumber();
            payload.paramSet = true;
        } else if (key == "priority") {
            if (!value.isString() ||
                (value.asString() != "interactive" &&
                 value.asString() != "batch"))
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'priority' must be \"interactive\""
                                   " or \"batch\"");
            payload.priority = value.asString() == "batch"
                                   ? serve::Priority::Batch
                                   : serve::Priority::Interactive;
        } else if (key == "client_id") {
            if (!value.isString())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'client_id' must be a string");
            payload.clientId = value.asString();
        } else if (key == "deadline_ms") {
            if (!value.isNumber() ||
                value.asNumber() != std::floor(value.asNumber()) ||
                value.asNumber() < 0.0 ||
                value.asNumber() > 4294967295.0)
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'deadline_ms' must be a "
                                   "non-negative integer");
            deadlineMs =
                static_cast<std::uint32_t>(value.asNumber());
        } else if (key == "stream" && allow_modes) {
            if (!value.isBool())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'stream' must be a boolean");
            out.stream = value.asBool();
        } else if (key == "async" && allow_modes) {
            if (!value.isBool())
                return ECOLO_ERROR(util::ErrorCode::ValidationError,
                                   "'async' must be a boolean");
            out.async = value.asBool();
        } else {
            return ECOLO_ERROR(util::ErrorCode::ValidationError,
                               "unknown field '", key, "'");
        }
    }
    if (sawHorizon == sawDays)
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "exactly one of 'horizon_minutes' and "
                           "'days' is required");
    if (sawDays) {
        const double minutes = days * 1440.0;
        if (minutes != std::floor(minutes))
            return ECOLO_ERROR(util::ErrorCode::ValidationError,
                               "'days' must resolve to whole minutes");
        horizon = static_cast<std::int64_t>(minutes);
    }
    if (out.stream && out.async)
        return ECOLO_ERROR(util::ErrorCode::ValidationError,
                           "'stream' and 'async' are mutually "
                           "exclusive");
    payload.horizonMinutes = horizon;
    if (payload.policy.empty())
        payload.policy = "standby";

    // The server's own validation path: same checks, same defaults,
    // and -- crucially -- the same content-addressed cache key the
    // chosen worker will compute and cache under.
    auto prepared =
        serve::prepareSubmitPayload(payload,
                                    options_.maxHorizonMinutes);
    if (!prepared)
        return prepared.error();
    out.keyHash = prepared.value().key.hash;

    out.spec.clientId = payload.clientId;
    out.spec.priority = payload.priority;
    out.spec.policy = payload.policy;
    out.spec.param = payload.param;
    out.spec.paramSet = payload.paramSet;
    out.spec.horizonMinutes = payload.horizonMinutes;
    out.spec.scenarioText = payload.scenarioText;
    out.spec.deadlineMs = deadlineMs;
    return out;
}

// ---- Run registry ----

std::uint64_t
Gateway::registerRun(const ParsedRun &run)
{
    const std::uint64_t id =
        nextRunId_.fetch_add(1, std::memory_order_relaxed);
    RunRecord record;
    record.id = id;
    record.policy = run.spec.policy;
    record.horizonMinutes = run.spec.horizonMinutes;
    std::lock_guard<std::mutex> lock(runsMutex_);
    runs_.emplace(id, std::move(record));
    runOrder_.push_back(id);
    while (runs_.size() > options_.maxRetainedRuns &&
           !runOrder_.empty()) {
        const std::uint64_t oldest = runOrder_.front();
        auto it = runs_.find(oldest);
        if (it != runs_.end() &&
            (it->second.state == RunState::Queued ||
             it->second.state == RunState::Running))
            break; // never evict live work
        if (it != runs_.end())
            runs_.erase(it);
        runOrder_.pop_front();
    }
    return id;
}

void
Gateway::finishRun(std::uint64_t run_id, int http_status,
                   RunState state, const std::string &envelope)
{
    std::lock_guard<std::mutex> lock(runsMutex_);
    auto it = runs_.find(run_id);
    if (it == runs_.end())
        return; // evicted meanwhile
    it->second.state = state;
    it->second.httpStatus = http_status;
    it->second.envelope = envelope;
}

// ---- Handlers ----

void
Gateway::handleRuns(Conn &conn,
                    std::chrono::steady_clock::time_point started)
{
    const bool keepAlive = conn.parser.request().keepAlive;
    auto doc = JsonValue::parse(conn.parser.request().body);
    if (!doc)
        return respond(conn, Route::Runs, started, 400,
                       errorBody("parse_error", doc.error().message),
                       keepAlive);
    auto parsed = parseRunRequest(doc.value(), true);
    if (!parsed) {
        const char *code = parsed.error().code ==
                                   util::ErrorCode::ParseError
                               ? "parse_error"
                               : "validation_error";
        return respond(conn, Route::Runs, started, 400,
                       errorBody(code, parsed.error().message),
                       keepAlive);
    }
    ParsedRun run = parsed.take();
    const std::uint64_t runId = registerRun(run);
    runsSubmitted_.fetch_add(1, std::memory_order_relaxed);

    if (run.async) {
        runsAsync_.fetch_add(1, std::memory_order_relaxed);
        respond(conn, Route::Runs, started, 202,
                "{\"id\":" + std::to_string(runId) +
                    ",\"status\":\"queued\"}",
                keepAlive);
        enqueueJob([this, runId, spec = run.spec,
                    keyHash = run.keyHash, started] {
            (void)forwardRun(runId, spec, keyHash, 0);
            latency_[static_cast<int>(Route::Runs)].record(
                elapsedUs(started));
        });
        return;
    }

    conn.busy = true;
    const std::uint64_t connId = conn.id;
    if (run.stream) {
        runsStreaming_.fetch_add(1, std::memory_order_relaxed);
        recordResponse(200);
        queueBytes(conn, buildChunkedHead(200, "application/x-ndjson",
                                          keepAlive));
        enqueueJob([this, runId, spec = run.spec,
                    keyHash = run.keyHash, connId, keepAlive,
                    started] {
            ForwardHttp done = forwardRun(runId, spec, keyHash, connId);
            latency_[static_cast<int>(Route::Runs)].record(
                elapsedUs(started));
            Completion tail;
            tail.connId = connId;
            tail.bytes = encodeChunk(done.body + "\n") + finalChunk();
            tail.endOfResponse = true;
            tail.closeAfter = !keepAlive;
            pushCompletion(std::move(tail));
        });
        return;
    }

    enqueueJob([this, runId, spec = run.spec, keyHash = run.keyHash,
                connId, keepAlive, started] {
        ForwardHttp done = forwardRun(runId, spec, keyHash, 0);
        recordResponse(done.status);
        latency_[static_cast<int>(Route::Runs)].record(
            elapsedUs(started));
        std::vector<std::pair<std::string, std::string>> extra;
        if (done.status == 429)
            extra.emplace_back(
                "Retry-After",
                std::to_string((done.retryAfterMs + 999) / 1000));
        Completion reply;
        reply.connId = connId;
        reply.bytes = buildHttpResponse(done.status,
                                        "application/json", done.body,
                                        keepAlive, extra);
        reply.endOfResponse = true;
        reply.closeAfter = !keepAlive;
        pushCompletion(std::move(reply));
    });
}

void
Gateway::handleFleet(Conn &conn,
                     std::chrono::steady_clock::time_point started)
{
    const bool keepAlive = conn.parser.request().keepAlive;
    auto doc = JsonValue::parse(conn.parser.request().body);
    if (!doc)
        return respond(conn, Route::Runs, started, 400,
                       errorBody("parse_error", doc.error().message),
                       keepAlive);
    if (!doc.value().isObject())
        return respond(conn, Route::Runs, started, 400,
                       errorBody("validation_error",
                                 "fleet body must be a JSON object"),
                       keepAlive);
    const JsonValue *runsField = nullptr;
    for (const auto &[key, value] : doc.value().members()) {
        if (key == "runs") {
            runsField = &value;
        } else {
            return respond(conn, Route::Runs, started, 400,
                           errorBody("validation_error",
                                     "unknown field '" + key + "'"),
                           keepAlive);
        }
    }
    if (runsField == nullptr || !runsField->isArray() ||
        runsField->items().empty())
        return respond(conn, Route::Runs, started, 400,
                       errorBody("validation_error",
                                 "'runs' must be a non-empty array"),
                       keepAlive);
    if (runsField->items().size() > options_.maxFleetRuns)
        return respond(conn, Route::Runs, started, 400,
                       errorBody("validation_error",
                                 "at most " +
                                     std::to_string(
                                         options_.maxFleetRuns) +
                                     " runs per fleet call"),
                       keepAlive);

    std::vector<ParsedRun> parsedRuns;
    parsedRuns.reserve(runsField->items().size());
    for (std::size_t i = 0; i < runsField->items().size(); ++i) {
        auto parsed = parseRunRequest(runsField->items()[i], false);
        if (!parsed)
            return respond(conn, Route::Runs, started, 400,
                           errorBody("validation_error",
                                     "runs[" + std::to_string(i) +
                                         "]: " +
                                         parsed.error().message),
                           keepAlive);
        parsedRuns.push_back(parsed.take());
    }

    // Scatter: every entry is its own forwarder job sharded by its own
    // key; gather composes the reply when the last one lands.
    struct FleetGather
    {
        std::mutex mutex;
        std::size_t remaining = 0;
        std::vector<std::string> envelopes;
        std::vector<int> statuses;
    };
    auto gather = std::make_shared<FleetGather>();
    gather->remaining = parsedRuns.size();
    gather->envelopes.resize(parsedRuns.size());
    gather->statuses.assign(parsedRuns.size(), 0);

    conn.busy = true;
    const std::uint64_t connId = conn.id;
    for (std::size_t i = 0; i < parsedRuns.size(); ++i) {
        const std::uint64_t runId = registerRun(parsedRuns[i]);
        runsSubmitted_.fetch_add(1, std::memory_order_relaxed);
        enqueueJob([this, gather, i, runId,
                    spec = parsedRuns[i].spec,
                    keyHash = parsedRuns[i].keyHash, connId,
                    keepAlive, started] {
            ForwardHttp done = forwardRun(runId, spec, keyHash, 0);
            bool last = false;
            {
                std::lock_guard<std::mutex> lock(gather->mutex);
                gather->envelopes[i] = std::move(done.body);
                gather->statuses[i] = done.status;
                last = --gather->remaining == 0;
            }
            if (!last)
                return;
            std::size_t completed = 0;
            std::string body = "{\"count\":" +
                               std::to_string(
                                   gather->envelopes.size()) +
                               ",\"runs\":[";
            for (std::size_t j = 0; j < gather->envelopes.size();
                 ++j) {
                if (j > 0)
                    body += ',';
                body += gather->envelopes[j];
                if (gather->statuses[j] == 200)
                    ++completed;
            }
            body += "],\"completed\":" + std::to_string(completed) +
                    "}";
            recordResponse(200);
            latency_[static_cast<int>(Route::Runs)].record(
                elapsedUs(started));
            Completion reply;
            reply.connId = connId;
            reply.bytes = buildHttpResponse(
                200, "application/json", body, keepAlive, {});
            reply.endOfResponse = true;
            reply.closeAfter = !keepAlive;
            pushCompletion(std::move(reply));
        });
    }
}

void
Gateway::handleCancel(Conn &conn,
                      std::chrono::steady_clock::time_point started,
                      std::uint64_t run_id)
{
    const bool keepAlive = conn.parser.request().keepAlive;
    std::size_t worker = SIZE_MAX;
    std::uint64_t remoteId = 0;
    {
        std::lock_guard<std::mutex> lock(runsMutex_);
        auto it = runs_.find(run_id);
        if (it == runs_.end())
            return respond(conn, Route::Runs, started, 404,
                           errorBody("unknown_request",
                                     "run " + std::to_string(run_id) +
                                         " is not in the registry"),
                           keepAlive);
        RunRecord &record = it->second;
        if (record.state != RunState::Queued &&
            record.state != RunState::Running)
            return respond(
                conn, Route::Runs, started, 200,
                "{\"id\":" + std::to_string(run_id) +
                    ",\"status\":\"" + toString(record.state) +
                    "\",\"cancelled\":false}",
                keepAlive);
        record.cancelRequested->store(true,
                                      std::memory_order_release);
        worker = record.worker;
        remoteId = record.remoteId;
    }
    if (worker == SIZE_MAX || remoteId == 0) {
        // Not yet accepted by a worker; the forwarder checks the flag
        // before submitting.
        return respond(conn, Route::Runs, started, 202,
                       "{\"id\":" + std::to_string(run_id) +
                           ",\"status\":\"queued\","
                           "\"cancel_requested\":true}",
                       keepAlive);
    }
    conn.busy = true;
    const std::uint64_t connId = conn.id;
    enqueueJob([this, connId, worker, remoteId, run_id, keepAlive,
                started] {
        auto found = pool_.cancel(worker, remoteId);
        int status;
        std::string body;
        if (!found) {
            status = 502;
            body = errorBody("bad_gateway", found.error().message);
        } else {
            status = 200;
            body = "{\"id\":" + std::to_string(run_id) +
                   ",\"cancel_requested\":true,\"found\":" +
                   (found.value() ? "true" : "false") + "}";
        }
        recordResponse(status);
        latency_[static_cast<int>(Route::Runs)].record(
            elapsedUs(started));
        Completion reply;
        reply.connId = connId;
        reply.bytes = buildHttpResponse(status, "application/json",
                                        body, keepAlive, {});
        reply.endOfResponse = true;
        reply.closeAfter = !keepAlive;
        pushCompletion(std::move(reply));
    });
}

void
Gateway::handleRunGet(Conn &conn,
                      std::chrono::steady_clock::time_point started,
                      std::uint64_t run_id)
{
    const bool keepAlive = conn.parser.request().keepAlive;
    std::lock_guard<std::mutex> lock(runsMutex_);
    auto it = runs_.find(run_id);
    if (it == runs_.end())
        return respond(conn, Route::Other, started, 404,
                       errorBody("unknown_request",
                                 "run " + std::to_string(run_id) +
                                     " is not in the registry"),
                       keepAlive);
    const RunRecord &record = it->second;
    if (!record.envelope.empty())
        return respond(conn, Route::Other, started, 200,
                       record.envelope, keepAlive);
    respond(conn, Route::Other, started, 200,
            "{\"id\":" + std::to_string(run_id) + ",\"status\":\"" +
                toString(record.state) + "\",\"policy\":" +
                jsonQuote(record.policy) + ",\"horizon_minutes\":" +
                std::to_string(record.horizonMinutes) + "}",
            keepAlive);
}

void
Gateway::handleRunList(Conn &conn,
                       std::chrono::steady_clock::time_point started)
{
    const bool keepAlive = conn.parser.request().keepAlive;
    std::string body = "{\"runs\":[";
    {
        std::lock_guard<std::mutex> lock(runsMutex_);
        bool first = true;
        for (const std::uint64_t id : runOrder_) {
            auto it = runs_.find(id);
            if (it == runs_.end())
                continue;
            if (!first)
                body += ',';
            first = false;
            body += "{\"id\":" + std::to_string(id) +
                    ",\"status\":\"" + toString(it->second.state) +
                    "\"}";
        }
    }
    body += "]}";
    respond(conn, Route::Other, started, 200, body, keepAlive);
}

std::string
Gateway::healthzJson() const
{
    return std::string("{\"status\":\"") +
           (draining_.load(std::memory_order_acquire) ? "draining"
                                                      : "ok") +
           "\",\"workers\":" + std::to_string(pool_.size()) +
           ",\"healthy\":" + std::to_string(pool_.healthyCount()) +
           "}";
}

// ---- Forwarding ----

Gateway::ForwardHttp
Gateway::forwardRun(std::uint64_t run_id,
                    const serve::RequestSpec &spec,
                    std::uint64_t key_hash, std::uint64_t stream_conn)
{
    std::shared_ptr<std::atomic<bool>> cancelFlag;
    {
        std::lock_guard<std::mutex> lock(runsMutex_);
        auto it = runs_.find(run_id);
        if (it != runs_.end()) {
            it->second.state = RunState::Running;
            cancelFlag = it->second.cancelRequested;
        }
    }
    const std::string idField = "{\"id\":" + std::to_string(run_id);
    if (cancelFlag &&
        cancelFlag->load(std::memory_order_acquire)) {
        const std::string envelope =
            idField + ",\"status\":\"cancelled\",\"minutes_done\":0}";
        finishRun(run_id, 200, RunState::Cancelled, envelope);
        return {200, envelope, 0};
    }

    WorkerPool::AcceptedCallback onAccepted =
        [this, run_id, stream_conn, &idField](
            std::size_t worker, std::uint64_t remote_id,
            const serve::AcceptedPayload &payload) {
            {
                std::lock_guard<std::mutex> lock(runsMutex_);
                auto it = runs_.find(run_id);
                if (it != runs_.end()) {
                    it->second.worker = worker;
                    it->second.remoteId = remote_id;
                    it->second.cacheHit = payload.cacheHit;
                }
            }
            if (stream_conn != 0) {
                Completion event;
                event.connId = stream_conn;
                event.bytes = encodeChunk(
                    idField + ",\"event\":\"accepted\"," +
                    "\"cache_hit\":" +
                    (payload.cacheHit ? "true" : "false") +
                    ",\"worker\":" +
                    jsonQuote(pool_.address(worker).label()) +
                    ",\"worker_request_id\":" +
                    std::to_string(remote_id) + "}\n");
                pushCompletion(std::move(event));
            }
        };
    serve::ServeClient::StatusCallback onStatus;
    if (stream_conn != 0) {
        onStatus = [this, stream_conn,
                    &idField](const serve::StatusPayload &status) {
            Completion event;
            event.connId = stream_conn;
            event.bytes = encodeChunk(
                idField + ",\"event\":\"status\",\"minutes_done\":" +
                std::to_string(status.minutesDone) +
                ",\"horizon_minutes\":" +
                std::to_string(status.horizonMinutes) + "}\n");
            pushCompletion(std::move(event));
        };
    }

    auto forwarded = pool_.submit(spec, key_hash, onAccepted, onStatus);
    if (!forwarded) {
        const std::string envelope =
            idField + ",\"status\":\"unreachable\",\"error\":" +
            "{\"code\":\"bad_gateway\",\"message\":" +
            jsonQuote(forwarded.error().message) + "}}";
        runsFailed_.fetch_add(1, std::memory_order_relaxed);
        finishRun(run_id, 502, RunState::Unreachable, envelope);
        return {502, envelope, 0};
    }
    WorkerPool::ForwardOutcome outcome = forwarded.take();
    {
        std::lock_guard<std::mutex> lock(runsMutex_);
        auto it = runs_.find(run_id);
        if (it != runs_.end()) {
            it->second.worker = outcome.worker;
            it->second.failovers = outcome.failovers;
            it->second.attempts = outcome.attempts;
            it->second.cacheHit = outcome.outcome.cacheHit;
        }
    }
    const std::string workerLabel =
        pool_.address(outcome.worker).label();
    const std::string common =
        ",\"worker\":" + jsonQuote(workerLabel) +
        ",\"worker_request_id\":" +
        std::to_string(outcome.outcome.requestId) + ",\"attempts\":" +
        std::to_string(outcome.attempts) + ",\"failovers\":" +
        std::to_string(outcome.failovers);

    ForwardHttp result;
    RunState state;
    std::string envelope;
    switch (outcome.outcome.status) {
    case serve::OutcomeStatus::Completed:
        state = RunState::Completed;
        result.status = 200;
        envelope = idField + ",\"status\":\"completed\"" + common +
                   ",\"cache_hit\":" +
                   (outcome.outcome.cacheHit ? "true" : "false") +
                   ",\"report\":" +
                   jsonQuote(outcome.outcome.report) + "}";
        runsCompleted_.fetch_add(1, std::memory_order_relaxed);
        break;
    case serve::OutcomeStatus::Cancelled:
        state = RunState::Cancelled;
        result.status = 200;
        envelope = idField + ",\"status\":\"cancelled\"" + common +
                   ",\"minutes_done\":" +
                   std::to_string(outcome.outcome.minutesDone) + "}";
        break;
    case serve::OutcomeStatus::Drained:
        state = RunState::Drained;
        result.status = 503;
        envelope = idField + ",\"status\":\"drained\"" + common +
                   ",\"minutes_done\":" +
                   std::to_string(outcome.outcome.minutesDone) +
                   ",\"checkpoint\":" +
                   jsonQuote(outcome.outcome.checkpointPath) + "}";
        runsFailed_.fetch_add(1, std::memory_order_relaxed);
        break;
    case serve::OutcomeStatus::RetryLater:
        state = RunState::RetryLater;
        result.status = 429;
        result.retryAfterMs = outcome.outcome.retryAfterMs;
        envelope = idField + ",\"status\":\"retry-later\"" + common +
                   ",\"retry_after_ms\":" +
                   std::to_string(outcome.outcome.retryAfterMs) + "}";
        runsFailed_.fetch_add(1, std::memory_order_relaxed);
        break;
    case serve::OutcomeStatus::Error:
    default:
        state = RunState::Error;
        result.status = rpcErrorHttpStatus(outcome.outcome.errorCode);
        envelope = idField + ",\"status\":\"error\"" + common +
                   ",\"error\":{\"code\":\"" +
                   rpcErrorCodeName(outcome.outcome.errorCode) +
                   "\",\"message\":" +
                   jsonQuote(outcome.outcome.errorMessage) + "}}";
        runsFailed_.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    finishRun(run_id, result.status, state, envelope);
    result.body = std::move(envelope);
    return result;
}

// ---- Stats ----

Gateway::HttpStats
Gateway::httpStats() const
{
    HttpStats stats;
    stats.connectionsAccepted =
        connectionsAccepted_.load(std::memory_order_relaxed);
    stats.connectionsRejected =
        connectionsRejected_.load(std::memory_order_relaxed);
    stats.connectionsActive = conns_.size();
    stats.requests = requests_.load(std::memory_order_relaxed);
    stats.responses2xx =
        responses2xx_.load(std::memory_order_relaxed);
    stats.responses4xx =
        responses4xx_.load(std::memory_order_relaxed);
    stats.responses5xx =
        responses5xx_.load(std::memory_order_relaxed);
    stats.parseErrors = parseErrors_.load(std::memory_order_relaxed);
    stats.expectContinue =
        expectContinue_.load(std::memory_order_relaxed);
    stats.bytesIn = bytesIn_.load(std::memory_order_relaxed);
    stats.bytesOut = bytesOut_.load(std::memory_order_relaxed);
    stats.idleClosed = idleClosed_.load(std::memory_order_relaxed);
    return stats;
}

void
Gateway::collectWorkerServeStats()
{
    auto &reg = telemetry::registry();
    static const char *const kKeys[] = {
        "serve.setup_cache.hits",
        "serve.setup_cache.misses",
    };
    double clusterSetupHits = 0.0;
    double clusterSetupMisses = 0.0;
    for (std::size_t w = 0; w < pool_.size(); ++w) {
        auto doc = pool_.stats(w);
        if (!doc)
            continue; // gateway.worker.N.healthy already says why
        auto parsed = JsonValue::parse(doc.value());
        if (!parsed) {
            ecolo::warn("gateway: worker ", w,
                        " stats unparseable: ",
                        parsed.error().message);
            continue;
        }
        const JsonValue *stats = parsed.value().member("stats");
        if (!stats)
            continue;
        const std::string prefix =
            "gateway.worker." + std::to_string(w) + ".";
        for (const char *key : kKeys) {
            const JsonValue *stat = stats->member(key);
            const JsonValue *value =
                stat ? stat->member("value") : nullptr;
            if (!value || !value->isNumber())
                continue;
            const double v = value->asNumber();
            reg.scalar(prefix + key).set(v);
            if (std::strcmp(key, "serve.setup_cache.hits") == 0)
                clusterSetupHits += v;
            else if (std::strcmp(key, "serve.setup_cache.misses") == 0)
                clusterSetupMisses += v;
        }
    }
    reg.scalar("gateway.cluster.setup_cache.hits")
        .set(clusterSetupHits);
    reg.scalar("gateway.cluster.setup_cache.misses")
        .set(clusterSetupMisses);
}

std::string
Gateway::metricsJson() const
{
    auto &reg = telemetry::registry();
    const auto set = [&reg](const std::string &name, double value) {
        reg.scalar(name).set(value);
    };
    const HttpStats http = httpStats();
    set("gateway.connections.accepted",
        static_cast<double>(http.connectionsAccepted));
    set("gateway.connections.rejected",
        static_cast<double>(http.connectionsRejected));
    set("gateway.connections.active",
        static_cast<double>(http.connectionsActive));
    set("gateway.connections.idle_closed",
        static_cast<double>(http.idleClosed));
    set("gateway.http.requests", static_cast<double>(http.requests));
    set("gateway.http.responses_2xx",
        static_cast<double>(http.responses2xx));
    set("gateway.http.responses_4xx",
        static_cast<double>(http.responses4xx));
    set("gateway.http.responses_5xx",
        static_cast<double>(http.responses5xx));
    set("gateway.http.parse_errors",
        static_cast<double>(http.parseErrors));
    set("gateway.http.expect_continue",
        static_cast<double>(http.expectContinue));
    set("gateway.http.bytes_in", static_cast<double>(http.bytesIn));
    set("gateway.http.bytes_out", static_cast<double>(http.bytesOut));
    set("gateway.runs.submitted",
        static_cast<double>(
            runsSubmitted_.load(std::memory_order_relaxed)));
    set("gateway.runs.completed",
        static_cast<double>(
            runsCompleted_.load(std::memory_order_relaxed)));
    set("gateway.runs.failed",
        static_cast<double>(
            runsFailed_.load(std::memory_order_relaxed)));
    set("gateway.runs.streaming",
        static_cast<double>(
            runsStreaming_.load(std::memory_order_relaxed)));
    set("gateway.runs.async",
        static_cast<double>(
            runsAsync_.load(std::memory_order_relaxed)));
    set("gateway.workers.total", static_cast<double>(pool_.size()));
    set("gateway.workers.healthy",
        static_cast<double>(pool_.healthyCount()));

    static const char *routeNames[3] = {"runs", "stats", "other"};
    for (int r = 0; r < 3; ++r) {
        const auto snap = latency_[r].snapshot();
        const std::string prefix =
            std::string("gateway.latency.") + routeNames[r] + ".";
        set(prefix + "count", static_cast<double>(snap.count));
        set(prefix + "mean_us", snap.mean);
        set(prefix + "jitter_us", snap.jitter);
        set(prefix + "p50_us", snap.p50);
        set(prefix + "p95_us", snap.p95);
        set(prefix + "p99_us", snap.p99);
    }
    for (std::size_t w = 0; w < pool_.size(); ++w) {
        const WorkerPool::WorkerCounters c = pool_.counters(w);
        const std::string prefix =
            "gateway.worker." + std::to_string(w) + ".";
        set(prefix + "forwarded", static_cast<double>(c.forwarded));
        set(prefix + "answered", static_cast<double>(c.answered));
        set(prefix + "cache_hits", static_cast<double>(c.cacheHits));
        set(prefix + "retry_later",
            static_cast<double>(c.retryLater));
        set(prefix + "transport_errors",
            static_cast<double>(c.transportErrors));
        set(prefix + "failovers_from",
            static_cast<double>(c.failoversFrom));
        set(prefix + "probes", static_cast<double>(c.probes));
        set(prefix + "probe_failures",
            static_cast<double>(c.probeFailures));
        set(prefix + "healthy", c.healthy ? 1.0 : 0.0);
    }

    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

} // namespace ecolo::gateway
