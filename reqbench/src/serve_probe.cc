/**
 * @file
 * The serve-tier probe of a traced run: the gateway and one worker
 * started in this process with default GatewayOptions/ServerOptions,
 * driven over keep-alive HTTP and raw RPC. It serves one request cold,
 * then a concurrent miss-path sweep (scheduler queue, SetupCache sharing,
 * micro-batching), then the cold request's key warm (result cache, RPC,
 * gateway).
 *
 * Serve and gateway counters are read by name from Server::metricsJson();
 * a counter that no longer exists is reported as absent, not an error.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "gateway/gateway.hh"
#include "gateway/http.hh"
#include "gateway/json.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "telemetry/events.hh"
#include "telemetry/telemetry.hh"
#include "util/sim_time.hh"

namespace reqbench {

namespace {

using namespace ecolo;

/** Requests each of the RPC and HTTP paths answer in the serve probe. */
constexpr int kProbeRounds = 40;
/** Scenario seeds the sweep spreads over; below SetupCache::kMaxTraceSets,
 * so each seed's setup stays cached after its first miss and setup
 * sharing is high but not total. */
constexpr std::uint64_t kSweepSeeds = 3;
static_assert(kSweepSeeds < core::SetupCache::kMaxTraceSets);
/** Sweep clients before the nproc cap: enough to keep both default
 * workers busy and give micro-batching peers to coalesce. */
constexpr unsigned kSweepClients = 4;
/** Requests each sweep client sends, one at a time (a closed loop). */
constexpr std::uint64_t kSweepPerClient = 8;

/** The sweep's `index`-th request: 1-day, its own param, one of
 * kSweepSeeds scenario seeds, random and myopic alternating. */
Request
sweepRequest(std::uint64_t seed, std::uint64_t index)
{
    const std::uint64_t scenario_seed =
        1 + derive(seed, 2, index % kSweepSeeds) % 1000000000ULL;
    const double u =
        static_cast<double>(derive(seed, 3, index) >> 11) * 0x1.0p-53;
    return index % 2 == 0
               ? makeRequest(scenario_seed, "random", 0.02 + 0.3 * u,
                             kMinutesPerDay)
               : makeRequest(scenario_seed, "myopic", 6.0 + 2.0 * u,
                             kMinutesPerDay);
}

/** The /v1/runs body of `request`. */
std::string
runBody(const Request &request, const std::string &priority,
        const std::string &client_id)
{
    char param[40];
    std::snprintf(param, sizeof param, "%.17g", request.param);
    return "{\"policy\":\"" + telemetry::jsonEscape(request.policy) +
           "\",\"param\":" + param +
           ",\"horizon_minutes\":" + std::to_string(request.horizonMinutes) +
           ",\"scenario\":\"" + telemetry::jsonEscape(request.scenario) +
           "\",\"priority\":\"" + priority + "\",\"client_id\":\"" +
           telemetry::jsonEscape(client_id) + "\"}";
}

/** One keep-alive HTTP/1.1 connection to the gateway. */
class HttpClient
{
  public:
    util::Result<void> connect(std::uint16_t port)
    {
        auto conn = util::connectLoopback(port);
        if (!conn)
            return conn.error();
        conn_ = conn.take();
        return {};
    }

    util::Result<gateway::HttpResponse> post(const std::string &body)
    {
        const std::string wire =
            "POST /v1/runs HTTP/1.1\r\nHost: reqbench\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n" + body;
        ECOLO_TRY_VOID(conn_.writeAll(wire.data(), wire.size()));
        gateway::HttpResponseParser parser;
        for (;;) {
            if (!buffer_.empty())
                buffer_.erase(0, parser.feed(buffer_.data(), buffer_.size()));
            if (parser.failed())
                return ECOLO_ERROR(util::ErrorCode::ParseError,
                                   "http response: ", parser.errorReason());
            if (parser.complete())
                return parser.response();
            char buf[16384];
            auto chunk = conn_.tryRead(buf, sizeof buf);
            if (!chunk)
                return chunk.error();
            if (chunk.value().eof)
                return ECOLO_ERROR(util::ErrorCode::IoError,
                                   "gateway closed the connection");
            buffer_.append(buf, chunk.value().bytes);
        }
    }

  private:
    util::TcpConnection conn_;
    std::string buffer_;
};

/** The report of a completed /v1/runs reply, or an error message. */
std::optional<std::string>
servedReport(const util::Result<gateway::HttpResponse> &response,
             std::string *error)
{
    if (!response) {
        *error = response.error().describe();
        return std::nullopt;
    }
    if (response.value().status != 200) {
        *error = "HTTP " + std::to_string(response.value().status) + ": " +
                 response.value().body.substr(0, 200);
        return std::nullopt;
    }
    auto doc = gateway::JsonValue::parse(response.value().body);
    const gateway::JsonValue *report =
        doc ? doc.value().member("report") : nullptr;
    if (report == nullptr || !report->isString()) {
        *error = "reply without a report";
        return std::nullopt;
    }
    return report->asString();
}

/** Gateway in front of one worker, both with default options. */
class Stack
{
  public:
    Stack() = default;
    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;
    ~Stack() { stop(); }

    util::Result<void> start()
    {
        server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
        ECOLO_TRY_VOID(server_->start());
        gateway::GatewayOptions options;
        options.workers.push_back({"127.0.0.1", server_->port()});
        gateway_ = std::make_unique<gateway::Gateway>(std::move(options));
        return gateway_->start();
    }

    void stop()
    {
        if (gateway_) {
            gateway_->requestDrain();
            gateway_->waitUntilStopped();
            gateway_.reset();
        }
        if (server_) {
            server_->requestDrain();
            server_->waitUntilStopped();
            server_.reset();
        }
    }

    std::uint16_t httpPort() const { return gateway_->port(); }
    std::uint16_t rpcPort() const { return server_->port(); }
    const serve::Server &server() const { return *server_; }

  private:
    std::unique_ptr<serve::Server> server_;
    std::unique_ptr<gateway::Gateway> gateway_;
};

/** Counter lookup in an edgetherm-metrics-v1 document. */
std::optional<double>
statValue(const std::string &metrics_json, const std::string &name)
{
    auto doc = gateway::JsonValue::parse(metrics_json);
    if (!doc)
        return std::nullopt;
    const gateway::JsonValue *stats = doc.value().member("stats");
    const gateway::JsonValue *stat =
        stats != nullptr ? stats->member(name) : nullptr;
    const gateway::JsonValue *v =
        stat != nullptr ? stat->member("value") : nullptr;
    if (v == nullptr || !v->isNumber())
        return std::nullopt;
    return v->asNumber();
}

/**
 * The serve-tier counters of `stack`, read by name. A counter that no
 * longer exists (batching deleted, say) is reported as 0 and noted. The
 * scheduler's latency and queue wait are the batch lane's, which only
 * the sweep uses; the cache counters cover the whole probe.
 */
void
addServeCounters(const Stack &stack, Outcome &out)
{
    const std::string stats = stack.server().metricsJson();
    const auto value = [&](const std::string &name) {
        const auto v = statValue(stats, name);
        if (!v)
            out.notes.push_back("absent: counter " + name +
                                " (reported as 0)");
        return v.value_or(0.0);
    };
    const auto ratio = [](double hits, double misses) {
        return hits + misses > 0 ? hits / (hits + misses) : 0.0;
    };
    const double hits = value("serve.cache.hits");
    const double misses = value("serve.cache.misses");
    out.add("serve.result_cache.hit_ratio", ratio(hits, misses), "ratio");
    out.add("serve.result_cache.hits", hits, "count");
    out.add("serve.result_cache.misses", misses, "count");
    const double setup_hits = value("serve.setup_cache.hits");
    const double setup_misses = value("serve.setup_cache.misses");
    out.add("core.setup_cache.hit_ratio", ratio(setup_hits, setup_misses),
            "ratio");
    out.add("core.setup_cache.hits", setup_hits, "count");
    out.add("core.setup_cache.misses", setup_misses, "count");
    out.add("serve.batch.occupancy_mean",
            value("serve.batch.occupancy.mean"), "count");
    out.add("serve.server_p50_ms",
            value("serve.latency.batch.p50_us") / 1e3, "ms");
    out.add("serve.queue_wait_p50_ms",
            value("serve.latency.batch.queue_wait.p50_us") / 1e3, "ms");
    char line[160];
    std::snprintf(line, sizeof line,
                  "serve probe: %.0f batches, %.0f batched requests, max "
                  "occupancy %.0f",
                  value("serve.batch.batches"),
                  value("serve.batch.batched_requests"),
                  value("serve.batch.max_occupancy"));
    out.notes.push_back(line);
}

/**
 * Count one reply: a transport or HTTP error is failed; a report that
 * differs from `expected` is failed and wrong.
 */
void
countReply(const std::optional<std::string> &report,
           const std::string &expected, Outcome &out)
{
    ++out.attempted;
    if (!report) {
        ++out.failed;
    } else if (*report != expected) {
        ++out.failed;
        ++out.wrong;
    }
}

/**
 * serve.rpc_ms and gateway.overhead_ms on one key already in the result
 * cache: alternate raw ServeClient::submit to the worker with the same
 * request through the gateway. Every reply must equal `expected`.
 */
void
probeCachedKey(std::uint16_t rpc_port, std::uint16_t http_port,
               const Request &request, const std::string &expected,
               Outcome &out)
{
    serve::ServeClient rpc(rpc_port);
    serve::RequestSpec spec;
    spec.clientId = "probe";
    spec.policy = request.policy;
    spec.param = request.param;
    spec.paramSet = true;
    spec.horizonMinutes = request.horizonMinutes;
    spec.scenarioText = request.scenario;
    HttpClient http;
    std::vector<double> rpc_s, http_s;
    if (!http.connect(http_port)) {
        ++out.attempted;
        ++out.failed;
        return;
    }
    const std::uint64_t wrong_before = out.wrong;
    for (int i = 0; i < kProbeRounds; ++i) {
        double t0 = nowSeconds();
        auto submitted = rpc.submit(spec);
        rpc_s.push_back(nowSeconds() - t0);
        std::optional<std::string> rpc_report;
        if (submitted &&
            submitted.value().status == serve::OutcomeStatus::Completed)
            rpc_report = submitted.value().report;
        countReply(rpc_report, expected, out);

        std::string error;
        t0 = nowSeconds();
        auto served = servedReport(
            http.post(runBody(request, "interactive", "probe")), &error);
        http_s.push_back(nowSeconds() - t0);
        countReply(served, expected, out);
    }
    if (out.wrong != wrong_before)
        out.notes.push_back("serve probe: a warm reply differs from the "
                            "cold one: " + request.label());
    const double rpc_ms = 1e3 * median(rpc_s);
    out.add("serve.rpc_ms", rpc_ms, "ms");
    out.add("gateway.overhead_ms", 1e3 * median(http_s) - rpc_ms, "ms");
}

/**
 * The miss path under concurrency: up to nproc keep-alive clients each
 * POST kSweepPerClient distinct 1-day batch-priority requests, one at a
 * time, over kSweepSeeds scenario seeds. The requests queue in the
 * scheduler, share setup through the worker's SetupCache and coalesce
 * into micro-batches. Afterwards every reply is byte-compared with an
 * in-process render of the same request (one shared SetupCache).
 * Telemetry is off throughout: per-slot spans would slow the very
 * requests whose serve latency is read, and fill the trace.
 */
void
probeMissPath(std::uint16_t http_port, std::uint64_t seed, Outcome &out)
{
    const unsigned clients = std::min(kSweepClients, environment().nproc);
    std::vector<std::vector<std::optional<std::string>>> replies(
        clients, std::vector<std::optional<std::string>>(kSweepPerClient));
    std::vector<std::string> errors(clients);
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                HttpClient http;
                if (auto connected = http.connect(http_port); !connected) {
                    errors[c] = connected.error().describe();
                    return;
                }
                const std::string client_id = "sweep-" + std::to_string(c);
                for (std::uint64_t j = 0; j < kSweepPerClient; ++j) {
                    const Request request =
                        sweepRequest(seed, j * clients + c);
                    std::string error;
                    replies[c][j] = servedReport(
                        http.post(runBody(request, "batch", client_id)),
                        &error);
                    if (!replies[c][j] && errors[c].empty())
                        errors[c] = request.label() + ": " + error;
                }
            });
        }
        for (auto &t : threads)
            t.join();
    }

    auto cache = std::make_shared<core::SetupCache>();
    const std::uint64_t wrong_before = out.wrong;
    for (std::uint64_t j = 0; j < kSweepPerClient; ++j) {
        for (unsigned c = 0; c < clients; ++c) {
            const Request request = sweepRequest(seed, j * clients + c);
            std::string error;
            const auto expected = runRequest(request, cache, nullptr, &error);
            if (!expected || !reportInvariantsHold(request, *expected))
                errors[c] = "in-process render: " + request.label() + ": " +
                            error;
            countReply(replies[c][j], expected.value_or(std::string()), out);
        }
    }
    for (const std::string &e : errors) {
        if (!e.empty())
            out.notes.push_back("serve probe: sweep: " + e);
    }
    if (out.wrong != wrong_before)
        out.notes.push_back("serve probe: sweep replies differ from the "
                            "in-process render");
    out.notes.push_back(
        "serve probe: sweep of " +
        std::to_string(clients * kSweepPerClient) + " distinct 1-day " +
        "batch-priority requests, closed loop, " + std::to_string(clients) +
        " clients (nproc " + std::to_string(environment().nproc) + "), " +
        std::to_string(kSweepSeeds) + " seeds (SetupCache::kMaxTraceSets " +
        std::to_string(core::SetupCache::kMaxTraceSets) + ")");
}

} // namespace

void
probeServeLayers(const Request &request, const std::string &expected_digest,
                 std::uint64_t seed, Outcome &out)
{
    Stack stack;
    if (auto started = stack.start(); !started) {
        ++out.attempted;
        ++out.failed;
        out.notes.push_back("serve probe: " + started.error().describe());
        return;
    }
    // The cold run simulates the whole horizon: keep its per-slot spans
    // out of the trace.
    HttpClient http;
    std::string error;
    std::optional<std::string> report;
    telemetry::setEnabled(false);
    if (auto connected = http.connect(stack.httpPort()); !connected)
        error = connected.error().describe();
    else
        report = servedReport(
            http.post(runBody(request, "interactive", "probe")), &error);
    ++out.attempted;
    if (!report) {
        ++out.failed;
        out.notes.push_back("serve probe: " + error);
        telemetry::setEnabled(true);
        return;
    }
    if (digestHex(*report) != expected_digest) {
        ++out.failed;
        ++out.wrong;
        out.notes.push_back("serve probe: served report differs from the "
                            "in-process render: " + request.label());
    }
    probeMissPath(stack.httpPort(), seed, out);
    telemetry::setEnabled(true);
    probeCachedKey(stack.rpcPort(), stack.httpPort(), request, *report, out);
    addServeCounters(stack, out);
}

} // namespace reqbench
