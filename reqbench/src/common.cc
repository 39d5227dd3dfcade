#include "bench.hh"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "core/report.hh"
#include "core/scenario.hh"
#include "serve/result_cache.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "util/keyvalue.hh"
#include "util/sim_time.hh"

namespace reqbench {

using namespace ecolo;

std::string
Request::label() const
{
    char buf[128];
    std::snprintf(buf, sizeof buf, "seed=%llu %s(%.17g) %lldmin",
                  static_cast<unsigned long long>(scenarioSeed),
                  policy.c_str(), param,
                  static_cast<long long>(horizonMinutes));
    return buf;
}

Request
makeRequest(std::uint64_t scenario_seed, const std::string &policy,
            double param, std::int64_t horizon_minutes)
{
    Request r;
    r.scenarioSeed = scenario_seed;
    r.scenario = "seed = " + std::to_string(scenario_seed) + "\n";
    r.policy = policy;
    r.param = param;
    r.horizonMinutes = horizon_minutes;
    return r;
}

std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream, std::uint64_t index)
{
    // SplitMix64 finalizer over a mix of the three inputs.
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL ^
                      (stream + 1) * 0xbf58476d1ce4e5b9ULL ^
                      (index + 1) * 0x94d049bb133111ebULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::optional<core::SimulationConfig>
requestConfig(const Request &request, std::string *error)
{
    core::SimulationConfig config = core::SimulationConfig::paperDefault();
    std::istringstream text(request.scenario);
    auto kv = KeyValueConfig::tryParse(text, "<request scenario>");
    if (!kv) {
        *error = kv.error().describe();
        return std::nullopt;
    }
    if (auto applied = core::tryApplyScenario(kv.value(), config); !applied) {
        *error = applied.error().describe();
        return std::nullopt;
    }
    return config;
}

std::string
renderReport(const core::Simulation &sim, const Request &request)
{
    std::ostringstream report;
    core::ReportInputs inputs;
    inputs.policyName = request.policy;
    inputs.policyParameter = request.param;
    inputs.simulatedDays = static_cast<double>(request.horizonMinutes) /
                           static_cast<double>(kMinutesPerDay);
    core::writeMarkdownReport(report, sim.config(), sim.metrics(), inputs);
    return report.str();
}

std::optional<std::string>
runRequest(const Request &request,
           const std::shared_ptr<core::SetupCache> &cache,
           double *construct_seconds, std::string *error)
{
    std::optional<core::SimulationConfig> config;
    {
        telemetry::TraceSpan span("core.parse_scenario");
        config = requestConfig(request, error);
    }
    if (!config)
        return std::nullopt;
    config->setupCache = cache;

    std::unique_ptr<core::AttackPolicy> policy;
    {
        telemetry::TraceSpan span("core.policy_factory");
        auto made = core::tryMakePolicyByName(*config, request.policy,
                                              request.param);
        if (!made) {
            *error = made.error().describe();
            return std::nullopt;
        }
        policy = made.take();
    }

    std::optional<core::Simulation> sim;
    const double t0 = nowSeconds();
    {
        telemetry::TraceSpan span("core.construct");
        sim.emplace(*config, std::move(policy));
    }
    if (construct_seconds != nullptr)
        *construct_seconds = nowSeconds() - t0;

    {
        // With telemetry on, the engine's per-slot spans are kept for the
        // first simulated day only: a traced year would hold 1.58 M spans.
        telemetry::TraceSpan span("core.loop");
        const MinuteIndex first =
            std::min<MinuteIndex>(kMinutesPerDay, request.horizonMinutes);
        sim->run(first);
        if (request.horizonMinutes > first) {
            const bool traced = telemetry::enabled();
            telemetry::setEnabled(false);
            sim->run(request.horizonMinutes - first);
            telemetry::setEnabled(traced);
        }
    }

    telemetry::TraceSpan span("core.report_render");
    return renderReport(*sim, request);
}

bool
reportInvariantsHold(const Request &request, const std::string &report)
{
    const std::string policy_line =
        "Attacker policy: **" + request.policy + "** (parameter ";
    const std::string seed_tail =
        ", seed " + std::to_string(request.scenarioSeed) + ".\n";
    return report.rfind("# EdgeTherm campaign report\n", 0) == 0 &&
           report.find(policy_line) != std::string::npos &&
           report.find(seed_tail) != std::string::npos &&
           report.find("## Outcome\n") != std::string::npos &&
           report.find("## Annualized cost estimate\n") != std::string::npos;
}

std::string
digestHex(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(serve::fnv1a64(bytes)));
    return buf;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

namespace {

std::size_t
heapInUse()
{
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
}

} // namespace

HeapSampler::HeapSampler()
    : peakBytes_(heapInUse()), thread_([this] { sample(); })
{}

HeapSampler::~HeapSampler()
{
    (void)peakMb();
}

void
HeapSampler::sample()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
        peakBytes_ = std::max(peakBytes_, heapInUse());
        wake_.wait_for(lock, std::chrono::milliseconds(10));
    }
}

double
HeapSampler::peakMb()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    peakBytes_ = std::max(peakBytes_, heapInUse());
    return static_cast<double>(peakBytes_) / (1024.0 * 1024.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
Outcome::addLatency(const std::vector<double> &latency)
{
    add("request_p50_ms", 1e3 * median(latency), "ms");
    char line[160];
    std::snprintf(line, sizeof line,
                  "latency: %zu samples; p90 = %.4g ms, p99 = %.4g ms",
                  latency.size(), 1e3 * percentile(latency, 90),
                  1e3 * percentile(latency, 99));
    notes.push_back(line);
}

Environment
environment()
{
    Environment env;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        env.nproc = static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    env.buildType = REQBENCH_BUILD_TYPE;
    env.compiler = __VERSION__;
#ifdef __OPTIMIZE__
    env.optimized = true;
#endif
    // The same order GCC's target_clones resolver tries for the thermal
    // kernels ("avx512f", "avx2,fma", "default").
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        env.dispatch = "avx512f";
    else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        env.dispatch = "fma";
    else
        env.dispatch = "default";
    return env;
}

} // namespace reqbench
