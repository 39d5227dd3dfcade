/**
 * @file
 * cold_day and year_run: serial CLI-equivalent requests, one process, no
 * SetupCache (as in edgetherm_cli). Each request has its own scenario
 * seed; policies rotate over all five. The timed window runs whole
 * rounds of five requests, so every run weighs each policy equally.
 * The host-speed reference runs before each request, outside its
 * latency, and the timing metrics are scaled by it (host_ref.cc).
 */

#include <cstdio>

#include "bench.hh"
#include "core/engine.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"

namespace reqbench {

namespace {

using namespace ecolo;

Request
engineRequest(std::uint64_t seed, std::int64_t horizon, std::uint64_t index)
{
    const std::string &policy = kPolicies[index % kPolicies.size()];
    return makeRequest(1 + derive(seed, 1, index) % 1000000000ULL, policy,
                       core::defaultPolicyParam(policy), horizon);
}

/** The completed requests of a run, in order. */
struct Phase
{
    std::vector<double> latency;   //!< s, submission -> rendered report
    std::vector<double> construct; //!< s, Simulation constructor
    double cpu = 0.0;              //!< s, process CPU time of the requests
};

/**
 * One round: the next five requests, one per policy, each after a
 * reference probe into `host`, appended to `phase`. Every report is
 * checked; the first round's digests go to `digests`.
 */
void
runRound(const Options &options, std::int64_t horizon, std::uint64_t &next,
         HostSpeed &host, Phase &phase, Outcome &out,
         std::vector<std::string> &digests)
{
    for (std::size_t k = 0; k < kPolicies.size(); ++k) {
        host.probe();
        const Request request = engineRequest(options.seed, horizon, next);
        ++next;
        ++out.attempted;
        double construct = 0.0;
        std::string error;
        const double cpu0 = processCpuSeconds();
        const double t0 = nowSeconds();
        std::optional<std::string> report;
        {
            telemetry::TraceSpan span("bench.request");
            report = runRequest(request, nullptr, &construct, &error);
        }
        const double latency = nowSeconds() - t0;
        const double cpu = processCpuSeconds() - cpu0;
        if (!report) {
            ++out.failed;
            out.notes.push_back("request failed: " + request.label() + ": " +
                                error);
            if (digests.size() < kPolicies.size())
                digests.emplace_back(); // keeps digests[i] on request i
            continue;
        }
        if (!reportInvariantsHold(request, *report)) {
            ++out.failed;
            ++out.wrong;
            out.notes.push_back("report invariants violated: " +
                                request.label());
        }
        if (digests.size() < kPolicies.size())
            digests.push_back(digestHex(*report));
        phase.latency.push_back(latency);
        phase.construct.push_back(construct);
        phase.cpu += cpu;
    }
}

void
checkDigests(const Options &options, const Environment &env,
             const std::vector<std::string> &digests, Outcome &out)
{
    std::string joined;
    for (const auto &d : digests)
        joined += d;
    out.notes.push_back("first-round digests: " + joined);
    out.notes.push_back("combined digest: " + digestHex(joined));
    if (options.seed != kDefaultSeed)
        return;
    const auto *pinned = pinnedDigests(options.workload, env.dispatch);
    if (pinned == nullptr) {
        out.notes.push_back("no pinned digests for dispatch target " +
                            env.dispatch + "; pinned check skipped");
        return;
    }
    for (std::size_t i = 0; i < digests.size() && i < pinned->size(); ++i) {
        if (!digests[i].empty() && digests[i] != (*pinned)[i]) {
            ++out.failed;
            ++out.wrong;
            out.notes.push_back("pinned digest mismatch at request " +
                                std::to_string(i) + ": got " + digests[i] +
                                ", pinned " + (*pinned)[i] + " (" +
                                env.dispatch + ")");
        }
    }
    out.notes.push_back("pinned digests checked (" + env.dispatch + ")");
}

} // namespace

Outcome
runEngineWorkload(const Options &options, std::int64_t horizon)
{
    Outcome out;
    const Environment env = environment();
    std::uint64_t next = 0;
    std::vector<std::string> digests;

    // Fault in the reference's storage and warm its code before timing.
    for (int i = 0; i < 3; ++i)
        (void)timeReference();
    HostSpeed host;

    if (!options.trace) {
        Phase p;
        HeapSampler heap;
        const double start = nowSeconds();
        do {
            runRound(options, horizon, next, host, p, out, digests);
        } while (nowSeconds() - start < options.seconds);
        const double peak_heap = heap.peakMb();
        // Timings in nominal-host seconds: scaled by the reference's
        // nominal time over its median in this run. The request loop is
        // serial, so the summed latency is the time the client was busy.
        const double wall_scale =
            kReferenceNominalSeconds / host.wallSeconds();
        const double cpu_scale = kReferenceNominalSeconds / host.cpuSeconds();
        std::vector<double> latency = p.latency, construct = p.construct;
        for (double &l : latency)
            l *= wall_scale;
        for (double &c : construct)
            c *= wall_scale;
        double busy_raw = 0.0;
        for (const double l : p.latency)
            busy_raw += l;
        const double busy = busy_raw * wall_scale;
        const auto n = static_cast<double>(p.latency.size());
        out.addLatency(latency);
        out.add("requests_per_s", n / busy, "1/s");
        out.add("sim_minutes_per_s", n * static_cast<double>(horizon) / busy,
                "min/s");
        out.add("cpu_s_per_request", p.cpu * cpu_scale / n, "s");
        out.add("setup_s", median(construct), "s");
        out.add("peak_heap_mb", peak_heap, "MB");
        out.notes.push_back("samples: " + std::to_string(p.latency.size()) +
                            " requests, serial (1 client)");
        char line[320];
        std::snprintf(line, sizeof line,
                      "host reference: median %.4f ms wall, %.4f ms CPU "
                      "over %zu runs (nominal %.4g ms); timings scaled "
                      "by %.4f (wall) and %.4f (CPU)",
                      1e3 * host.wallSeconds(), 1e3 * host.cpuSeconds(),
                      host.count(), 1e3 * kReferenceNominalSeconds,
                      wall_scale, cpu_scale);
        out.notes.push_back(line);
        std::snprintf(line, sizeof line,
                      "unscaled: request_p50_ms %.4f, requests_per_s %.4f, "
                      "cpu_s_per_request %.4f, setup_s %.4f",
                      1e3 * median(p.latency), n / busy_raw,
                      p.cpu / n, median(p.construct));
        out.notes.push_back(line);
        out.notes.push_back("peak RSS: " + std::to_string(peakRssMb()) +
                            " MB");
        checkDigests(options, env, digests, out);
        return out;
    }

    // Traced run: rounds alternate untraced and traced (at least one of
    // each), so host drift falls on both alike; then the layer probes.
    Phase untraced, traced;
    telemetry::trace().begin();
    const double start = nowSeconds();
    for (int round = 0; round < 2 || nowSeconds() - start < options.seconds;
         ++round) {
        const bool on = round % 2 == 1;
        telemetry::setEnabled(on);
        runRound(options, horizon, next, host, on ? traced : untraced, out,
                 digests);
    }
    checkDigests(options, env, digests, out);
    out.add("host.reference_ms", 1e3 * host.wallSeconds(), "ms");
    telemetry::setEnabled(true);
    const double p50_untraced = median(untraced.latency);
    out.add("telemetry.trace_overhead_pct",
            100.0 * (median(traced.latency) - p50_untraced) / p50_untraced,
            "%");
    // Probes use the first myopic request, the paper's reference attacker.
    probeEngineLayers(engineRequest(options.seed, horizon, 2), out);
    probeServeLayers(engineRequest(options.seed, horizon, 0),
                     digests.empty() ? std::string() : digests.front(),
                     options.seed, out);
    return out;
}

} // namespace reqbench
