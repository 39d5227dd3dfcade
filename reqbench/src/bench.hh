/**
 * @file
 * Shared pieces of the request-level benchmark: the request type, the
 * in-process request path (scenario text -> policy factory -> Simulation
 * -> run -> markdown render), statistics, the environment stamp, and the
 * workload entry points.
 *
 * The benchmark drives EdgeTherm only through its public functions; the
 * spans it records are opened here, around the calls into each layer.
 */

#ifndef REQBENCH_BENCH_HH
#define REQBENCH_BENCH_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hh"
#include "core/setup_cache.hh"

namespace reqbench {

/** Workload seed used when --seed is absent; reports are pinned for it. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** The five attack policies, in the order every engine round visits. */
inline const std::vector<std::string> kPolicies = {
    "standby", "random", "myopic", "foresighted", "oneshot"};

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 45.0;
    bool trace = false;
    std::string traceOut; //!< Chrome-trace path (traced runs)
};

/** One simulation request, as a CLI run or a /v1/runs body carries it. */
struct Request
{
    std::string scenario; //!< key=value scenario text
    std::string policy;
    double param = 0.0;
    std::int64_t horizonMinutes = 0;
    std::uint64_t scenarioSeed = 0; //!< the seed the scenario text sets

    std::string label() const;
};

/** A request whose scenario sets only the seed. */
Request makeRequest(std::uint64_t scenario_seed, const std::string &policy,
                    double param, std::int64_t horizon_minutes);

/** Deterministic 64-bit value for (workload seed, stream, index). */
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index);

/** The request's scenario applied on the paper defaults, as the CLI and
 * the serve tier apply it; nullopt with `error` set when it is invalid. */
std::optional<ecolo::core::SimulationConfig>
requestConfig(const Request &request, std::string *error);

/** writeMarkdownReport with the request's policy, param and horizon. */
std::string renderReport(const ecolo::core::Simulation &sim,
                         const Request &request);

/**
 * The in-process request path with default options: what edgetherm_cli
 * does for one run, and what the serve tier renders for one key. With a
 * setup cache the setup stages are shared (bit-identical reports). When
 * telemetry is on, each stage runs in a span and the engine's per-slot
 * spans cover the first simulated day only (a traced year would hold
 * 1.58 M of them). Returns the report, or an error message in `error`;
 * `construct_seconds`, when non-null, receives the constructor's time.
 */
std::optional<std::string>
runRequest(const Request &request,
           const std::shared_ptr<ecolo::core::SetupCache> &cache,
           double *construct_seconds, std::string *error);

/** Report checks that hold for any seed. */
bool reportInvariantsHold(const Request &request, const std::string &report);

/** 16-hex-digit FNV-1a digest of a report. */
std::string digestHex(const std::string &bytes);

// ---- statistics ----

double nowSeconds();
/** Process CPU time (all threads). */
double processCpuSeconds();
/** Process high-water resident set size. */
double peakRssMb();

/**
 * High-water of heap bytes in use (mallinfo2: arena chunks in use plus
 * mmapped chunks), sampled every 10 ms on its own thread until peakMb().
 * Unlike RSS it does not move with how much freed memory glibc's
 * per-thread arenas happen to retain, which varies run to run.
 */
class HeapSampler
{
  public:
    HeapSampler();
    ~HeapSampler();
    HeapSampler(const HeapSampler &) = delete;
    HeapSampler &operator=(const HeapSampler &) = delete;

    /** Stop sampling; the peak seen since construction. */
    double peakMb();

  private:
    void sample();

    std::mutex mutex_;
    std::condition_variable wake_;
    bool stop_ = false; //!< guarded by mutex_
    /** Written by the sampler thread, read after it is joined. */
    std::size_t peakBytes_ = 0;
    std::thread thread_; //!< last: starts after the members above
};

/** Nearest-rank percentile (p in (0, 100]); NaN for an empty sample. */
double percentile(std::vector<double> values, double p);
/** Median (mean of the middle pair for even counts). */
double median(std::vector<double> values);

// ---- host speed ----

/** The nominal time of the reference kernel: close to its time on a
 * quiet 4-core AVX-512 Xeon host. Scaled timings read in the seconds of
 * a host on which the kernel takes exactly this long. */
inline constexpr double kReferenceNominalSeconds = 0.010;

struct ReferenceSample
{
    double wall = 0.0; //!< s
    double cpu = 0.0;  //!< s, this thread's CPU time
};

/** Run the fixed reference kernel (host_ref.cc) once and time it. */
ReferenceSample timeReference();

/**
 * Reference-kernel timings taken between requests. A run's timings are
 * scaled by kReferenceNominalSeconds / wallSeconds() (cpuSeconds() for
 * CPU time), which removes the host's speed drift between runs: the
 * program's code cannot move the reference, only the host can. Within a
 * run the median over all probes is used, because the host's second-to-
 * second jitter is not shared between the probes and the requests; only
 * its drift over minutes is.
 */
class HostSpeed
{
  public:
    /** Kernel runs per probe: each ~10 ms, so a run has enough samples
     * that their median does not add noise of its own. */
    static constexpr int kRunsPerProbe = 2;

    void probe();
    /** Kernel runs so far. */
    std::size_t count() const { return samples_.size(); }
    /** Medians over the kernel runs; NaN before the first. */
    double wallSeconds() const;
    double cpuSeconds() const;

  private:
    std::vector<ReferenceSample> samples_;
};

// ---- environment ----

struct Environment
{
    unsigned nproc = 1;
    std::string buildType;
    std::string compiler;
    bool optimized = false;
    std::string dispatch; //!< avx512f | fma | default
};

Environment environment();

// ---- results ----

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports back to main. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; //!< failed + refused + wrong report
    std::uint64_t wrong = 0;  //!< reports that failed a correctness check
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< human-readable lines

    void add(std::string name, double value, std::string unit)
    { metrics.push_back({std::move(name), value, std::move(unit)}); }

    /**
     * The latency metric of a timed window (seconds in): the median, with
     * a note of the 90th and 99th percentiles.
     */
    void addLatency(const std::vector<double> &latency);
};

// ---- workloads ----

/** cold_day (1-day horizon) and year_run (365 days). */
Outcome runEngineWorkload(const Options &options, std::int64_t horizon);

/**
 * Per-layer probes for a traced run, repeated on one of the workload's
 * own requests: setup-stage replays, constructs, the slot loop by phase,
 * the thermal kernel over a year, and report render. Appends per-layer
 * metrics.
 */
void probeEngineLayers(const Request &request, Outcome &out);

/**
 * Serve-layer probe for the engine workloads: serve `request` once cold,
 * then a concurrent miss-path sweep whose requests derive from `seed`,
 * then `request` warm through the worker and the gateway, appending the
 * serve/gateway per-layer metrics. The cold reply must match the digest
 * of the workload's in-process render of `request`; the warm replies
 * must equal it, and every sweep reply its own in-process render.
 */
void probeServeLayers(const Request &request,
                      const std::string &expected_digest, std::uint64_t seed,
                      Outcome &out);

/** Pinned first-round report digests for kDefaultSeed, or nullptr. */
const std::vector<std::string> *pinnedDigests(const std::string &workload,
                                              const std::string &dispatch);

} // namespace reqbench

#endif // REQBENCH_BENCH_HH
