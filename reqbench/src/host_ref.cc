/**
 * @file
 * The host-speed reference: a fixed kernel that shares no code with
 * EdgeTherm, timed between requests. The host this benchmark runs on is
 * shared, and how fast it runs one thread drifts by a factor of 1.5-2
 * over minutes; the reference slows with it, so the timing metrics are
 * scaled by kReferenceNominalSeconds / (its median time in the run).
 *
 * Its two parts mimic the program's instruction mix: a streaming clamp
 * and polynomial over a tenant-year of doubles (the scale bisection, and
 * the trace reads of the slot loop), and a dependent scalar chain of
 * random numbers and transcendentals through a small ring with a
 * data-dependent branch (trace generation, the side channel and the
 * policies). A dense matrix-vector part (the thermal step) was tried and
 * left out: it slowed more than the program when the host did, so it
 * over-corrected. A change to EdgeTherm cannot change the kernel's time;
 * only the host can.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>

#include "bench.hh"

namespace reqbench {

namespace {

/** One tenant-year of 1-minute samples, rounded to a power of two. */
constexpr std::size_t kStream = std::size_t{1} << 19;
constexpr int kStreamPasses = 4;
constexpr int kChainSteps = 180000;

// Static storage, so the reference adds nothing to the heap the
// benchmark measures.
double gStream[kStream];
bool gFilled = false;
/** Written with every result, so the kernel cannot be optimised away. */
volatile double gSink = 0.0;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

void
fill()
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;
    for (double &u : gStream)
        u = static_cast<double>(xorshift(s) >> 11) * 0x1p-53;
    gFilled = true;
}

double
streamPart()
{
    double total = 0.0;
    for (int pass = 0; pass < kStreamPasses; ++pass) {
        const double factor = 0.7 + 0.15 * pass;
        double acc = 0.0;
        for (const double u : gStream) {
            const double s = std::clamp(u * factor, 0.0, 1.0);
            acc += 0.1 + 0.3 * s + 0.05 * s * s;
        }
        total += acc / static_cast<double>(kStream);
    }
    return total;
}

double
chainPart()
{
    std::uint64_t s = 0x2545f4914f6cdd1dULL;
    double ring[64] = {};
    double acc = 0.0;
    for (int i = 1; i < kChainSteps; ++i) {
        const double x = static_cast<double>(xorshift(s) >> 11) * 0x1p-53;
        const double y = std::exp(-x) * std::sin(6.283185307179586 * x);
        const double next = 0.9 * ring[(i - 1) & 63] + y;
        ring[i & 63] = next;
        if (next > 0.2)
            acc += next;
        else
            acc -= 0.5 * next;
    }
    return acc;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

ReferenceSample
timeReference()
{
    if (!gFilled)
        fill();
    const double wall0 = nowSeconds();
    const double cpu0 = threadCpuSeconds();
    gSink = streamPart() + chainPart();
    return {nowSeconds() - wall0, threadCpuSeconds() - cpu0};
}

void
HostSpeed::probe()
{
    for (int i = 0; i < kRunsPerProbe; ++i)
        samples_.push_back(timeReference());
}

double
HostSpeed::wallSeconds() const
{
    std::vector<double> wall;
    for (const ReferenceSample &s : samples_)
        wall.push_back(s.wall);
    return median(std::move(wall));
}

double
HostSpeed::cpuSeconds() const
{
    std::vector<double> cpu;
    for (const ReferenceSample &s : samples_)
        cpu.push_back(s.cpu);
    return median(std::move(cpu));
}

} // namespace reqbench
