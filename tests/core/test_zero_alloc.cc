/**
 * @file
 * Heap-allocation regression guard for the steady-state slot loop.
 *
 * The per-minute step is the hot path of every year-long campaign; the
 * streaming thermal kernel, the side-channel sample arena and the fleet
 * scratch rows exist so that, once warmed up, stepping the simulation
 * touches the allocator zero times per slot. This binary replaces the
 * global operator new with a counting wrapper (which is why these tests
 * live in their own executable) and asserts the count stays flat across
 * hundreds of simulated minutes -- in the healthy steady state and in
 * degraded mode with active cooling and sensor faults.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/lane_batch.hh"
#include "core/setup_cache.hh"
#include "faults/schedule.hh"

namespace {

std::atomic<long long> g_news{0};

void *
countedAlloc(std::size_t size)
{
    ++g_news;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++g_news;
    void *p = nullptr;
    if (posix_memalign(&p, align, size ? size : align) != 0)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_news;
    return std::malloc(size ? size : 1);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++g_news;
    return std::malloc(size ? size : 1);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace {

using namespace ecolo;
using namespace ecolo::core;

long long
allocationsDuring(Simulation &sim, MinuteIndex minutes)
{
    const long long before = g_news.load(std::memory_order_relaxed);
    sim.run(minutes);
    return g_news.load(std::memory_order_relaxed) - before;
}

TEST(ZeroAllocation, SteadyStateSlotLoopIsAllocationFree)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));

    // Warmup sizes every scratch arena (thermal ring, side-channel
    // sample buffer, rise vectors) and fills the thermal horizon.
    sim.run(30);

    EXPECT_EQ(allocationsDuring(sim, 360), 0)
        << "the healthy steady-state slot loop touched the heap";
}

TEST(ZeroAllocation, DegradedModeSlotLoopIsAllocationFree)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    // Open-ended cooling + sensor faults: the measured window runs
    // entirely inside degraded operation with a faulted side channel.
    ASSERT_TRUE(config.faultSchedule
                    .add({faults::FaultKind::CracCapacityLoss,
                          /*start=*/20, /*duration=*/0,
                          /*magnitude=*/0.3, /*count=*/0})
                    .ok());
    ASSERT_TRUE(config.faultSchedule
                    .add({faults::FaultKind::SideChannelDropout,
                          /*start=*/25, /*duration=*/0,
                          /*magnitude=*/0.0, /*count=*/0})
                    .ok());
    Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));

    // Warmup crosses both fault onsets (and any one-time transition
    // logging) before the measurement starts.
    sim.run(60);

    EXPECT_EQ(allocationsDuring(sim, 360), 0)
        << "the degraded-mode slot loop touched the heap";
}

TEST(ZeroAllocation, LaneBatchSlotLoopIsAllocationFree)
{
    // Four fingerprint-equal simulations packed into one group exercise
    // the full lane-batch fast path -- shared benign workload, SoA
    // thermal bank, masked finish bookkeeping -- which must be as
    // allocation-free as the scalar loop it replaces.
    auto cache = std::make_shared<SetupCache>();
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    config.setupCache = cache;

    std::vector<std::unique_ptr<Simulation>> sims;
    for (double threshold : {7.2, 7.4, 7.6, 7.8}) {
        sims.push_back(std::make_unique<Simulation>(
            config, makeMyopicPolicy(config, Kilowatts(threshold))));
    }

    LaneBatchRunner runner;
    for (auto &sim : sims)
        runner.add(*sim, 30 + 360);

    // Warmup: forms the groups, sizes the bank arena and every per-lane
    // scratch buffer, and fills the thermal horizon.
    runner.run(30);

    const long long before = g_news.load(std::memory_order_relaxed);
    runner.run(360);
    const long long during =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(during, 0)
        << "the lane-batched slot loop touched the heap";
    EXPECT_TRUE(runner.finished());
}

TEST(ZeroAllocation, ServeStyleBatchedLaneLoopIsAllocationFree)
{
    // Drive the runner in status-sized chunks with a per-lane cancel
    // check installed (a serve-style token poll). Neither the chunked
    // re-entry, nor the armed cancel branch, nor retiring a cancelled
    // lane mid-measurement may touch the heap.
    auto cache = std::make_shared<SetupCache>();
    auto config = SimulationConfig::paperDefault();
    config.seed = 99;
    config.setupCache = cache;

    std::atomic<bool> cancelled[4];
    for (std::atomic<bool> &flag : cancelled)
        flag.store(false, std::memory_order_relaxed);
    std::vector<std::unique_ptr<Simulation>> sims;
    int lane = 0;
    for (double threshold : {7.2, 7.4, 7.6, 7.8}) {
        sims.push_back(std::make_unique<Simulation>(
            config, makeMyopicPolicy(config, Kilowatts(threshold))));
        std::atomic<bool> *flag = &cancelled[lane++];
        sims.back()->setCancelCheck([flag] {
            return flag->load(std::memory_order_relaxed);
        });
    }

    LaneBatchRunner runner;
    for (auto &sim : sims)
        runner.add(*sim, 30 + 360);
    runner.run(30); // warmup: groups formed, arenas sized

    const long long before = g_news.load(std::memory_order_relaxed);
    for (int chunk = 0; chunk < 6 && !runner.finished(); ++chunk) {
        if (chunk == 2) // masked divergence: one lane retires early
            cancelled[1].store(true, std::memory_order_relaxed);
        runner.run(60);
    }
    const long long during =
        g_news.load(std::memory_order_relaxed) - before;
    EXPECT_EQ(during, 0)
        << "the serve-style batched lane loop touched the heap";
    EXPECT_TRUE(runner.finished());
    EXPECT_TRUE(runner.cancelled(1));
    EXPECT_EQ(sims[1]->now(), 30 + 120);
    EXPECT_EQ(sims[0]->now(), 30 + 360);
}

} // namespace
