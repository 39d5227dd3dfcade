/**
 * @file
 * SetupCache: golden setup digests, store bounds and concurrency.
 *
 * The golden digests pin the scaled benign traces and the heat matrix a
 * Simulation builds for six representative configs, each constructed
 * with no cache and again on a warm shared cache. Setup code has no
 * FMA-contracted arithmetic (the scale kernel is compiled with
 * -ffp-contract=off), so the digests hold on every vector ISA.
 *
 * The *Parallel suite runs under the ThreadSanitizer CI job
 * (ctest -R 'Parallel').
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/scenario.hh"
#include "core/setup_cache.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

/** FNV-1a over the bit patterns of doubles. */
class Digest
{
  public:
    void real(double v)
    {
        const auto w = std::bit_cast<std::uint64_t>(v);
        for (int shift = 0; shift < 64; shift += 8) {
            state_ ^= (w >> shift) & 0xffULL;
            state_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

/** Every benign trace sample, then every heat-matrix coefficient. */
std::uint64_t
setupDigest(const Simulation &sim)
{
    Digest h;
    for (std::size_t k = 0; k < sim.numBenignTenants(); ++k)
        for (double u : sim.benignTenant(k).traceRef().samples())
            h.real(u);
    const auto &matrix = sim.thermalEnvironment().matrix();
    for (std::size_t i = 0; i < matrix.numServers(); ++i)
        for (std::size_t j = 0; j < matrix.numServers(); ++j)
            for (std::size_t tau = 0; tau < matrix.horizon(); ++tau)
                h.real(matrix.coeff(i, j, tau));
    return h.value();
}

std::uint64_t
constructDigest(const SimulationConfig &config)
{
    const Simulation sim(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    return setupDigest(sim);
}

struct GoldenCase
{
    const char *name;
    SimulationConfig (*config)();
    std::uint64_t digest; //!< pinned before the single-setup-path refactor
};

SimulationConfig
paperDefaultSeed(std::uint64_t seed)
{
    auto config = SimulationConfig::paperDefault();
    config.seed = seed;
    return config;
}

SimulationConfig
flatExternalTraces()
{
    auto config = SimulationConfig::paperDefault();
    for (std::size_t k = 0; k < config.numBenignTenants; ++k) {
        config.externalBenignTraces.emplace_back(std::vector<double>(
            kMinutesPerDay, 0.3 + 0.1 * static_cast<double>(k)));
    }
    return config;
}

const GoldenCase kGoldenCases[] = {
    {"paper_default_seed42", [] { return paperDefaultSeed(42); },
     0xe9f9ae2c57df5af2ULL},
    {"paper_default_seed4242", [] { return paperDefaultSeed(4242); },
     0xbd043a8e90bb63e9ULL},
    {"google_style",
     [] {
         auto config = SimulationConfig::paperDefault();
         config.traceKind = TraceKind::GoogleStyle;
         return config;
     },
     0xca4bff33d1ccab62ULL},
    {"request_level",
     [] {
         auto config = SimulationConfig::paperDefault();
         config.traceKind = TraceKind::RequestLevel;
         return config;
     },
     0x76921c97beb49ca5ULL},
    {"flat_external_traces", flatExternalTraces, 0xa27534f809f09e6dULL},
    {"degraded_site",
     [] {
         return loadScenarioFile(EDGETHERM_SCENARIO_DIR
                                 "/degraded_site.cfg");
     },
     0xe9f9ae2c57df5af2ULL},
};

void
PrintTo(const GoldenCase &golden, std::ostream *os)
{
    *os << golden.name;
}

class GoldenSetupDigest : public ::testing::TestWithParam<GoldenCase>
{};

TEST_P(GoldenSetupDigest, UncachedAndWarmCacheMatchThePinnedDigest)
{
    const GoldenCase &golden = GetParam();
    SimulationConfig config = golden.config();
    EXPECT_EQ(constructDigest(config), golden.digest)
        << std::hex << "uncached digest 0x" << constructDigest(config);

    config.setupCache = std::make_shared<SetupCache>();
    (void)constructDigest(config); // warms every store
    EXPECT_EQ(constructDigest(config), golden.digest) << "warm cache";
}

INSTANTIATE_TEST_SUITE_P(
    SetupCache, GoldenSetupDigest, ::testing::ValuesIn(kGoldenCases),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

// ---- Store bounds ---------------------------------------------------------

std::shared_ptr<const SetupCache::TraceSet>
emptyTraceSet()
{
    return std::make_shared<const SetupCache::TraceSet>();
}

TEST(SetupCache, TraceStoreEvictsTheLeastRecentlyUsedSet)
{
    // A hot key stays resident while kMaxTraceSets new keys stream by:
    // every hit refreshes it, so the eviction takes the coldest key.
    static_assert(SetupCache::kMaxTraceSets == 4);
    SetupCache cache;
    const auto hot = cache.scaledTraceSet(0, emptyTraceSet);
    for (std::uint64_t key = 1; key <= SetupCache::kMaxTraceSets; ++key) {
        EXPECT_EQ(cache.scaledTraceSet(0, emptyTraceSet), hot);
        (void)cache.scaledTraceSet(key, emptyTraceSet);
    }
    EXPECT_EQ(cache.scaledTraceSet(0, emptyTraceSet), hot);
    EXPECT_EQ(cache.counters().traceMisses, 5u);
    EXPECT_EQ(cache.counters().traceHits, 5u);

    // Key 1 was the least recently used when key 4 went in.
    (void)cache.scaledTraceSet(1, emptyTraceSet);
    EXPECT_EQ(cache.counters().traceMisses, 6u);
}

TEST(SetupCache, ThermalStoresAreBounded)
{
    constexpr std::uint64_t kKeys = 10000;
    static_assert(SetupCache::kMaxThermalArtifacts < kKeys);
    SetupCache cache;
    const auto matrix = [] { return thermal::HeatDistributionMatrix(1, 1); };
    const auto factors = [] { return thermal::TemporalFactorization(); };
    for (std::uint64_t key = 0; key < kKeys; ++key) {
        (void)cache.matrix(key, matrix);
        (void)cache.factorization(key, factors);
    }
    // The newest kMaxThermalArtifacts keys hit...
    for (std::uint64_t key = kKeys - SetupCache::kMaxThermalArtifacts;
         key < kKeys; ++key) {
        (void)cache.matrix(key, matrix);
        (void)cache.factorization(key, factors);
    }
    SetupCache::Counters c = cache.counters();
    EXPECT_EQ(c.matrixMisses, kKeys);
    EXPECT_EQ(c.factorizationMisses, kKeys);
    EXPECT_EQ(c.matrixHits, SetupCache::kMaxThermalArtifacts);
    EXPECT_EQ(c.factorizationHits, SetupCache::kMaxThermalArtifacts);

    // ...and the oldest were evicted, so they miss again.
    (void)cache.matrix(0, matrix);
    (void)cache.factorization(0, factors);
    c = cache.counters();
    EXPECT_EQ(c.matrixMisses, kKeys + 1);
    EXPECT_EQ(c.factorizationMisses, kKeys + 1);
}

// ---- Sharing ---------------------------------------------------------------

TEST(SetupCache, WarmSimulationsAliasOneScaledTraceSet)
{
    auto config = SimulationConfig::paperDefault();
    config.setupCache = std::make_shared<SetupCache>();
    const Simulation first(config, makeMyopicPolicy(config, Kilowatts(7.4)));
    const Simulation second(config,
                            makeMyopicPolicy(config, Kilowatts(7.4)));
    for (std::size_t k = 0; k < first.numBenignTenants(); ++k) {
        EXPECT_EQ(first.benignTenant(k).traceRef().samples().data(),
                  second.benignTenant(k).traceRef().samples().data())
            << "tenant " << k;
    }
    EXPECT_EQ(config.setupCache->counters().traceMisses, 1u);
    EXPECT_EQ(config.setupCache->counters().traceHits, 1u);

    // A Google-style set holds the one site-wide trace all tenants alias.
    config.traceKind = TraceKind::GoogleStyle;
    const Simulation google(config,
                            makeMyopicPolicy(config, Kilowatts(7.4)));
    for (std::size_t k = 1; k < google.numBenignTenants(); ++k) {
        EXPECT_EQ(google.benignTenant(k).traceRef().samples().data(),
                  google.benignTenant(0).traceRef().samples().data());
    }
}

// ---- Concurrency (runs under TSan) ----------------------------------------

TEST(SetupCacheParallel, ConcurrentMissesAgree)
{
    constexpr int kThreads = 4;
    constexpr int kCallsPerThread = 200;
    // One key, then kMaxTraceSets rotating keys: all stay resident, so
    // every caller of a key must get the one published set even when
    // several threads missed on it together.
    for (const std::uint64_t keys : {std::uint64_t{1},
                                     std::uint64_t{SetupCache::kMaxTraceSets}}) {
        SetupCache cache;
        std::vector<std::vector<const SetupCache::TraceSet *>> seen(
            kThreads);
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kCallsPerThread; ++i) {
                    const std::uint64_t key =
                        static_cast<std::uint64_t>(t + i) % keys;
                    seen[t].push_back(
                        cache.scaledTraceSet(key, emptyTraceSet).get());
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();

        const SetupCache::Counters c = cache.counters();
        EXPECT_EQ(c.traceHits + c.traceMisses,
                  std::uint64_t{kThreads * kCallsPerThread});
        EXPECT_GE(c.traceMisses, keys);
        for (int t = 0; t < kThreads; ++t) {
            for (int i = 0; i < kCallsPerThread; ++i) {
                const std::uint64_t key =
                    static_cast<std::uint64_t>(t + i) % keys;
                EXPECT_EQ(seen[t][i],
                          cache.scaledTraceSet(key, emptyTraceSet).get())
                    << "thread " << t << " call " << i << " key " << key;
            }
        }
    }
}

} // namespace
