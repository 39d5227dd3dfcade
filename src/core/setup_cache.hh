/**
 * @file
 * SetupCache: the constructor-time artifacts a Simulation builds once
 * and shares.
 *
 * A cold construct of the paper's default config costs ~120 ms in a
 * Release build: year-long trace generation, the mean-power scale
 * solve over three 525600-sample traces, the analytic heat matrix and
 * its temporal (Prony) factorization. The steady slot loop costs ~1
 * us/slot. Sweep campaigns construct dozens of members that differ
 * only in policy or one parameter, so almost all of that setup is
 * identical across members. Every Simulation builds its setup through
 * a SetupCache (a private one when its config carries none), so there
 * is one setup path. The cache holds three artifacts, each keyed by an
 * FNV-1a hash of exactly the config fields it depends on; every cached
 * value is a deterministic function of its key fields, so a hit is
 * bit-identical to recomputation.
 *
 * The trace set is stored *scaled*: tenants alias its traces, so a hit
 * copies and scales nothing.
 *
 * Thread safety: lookups take a mutex; values are immutable once
 * published (shared_ptr<const>). On a miss the make callback runs
 * *outside* the lock -- concurrent misses on one key may compute
 * twice, but both results are identical and the loser is discarded,
 * so constructor parallelism (util::parallelFor over campaign
 * members) is never serialized behind a trace generation.
 *
 * Every store is LRU-bounded: a hit refreshes its key, and publishing
 * a new key past the bound evicts the least recently used one.
 */

#ifndef ECOLO_CORE_SETUP_CACHE_HH
#define ECOLO_CORE_SETUP_CACHE_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/config.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "trace/utilization_trace.hh"

namespace ecolo::core {

class SetupCache
{
  public:
    /**
     * The benign traces, already scaled to the configured mean power.
     * One per tenant, or a single trace every tenant aliases (the
     * Google-style site trace).
     */
    using TraceSet = std::vector<trace::UtilizationTrace>;

    /** Per-store hit/miss counters (testing / telemetry). */
    struct Counters
    {
        std::uint64_t traceHits = 0, traceMisses = 0;
        std::uint64_t matrixHits = 0, matrixMisses = 0;
        std::uint64_t factorizationHits = 0, factorizationMisses = 0;
    };

    /** Most trace sets kept alive at once (each is ~13 MB; campaigns
     * sharing one workload only ever touch one key). */
    static constexpr std::size_t kMaxTraceSets = 4;

    /** Most heat matrices, and separately factorizations, kept alive
     * (each ~0.1-0.2 MB at the default layout; in-tree campaigns use
     * one key each). */
    static constexpr std::size_t kMaxThermalArtifacts = 64;

    std::shared_ptr<const TraceSet> scaledTraceSet(
        std::uint64_t key,
        const std::function<std::shared_ptr<const TraceSet>()> &make);

    std::shared_ptr<const thermal::HeatDistributionMatrix>
    matrix(std::uint64_t key,
           const std::function<thermal::HeatDistributionMatrix()> &make);

    std::shared_ptr<const thermal::TemporalFactorization>
    factorization(
        std::uint64_t key,
        const std::function<thermal::TemporalFactorization()> &make);

    Counters counters() const;

    // ---- Key derivation -------------------------------------------------
    // Each key hashes exactly the config fields the artifact is a
    // function of (doubles by bit pattern), so two configs collide on a
    // key only when the artifact is provably identical.

    /** Scaled benign traces: the generator's inputs (seed, trace kind,
     * tenant count, shape parameters) plus every input of the power
     * model and the target (server spec, tenant/server counts,
     * capacity, average utilization, attacker standby draw). Not
     * derivable when externalBenignTraces is set; such configs bypass
     * the store. */
    static std::uint64_t traceSetKey(const SimulationConfig &config);

    /** Analytic heat matrix: layout, analytic params, horizon. */
    static std::uint64_t matrixKey(const SimulationConfig &config);

    /** Temporal factorization: the matrix key plus the factorization
     * options (the fit does not depend on the kernel mode). */
    static std::uint64_t factorizationKey(const SimulationConfig &config);

  private:
    /** One LRU-bounded map from key to published artifact. */
    template <class T>
    struct Store
    {
        using Order = std::list<std::uint64_t>; //!< front = least recent
        struct Entry
        {
            std::shared_ptr<const T> value;
            typename Order::iterator position;
        };

        explicit Store(std::size_t bound) : capacity(bound) {}

        std::size_t capacity;
        Order order;
        std::unordered_map<std::uint64_t, Entry> entries;
    };

    template <class T>
    std::shared_ptr<const T>
    lookup(Store<T> &store, std::uint64_t &hits, std::uint64_t &misses,
           std::uint64_t key,
           const std::function<std::shared_ptr<const T>()> &make);

    mutable std::mutex mutex_;
    Counters counters_;

    Store<TraceSet> traceSets_{kMaxTraceSets};
    Store<thermal::HeatDistributionMatrix> matrices_{kMaxThermalArtifacts};
    Store<thermal::TemporalFactorization> factorizations_{
        kMaxThermalArtifacts};
};

} // namespace ecolo::core

#endif // ECOLO_CORE_SETUP_CACHE_HH
