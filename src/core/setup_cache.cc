#include "core/setup_cache.hh"

#include <bit>

namespace ecolo::core {

namespace {

/** FNV-1a over 64-bit words (doubles hashed by bit pattern, so any
 * representational difference changes the key). */
class Fnv
{
  public:
    Fnv &word(std::uint64_t w)
    {
        // Mix byte-wise so every bit of the word lands in the state.
        for (int shift = 0; shift < 64; shift += 8) {
            state_ ^= (w >> shift) & 0xffULL;
            state_ *= 0x100000001b3ULL;
        }
        return *this;
    }

    Fnv &real(double v) { return word(std::bit_cast<std::uint64_t>(v)); }

    std::uint64_t value() const { return state_; }

  private:
    std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

void
hashDiurnal(Fnv &h, const trace::DiurnalTraceGenerator::Params &p)
{
    h.real(p.baseUtilization)
        .real(p.diurnalAmplitude)
        .real(p.peakHour)
        .real(p.secondaryAmplitude)
        .real(p.secondaryPeakHour)
        .real(p.weekendFactor)
        .real(p.noiseSigma)
        .real(p.noisePhi)
        .real(p.burstsPerDay)
        .real(p.burstMagnitude)
        .real(p.burstDurationMinutes);
}

void
hashGoogle(Fnv &h, const trace::GoogleStyleTraceGenerator::Params &p)
{
    h.word(p.plateauLevels.size());
    for (double level : p.plateauLevels)
        h.real(level);
    h.real(p.meanDwellMinutes)
        .real(p.diurnalAmplitude)
        .real(p.peakHour)
        .real(p.noiseSigma)
        .real(p.noisePhi)
        .real(p.burstsPerDay)
        .real(p.burstMagnitude)
        .real(p.burstDurationMinutes);
}

/** The unscaled traces' inputs: seed, trace kind, tenant count and the
 * active generator's shape parameters. */
std::uint64_t
generatorKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x7261cE5eULL) // domain separator
        .word(config.seed)
        .word(static_cast<std::uint64_t>(config.traceKind))
        .word(config.numBenignTenants);
    switch (config.traceKind) {
      case TraceKind::Diurnal:
        hashDiurnal(h, config.diurnalParams);
        break;
      case TraceKind::GoogleStyle:
        hashGoogle(h, config.googleParams);
        break;
      case TraceKind::RequestLevel:
        // The request-level generator's parameters are derived from the
        // tenant index alone (no config fields); kind + count suffice.
        break;
    }
    return h.value();
}

} // namespace

template <class T>
std::shared_ptr<const T>
SetupCache::lookup(Store<T> &store, std::uint64_t &hits,
                   std::uint64_t &misses, std::uint64_t key,
                   const std::function<std::shared_ptr<const T>()> &make)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = store.entries.find(key);
        if (it != store.entries.end()) {
            ++hits;
            store.order.splice(store.order.end(), store.order,
                               it->second.position);
            return it->second.value;
        }
        ++misses;
    }
    // Compute outside the lock: concurrent misses on one key both pay
    // the make cost, but the results are identical and the loser is
    // simply discarded -- better than serializing the whole campaign
    // behind one trace generation.
    std::shared_ptr<const T> value = make();
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = store.entries.try_emplace(key);
    if (!inserted)
        return it->second.value;
    it->second = {value, store.order.insert(store.order.end(), key)};
    if (store.order.size() > store.capacity) {
        store.entries.erase(store.order.front());
        store.order.pop_front();
    }
    return value;
}

std::shared_ptr<const SetupCache::TraceSet>
SetupCache::scaledTraceSet(
    std::uint64_t key,
    const std::function<std::shared_ptr<const TraceSet>()> &make)
{
    return lookup(traceSets_, counters_.traceHits, counters_.traceMisses,
                  key, make);
}

std::shared_ptr<const thermal::HeatDistributionMatrix>
SetupCache::matrix(
    std::uint64_t key,
    const std::function<thermal::HeatDistributionMatrix()> &make)
{
    return lookup<thermal::HeatDistributionMatrix>(
        matrices_, counters_.matrixHits, counters_.matrixMisses, key, [&] {
            return std::make_shared<const thermal::HeatDistributionMatrix>(
                make());
        });
}

std::shared_ptr<const thermal::TemporalFactorization>
SetupCache::factorization(
    std::uint64_t key,
    const std::function<thermal::TemporalFactorization()> &make)
{
    return lookup<thermal::TemporalFactorization>(
        factorizations_, counters_.factorizationHits,
        counters_.factorizationMisses, key, [&] {
            return std::make_shared<const thermal::TemporalFactorization>(
                make());
        });
}

SetupCache::Counters
SetupCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::uint64_t
SetupCache::traceSetKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x5ca1eFacULL)
        .word(generatorKey(config))
        .real(config.serverSpec.idlePower.value())
        .real(config.serverSpec.peakPower.value())
        .word(config.numBenignTenants)
        .word(config.serversPerBenignTenant())
        .real(config.capacity.value())
        .real(config.averageUtilization)
        .real(config.attackerStandbyUtilization)
        .word(config.attackerNumServers);
    return h.value();
}

std::uint64_t
SetupCache::matrixKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0x6eA7a712ULL)
        .word(config.layout.numRacks)
        .word(config.layout.serversPerRack)
        .real(config.matrixParams.selfGain)
        .real(config.matrixParams.neighborGain)
        .real(config.matrixParams.slotDecay)
        .real(config.matrixParams.crossRackGain)
        .real(config.matrixParams.globalGain)
        .real(config.matrixParams.riseTimeMinutes)
        .real(config.matrixParams.topSlotBias)
        .word(config.matrixHorizonMinutes);
    return h.value();
}

std::uint64_t
SetupCache::factorizationKey(const SimulationConfig &config)
{
    Fnv h;
    h.word(0xFac70125ULL)
        .word(matrixKey(config))
        .real(config.factorization.relTolerance)
        .word(config.factorization.maxRank)
        .real(config.factorization.streamingTolerance)
        .word(config.factorization.maxModesPerFactor);
    return h.value();
}

} // namespace ecolo::core
