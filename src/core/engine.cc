#include "core/engine.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/setup_cache.hh"
#include "telemetry/telemetry.hh"
#include "trace/generators.hh"
#include "util/logging.hh"

namespace ecolo::core {

namespace {

/** Per-tenant jitter so the three benign tenants are not clones. */
trace::UtilizationTrace
makeBenignTrace(const SimulationConfig &config, std::size_t tenant_index,
                Rng &rng)
{
    const std::size_t horizon = kMinutesPerYear;
    const auto k = static_cast<double>(tenant_index);
    if (config.traceKind == TraceKind::GoogleStyle) {
        trace::GoogleStyleTraceGenerator::Params params =
            config.googleParams;
        params.peakHour += k * 0.7;
        params.meanDwellMinutes *= 1.0 + 0.15 * k;
        return trace::GoogleStyleTraceGenerator(params).generate(horizon,
                                                                 rng);
    }
    if (config.traceKind == TraceKind::RequestLevel) {
        trace::RequestTraceGenerator::Params params;
        params.peakHour += 0.4 * (k - 1.0);
        params.peakRequestsPerSecond *= 1.0 + 0.05 * (k - 1.0);
        return trace::RequestTraceGenerator(params).generate(horizon, rng);
    }
    trace::DiurnalTraceGenerator::Params params = config.diurnalParams;
    params.peakHour += 0.4 * (k - 1.0);  // stagger peaks around 14:00
    params.baseUtilization += 0.02 * (k - 1.0);
    params.burstsPerDay += k;
    return trace::DiurnalTraceGenerator(params).generate(horizon, rng);
}

/** Tenant k's trace in a scaled set: a one-trace set is the site-wide
 * trace every tenant aliases. */
std::shared_ptr<const trace::UtilizationTrace>
tenantTrace(const std::shared_ptr<const SetupCache::TraceSet> &set,
            std::size_t k)
{
    return {set, &(*set)[std::min(k, set->size() - 1)]};
}

} // namespace

Simulation::Simulation(SimulationConfig config,
                       std::unique_ptr<AttackPolicy> policy)
    : config_([&] {
          config.validate();
          if (!config.setupCache)
              config.setupCache = std::make_shared<SetupCache>();
          return config;
      }()),
      layout_(config_.layout),
      rng_(config_.seed),
      attackerTenant_("attacker", config_.attackerSubscription,
                      config_.attackerNumServers, config_.serverSpec),
      attackerSupply_(config_.batterySpec, config_.attackerSubscription),
      thermal_(makeThermalEnvironment(config_, layout_)),
      channel_(config_.sideChannel, Rng(config_.seed ^ 0x5e1dc4a2ULL)),
      latency_(config_.latency),
      pdu_(config_.capacity),
      operator_([&] {
          ColoOperator::Params params;
          params.emergencyThreshold = config_.emergencyThreshold;
          params.sustainMinutes = config_.emergencySustainMinutes;
          params.cappingMinutes = config_.cappingMinutes;
          params.shutdownThreshold = config_.shutdownThreshold;
          params.outageRestartMinutes = config_.outageRestartMinutes;
          params.adaptiveCapping = config_.adaptiveCapping;
          return params;
      }()),
      policy_(std::move(policy)),
      faultsEnabled_(!config_.faultSchedule.empty()),
      lastValidEstimate_(config_.attackerSubscription),
      lastHeat_(config_.numServers(), Kilowatts(0.0)),
      lastMetered_(config_.numServers(), Kilowatts(0.0))
{
    ECOLO_ASSERT(policy_ != nullptr, "simulation needs an attack policy");
    ECOLO_ASSERT(layout_.numServers() == config_.numServers(),
                 "layout/server-count mismatch");
    buildTenants();

    pdu_.addCircuit("attacker", config_.attackerSubscription);
    for (const auto &tenant : benignTenants_)
        pdu_.addCircuit(tenant.name(), tenant.subscribedCapacity());
}

thermal::ThermalEnvironment
Simulation::makeThermalEnvironment(const SimulationConfig &config,
                                   const power::DataCenterLayout &layout)
{
    auto &cache = *config.setupCache;
    auto matrix = cache.matrix(SetupCache::matrixKey(config), [&] {
        return thermal::HeatDistributionMatrix::analyticDefault(
            layout, config.matrixParams, config.matrixHorizonMinutes);
    });
    // The factorization is the single most expensive thermal setup step
    // and is shared by the factorized and streaming kernels; the dense
    // kernel never computes one, so do not force it here.
    std::shared_ptr<const thermal::TemporalFactorization> factors;
    if (config.thermalMode != thermal::KernelMode::Dense) {
        factors = cache.factorization(
            SetupCache::factorizationKey(config), [&] {
                return thermal::TemporalFactorization::compute(
                    *matrix, config.factorization);
            });
    }
    return thermal::ThermalEnvironment(*matrix, config.cooling, 15.0,
                                       config.thermalMode,
                                       config.factorization,
                                       std::move(factors));
}

std::shared_ptr<const SetupCache::TraceSet>
Simulation::makeScaledTraceSet(Rng &trace_rng)
{
    auto set = std::make_shared<SetupCache::TraceSet>();
    if (!config_.externalBenignTraces.empty()) {
        *set = config_.externalBenignTraces;
    } else if (config_.traceKind == TraceKind::GoogleStyle) {
        // The alternate (Google-style) trace models ONE recorded cluster
        // trace driving the whole site (the paper's "alternate total
        // power trace"), so every tenant aliases it; the default diurnal
        // trace is per-tenant with jitter.
        set->push_back(makeBenignTrace(config_, 0, trace_rng));
    } else {
        for (std::size_t k = 0; k < config_.numBenignTenants; ++k)
            set->push_back(makeBenignTrace(config_, k, trace_rng));
    }

    // Scale so that the *whole* data center (attacker idling on dummy
    // workloads included) averages the configured utilization of
    // capacity. The solve reads the set through the tenants, which the
    // caller re-points at the published set afterwards.
    const Kilowatts attacker_standby =
        config_.serverSpec.powerAt(config_.attackerStandbyUtilization) *
        static_cast<double>(config_.attackerNumServers);
    const Kilowatts target =
        config_.capacity * config_.averageUtilization - attacker_standby;
    ECOLO_ASSERT(target.value() > 0.0,
                 "average utilization target leaves no benign power");
    std::vector<power::Tenant *> tenant_ptrs;
    for (std::size_t k = 0; k < benignTenants_.size(); ++k) {
        benignTenants_[k].setTrace(tenantTrace(set, k));
        tenant_ptrs.push_back(&benignTenants_[k]);
    }
    const double factor =
        power::computeMeanPowerScaleFactor(tenant_ptrs, target);
    for (trace::UtilizationTrace &trace : *set)
        trace.scale(factor);
    return set;
}

void
Simulation::buildTenants()
{
    const std::size_t per_tenant = config_.serversPerBenignTenant();
    benignTenants_.reserve(config_.numBenignTenants);
    for (std::size_t k = 0; k < config_.numBenignTenants; ++k) {
        benignTenants_.emplace_back("tenant-" + std::to_string(k + 1),
                                    config_.benignSubscription(),
                                    per_tenant, config_.serverSpec);
    }
    // Always fork, even when the trace set is a cache hit: the fork
    // advances rng_, and the engine's own stream must not depend on
    // whether another simulation built the traces first.
    Rng trace_rng = rng_.fork();
    // External traces are not derivable from the config, so they have
    // no store key; they are scaled the same way but never shared.
    const bool external = !config_.externalBenignTraces.empty();
    const auto set =
        external ? makeScaledTraceSet(trace_rng)
                 : config_.setupCache->scaledTraceSet(
                       SetupCache::traceSetKey(config_),
                       [&] { return makeScaledTraceSet(trace_rng); });
    for (std::size_t k = 0; k < benignTenants_.size(); ++k)
        benignTenants_[k].setTrace(tenantTrace(set, k));

    workloadFingerprint_ = external ? 0 : SetupCache::traceSetKey(config_);
}

Kilowatts
Simulation::benignActualPower() const
{
    Kilowatts total(0.0);
    for (const auto &tenant : benignTenants_)
        total += tenant.actualPower();
    return total;
}

AttackObservation
Simulation::makeObservation(bool capping, bool outage,
                            const Kilowatts *benign_actual_override)
{
    AttackObservation obs;
    obs.time = now_;
    obs.batterySoc = attackerSupply_.battery().soc();
    obs.cappingActive = capping;
    obs.outage = outage;

    if (outage) {
        obs.estimatedLoad = config_.attackerSubscription;
    } else {
        // The attacker estimates the benign aggregate via the voltage side
        // channel (it knows and subtracts its own draw), then reasons in
        // terms of "benign load + my subscription" as in the paper. The
        // channel averages the per-minute ripple samples into the
        // engine-owned scratch (sized once; the slot loop allocates
        // nothing afterwards). A lane group's leader may pass in the
        // shared benign aggregate (bitwise equal to what this lane would
        // compute; see SharedBenignSlot).
        const Kilowatts benign_actual = benign_actual_override != nullptr
                                            ? *benign_actual_override
                                            : benignActualPower();
        Kilowatts estimate(0.0);
        {
            telemetry::TraceSpan span("engine.sidechannel");
            estimate = channel_.estimateAveraged(
                benign_actual, config_.sideChannel.samplesPerEstimate,
                sampleScratch_);
        }
        if (std::isnan(estimate.value())) {
            // Sensor fault (dropout / corrupted samples): hold the last
            // valid estimate. Policies discretize estimatedLoad into
            // table indices, so a NaN must never reach them.
            obs.estimatedLoad = lastValidEstimate_;
            obs.estimateStale = true;
            ECOLO_WARN_RATE_LIMITED(
                5, "side-channel estimate invalid at minute ", now_,
                "; holding last valid estimate (",
                lastValidEstimate_.value(), " kW)");
            if (telemetry::enabled()) {
                telemetry::registry()
                    .counter("sidechannel.estimate.stale").inc();
            }
        } else {
            obs.estimatedLoad = estimate + config_.attackerSubscription;
            lastValidEstimate_ = obs.estimatedLoad;
            if (telemetry::enabled()) {
                telemetry::registry()
                    .histogram("sidechannel.estimate_error_kw")
                    .add(std::abs(estimate.value() -
                                  benign_actual.value()));
            }
        }
    }

    // The attacker's own inlet sensors: its servers are the first
    // attackerNumServers global indices (bottom of rack 0).
    double hottest = -1e30;
    for (std::size_t i = 0; i < config_.attackerNumServers; ++i)
        hottest = std::max(hottest,
                           thermal_.inletTemperature(i).value());
    obs.inletTemperature = Celsius(hottest);
    return obs;
}

void
Simulation::slotBegin(SlotContext &ctx)
{
    // ---- 0. Fault injection (skipped entirely on healthy configs). ----
    if (faultsEnabled_) {
        applyFaultsForMinute();
        if (telemetry::enabled()) {
            const bool faults_active = faultsNow_.any();
            if (faults_active != prevFaultsActive_) {
                telemetry::emitEvent(now_,
                                     faults_active
                                         ? telemetry::EventKind::
                                               FaultActivated
                                         : telemetry::EventKind::
                                               FaultExpired);
                prevFaultsActive_ = faults_active;
            }
        }
    }

    ctx.capping = command_.capServers;
    ctx.outage = command_.outage;
    // Degraded-mode preventive capping (operator fault response) caps at
    // its own level when no emergency cap is in force.
    const bool preventive =
        !ctx.capping && command_.preventiveCapLevel.has_value();
    ctx.anyCap = ctx.capping || preventive;
    ctx.capLevel =
        ctx.capping
            ? command_.capLevel.value_or(config_.perServerCap)
            : command_.preventiveCapLevel.value_or(config_.perServerCap);
    ctx.degradedNow = command_.degraded;
    ctx.shedFraction = command_.shedFraction;

    if (telemetry::enabled() && ctx.anyCap != prevAnyCap_) {
        telemetry::emitEvent(now_,
                             ctx.anyCap
                                 ? telemetry::EventKind::CappingStart
                                 : telemetry::EventKind::CappingEnd,
                             ctx.anyCap ? ctx.capLevel.value() : 0.0);
        prevAnyCap_ = ctx.anyCap;
    }
}

bool
Simulation::slotBenignUniform(const SlotContext &ctx) const
{
    if (ctx.anyCap || ctx.outage)
        return false;
    if (faultsEnabled_ &&
        (faultsNow_.traceGap || faultsNow_.failedServers > 0))
        return false;
    // Mirror the workload phase's shed computation exactly: a fraction
    // small enough to shed zero servers leaves the slot uniform.
    const std::size_t num_benign = config_.numBenignServers();
    const std::size_t shed = static_cast<std::size_t>(
        ctx.shedFraction * static_cast<double>(num_benign));
    return shed == 0;
}

void
Simulation::slotWorkloadBenign(const SlotContext &ctx)
{
    // ---- 1. Benign tenants follow their traces; operator commands. ----
    // A trace-gap fault freezes the telemetry feed: tenants keep replaying
    // the last pre-gap minute instead of dying on missing data.
    const MinuteIndex trace_minute =
        (faultsEnabled_ && faultsNow_.traceGap)
            ? std::max<MinuteIndex>(0, faultsNow_.traceGapStart - 1)
            : now_;
    for (auto &tenant : benignTenants_) {
        tenant.applyTraceAt(trace_minute);
        tenant.setPoweredOn(!ctx.outage);
        if (ctx.anyCap)
            tenant.setPerServerCap(ctx.capLevel);
        else
            tenant.clearCaps();
    }

    // Hard server failures (fault) and commanded partial shutdown
    // (degraded-mode response) power off benign servers from the back of
    // the bank; both are zero on healthy runs.
    if (!ctx.outage) {
        const std::size_t num_benign = config_.numBenignServers();
        const std::size_t shed = static_cast<std::size_t>(
            ctx.shedFraction * static_cast<double>(num_benign));
        const std::size_t failed =
            faultsEnabled_ ? faultsNow_.failedServers : 0;
        std::size_t remaining = std::min(num_benign, shed + failed);
        for (auto tenant = benignTenants_.rbegin();
             tenant != benignTenants_.rend() && remaining > 0; ++tenant) {
            auto &servers = tenant->servers();
            for (auto srv = servers.rbegin();
                 srv != servers.rend() && remaining > 0; ++srv) {
                srv->setPoweredOn(false);
                --remaining;
            }
        }
    }
}

void
Simulation::slotWorkloadAttacker(const SlotContext &ctx)
{
    attackerTenant_.setPoweredOn(!ctx.outage);
    if (ctx.anyCap)
        attackerTenant_.setPerServerCap(ctx.capLevel);
    else
        attackerTenant_.clearCaps();
}

void
Simulation::slotObserveDecide(SlotContext &ctx,
                              const Kilowatts *shared_benign_actual)
{
    // ---- 2. Observation, learning feedback, day boundary. ----
    ctx.obs = makeObservation(ctx.anyCap, ctx.outage,
                              shared_benign_actual);
    if (havePending_)
        policy_->feedback(lastObs_, lastAction_, ctx.obs);
    if (now_ > 0 && now_ % kMinutesPerDay == 0)
        policy_->onDayBoundary(dayIndex(now_));

    // ---- 3. Decide and enforce protocol compliance. ----
    {
        telemetry::TraceSpan span("engine.policy_decide");
        ctx.action = policy_->decide(ctx.obs);
    }
    if (ctx.outage) {
        ctx.action = AttackAction::Standby;
    } else if (ctx.anyCap && !policy_->ignoresCapping() &&
               ctx.action == AttackAction::Attack) {
        ctx.action = ctx.obs.batterySoc < 1.0 ? AttackAction::Charge
                                              : AttackAction::Standby;
    }
}

void
Simulation::slotAttackerSupply(SlotContext &ctx)
{
    // ---- 4. Attacker power execution. ----
    // A BMS cutout isolates the battery: neither discharging (the attack
    // fizzles at the grid cap) nor charging is possible.
    const bool bms_cutout = faultsEnabled_ && faultsNow_.bmsCutout;
    ctx.supply = battery::SupplyResult{Kilowatts(0.0), Kilowatts(0.0),
                                       Kilowatts(0.0)};
    if (!ctx.outage) {
        std::optional<Kilowatts> grid_limit;
        if (ctx.anyCap)
            grid_limit = ctx.capLevel *
                         static_cast<double>(config_.attackerNumServers);
        switch (ctx.action) {
          case AttackAction::Attack: {
            attackerTenant_.setUtilization(1.0);
            const Kilowatts demand =
                config_.attackerSubscription + config_.attackLoad;
            ctx.supply = attackerSupply_.step(
                demand,
                bms_cutout ? battery::SupplyMode::GridOnly
                           : battery::SupplyMode::DischargeBattery,
                minutes(1), grid_limit);
            break;
          }
          case AttackAction::Charge: {
            attackerTenant_.setUtilization(
                config_.attackerStandbyUtilization);
            ctx.supply = attackerSupply_.step(
                attackerTenant_.actualPower(),
                bms_cutout ? battery::SupplyMode::GridOnly
                           : battery::SupplyMode::ChargeBattery,
                minutes(1), grid_limit);
            break;
          }
          case AttackAction::Standby: {
            attackerTenant_.setUtilization(
                config_.attackerStandbyUtilization);
            ctx.supply = attackerSupply_.step(
                attackerTenant_.actualPower(),
                battery::SupplyMode::GridOnly, minutes(1), grid_limit);
            break;
          }
        }
    }
}

void
Simulation::slotHeatAndMeter(SlotContext &ctx,
                             const SharedBenignSlot *shared)
{
    // ---- 5. Per-server heat and metering. ----
    const std::size_t n_attacker = config_.attackerNumServers;
    const Kilowatts attacker_heat_per_server =
        ctx.supply.serverPower / static_cast<double>(n_attacker);
    const Kilowatts attacker_grid_per_server =
        ctx.supply.gridPower / static_cast<double>(n_attacker);
    std::size_t server = 0;
    for (; server < n_attacker; ++server) {
        lastHeat_[server] = attacker_heat_per_server;
        lastMetered_[server] = attacker_grid_per_server;
    }
    Kilowatts benign_total(0.0);
    if (shared != nullptr) {
        // Follower lane of a uniform slot: the leader's harvested values
        // are bitwise what the loop below would recompute.
        const std::size_t num_benign = config_.numBenignServers();
        for (std::size_t i = 0; i < num_benign; ++i, ++server) {
            const Kilowatts p(shared->serverKw[i]);
            lastHeat_[server] = p;
            lastMetered_[server] = p;
        }
        benign_total = shared->flatTotal;
    } else {
        for (const auto &tenant : benignTenants_) {
            for (const auto &srv : tenant.servers()) {
                const Kilowatts p = srv.actualPower();
                lastHeat_[server] = p;
                lastMetered_[server] = p;
                benign_total += p;
                ++server;
            }
        }
    }
    ECOLO_ASSERT(server == config_.numServers(),
                 "server heat vector not fully populated");

    pdu_.setEnergized(!ctx.outage);
    pdu_.setCircuitDraw(0, ctx.supply.gridPower);
    for (std::size_t k = 0; k < benignTenants_.size(); ++k)
        pdu_.setCircuitDraw(k + 1,
                            shared != nullptr
                                ? shared->tenantKw[k]
                                : benignTenants_[k].actualPower());
    ctx.benignTotal = benign_total;
    ctx.meteredTotal = pdu_.totalMeteredPower();
}

void
Simulation::slotThermal()
{
    // ---- 6a. Thermal step. ----
    telemetry::TraceSpan span("engine.thermal_step");
    thermal_.stepMinute(lastHeat_);
}

void
Simulation::slotThermalFromBank(const double *rises, std::size_t stride)
{
    telemetry::TraceSpan span("engine.thermal_step");
    thermal_.applyLaneStep(lastHeat_, rises, stride);
}

void
Simulation::slotOperatorReact(SlotContext &ctx)
{
    // ---- 6b. Operator reaction. ----
    // The attacker's batteries breathe the data center air; with a
    // thermally-aware battery spec this derates their usable capacity.
    attackerSupply_.battery().setAmbient(thermal_.inletTemperature(0));
    ctx.maxInlet = thermal_.maxInletTemperature();
    const Celsius max_inlet = ctx.maxInlet;
    // The operator trips on its own (possibly noisy) sensors; with noise
    // configured, occasional spurious emergencies occur even without an
    // attack -- the statistics the paper notes an attacker could hide
    // behind (Section VII-B).
    Celsius sensed_inlet = max_inlet;
    if (config_.operatorSensorNoise > 0.0) {
        sensed_inlet = max_inlet + CelsiusDelta(rng_.normal(
                           0.0, config_.operatorSensorNoise));
    }
    // The operator's own health telemetry: CRAC derating is visible on
    // the unit's controller, and a telemetry dropout blinds the inlet
    // feed (the operator falls back to its last good reading).
    DegradedContext degraded_ctx;
    if (faultsEnabled_) {
        degraded_ctx.coolingCapacityFactor =
            faultsNow_.coolingCapacityFactor;
        degraded_ctx.sensorValid = !faultsNow_.sideChannelDropout;
    }
    command_ = operator_.observeMinute(sensed_inlet, degraded_ctx);

    while (emergenciesSeen_ < operator_.emergenciesDeclared()) {
        metrics_.noteEmergencyDeclared();
        ++emergenciesSeen_;
        if (telemetry::enabled())
            telemetry::registry().counter("engine.emergency.declared").inc();
    }
    while (outagesSeen_ < operator_.outages()) {
        metrics_.noteOutage();
        ++outagesSeen_;
        if (telemetry::enabled())
            telemetry::registry().counter("engine.outage.count").inc();
    }

    if (telemetry::enabled()) {
        using telemetry::EventKind;
        const OperatorState op_state = operator_.state();
        if (op_state != prevOpState_) {
            if (op_state == OperatorState::Emergency) {
                telemetry::emitEvent(now_, EventKind::EmergencyDeclared,
                                     sensed_inlet.value());
            } else if (prevOpState_ == OperatorState::Emergency) {
                telemetry::emitEvent(now_, EventKind::EmergencyCleared,
                                     sensed_inlet.value());
            }
            if (op_state == OperatorState::Outage) {
                telemetry::emitEvent(now_, EventKind::Outage,
                                     sensed_inlet.value());
            } else if (prevOpState_ == OperatorState::Outage) {
                telemetry::emitEvent(now_, EventKind::OutageEnded,
                                     sensed_inlet.value());
            }
            prevOpState_ = op_state;
        }

        // Degraded-mode severity tier: 0 = healthy, 1 = set-point raise
        // only, 2 = preventive capping, 3 = partial shutdown.
        int tier = 0;
        if (command_.degraded) {
            tier = 1;
            if (command_.preventiveCapLevel.has_value())
                tier = 2;
            if (command_.shedFraction > 0.0)
                tier = 3;
        }
        if (tier != prevDegradedTier_) {
            telemetry::emitEvent(now_, EventKind::DegradedTierChange,
                                 static_cast<double>(tier));
            prevDegradedTier_ = tier;
        }

        const double soc = attackerSupply_.battery().soc();
        const double min_soc = minAttackSoc(config_);
        if (!batteryDepletedLatched_ && soc < min_soc) {
            telemetry::emitEvent(now_, EventKind::BatteryDepleted, soc);
            batteryDepletedLatched_ = true;
        } else if (batteryDepletedLatched_ && soc >= min_soc) {
            batteryDepletedLatched_ = false; // re-arm after recharge
        }

        auto &reg = telemetry::registry();
        reg.counter("engine.minutes").inc();
        if (ctx.anyCap)
            reg.counter("engine.capping.minutes").inc();
        if (ctx.action == AttackAction::Attack)
            reg.counter("engine.attack.minutes").inc();
        reg.gauge("engine.inlet.max_c").set(max_inlet.value());
        reg.gauge("battery.soc").set(soc);
    }
}

void
Simulation::slotFinish(const SlotContext &ctx)
{
    // ---- 7. Performance accounting during capped minutes. ----
    if (ctx.anyCap && !ctx.outage) {
        double sum = 0.0;
        for (std::size_t k = 0; k < benignTenants_.size(); ++k) {
            const auto &tenant = benignTenants_[k];
            const Kilowatts demand = tenant.demandPower();
            const double fraction =
                demand.value() > 1e-9
                    ? std::clamp(tenant.actualPower() / demand, 1e-6, 1.0)
                    : 1.0;
            const double norm =
                latency_.normalizedP95(tenant.utilization(), fraction);
            metrics_.recordTenantEmergencyPerf(k, norm);
            sum += norm;
        }
        metrics_.recordEmergencyPerf(
            sum / static_cast<double>(benignTenants_.size()));
    }

    // ---- 8. Record the minute. ----
    MinuteRecord record;
    record.time = now_;
    record.meteredTotal = ctx.meteredTotal;
    record.actualHeat = [&] {
        Kilowatts total(0.0);
        for (Kilowatts h : lastHeat_)
            total += h;
        return total;
    }();
    record.attackBatteryPower =
        std::max(Kilowatts(0.0), ctx.supply.batteryPower);
    record.benignPower = ctx.benignTotal;
    record.maxInlet = ctx.maxInlet;
    record.supply = thermal_.supplyTemperature();
    record.batterySoc = attackerSupply_.battery().soc();
    record.action = ctx.action;
    record.cappingActive = ctx.capping;
    record.outage = ctx.outage;
    record.degraded = ctx.degradedNow;
    record.shedFraction = ctx.shedFraction;
    record.estimateStale = ctx.obs.estimateStale;
    metrics_.recordMinute(record, config_.cooling.supplySetPoint,
                          thermal_.meanInletTemperature());
    if (callback_)
        callback_(record);

    lastObs_ = ctx.obs;
    lastAction_ = ctx.action;
    havePending_ = true;
    ++now_;
}

void
Simulation::harvestSharedBenign(SharedBenignSlot &out) const
{
    std::size_t idx = 0;
    Kilowatts tenant_total(0.0);
    Kilowatts flat_total(0.0);
    for (std::size_t k = 0; k < benignTenants_.size(); ++k) {
        const auto &tenant = benignTenants_[k];
        Kilowatts tenant_kw(0.0);
        for (const auto &srv : tenant.servers()) {
            const Kilowatts p = srv.actualPower();
            out.serverKw[idx++] = p.value();
            tenant_kw += p;    // Tenant::actualPower's chain
            flat_total += p;   // the heat phase's flat chain
        }
        out.tenantKw[k] = tenant_kw;
        tenant_total += tenant_kw; // benignActualPower's chain
    }
    out.tenantTotal = tenant_total;
    out.flatTotal = flat_total;
}

void
Simulation::restoreBenignWorkload()
{
    if (now_ <= 0)
        return;
    // The workload phase of a uniform slot is exactly this (trace at the
    // slot's minute, powered on, caps clear), so re-deriving it for the
    // last simulated minute reproduces the skipped phases' net effect.
    const MinuteIndex trace_minute = now_ - 1;
    for (auto &tenant : benignTenants_) {
        tenant.applyTraceAt(trace_minute);
        tenant.setPoweredOn(true);
        tenant.clearCaps();
    }
}

void
Simulation::stepMinute()
{
    // The scalar step: the phases in their original order. The lane
    // runner calls these same methods (interleaved across lanes), which
    // is what keeps the two execution paths bit-identical.
    SlotContext ctx;
    slotBegin(ctx);
    slotWorkloadBenign(ctx);
    slotWorkloadAttacker(ctx);
    slotObserveDecide(ctx, nullptr);
    slotAttackerSupply(ctx);
    slotHeatAndMeter(ctx, nullptr);
    slotThermal();
    slotOperatorReact(ctx);
    slotFinish(ctx);
}

void
Simulation::applyFaultsForMinute()
{
    faultsNow_ = config_.faultSchedule.activeAt(now_);

    // CRAC faults derate the cooling plant; the operator's commanded
    // set-point raise (a degraded-mode response decided last minute) is
    // applied alongside so the two compose in the capacity model.
    thermal_.cooling().setFaultDerating(faultsNow_.coolingCapacityFactor,
                                        faultsNow_.coolingRecoveryFactor);
    thermal_.cooling().setSetPointOffset(command_.setPointRaise);
    attackerSupply_.battery().setFaultCapacityFactor(
        faultsNow_.batteryCapacityFactor);

    using sidechannel::SensorFaultMode;
    SensorFaultMode mode = SensorFaultMode::Healthy;
    if (faultsNow_.sideChannelDropout)
        mode = SensorFaultMode::Dropout;
    else if (faultsNow_.sideChannelNan)
        mode = SensorFaultMode::Nan;
    else if (faultsNow_.sideChannelStuck)
        mode = SensorFaultMode::Stuck;
    channel_.setFaultMode(mode);
}

void
Simulation::saveState(util::StateWriter &writer) const
{
    writer.tag("SIM ");
    writer.i64(now_);
    rng_.saveState(writer);

    writer.boolean(command_.capServers);
    writer.boolean(command_.outage);
    writer.boolean(command_.capLevel.has_value());
    writer.f64(command_.capLevel ? command_.capLevel->value() : 0.0);
    writer.boolean(command_.preventiveCapLevel.has_value());
    writer.f64(command_.preventiveCapLevel
                   ? command_.preventiveCapLevel->value()
                   : 0.0);
    writer.f64(command_.setPointRaise.value());
    writer.f64(command_.shedFraction);
    writer.boolean(command_.degraded);

    writer.i64(lastObs_.time);
    writer.f64(lastObs_.batterySoc);
    writer.f64(lastObs_.estimatedLoad.value());
    writer.f64(lastObs_.inletTemperature.value());
    writer.boolean(lastObs_.cappingActive);
    writer.boolean(lastObs_.outage);
    writer.boolean(lastObs_.estimateStale);
    writer.u32(static_cast<std::uint32_t>(lastAction_));
    writer.boolean(havePending_);
    writer.f64(lastValidEstimate_.value());
    writer.u64(emergenciesSeen_);
    writer.u64(outagesSeen_);

    std::vector<double> kw(lastHeat_.size());
    for (std::size_t i = 0; i < lastHeat_.size(); ++i)
        kw[i] = lastHeat_[i].value();
    writer.f64Vector(kw);
    for (std::size_t i = 0; i < lastMetered_.size(); ++i)
        kw[i] = lastMetered_[i].value();
    writer.f64Vector(kw);

    attackerSupply_.saveState(writer);
    thermal_.saveState(writer);
    channel_.saveState(writer);
    operator_.saveState(writer);
    policy_->saveState(writer);
    metrics_.saveState(writer);
}

void
Simulation::loadState(util::StateReader &reader)
{
    reader.tag("SIM ");
    now_ = reader.i64();
    rng_.loadState(reader);

    command_.capServers = reader.boolean();
    command_.outage = reader.boolean();
    const bool have_cap = reader.boolean();
    const double cap_kw = reader.f64();
    command_.capLevel =
        have_cap ? std::optional<Kilowatts>(Kilowatts(cap_kw))
                 : std::nullopt;
    const bool have_preventive = reader.boolean();
    const double preventive_kw = reader.f64();
    command_.preventiveCapLevel =
        have_preventive ? std::optional<Kilowatts>(Kilowatts(preventive_kw))
                        : std::nullopt;
    command_.setPointRaise = CelsiusDelta(reader.f64());
    command_.shedFraction = reader.f64();
    command_.degraded = reader.boolean();

    lastObs_.time = reader.i64();
    lastObs_.batterySoc = reader.f64();
    lastObs_.estimatedLoad = Kilowatts(reader.f64());
    lastObs_.inletTemperature = Celsius(reader.f64());
    lastObs_.cappingActive = reader.boolean();
    lastObs_.outage = reader.boolean();
    lastObs_.estimateStale = reader.boolean();
    lastAction_ = static_cast<AttackAction>(reader.u32());
    havePending_ = reader.boolean();
    lastValidEstimate_ = Kilowatts(reader.f64());
    emergenciesSeen_ = static_cast<std::size_t>(reader.u64());
    outagesSeen_ = static_cast<std::size_t>(reader.u64());

    const std::vector<double> heat_kw = reader.f64Vector();
    const std::vector<double> metered_kw = reader.f64Vector();
    if (reader.ok() && (heat_kw.size() != lastHeat_.size() ||
                        metered_kw.size() != lastMetered_.size())) {
        reader.fail(ECOLO_ERROR(
            util::ErrorCode::StateError,
            "server-count mismatch restoring simulation state: "
            "checkpoint has ",
            heat_kw.size(), " servers, config has ", lastHeat_.size()));
        return;
    }
    for (std::size_t i = 0; i < heat_kw.size(); ++i)
        lastHeat_[i] = Kilowatts(heat_kw[i]);
    for (std::size_t i = 0; i < metered_kw.size(); ++i)
        lastMetered_[i] = Kilowatts(metered_kw[i]);

    attackerSupply_.loadState(reader);
    thermal_.loadState(reader);
    channel_.loadState(reader);
    operator_.loadState(reader);
    policy_->loadState(reader);
    metrics_.loadState(reader);
}

void
Simulation::run(MinuteIndex num_minutes)
{
    ECOLO_ASSERT(num_minutes >= 0, "negative run length");
    for (MinuteIndex i = 0; i < num_minutes; ++i) {
        if (cancel_ && cancel_())
            break;
        stepMinute();
    }
}

void
Simulation::runDays(double days)
{
    run(static_cast<MinuteIndex>(days * static_cast<double>(
        kMinutesPerDay)));
}

std::unique_ptr<AttackPolicy>
makeRandomPolicy(const SimulationConfig &config, double attack_probability)
{
    return std::make_unique<RandomPolicy>(
        attack_probability, minAttackSoc(config),
        Rng(config.seed ^ 0x7a11ba5eULL));
}

std::unique_ptr<AttackPolicy>
makeMyopicPolicy(const SimulationConfig &config, Kilowatts threshold)
{
    return std::make_unique<MyopicPolicy>(threshold, minAttackSoc(config));
}

std::unique_ptr<ForesightedPolicy>
makeForesightedPolicy(const SimulationConfig &config, double weight,
                      bool warm_start)
{
    ForesightedPolicy::Params params;
    params.weight = weight;
    // T_0 in the reward (Eqn. 2) is the inlet temperature the operator
    // conditions *without* attacks. The matrix model keeps inlets a few
    // tenths of a degree above the set point even at baseline, so measure
    // T_0 slightly above the set point; otherwise every action collects a
    // constant reward offset that drowns the attack/no-attack contrast.
    params.baselineInlet = config.cooling.supplySetPoint +
                           CelsiusDelta(config.foresightedRewardMargin);
    params.capacity = config.capacity;
    params.attackLoad = config.attackLoad;
    params.battery = config.batterySpec;
    params.stateSpace.loadMin = config.capacity * 0.5;
    params.stateSpace.loadMax = config.capacity * 1.08;
    auto policy = std::make_unique<ForesightedPolicy>(
        params, Rng(config.seed ^ 0xf0e51337ULL));
    if (warm_start) {
        policy->warmStart();
        policy->burnInSchedules(14);
    }
    return policy;
}

std::unique_ptr<AttackPolicy>
makeOneShotPolicy(const SimulationConfig &config, Kilowatts threshold,
                  MinuteIndex arm_delay)
{
    (void)config;
    return std::make_unique<OneShotPolicy>(threshold, arm_delay);
}

util::Result<std::unique_ptr<AttackPolicy>>
tryMakePolicyByName(const SimulationConfig &config,
                    const std::string &name, double param)
{
    if (name == "standby")
        return std::unique_ptr<AttackPolicy>(
            std::make_unique<StandbyPolicy>());
    if (name == "random")
        return makeRandomPolicy(config, param);
    if (name == "myopic")
        return makeMyopicPolicy(config, Kilowatts(param));
    if (name == "foresighted")
        return std::unique_ptr<AttackPolicy>(
            makeForesightedPolicy(config, param));
    if (name == "oneshot")
        return makeOneShotPolicy(config, Kilowatts(param), 0);
    return ECOLO_ERROR(util::ErrorCode::ValidationError,
                       "unknown policy '", name,
                       "' (expected "
                       "standby|random|myopic|foresighted|oneshot)");
}

double
defaultPolicyParam(const std::string &name)
{
    if (name == "random")
        return 0.08;
    if (name == "myopic")
        return 7.4;
    if (name == "foresighted")
        return 14.0;
    if (name == "oneshot")
        return 7.0;
    return 0.0;
}

double
minAttackSoc(const SimulationConfig &config)
{
    const double delivered_per_minute = config.attackLoad.value() / 60.0;
    const double stored_needed =
        delivered_per_minute / config.batterySpec.dischargeEfficiency;
    return stored_needed / config.batterySpec.capacity.value();
}

} // namespace ecolo::core
