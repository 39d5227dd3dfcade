/**
 * @file
 * The discrete-time (1-minute slot) edge-colocation simulation engine.
 *
 * Wires together every substrate: tenant workload traces drive server
 * power; the attacker's policy drives its dual-source power supply; the
 * thermal environment turns actual heat into inlet temperatures; the
 * operator's protocol turns inlet temperatures into capping and outage
 * commands; and the latency model turns capping into tenant performance
 * degradation. One Simulation instance corresponds to one experiment run.
 */

#ifndef ECOLO_CORE_ENGINE_HH
#define ECOLO_CORE_ENGINE_HH

#include <functional>
#include <memory>
#include <vector>

#include "battery/power_supply.hh"
#include "core/config.hh"
#include "core/metrics.hh"
#include "faults/fault.hh"
#include "core/operator.hh"
#include "core/policies.hh"
#include "core/setup_cache.hh"
#include "perf/latency_model.hh"
#include "power/layout.hh"
#include "power/pdu.hh"
#include "power/tenant.hh"
#include "sidechannel/voltage_channel.hh"
#include "thermal/environment.hh"
#include "util/result.hh"
#include "util/rng.hh"

namespace ecolo::core {

class LaneBatchRunner;

/**
 * One slot's shared benign-workload products, harvested once by a lane
 * group's leader and consumed by every follower lane (see
 * core/lane_batch.hh). Each field preserves the exact accumulation
 * association of the scalar consumer it substitutes for: tenantKw[k]
 * matches Tenant::actualPower's per-server chain, tenantTotal matches
 * benignActualPower's per-tenant chain, and flatTotal matches the heat
 * phase's single flat chain over all benign servers -- so shared values
 * are bitwise what each follower would have computed itself.
 */
struct SharedBenignSlot
{
    std::vector<double> serverKw;    //!< per benign server, global order
    std::vector<Kilowatts> tenantKw; //!< per-tenant actualPower sums
    Kilowatts tenantTotal{0.0};      //!< chain over tenantKw (observation)
    Kilowatts flatTotal{0.0};        //!< flat chain over benign servers
};

/** One configured run of the edge colocation under a given attack policy. */
class Simulation
{
  public:
    using MinuteCallback = std::function<void(const MinuteRecord &)>;

    /**
     * Build the full system. The config seeds all randomness; two runs
     * with the same config and policy behave identically.
     */
    Simulation(SimulationConfig config,
               std::unique_ptr<AttackPolicy> policy);

    /** Advance the simulation by the given number of minutes. */
    void run(MinuteIndex num_minutes);

    /** Convenience: run whole days. */
    void runDays(double days);

    const SimulationMetrics &metrics() const { return metrics_; }
    const SimulationConfig &config() const { return config_; }
    AttackPolicy &policy() { return *policy_; }
    const AttackPolicy &policy() const { return *policy_; }

    /** Install a per-minute observer (time-series figures). */
    void setMinuteCallback(MinuteCallback callback)
    { callback_ = std::move(callback); }

    /**
     * Install a cooperative cancellation check, polled once per simulated
     * minute before the step. When it returns true, run() stops early
     * (now() tells how far it got); the simulation stays consistent and
     * can be checkpointed or resumed. Unset (the default) costs one
     * branch per minute and leaves trajectories bit-identical.
     */
    using CancelCheck = std::function<bool()>;
    void setCancelCheck(CancelCheck check)
    { cancel_ = std::move(check); }

    /** Current simulated minute. */
    MinuteIndex now() const { return now_; }

    // ---- Introspection for tests and harnesses ----
    const power::Tenant &benignTenant(std::size_t i) const
    { return benignTenants_.at(i); }
    std::size_t numBenignTenants() const { return benignTenants_.size(); }
    const battery::DualSourcePowerSupply &attackerSupply() const
    { return attackerSupply_; }
    const thermal::ThermalEnvironment &thermalEnvironment() const
    { return thermal_; }
    const ColoOperator &coloOperator() const { return operator_; }
    const power::Pdu &pdu() const { return pdu_; }

    /** Per-server heat of the most recent minute (defense harnesses). */
    const std::vector<Kilowatts> &lastServerHeat() const
    { return lastHeat_; }
    /** Per-server metered power of the most recent minute. */
    const std::vector<Kilowatts> &lastServerMetered() const
    { return lastMetered_; }

    /** Faults active during the most recently simulated minute. */
    const faults::ActiveFaults &activeFaults() const { return faultsNow_; }

    /**
     * Serialize the complete mutable state. A Simulation constructed from
     * the same config and policy kind, then restored with loadState,
     * continues bit-identically to the uninterrupted run (learning
     * policies excepted; see AttackPolicy::saveState).
     */
    void saveState(util::StateWriter &writer) const;
    void loadState(util::StateReader &reader);

  private:
    // The lane-batch runner drives the per-slot phases below directly
    // (interleaving them across lanes) instead of going through
    // stepMinute; it also reads the workload fingerprint and the
    // thermal environment for packing.
    friend class LaneBatchRunner;

    /**
     * The locals of one stepMinute invocation, threaded through the
     * slot phases so the step can be decomposed (stepMinute) or
     * interleaved across lanes (LaneBatchRunner) with identical
     * behavior. Plain data; resetting and copying never allocates.
     */
    struct SlotContext
    {
        bool capping = false; //!< emergency capping in force
        bool outage = false;
        bool anyCap = false; //!< emergency or preventive capping
        Kilowatts capLevel{0.0};
        bool degradedNow = false;
        double shedFraction = 0.0;
        AttackObservation obs;
        AttackAction action = AttackAction::Standby;
        battery::SupplyResult supply{Kilowatts(0.0), Kilowatts(0.0),
                                     Kilowatts(0.0)};
        Kilowatts benignTotal{0.0};
        Kilowatts meteredTotal{0.0};
        Celsius maxInlet{0.0};
    };

    /** Thermal environment for the config, with the matrix and the
     * factorization from config.setupCache. */
    static thermal::ThermalEnvironment
    makeThermalEnvironment(const SimulationConfig &config,
                           const power::DataCenterLayout &layout);

    // ---- The per-minute step, split into phases. stepMinute calls them
    // in order; LaneBatchRunner calls the same methods per lane (the two
    // paths share every instruction, which is what makes lane execution
    // bit-identical). See stepMinute for the phase numbering.
    void slotBegin(SlotContext &ctx);
    /** True when this slot's benign-workload phase is a pure function of
     * the shared traces (no capping/outage/shed/failures/trace gap), so
     * a fingerprint-equal lane's results can be reused. */
    bool slotBenignUniform(const SlotContext &ctx) const;
    void slotWorkloadBenign(const SlotContext &ctx);
    void slotWorkloadAttacker(const SlotContext &ctx);
    void slotObserveDecide(SlotContext &ctx,
                           const Kilowatts *shared_benign_actual);
    void slotAttackerSupply(SlotContext &ctx);
    void slotHeatAndMeter(SlotContext &ctx, const SharedBenignSlot *shared);
    void slotThermal();
    /** Thermal phase when a LaneThermalBank advanced the matrix model:
     * apply the bank's (bit-identical) rises for this lane. */
    void slotThermalFromBank(const double *rises, std::size_t stride);
    void slotOperatorReact(SlotContext &ctx);
    void slotFinish(const SlotContext &ctx);

    /** Compute the shared products of a just-run benign workload phase
     * (group leader only; out's vectors must be pre-sized). */
    void harvestSharedBenign(SharedBenignSlot &out) const;
    /** Re-derive the benign servers' state for the last simulated minute
     * after follower slots skipped the workload phase (only ever called
     * when every skipped slot was uniform: trace applied, powered on,
     * caps clear). */
    void restoreBenignWorkload();

    /** Attach the scaled trace set from config_.setupCache (external
     * traces bypass the store) to freshly built benign tenants. */
    void buildTenants();
    /** The setup cache's make function for the trace set: generate (or
     * copy the external) traces, solve the common mean-power scale
     * factor through benignTenants_, and scale the set once in place. */
    std::shared_ptr<const SetupCache::TraceSet>
    makeScaledTraceSet(Rng &trace_rng);
    void stepMinute();
    void applyFaultsForMinute();
    Kilowatts benignActualPower() const;
    AttackObservation makeObservation(
        bool capping, bool outage,
        const Kilowatts *benign_actual_override = nullptr);

    SimulationConfig config_;
    power::DataCenterLayout layout_;
    Rng rng_;

    std::vector<power::Tenant> benignTenants_;
    power::Tenant attackerTenant_;
    battery::DualSourcePowerSupply attackerSupply_;

    thermal::ThermalEnvironment thermal_;
    sidechannel::VoltageSideChannel channel_;
    perf::LatencyModel latency_;
    power::Pdu pdu_;
    ColoOperator operator_;

    std::unique_ptr<AttackPolicy> policy_;

    OperatorCommand command_;       //!< command in force this minute
    AttackObservation lastObs_;
    AttackAction lastAction_ = AttackAction::Standby;
    bool havePending_ = false;

    /** True when the config carries a non-empty fault schedule; with an
     * empty schedule every fault hook is skipped (bit-identical runs). */
    bool faultsEnabled_ = false;
    /** Hash of everything the benign workload phase is a function of
     * (seed, generator kind/params, scaling inputs); equal fingerprints
     * mean identical scaled traces and tenant structure. 0 = external
     * traces, never shareable. */
    std::uint64_t workloadFingerprint_ = 0;
    faults::ActiveFaults faultsNow_;
    /** Last non-NaN side-channel estimate (sensor-fault fallback). */
    Kilowatts lastValidEstimate_{0.0};

    std::vector<Kilowatts> lastHeat_;
    std::vector<Kilowatts> lastMetered_;
    /** Side-channel per-sample scratch arena: sized on the first minute,
     * reused every minute after (no per-slot heap traffic). */
    std::vector<double> sampleScratch_;

    SimulationMetrics metrics_;
    MinuteCallback callback_;
    CancelCheck cancel_;
    MinuteIndex now_ = 0;
    std::size_t emergenciesSeen_ = 0;
    std::size_t outagesSeen_ = 0;

    // ---- Telemetry-only edge trackers. Deliberately NOT checkpointed:
    // telemetry is excluded from state fingerprints (see
    // telemetry/telemetry.hh), so a resumed run simply re-observes
    // transitions from the resume point onward. Only touched when
    // telemetry::enabled().
    OperatorState prevOpState_ = OperatorState::Normal;
    bool prevAnyCap_ = false;
    bool prevFaultsActive_ = false;
    int prevDegradedTier_ = 0;
    bool batteryDepletedLatched_ = false;
};

/** Factory helpers used across examples and benches. */
std::unique_ptr<AttackPolicy>
makeRandomPolicy(const SimulationConfig &config, double attack_probability);
std::unique_ptr<AttackPolicy>
makeMyopicPolicy(const SimulationConfig &config, Kilowatts threshold);
std::unique_ptr<ForesightedPolicy>
makeForesightedPolicy(const SimulationConfig &config, double weight,
                      bool warm_start = true);
std::unique_ptr<AttackPolicy>
makeOneShotPolicy(const SimulationConfig &config, Kilowatts threshold,
                  MinuteIndex arm_delay);

/**
 * Construct a policy from its CLI/RPC name
 * (standby|random|myopic|foresighted|oneshot). Fails with a
 * ValidationError naming the accepted set on an unknown name. Shared by
 * edgetherm_cli and the serving stack so both speak the same names.
 */
util::Result<std::unique_ptr<AttackPolicy>>
tryMakePolicyByName(const SimulationConfig &config,
                    const std::string &name, double param);

/** The per-policy default parameter (0.0 for standby/unknown names). */
double defaultPolicyParam(const std::string &name);

/** Minimum state of charge that funds one minute of attack. */
double minAttackSoc(const SimulationConfig &config);

} // namespace ecolo::core

#endif // ECOLO_CORE_ENGINE_HH
