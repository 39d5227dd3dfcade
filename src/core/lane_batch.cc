#include "core/lane_batch.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <string>

#include "core/setup_cache.hh"
#include "telemetry/telemetry.hh"
#include "util/logging.hh"
#include "util/parallel.hh"

namespace ecolo::core {

namespace {

constexpr std::size_t kNoLeader = static_cast<std::size_t>(-1);

/** Everything the bank-packing heuristic keys on: lanes sort by this and
 * groups form over equal prefixes. The thermal component folds the
 * factorization key (matrix shape + fit options) with the kernel mode;
 * streamingStateCompatible still has the final, exact say per lane. */
std::array<std::uint64_t, 4>
packKey(const Simulation &sim, std::uint64_t fp)
{
    const SimulationConfig &cfg = sim.config();
    const std::uint64_t thermal_key =
        SetupCache::factorizationKey(cfg) * 1099511628211ULL ^
        static_cast<std::uint64_t>(cfg.thermalMode);
    return {cfg.numServers(), thermal_key,
            static_cast<std::uint64_t>(sim.now()), fp};
}

} // namespace

LaneBatchRunner::LaneBatchRunner(LaneBatchOptions options)
    : options_(options)
{
    options_.lanesPerGroup =
        std::clamp<std::size_t>(options_.lanesPerGroup, 1,
                                thermal::LaneThermalBank::kLanes);
}

std::size_t
LaneBatchRunner::add(Simulation &sim, MinuteIndex horizon_minutes)
{
    ECOLO_ASSERT(horizon_minutes >= 0, "negative lane horizon");
    Lane lane;
    lane.sim = &sim;
    lane.remaining = horizon_minutes;
    lanes_.push_back(lane);
    groupsDirty_ = true;
    return lanes_.size() - 1;
}

void
LaneBatchRunner::formGroups()
{
    groups_.clear();
    ctx_.resize(lanes_.size());
    stats_.groups = 0;
    stats_.bankedLanes = 0;
    stats_.scalarFallbackLanes = 0;

    // Sort lane ids so bank-compatible (and, as a tiebreaker,
    // fingerprint-equal) lanes sit adjacently, then chunk runs of equal
    // (servers, thermal, now) keys into groups.
    std::vector<std::size_t> order(lanes_.size());
    std::vector<std::array<std::uint64_t, 4>> keys(lanes_.size());
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        order[i] = i;
        keys[i] = packKey(*lanes_[i].sim,
                          lanes_[i].sim->workloadFingerprint_);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return keys[a] < keys[b];
                     });

    std::size_t i = 0;
    while (i < order.size()) {
        Group group;
        const auto &key = keys[order[i]];
        while (i < order.size() &&
               group.lanes.size() < options_.lanesPerGroup &&
               keys[order[i]][0] == key[0] &&
               keys[order[i]][1] == key[1] &&
               keys[order[i]][2] == key[2]) {
            group.lanes.push_back(order[i]);
            ++i;
        }

        // Workload sharing arms only when every lane is provably running
        // the same benign workload (equal nonzero fingerprints).
        if (options_.shareBenignWorkload && group.lanes.size() >= 2) {
            const std::uint64_t fp =
                lanes_[group.lanes.front()].sim->workloadFingerprint_;
            bool all_equal = fp != 0;
            for (std::size_t lid : group.lanes)
                all_equal = all_equal &&
                            lanes_[lid].sim->workloadFingerprint_ == fp;
            group.sharedFp = all_equal ? fp : 0;
        }
        if (group.sharedFp != 0) {
            const SimulationConfig &cfg =
                lanes_[group.lanes.front()].sim->config();
            group.shared.serverKw.assign(cfg.numBenignServers(), 0.0);
            group.shared.tenantKw.assign(cfg.numBenignTenants,
                                         Kilowatts(0.0));
        }
        group.uniform.assign(group.lanes.size(), 0);

        // Bank adoption: at least two streaming-compatible lanes make
        // the SoA arena worth its gather/scatter; the rest run their own
        // scalar thermal step (masked divergence, not an error).
        if (options_.useThermalBank) {
            const thermal::MatrixThermalModel *reference = nullptr;
            std::size_t reference_lane = 0;
            std::size_t compatible = 0;
            for (std::size_t lid : group.lanes) {
                const auto &model =
                    lanes_[lid].sim->thermalEnvironment().matrixModel();
                if (reference == nullptr) {
                    if (model.activeKernel() ==
                        thermal::KernelMode::Streaming) {
                        reference = &model;
                        reference_lane = lid;
                        ++compatible;
                    }
                } else if (model.streamingStateCompatible(*reference)) {
                    ++compatible;
                }
            }
            if (reference != nullptr && compatible >= 2) {
                group.bankActive = true;
                group.bankReference = reference_lane;
                group.bank.configure(*reference);
                int slot = 0;
                for (std::size_t lid : group.lanes) {
                    const auto &model = lanes_[lid]
                                            .sim->thermalEnvironment()
                                            .matrixModel();
                    if (lid == reference_lane ||
                        model.streamingStateCompatible(*reference)) {
                        lanes_[lid].bankSlot = slot++;
                        ++stats_.bankedLanes;
                    } else {
                        lanes_[lid].bankSlot = -1;
                        ++stats_.scalarFallbackLanes;
                    }
                }
            } else {
                for (std::size_t lid : group.lanes)
                    lanes_[lid].bankSlot = -1;
                stats_.scalarFallbackLanes += group.lanes.size();
            }
        } else {
            for (std::size_t lid : group.lanes)
                lanes_[lid].bankSlot = -1;
            stats_.scalarFallbackLanes += group.lanes.size();
        }

        groups_.push_back(std::move(group));
    }
    stats_.groups = groups_.size();
    groupsDirty_ = false;

    if (telemetry::enabled()) {
        telemetry::registry()
            .counter("lanebatch.scalar_fallback")
            .inc(stats_.scalarFallbackLanes);
    }
}

void
LaneBatchRunner::finishLane(Group &group, Lane &lane)
{
    lane.active = false;
    if (group.bankActive && lane.bankSlot >= 0) {
        group.bank.scatterLane(
            static_cast<std::size_t>(lane.bankSlot),
            lane.sim->thermal_.matrixModelMutable());
    }
    if (lane.benignStale) {
        lane.sim->restoreBenignWorkload();
        lane.benignStale = false;
    }
}

void
LaneBatchRunner::stepGroup(Group &group, MinuteIndex offset)
{
    const bool sharing = group.sharedFp != 0;
    std::size_t leader = kNoLeader;

    // Phase A: faults + command unpack per lane; find a uniform leader.
    for (std::size_t idx = 0; idx < group.lanes.size(); ++idx) {
        Lane &lane = lanes_[group.lanes[idx]];
        group.uniform[idx] = 0;
        if (!lane.active)
            continue;
        Simulation &sim = *lane.sim;
        if (sim.cancel_ && sim.cancel_()) {
            // Same poll point as Simulation::run: before the step. A
            // cancelled lane is retired for good (it cannot rejoin the
            // bank's ring phase after sitting slots out).
            lane.remaining = 0;
            lane.cancelled = true;
            finishLane(group, lane);
            continue;
        }
        Simulation::SlotContext &ctx = ctx_[group.lanes[idx]];
        ctx = Simulation::SlotContext();
        sim.slotBegin(ctx);
        if (sharing && sim.slotBenignUniform(ctx)) {
            group.uniform[idx] = 1;
            if (leader == kNoLeader)
                leader = idx;
        }
    }

    // Phase B: the leader applies the shared benign workload once and
    // harvests the products every uniform lane consumes.
    if (leader != kNoLeader) {
        const std::size_t lid = group.lanes[leader];
        lanes_[lid].sim->slotWorkloadBenign(ctx_[lid]);
        lanes_[lid].sim->harvestSharedBenign(group.shared);
        lanes_[lid].benignStale = false;
    }

    // Phase C: the serial per-lane phases (workload divergence, policy,
    // attacker supply, heat/metering).
    for (std::size_t idx = 0; idx < group.lanes.size(); ++idx) {
        Lane &lane = lanes_[group.lanes[idx]];
        if (!lane.active)
            continue;
        Simulation &sim = *lane.sim;
        Simulation::SlotContext &ctx = ctx_[group.lanes[idx]];
        const bool uniform = group.uniform[idx] != 0;
        if (!uniform) {
            // Divergent slot (capping, outage, shed, faults, or no
            // sharing): the lane runs its own workload phase, which
            // fully rewrites benign server state -- automatic resync.
            sim.slotWorkloadBenign(ctx);
            lane.benignStale = false;
        } else if (idx != leader) {
            lane.benignStale = true;
            ++group.sharedCount;
        }
        sim.slotWorkloadAttacker(ctx);
        sim.slotObserveDecide(ctx, uniform ? &group.shared.tenantTotal
                                           : nullptr);
        sim.slotAttackerSupply(ctx);
        sim.slotHeatAndMeter(ctx, uniform ? &group.shared : nullptr);
    }

    // Phase D: one SoA pass advances every banked lane's thermal model.
    if (group.bankActive) {
        group.bank.beginSlot();
        for (std::size_t lid : group.lanes) {
            Lane &lane = lanes_[lid];
            if (lane.active && lane.bankSlot >= 0)
                group.bank.setLanePowers(
                    static_cast<std::size_t>(lane.bankSlot),
                    lane.sim->lastHeat_);
        }
        group.bank.step();
    }

    // Phase E: rises back into each lane, operator reaction, record.
    for (std::size_t idx = 0; idx < group.lanes.size(); ++idx) {
        const std::size_t lid = group.lanes[idx];
        Lane &lane = lanes_[lid];
        if (!lane.active)
            continue;
        Simulation &sim = *lane.sim;
        if (group.bankActive && lane.bankSlot >= 0) {
            sim.slotThermalFromBank(
                group.bank.laneRises(
                    static_cast<std::size_t>(lane.bankSlot)),
                thermal::LaneThermalBank::riseStride());
        } else {
            sim.slotThermal();
        }
        sim.slotOperatorReact(ctx_[lid]);
        sim.slotFinish(ctx_[lid]);
        ++group.slotCount;
        if (slotHook_)
            slotHook_(lid, offset);
        if (--lane.remaining <= 0) {
            lane.remaining = 0;
            finishLane(group, lane);
        }
    }
}

void
LaneBatchRunner::runGroup(Group &group)
{
    MinuteIndex span = 0;
    for (std::size_t lid : group.lanes) {
        Lane &lane = lanes_[lid];
        lane.active = lane.remaining > 0;
        if (lane.active)
            span = std::max(span,
                            std::min(lane.remaining, chunkMinutes_));
    }
    if (span == 0)
        return;

    if (group.bankActive) {
        // Between run() calls the models are authoritative (they were
        // scattered at the last boundary, and may have been restored
        // from a checkpoint since). Re-adopt the shared ring phase from
        // the first live banked lane and gather them all.
        const Lane *phase_lane = nullptr;
        for (std::size_t lid : group.lanes) {
            const Lane &lane = lanes_[lid];
            if (lane.active && lane.bankSlot >= 0) {
                phase_lane = &lane;
                break;
            }
        }
        if (phase_lane != nullptr) {
            group.bank.adoptPhase(
                phase_lane->sim->thermal_.matrixModelMutable());
            for (std::size_t lid : group.lanes) {
                Lane &lane = lanes_[lid];
                if (lane.active && lane.bankSlot >= 0)
                    group.bank.gatherLane(
                        static_cast<std::size_t>(lane.bankSlot),
                        lane.sim->thermal_.matrixModelMutable());
            }
        }
    }

    for (MinuteIndex m = 0; m < span; ++m)
        stepGroup(group, m);

    // Run boundary: hand the thermal state back to still-active lanes
    // (finished ones were scattered in finishLane) and resync any lane
    // that consumed shared workloads, so every simulation is a normal,
    // checkpointable scalar Simulation between runs.
    for (std::size_t lid : group.lanes) {
        Lane &lane = lanes_[lid];
        if (lane.active && group.bankActive && lane.bankSlot >= 0) {
            group.bank.scatterLane(
                static_cast<std::size_t>(lane.bankSlot),
                lane.sim->thermal_.matrixModelMutable());
        }
        if (lane.benignStale) {
            lane.sim->restoreBenignWorkload();
            lane.benignStale = false;
        }
        lane.active = false;
    }
}

void
LaneBatchRunner::run(MinuteIndex minutes)
{
    ECOLO_ASSERT(minutes >= 0, "negative run length");
    if (minutes == 0 || lanes_.empty())
        return;
    if (groupsDirty_)
        formGroups();
    chunkMinutes_ = minutes;

    const auto start = std::chrono::steady_clock::now();
    if (groups_.size() == 1) {
        // Single group: run inline (also keeps the steady-state loop
        // allocation-free; parallelFor's dispatch is not).
        runGroup(groups_.front());
    } else {
        util::parallelFor(0, groups_.size(), [this](std::size_t g) {
            telemetry::TraceSpan group_span(
                telemetry::enabled()
                    ? "lanebatch.group[" + std::to_string(g) + "]"
                    : std::string());
            runGroup(groups_[g]);
        });
    }
    const auto end = std::chrono::steady_clock::now();

    // Fold the per-group counters on the calling thread (groups run
    // concurrently and must not share mutable stats).
    std::uint64_t slots = 0;
    for (Group &group : groups_) {
        slots += group.slotCount;
        stats_.slotsExecuted += group.slotCount;
        stats_.sharedWorkloadSlots += group.sharedCount;
        group.slotCount = 0;
        group.sharedCount = 0;
    }
    if (telemetry::enabled()) {
        const double seconds =
            std::chrono::duration<double>(end - start).count();
        emitTelemetry(slots, seconds);
    }
}

void
LaneBatchRunner::runAll()
{
    MinuteIndex span = 0;
    for (const Lane &lane : lanes_)
        span = std::max(span, lane.remaining);
    if (span > 0)
        run(span);
}

bool
LaneBatchRunner::finished() const
{
    for (const Lane &lane : lanes_)
        if (lane.remaining > 0)
            return false;
    return true;
}

MinuteIndex
LaneBatchRunner::remaining(std::size_t lane) const
{
    ECOLO_ASSERT(lane < lanes_.size(), "lane index out of range");
    return lanes_[lane].remaining;
}

bool
LaneBatchRunner::cancelled(std::size_t lane) const
{
    ECOLO_ASSERT(lane < lanes_.size(), "lane index out of range");
    return lanes_[lane].cancelled;
}

void
LaneBatchRunner::emitTelemetry(std::uint64_t slots, double seconds) const
{
    auto &reg = telemetry::registry();
    auto &occupancy = reg.histogram("lanebatch.lanes_occupied");
    for (const Group &group : groups_)
        occupancy.add(static_cast<double>(group.lanes.size()));
    if (seconds > 0.0) {
        reg.gauge("lanebatch.slots_per_second")
            .set(static_cast<double>(slots) / seconds);
    }
}

} // namespace ecolo::core
