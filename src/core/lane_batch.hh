/**
 * @file
 * LaneBatchRunner: advance many compatible simulations in SIMD lanes.
 *
 * Campaign drivers (sensitivity sweeps, fleet runs, benchmark panels)
 * hold dozens of Simulations that differ only in policy, one swept
 * parameter, or seed. Running them one-per-thread leaves two kinds of
 * money on the table: the thermal recurrence -- the slot loop's dominant
 * cost -- is advanced N separate times over identical-shape state, and
 * fingerprint-equal members re-derive the *same* benign workload every
 * minute. The runner packs simulations into groups of up to
 * LaneThermalBank::kLanes lanes and advances each group slot-by-slot:
 *
 * - Thermal: streaming-compatible lanes gather into one LaneThermalBank
 *   whose SoA arena advances all lanes per pass through the shared
 *   target_clones kernels (see thermal/stream_kernels.hh). Lanes whose
 *   model is not bank-compatible fall back to their own scalar step.
 * - Benign workload: when every lane in a group shares a workload
 *   fingerprint and a slot is "uniform" (no capping/outage/shed/fault
 *   divergence), one leader lane applies the traces and the others
 *   consume its harvested per-server/tenant power (bitwise what they
 *   would compute themselves; see SharedBenignSlot).
 * - Divergence is masked, not branched around: a lane under capping or
 *   faults simply runs its own workload phase that slot and resyncs
 *   automatically (the workload phase fully rewrites server state);
 *   early-finishing lanes stop calling setLanePowers and their bank
 *   column decays unread.
 *
 * Per-lane results are bit-identical to Simulation::run because the
 * runner calls the exact same slot-phase methods in the same order --
 * the engine's stepMinute is the one-lane special case. Lanes
 * checkpoint/resume as independent simulations: the bank scatters its
 * state back at every run() boundary and whenever a lane finishes, so
 * saveState between runs sees a normal scalar Simulation.
 *
 * The steady-state group loop performs no heap allocation (arenas are
 * sized at group formation; see tests/core/test_zero_alloc.cc).
 */

#ifndef ECOLO_CORE_LANE_BATCH_HH
#define ECOLO_CORE_LANE_BATCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.hh"
#include "thermal/lane_bank.hh"

namespace ecolo::core {

struct LaneBatchOptions
{
    /** Lanes packed per group, clamped to [1, LaneThermalBank::kLanes].
     * Fleet drivers shrink this so groups still saturate the pool. */
    std::size_t lanesPerGroup = thermal::LaneThermalBank::kLanes;
    /** Let fingerprint-equal lanes share the benign workload phase. */
    bool shareBenignWorkload = true;
    /** Advance streaming-compatible lanes through a LaneThermalBank. */
    bool useThermalBank = true;
};

class LaneBatchRunner
{
  public:
    explicit LaneBatchRunner(LaneBatchOptions options = {});

    /**
     * Register a simulation to advance for `horizon_minutes` more
     * minutes (from its current now()). The runner borrows the
     * simulation for the duration of its run() calls only; between
     * calls the simulation is in its normal scalar state. Returns the
     * lane id (add order). Adding after a run() re-forms the groups.
     */
    std::size_t add(Simulation &sim, MinuteIndex horizon_minutes);

    /**
     * Advance every unfinished lane by min(minutes, its remaining
     * horizon). Groups run in parallel on the global pool; lanes within
     * a group advance in lockstep. A lane whose cancel check fires is
     * retired permanently (its remaining() drops to zero).
     */
    void run(MinuteIndex minutes);

    /** run() until every lane has exhausted its horizon. */
    void runAll();

    bool finished() const;
    MinuteIndex remaining(std::size_t lane) const;
    /**
     * True when the lane was retired by its cancel check rather than
     * by exhausting its horizon. Both end states leave remaining() at
     * zero; callers need the distinction to report a cancelled lane
     * rather than a finished one.
     */
    bool cancelled(std::size_t lane) const;

    /**
     * Per-slot observation hook, called after a lane finishes a slot
     * with (lane id, minute offset within the current run() call).
     * Called from pool workers -- concurrently for lanes of different
     * groups -- so the hook must write only lane-owned state.
     */
    using SlotHook = std::function<void(std::size_t, MinuteIndex)>;
    void setSlotHook(SlotHook hook) { slotHook_ = std::move(hook); }

    /** Packing / execution counters (tests, telemetry, bench). */
    struct Stats
    {
        std::size_t groups = 0;
        std::size_t bankedLanes = 0;
        std::size_t scalarFallbackLanes = 0;
        std::uint64_t slotsExecuted = 0;
        std::uint64_t sharedWorkloadSlots = 0; //!< follower slots skipped
    };
    const Stats &stats() const { return stats_; }

  private:
    struct Lane
    {
        Simulation *sim = nullptr;
        MinuteIndex remaining = 0;
        bool active = false;      //!< participating in the current run()
        bool cancelled = false;   //!< retired by its cancel check
        bool benignStale = false; //!< skipped uniform workload phases
        int bankSlot = -1;        //!< column in the group's bank, -1 = scalar
    };

    struct Group
    {
        std::vector<std::size_t> lanes; //!< lane ids, leader candidates first
        std::uint64_t sharedFp = 0;     //!< nonzero: workload sharing armed
        bool bankActive = false;
        std::size_t bankReference = 0;  //!< lane id the bank was sized from
        thermal::LaneThermalBank bank;
        SharedBenignSlot shared;
        std::vector<unsigned char> uniform; //!< per group-lane slot scratch
        // Per-group tallies, folded into stats_ after each run() (groups
        // execute concurrently and must not share mutable counters).
        std::uint64_t slotCount = 0;
        std::uint64_t sharedCount = 0;
    };

    void formGroups();
    void runGroup(Group &group);
    void stepGroup(Group &group, MinuteIndex offset);
    void finishLane(Group &group, Lane &lane);
    void emitTelemetry(std::uint64_t slots, double seconds) const;

    LaneBatchOptions options_;
    std::vector<Lane> lanes_;
    std::vector<Simulation::SlotContext> ctx_; //!< per lane id
    std::vector<Group> groups_;
    bool groupsDirty_ = true;
    MinuteIndex chunkMinutes_ = 0; //!< minutes for the current run() call
    SlotHook slotHook_;
    Stats stats_;
};

} // namespace ecolo::core

#endif // ECOLO_CORE_LANE_BATCH_HH
