/**
 * @file
 * Oracle for fillBenignSlot: the flat per-slot fill must equal, bit for
 * bit, driving power::Tenant / power::Server objects the way the slot
 * loop did before BenignSlot existed (apply the trace, power on or off,
 * cap or clear, power shed and failed servers off from the back, then
 * read every server back). That object walk lives only here.
 *
 * The grid covers utilizations 0, 1 and 1 + 1e-10, caps above and below
 * demand, shed fractions that shed none, one and all servers, failed
 * servers, outages and trace gaps, over tenants of unequal size so the
 * powered-off tail crosses tenant boundaries.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "power/tenant.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

std::uint64_t
bits(Kilowatts v)
{
    return bits(v.value());
}

/** Tenants of 5, 3 and 4 servers; minutes 0-2 hit the edge samples. */
std::vector<power::Tenant>
makeTenants()
{
    const std::vector<std::vector<double>> samples = {
        {0.0, 1.0, 1.0 + 1e-10, 0.37, 0.81},
        {1.0 + 1e-10, 0.0, 1.0, 0.52, 0.11},
        {1.0, 1.0 + 1e-10, 0.0, 0.29, 0.64},
    };
    const std::size_t sizes[] = {5, 3, 4};
    std::vector<power::Tenant> tenants;
    for (std::size_t k = 0; k < samples.size(); ++k) {
        tenants.emplace_back("tenant-" + std::to_string(k + 1),
                             Kilowatts(2.0), sizes[k], power::ServerSpec());
        tenants.back().setTrace(trace::UtilizationTrace(samples[k]));
    }
    return tenants;
}

/** What the slot loop read from the object graph. */
struct ObjectWalk
{
    std::vector<double> serverKw;
    std::vector<Kilowatts> tenantKw;
    std::vector<Kilowatts> tenantDemand;
    std::vector<double> tenantUtilization;
    Kilowatts tenantTotal{0.0};
    Kilowatts flatTotal{0.0};
};

ObjectWalk
objectWalk(std::vector<power::Tenant> &tenants, const BenignSlotInputs &in)
{
    const MinuteIndex trace_minute =
        in.traceGap ? std::max<MinuteIndex>(0, in.traceGapStart - 1)
                    : in.minute;
    for (auto &tenant : tenants) {
        tenant.applyTraceAt(trace_minute);
        tenant.setPoweredOn(!in.outage);
        if (in.capped)
            tenant.setPerServerCap(in.capLevel);
        else
            tenant.clearCaps();
    }
    if (!in.outage) {
        std::size_t num_benign = 0;
        for (const auto &tenant : tenants)
            num_benign += tenant.numServers();
        const std::size_t shed = static_cast<std::size_t>(
            in.shedFraction * static_cast<double>(num_benign));
        std::size_t remaining =
            std::min(num_benign, shed + in.failedServers);
        for (auto tenant = tenants.rbegin();
             tenant != tenants.rend() && remaining > 0; ++tenant) {
            auto &servers = tenant->servers();
            for (auto srv = servers.rbegin();
                 srv != servers.rend() && remaining > 0; ++srv) {
                srv->setPoweredOn(false);
                --remaining;
            }
        }
    }

    ObjectWalk walk;
    for (const auto &tenant : tenants) {
        for (const auto &srv : tenant.servers()) {
            const Kilowatts p = srv.actualPower();
            walk.serverKw.push_back(p.value());
            walk.flatTotal += p;
        }
        walk.tenantKw.push_back(tenant.actualPower());
        walk.tenantTotal += tenant.actualPower();
        walk.tenantDemand.push_back(tenant.demandPower());
        walk.tenantUtilization.push_back(tenant.utilization());
    }
    return walk;
}

std::string
describe(const BenignSlotInputs &in)
{
    return "minute " + std::to_string(in.minute) + " outage " +
           std::to_string(in.outage) + " cap " +
           (in.capped ? std::to_string(in.capLevel.value()) : "none") +
           " shed " + std::to_string(in.shedFraction) + " failed " +
           std::to_string(in.failedServers) + " gap " +
           (in.traceGap ? std::to_string(in.traceGapStart) : "none");
}

TEST(BenignSlotOracle, FlatFillMatchesTheServerObjectWalkBitwise)
{
    std::vector<power::Tenant> tenants = makeTenants();
    BenignSlot slot;
    std::size_t cases = 0;
    // Idle 0.06 kW, peak 0.2 kW: 0.25 caps nothing, 0.1 caps busy
    // servers, 0.05 caps even idle ones.
    const double caps[] = {-1.0, 0.25, 0.1, 0.05};
    // 12 servers: 0.05 sheds 0, 0.09 sheds 1, 0.5 sheds 6, 1.0 all.
    const double sheds[] = {0.0, 0.05, 0.09, 0.5, 1.0};
    const std::size_t failures[] = {0, 1, 2, 20};
    const MinuteIndex gaps[] = {-1, 0, 3};
    for (MinuteIndex minute = 0; minute < 6; ++minute)
    for (double cap : caps)
    for (double shed : sheds)
    for (std::size_t failed : failures)
    for (bool outage : {false, true})
    for (MinuteIndex gap : gaps) {
        BenignSlotInputs in;
        in.minute = minute;
        in.outage = outage;
        in.capped = cap > 0.0;
        in.capLevel = Kilowatts(std::max(cap, 0.0));
        in.shedFraction = shed;
        in.failedServers = failed;
        in.traceGap = gap >= 0;
        in.traceGapStart = std::max<MinuteIndex>(gap, 0);
        SCOPED_TRACE(describe(in));

        fillBenignSlot(slot, tenants, in);
        const ObjectWalk walk = objectWalk(tenants, in);
        ++cases;

        ASSERT_EQ(slot.serverKw.size(), walk.serverKw.size());
        for (std::size_t i = 0; i < walk.serverKw.size(); ++i)
            ASSERT_EQ(bits(slot.serverKw[i]), bits(walk.serverKw[i]))
                << "server " << i;
        ASSERT_EQ(slot.tenants.size(), tenants.size());
        for (std::size_t k = 0; k < tenants.size(); ++k) {
            const BenignSlot::Tenant &t = slot.tenants[k];
            ASSERT_EQ(bits(t.kw), bits(walk.tenantKw[k])) << "tenant " << k;
            ASSERT_EQ(bits(t.demand()), bits(walk.tenantDemand[k]))
                << "tenant " << k;
            ASSERT_EQ(bits(t.meanUtilization()),
                      bits(walk.tenantUtilization[k]))
                << "tenant " << k;
        }
        ASSERT_EQ(bits(slot.tenantTotal), bits(walk.tenantTotal));
        ASSERT_EQ(bits(slot.flatTotal), bits(walk.flatTotal));
    }
    EXPECT_EQ(cases, 6u * 4u * 5u * 4u * 2u * 3u);
}

TEST(BenignSlotOracle, ShedAndFailedServersPowerOffFromTheBack)
{
    std::vector<power::Tenant> tenants = makeTenants();
    BenignSlot slot;
    BenignSlotInputs in;
    in.minute = 3; // every sample busy, so powered servers draw > 0
    in.shedFraction = 0.09; // sheds 1 of 12
    in.failedServers = 5;
    fillBenignSlot(slot, tenants, in);
    // 6 off: all 4 of the last tenant and the last 2 of the middle one.
    for (std::size_t i = 0; i < slot.serverKw.size(); ++i)
        EXPECT_EQ(slot.serverKw[i] > 0.0, i < 6) << "server " << i;
    EXPECT_EQ(slot.tenants[0].poweredOn, 5u);
    EXPECT_EQ(slot.tenants[1].poweredOn, 1u);
    EXPECT_EQ(slot.tenants[2].poweredOn, 0u);
    EXPECT_EQ(bits(slot.tenants[2].kw), bits(0.0));
}

TEST(BenignSlotOracleDeathTest, OutOfRangeSampleIsRejected)
{
    std::vector<power::Tenant> tenants = makeTenants();
    trace::UtilizationTrace bad(std::vector<double>{0.5});
    bad.samples()[0] = 1.0 + 1e-6; // past the constructor's check
    tenants[1].setTrace(std::move(bad));
    BenignSlot slot;
    EXPECT_DEATH(fillBenignSlot(slot, tenants, BenignSlotInputs()),
                 "utilization out of");
}

} // namespace
