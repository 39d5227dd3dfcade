/** @file Unit tests for tenants and trace scaling. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "power/scale_kernel.hh"
#include "power/tenant.hh"
#include "trace/generators.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/sim_time.hh"

namespace ecolo::power {
namespace {

const ServerSpec kSpec{Kilowatts(0.06), Kilowatts(0.20)};

Tenant
makeTenant(std::size_t servers = 12)
{
    return Tenant("t", Kilowatts(2.4), servers, kSpec);
}

TEST(Tenant, AggregatesPowerAcrossServers)
{
    Tenant t = makeTenant();
    t.setUtilization(1.0);
    EXPECT_DOUBLE_EQ(t.demandPower().value(), 2.4);
    t.setUtilization(0.0);
    EXPECT_DOUBLE_EQ(t.demandPower().value(), 12 * 0.06);
}

TEST(Tenant, TraceDrivesUtilization)
{
    Tenant t = makeTenant();
    t.setTrace(trace::UtilizationTrace({0.0, 1.0}));
    t.applyTraceAt(0);
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
    t.applyTraceAt(1);
    EXPECT_DOUBLE_EQ(t.utilization(), 1.0);
    t.applyTraceAt(2); // wraps
    EXPECT_DOUBLE_EQ(t.utilization(), 0.0);
}

TEST(Tenant, CappingAllServers)
{
    Tenant t = makeTenant();
    t.setUtilization(1.0);
    t.setPerServerCap(Kilowatts(0.12));
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 12 * 0.12);
    EXPECT_LT(t.servedFraction(), 1.0);
    t.clearCaps();
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 2.4);
    EXPECT_DOUBLE_EQ(t.servedFraction(), 1.0);
}

TEST(Tenant, PowerOnOff)
{
    Tenant t = makeTenant();
    t.setUtilization(0.5);
    t.setPoweredOn(false);
    EXPECT_DOUBLE_EQ(t.actualPower().value(), 0.0);
    t.setPoweredOn(true);
    EXPECT_GT(t.actualPower().value(), 0.0);
}

/** Scale every tenant's trace by the common mean-power factor. */
void
scaleToMeanPower(const std::vector<Tenant *> &tenants, Kilowatts target)
{
    const double factor = computeMeanPowerScaleFactor(tenants, target);
    for (Tenant *t : tenants) {
        trace::UtilizationTrace scaled = t->traceRef();
        scaled.scale(factor);
        t->setTrace(std::move(scaled));
    }
}

TEST(ScaleTenantsToMeanPower, HitsAggregateTarget)
{
    Rng rng(3);
    std::vector<Tenant> tenants;
    for (int k = 0; k < 3; ++k) {
        tenants.push_back(makeTenant());
        trace::DiurnalTraceGenerator gen;
        tenants.back().setTrace(gen.generate(7 * kMinutesPerDay, rng));
    }
    std::vector<Tenant *> ptrs{&tenants[0], &tenants[1], &tenants[2]};
    scaleToMeanPower(ptrs, Kilowatts(5.5));

    // Measure the achieved mean by replaying the traces.
    double sum_kw = 0.0;
    const MinuteIndex horizon = 7 * kMinutesPerDay;
    for (MinuteIndex m = 0; m < horizon; ++m) {
        for (auto &t : tenants) {
            t.applyTraceAt(m);
            sum_kw += t.actualPower().value();
        }
    }
    EXPECT_NEAR(sum_kw / static_cast<double>(horizon), 5.5, 0.05);
}

TEST(ScaleTenantsToMeanPower, SaturatesGracefully)
{
    Rng rng(5);
    Tenant t = makeTenant();
    t.setTrace(trace::DiurnalTraceGenerator().generate(kMinutesPerDay, rng));
    // Peak power of 12 servers is 2.4 kW; demand 2.4 kW mean means all-on.
    std::vector<Tenant *> ptrs{&t};
    scaleToMeanPower(ptrs, Kilowatts(2.4));
    EXPECT_GT(t.traceRef().mean(), 0.99);
}

/**
 * The plain scalar bisection the lane kernel replaced, kept verbatim as
 * the oracle: one full pass over the traces per candidate factor.
 */
double
scalarScaleFactor(const std::vector<Tenant *> &tenants,
                  Kilowatts target_mean_power)
{
    auto mean_power_for = [&](double factor) {
        double total_kw = 0.0;
        for (const Tenant *t : tenants) {
            const auto &samples = t->traceRef().samples();
            const ServerSpec &spec = t->server(0).spec();
            const double n = static_cast<double>(t->numServers());
            double tenant_kw = 0.0;
            for (double u : samples) {
                const double scaled = std::clamp(u * factor, 0.0, 1.0);
                tenant_kw += spec.powerAt(scaled).value() * n;
            }
            total_kw += tenant_kw / static_cast<double>(samples.size());
        }
        return total_kw;
    };

    const double target = target_mean_power.value();
    double lo = 0.0, hi = 1.0;
    // Grow hi until the target is bracketed or saturation is reached.
    while (mean_power_for(hi) < target && hi < 64.0)
        hi *= 2.0;
    if (mean_power_for(hi) < target) {
        warn("target mean power ", target,
             " kW unreachable; saturating traces at full utilization");
    }
    for (int iter = 0; iter < 60; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (mean_power_for(mid) < target)
            lo = mid;
        else
            hi = mid;
    }
    return 0.5 * (lo + hi);
}

/** Where the target sits relative to the tenants' power range. */
enum class Target { Reachable, Unreachable, BelowIdle };

struct ScaleCase
{
    std::string name;
    std::size_t tenants;
    MinuteIndex horizon;
    Target target;
    double fraction; //!< of the idle-to-peak range, for Reachable
};

/**
 * Tenants with assorted server counts, server specs and trace shapes:
 * smooth sinusoids, white noise with exact 0s and 1s, and the diurnal
 * generator's bursty AR(1) output, all seeded from the case index.
 */
std::vector<Tenant>
makeScaleTenants(const ScaleCase &c, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tenant> tenants;
    const auto horizon = static_cast<std::size_t>(c.horizon);
    for (std::size_t k = 0; k < c.tenants; ++k) {
        const ServerSpec spec{Kilowatts(0.04 + 0.03 * rng.uniform()),
                              Kilowatts(0.15 + 0.20 * rng.uniform())};
        tenants.emplace_back("t" + std::to_string(k), Kilowatts(4.0),
                             4 + 7 * k + rng.uniformInt(5), spec);
        std::vector<double> samples(horizon);
        switch (k % 3) {
        case 0: {
            const double phase = rng.uniform(0.0, 2.0 * M_PI);
            const double amp = rng.uniform(0.1, 0.4);
            for (std::size_t i = 0; i < horizon; ++i)
                samples[i] = std::clamp(
                    0.45 + amp * std::sin(phase + 2.0 * M_PI *
                                                     static_cast<double>(i) /
                                                     kMinutesPerDay),
                    0.0, 1.0);
            break;
        }
        case 1:
            for (double &s : samples) {
                const double r = rng.uniform();
                s = r < 0.02 ? 0.0 : r > 0.98 ? 1.0 : rng.uniform();
            }
            break;
        default:
            samples = trace::DiurnalTraceGenerator()
                          .generate(horizon, rng)
                          .samples();
            break;
        }
        tenants.back().setTrace(trace::UtilizationTrace(std::move(samples)));
    }
    return tenants;
}

Kilowatts
scaleTarget(const ScaleCase &c, const std::vector<Tenant> &tenants)
{
    double idle = 0.0, peak = 0.0;
    for (const Tenant &t : tenants) {
        const double n = static_cast<double>(t.numServers());
        idle += t.server(0).spec().idlePower.value() * n;
        peak += t.server(0).spec().peakPower.value() * n;
    }
    switch (c.target) {
    case Target::Unreachable:
        return Kilowatts(1.05 * peak);
    case Target::BelowIdle:
        return Kilowatts(0.5 * idle);
    case Target::Reachable:
        break;
    }
    return Kilowatts(idle + c.fraction * (peak - idle));
}

const std::vector<ScaleCase> &
scaleCases()
{
    static const std::vector<ScaleCase> cases = {
        {"one_tenant_day_low", 1, kMinutesPerDay, Target::Reachable, 0.2},
        {"two_tenants_day_high", 2, kMinutesPerDay, Target::Reachable, 0.97},
        {"three_tenants_week", 3, kMinutesPerWeek, Target::Reachable, 0.6},
        {"four_tenants_month", 4, 30 * kMinutesPerDay, Target::Reachable,
         0.75},
        {"three_tenants_year", 3, kMinutesPerYear, Target::Reachable, 0.55},
        {"four_tenants_week_saturating", 4, kMinutesPerWeek,
         Target::Unreachable, 0.0},
        {"two_tenants_day_below_idle", 2, kMinutesPerDay, Target::BelowIdle,
         0.0},
    };
    return cases;
}

class ScaleKernelOracle : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ScaleKernelOracle, FactorIsBitwiseTheScalarBisection)
{
    const detail::MeanPowerKernel &kernel =
        detail::meanPowerKernels()[GetParam()];
    if (!kernel.hostSupported)
        GTEST_SKIP() << "host CPU lacks " << kernel.target;
    const auto &cases = scaleCases();
    for (std::size_t i = 0; i < cases.size(); ++i) {
        SCOPED_TRACE(cases[i].name);
        std::vector<Tenant> tenants = makeScaleTenants(cases[i], 100 + i);
        std::vector<Tenant *> ptrs;
        for (Tenant &t : tenants)
            ptrs.push_back(&t);
        const Kilowatts target = scaleTarget(cases[i], tenants);
        const double expected = scalarScaleFactor(ptrs, target);
        const double actual =
            detail::computeMeanPowerScaleFactorWith(kernel, ptrs, target);
        EXPECT_EQ(std::memcmp(&expected, &actual, sizeof(double)), 0)
            << "expected " << std::hexfloat << expected << ", got "
            << actual;
        if (cases[i].target == Target::Unreachable) {
            EXPECT_GT(actual, 32.0); // hi reached 64
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ScaleKernelOracle,
    ::testing::Range(std::size_t{0}, detail::meanPowerKernels().size()),
    [](const ::testing::TestParamInfo<std::size_t> &param_info) {
        return std::string(detail::meanPowerKernels()[param_info.param].target);
    });

TEST(ScaleKernel, ProductionPathUsesTheWidestSupportedVariant)
{
    const auto kernels = detail::meanPowerKernels();
    const auto first = std::find_if(
        kernels.begin(), kernels.end(),
        [](const detail::MeanPowerKernel &k) { return k.hostSupported; });
    ASSERT_NE(first, kernels.end());
    EXPECT_EQ(&*first, &detail::selectedMeanPowerKernel());
    EXPECT_STREQ(kernels.back().target, "default");
}

TEST(TenantDeathTest, ApplyTraceWithoutTrace)
{
    Tenant t = makeTenant();
    EXPECT_DEATH(t.applyTraceAt(0), "no trace");
}

TEST(TenantDeathTest, EmptyTraceRejected)
{
    Tenant t = makeTenant();
    EXPECT_DEATH(t.setTrace(trace::UtilizationTrace()), "empty trace");
}

} // namespace
} // namespace ecolo::power
