/**
 * @file
 * Per-layer probes of a traced run. Each setup stage the Simulation
 * constructor performs internally is replayed here through the same
 * public function (trace generator, mean-power scale bisection, heat
 * matrix, temporal factorization) and timed from outside; what the
 * constructor spends beyond the four is core.setup_other_ms. Each figure
 * is the fastest over the probe requests, so the five setup figures sum
 * exactly to core.construct_ms.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.hh"
#include "core/engine.hh"
#include "power/layout.hh"
#include "power/tenant.hh"
#include "telemetry/stats.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "thermal/environment.hh"
#include "thermal/factorization.hh"
#include "thermal/heat_matrix.hh"
#include "trace/generators.hh"
#include "util/rng.hh"
#include "util/sim_time.hh"

namespace reqbench {

namespace {

using namespace ecolo;

std::unique_ptr<core::AttackPolicy>
policyFor(const core::SimulationConfig &config, const Request &request)
{
    auto made =
        core::tryMakePolicyByName(config, request.policy, request.param);
    return made ? made.take() : nullptr;
}

/** Repetitions of the setup-stage replays and the uncached construct:
 * each is ~0.1-0.5 s and the remainder they leave is ~15 ms, so the
 * fastest of five is needed to resolve it on a shared host. */
constexpr int kSetupProbes = 5;
/** Repetitions of the loop, render and warm-construct probes. */
constexpr int kLoopProbes = 2;

/** Span totals of one engine span name, read from the stats registry. */
struct SpanTotals
{
    bool present = false;
    std::uint64_t count = 0;
    double sumUs = 0.0;
};

SpanTotals
spanTotals(const std::string &span_name)
{
    SpanTotals totals;
    const auto *stat =
        telemetry::registry().find("profile." + span_name + "_us");
    if (const auto *h =
            dynamic_cast<const telemetry::TelemetryHistogram *>(stat)) {
        totals.present = true;
        totals.count = h->count();
        totals.sumUs = h->sum();
    }
    return totals;
}

/** The fastest of a layer's probes: interference on a shared host only
 * ever adds time, so the minimum is the steadiest estimate. */
double
fastest(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

template <typename F>
double
timed(const char *span_name, F &&body)
{
    const double t0 = nowSeconds();
    {
        telemetry::TraceSpan span(span_name);
        body();
    }
    return nowSeconds() - t0;
}

} // namespace

void
probeEngineLayers(const Request &request, Outcome &out)
{
    std::string error;
    const auto parsed = requestConfig(request, &error);
    if (!parsed) {
        ++out.failed;
        out.notes.push_back("probe: " + error);
        return;
    }
    const core::SimulationConfig &config = *parsed;
    std::vector<double> generate, scale, matrix_s, factorize, construct,
        warm, loop_ns, render;
    std::vector<double> thermal_ns;
    const char *kPhaseSpans[] = {"engine.sidechannel",
                                 "engine.policy_decide"};
    double phase_us[2] = {0.0, 0.0};
    bool phase_present[2] = {true, true};
    std::int64_t phase_slots = 0;

    for (int rep = 0; rep < kSetupProbes; ++rep) {
        // Stage 1: the year-long utilization trace of every benign tenant
        // (the engine's per-tenant jitter of the default diurnal kind).
        std::vector<trace::UtilizationTrace> traces;
        generate.push_back(timed("trace.generate", [&] {
            Rng rng = Rng(config.seed).fork();
            for (std::size_t k = 0; k < config.numBenignTenants; ++k) {
                const auto kd = static_cast<double>(k);
                trace::DiurnalTraceGenerator::Params params =
                    config.diurnalParams;
                params.peakHour += 0.4 * (kd - 1.0);
                params.baseUtilization += 0.02 * (kd - 1.0);
                params.burstsPerDay += kd;
                traces.push_back(trace::DiurnalTraceGenerator(params)
                                     .generate(kMinutesPerYear, rng));
            }
        }));

        // Stage 2: the mean-power scale bisection over those traces.
        std::vector<power::Tenant> tenants;
        tenants.reserve(traces.size());
        for (std::size_t k = 0; k < traces.size(); ++k) {
            tenants.emplace_back("tenant-" + std::to_string(k + 1),
                                 config.benignSubscription(),
                                 config.serversPerBenignTenant(),
                                 config.serverSpec);
            tenants.back().setTrace(traces[k]);
        }
        std::vector<power::Tenant *> tenant_ptrs;
        for (auto &tenant : tenants)
            tenant_ptrs.push_back(&tenant);
        const Kilowatts target =
            config.capacity * config.averageUtilization -
            config.serverSpec.powerAt(config.attackerStandbyUtilization) *
                static_cast<double>(config.attackerNumServers);
        scale.push_back(timed("power.scale_factor", [&] {
            (void)power::computeMeanPowerScaleFactor(tenant_ptrs, target);
        }));

        // Stages 3 and 4: heat matrix and its temporal factorization.
        const power::DataCenterLayout layout(config.layout);
        std::optional<thermal::HeatDistributionMatrix> matrix;
        matrix_s.push_back(timed("thermal.matrix", [&] {
            matrix = thermal::HeatDistributionMatrix::analyticDefault(
                layout, config.matrixParams, config.matrixHorizonMinutes);
        }));
        std::shared_ptr<const thermal::TemporalFactorization> factors;
        factorize.push_back(timed("thermal.factorize", [&] {
            if (config.thermalMode != thermal::KernelMode::Dense)
                factors = std::make_shared<thermal::TemporalFactorization>(
                    thermal::TemporalFactorization::compute(
                        *matrix, config.factorization));
        }));

        // The whole constructor, uncached, as edgetherm_cli runs it.
        std::optional<core::Simulation> sim;
        auto policy = policyFor(config, request);
        construct.push_back(timed("core.construct", [&] {
            sim.emplace(config, std::move(policy));
        }));

        if (rep >= kLoopProbes)
            continue;

        // The slot loop with telemetry off: no per-slot span cost.
        {
            telemetry::TraceSpan span("core.loop");
            const double t0 = nowSeconds();
            telemetry::setEnabled(false);
            sim->run(request.horizonMinutes);
            telemetry::setEnabled(true);
            loop_ns.push_back(1e9 * (nowSeconds() - t0) /
                              static_cast<double>(request.horizonMinutes));
        }
        render.push_back(timed("core.report_render", [&] {
            (void)renderReport(*sim, request);
        }));

        // A construct whose four stages all hit a warm SetupCache: what
        // every setup-cache hit in the serve tier still pays.
        core::SimulationConfig cached = config;
        cached.setupCache = std::make_shared<core::SetupCache>();
        sim.emplace(cached, policyFor(cached, request));
        sim.reset();
        policy = policyFor(cached, request);
        warm.push_back(timed("core.construct_warm", [&] {
            sim.emplace(cached, std::move(policy));
        }));

        // One simulated day with the engine's own per-slot spans on.
        SpanTotals before[2], after[2];
        for (int i = 0; i < 2; ++i)
            before[i] = spanTotals(kPhaseSpans[i]);
        const MinuteIndex day =
            std::min<MinuteIndex>(kMinutesPerDay, request.horizonMinutes);
        {
            telemetry::TraceSpan span("core.loop_traced_day");
            sim->run(day);
        }
        phase_slots += day;
        for (int i = 0; i < 2; ++i) {
            after[i] = spanTotals(kPhaseSpans[i]);
            phase_present[i] = phase_present[i] && after[i].present;
            phase_us[i] += after[i].sumUs - before[i].sumUs;
        }

        // The thermal kernel alone, stepped over a year with a fixed
        // rotation of heat vectors (its cost does not depend on values).
        if (thermal_ns.empty()) {
            thermal::ThermalEnvironment env(*matrix, config.cooling, 15.0,
                                            config.thermalMode,
                                            config.factorization, factors);
            const std::size_t n = env.numServers();
            std::vector<std::vector<Kilowatts>> heat(4);
            for (std::size_t v = 0; v < heat.size(); ++v)
                for (std::size_t i = 0; i < n; ++i)
                    heat[v].push_back(Kilowatts(
                        0.08 + 0.03 * std::sin(0.7 * double(i + 5 * v))));
            const double secs = timed("thermal.step", [&] {
                for (MinuteIndex m = 0; m < kMinutesPerYear; ++m)
                    env.stepMinute(heat[static_cast<std::size_t>(m) & 3]);
            });
            thermal_ns.push_back(1e9 * secs /
                                 static_cast<double>(kMinutesPerYear));
        }
    }

    const double gen_ms = 1e3 * fastest(generate);
    const double scale_ms = 1e3 * fastest(scale);
    const double matrix_ms = 1e3 * fastest(matrix_s);
    const double factor_ms = 1e3 * fastest(factorize);
    const double construct_ms = 1e3 * fastest(construct);
    const double other_ms =
        construct_ms - (gen_ms + scale_ms + matrix_ms + factor_ms);
    out.add("trace.generate_ms", gen_ms, "ms");
    out.add("power.scale_factor_ms", scale_ms, "ms");
    out.add("thermal.matrix_ms", matrix_ms, "ms");
    out.add("thermal.factorize_ms", factor_ms, "ms");
    out.add("core.construct_ms", construct_ms, "ms");
    out.add("core.setup_other_ms", other_ms, "ms");
    out.add("core.construct_warm_ms", 1e3 * fastest(warm), "ms");
    const double loop = fastest(loop_ns);
    const double thermal = fastest(thermal_ns);
    out.add("core.loop_ns_per_slot", loop, "ns");
    out.add("thermal.step_ns_per_slot", thermal, "ns");
    out.add("core.nonthermal_ns_per_slot", loop - thermal, "ns");
    const char *kPhaseMetrics[] = {"sidechannel.estimate_ns_per_slot",
                                   "core.policy_decide_ns_per_slot"};
    for (int i = 0; i < 2; ++i) {
        if (!phase_present[i])
            out.notes.push_back(std::string("absent: span ") +
                                kPhaseSpans[i] + " (reported as 0)");
        out.add(kPhaseMetrics[i],
                phase_present[i]
                    ? 1e3 * phase_us[i] / static_cast<double>(phase_slots)
                    : 0.0,
                "ns");
    }
    out.add("core.report_render_ms", 1e3 * fastest(render), "ms");

    char line[256];
    std::snprintf(line, sizeof line,
                  "setup stages (fastest of %d probes): generate %.1f + scale "
                  "%.1f + matrix %.1f + factorize %.1f + other %.1f = "
                  "construct %.1f ms",
                  kSetupProbes, gen_ms, scale_ms, matrix_ms, factor_ms,
                  other_ms, construct_ms);
    out.notes.push_back(line);
}

} // namespace reqbench
