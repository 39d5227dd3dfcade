/**
 * @file
 * Pinned markdown-report digests: the canonical runs' full reports,
 * hashed with FNV-1a and compared against digests checked in here.
 *
 * The matrix is paper_default x 5 policies x {1 d, 30 d}, plus a year at
 * degraded_site.cfg under standby (failed servers, a trace gap,
 * preventive capping and partial shutdown) and 30 days of
 * one_shot_strike.cfg under oneshot (an outage). Together they drive
 * every branch of the benign workload phase through the whole report.
 *
 * The thermal kernels are target_clones whose avx512f and fma bodies
 * contract to FMA while the default body does not, and sanitizer or
 * unoptimized builds round differently again, so digests are keyed by
 * the dispatch target and build flavor (see reqbench/src/golden.cc). A
 * target without pins skips and names itself. A deliberate numeric
 * change bumps kEngineSchemaVersion and re-pins from the digests the
 * failures print.
 */

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "core/report.hh"
#include "core/scenario.hh"
#include "serve/result_cache.hh"

namespace {

using namespace ecolo;
using namespace ecolo::core;

/** The thermal kernels' dispatch target, in the order GCC's
 * target_clones resolver tries them, plus the build flavor when it
 * changes rounding. */
std::string
digestTarget()
{
    __builtin_cpu_init();
    std::string target = "default";
    if (__builtin_cpu_supports("avx512f"))
        target = "avx512f";
    else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        target = "fma";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    target += "+sanitizer";
#endif
#ifndef __OPTIMIZE__
    target += "+O0";
#endif
    return target;
}

struct GoldenRun
{
    const char *name;
    const char *scenario; //!< file under scenarios/
    const char *policy;
    double days;
};

const GoldenRun kRuns[] = {
    {"paper_default_standby_1d", "paper_default.cfg", "standby", 1},
    {"paper_default_random_1d", "paper_default.cfg", "random", 1},
    {"paper_default_myopic_1d", "paper_default.cfg", "myopic", 1},
    {"paper_default_foresighted_1d", "paper_default.cfg", "foresighted", 1},
    {"paper_default_oneshot_1d", "paper_default.cfg", "oneshot", 1},
    {"paper_default_standby_30d", "paper_default.cfg", "standby", 30},
    {"paper_default_random_30d", "paper_default.cfg", "random", 30},
    {"paper_default_myopic_30d", "paper_default.cfg", "myopic", 30},
    {"paper_default_foresighted_30d", "paper_default.cfg", "foresighted",
     30},
    {"paper_default_oneshot_30d", "paper_default.cfg", "oneshot", 30},
    {"degraded_site_standby_365d", "degraded_site.cfg", "standby", 365},
    {"one_shot_strike_oneshot_30d", "one_shot_strike.cfg", "oneshot", 30},
};

/** Pinned digests per dispatch target, in kRuns order. */
const std::map<std::string, std::vector<std::string>> &
pinnedDigests()
{
    static const std::map<std::string, std::vector<std::string>> kPinned = {
        {"avx512f",
         {"edc51c83c3a34a02", "933343020c30628d", "10803f033126a92e",
          "ee669a7663fad651", "0ccf7bc989f8b0c3", "f26c99dd19c4f900",
          "5fae9b1d46d424b3", "606da98e820fc2c0", "f8d16e35309cabfb",
          "11c5c0370b36ebcb", "6b1e9a5d5fd4c6c8", "8c303dccd3d5221b"}},
    };
    return kPinned;
}

std::string
reportDigest(const GoldenRun &run)
{
    SimulationConfig config = loadScenarioFile(
        std::string(EDGETHERM_SCENARIO_DIR "/") + run.scenario);
    const double param = defaultPolicyParam(run.policy);
    auto policy = tryMakePolicyByName(config, run.policy, param);
    EXPECT_TRUE(policy.ok());
    Simulation sim(config, policy.take());
    sim.runDays(run.days);

    std::ostringstream report;
    ReportInputs inputs;
    inputs.policyName = run.policy;
    inputs.policyParameter = param;
    inputs.simulatedDays = run.days;
    writeMarkdownReport(report, sim.config(), sim.metrics(), inputs);

    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      serve::fnv1a64(report.str())));
    return hex;
}

class ReportGolden : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(ReportGolden, ReportMatchesThePinnedDigest)
{
    const std::string target = digestTarget();
    const auto it = pinnedDigests().find(target);
    if (it == pinnedDigests().end())
        GTEST_SKIP() << "no pinned report digests for dispatch target "
                     << target;
    const GoldenRun &run = kRuns[GetParam()];
    EXPECT_EQ(reportDigest(run), it->second.at(GetParam()))
        << run.name << " on " << target;
}

INSTANTIATE_TEST_SUITE_P(
    Canonical, ReportGolden,
    ::testing::Range<std::size_t>(0, std::size(kRuns)),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(kRuns[info.param].name);
    });

} // namespace
