/** @file Unit tests for the synthetic workload generators. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>

#include "trace/generators.hh"
#include "util/sim_time.hh"
#include "util/state_io.hh"
#include "util/stats.hh"

namespace ecolo::trace {
namespace {

TEST(DiurnalGenerator, ProducesRequestedLength)
{
    Rng rng(1);
    DiurnalTraceGenerator gen;
    const auto t = gen.generate(kMinutesPerDay, rng);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(kMinutesPerDay));
}

TEST(DiurnalGenerator, SamplesInUnitRange)
{
    Rng rng(2);
    DiurnalTraceGenerator gen;
    const auto t = gen.generate(7 * kMinutesPerDay, rng);
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(DiurnalGenerator, PeakHourIsHotterThanTrough)
{
    Rng rng(3);
    DiurnalTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    DiurnalTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    const double peak = t[static_cast<std::size_t>(params.peakHour * 60)];
    const double trough =
        t[static_cast<std::size_t>(std::fmod(params.peakHour + 12.0, 24.0) *
                                   60)];
    EXPECT_GT(peak, trough + 0.2);
}

TEST(DiurnalGenerator, WeekendsAreLighter)
{
    Rng rng(4);
    DiurnalTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    params.weekendFactor = 0.7;
    DiurnalTraceGenerator gen(params);
    const auto t = gen.generate(7 * kMinutesPerDay, rng);
    // Compare the same minute on Friday (day 4) and Saturday (day 5).
    const std::size_t noon_friday = 4 * kMinutesPerDay + 720;
    const std::size_t noon_saturday = 5 * kMinutesPerDay + 720;
    EXPECT_GT(t[noon_friday], t[noon_saturday]);
}

TEST(DiurnalGenerator, DeterministicForSameSeed)
{
    DiurnalTraceGenerator gen;
    Rng rng1(9), rng2(9);
    const auto a = gen.generate(kMinutesPerDay, rng1);
    const auto b = gen.generate(kMinutesPerDay, rng2);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(DiurnalGenerator, BurstsRaiseTheMean)
{
    DiurnalTraceGenerator::Params quiet;
    quiet.burstsPerDay = 0.0;
    quiet.noiseSigma = 0.0;
    DiurnalTraceGenerator::Params bursty = quiet;
    bursty.burstsPerDay = 40.0;
    bursty.burstMagnitude = 0.2;
    Rng rng1(11), rng2(11);
    const auto a = DiurnalTraceGenerator(quiet).generate(
        7 * kMinutesPerDay, rng1);
    const auto b = DiurnalTraceGenerator(bursty).generate(
        7 * kMinutesPerDay, rng2);
    EXPECT_GT(b.mean(), a.mean() + 0.01);
}

TEST(GoogleStyleGenerator, SamplesInUnitRange)
{
    Rng rng(5);
    GoogleStyleTraceGenerator gen;
    const auto t = gen.generate(3 * kMinutesPerDay, rng);
    EXPECT_EQ(t.size(), static_cast<std::size_t>(3 * kMinutesPerDay));
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(GoogleStyleGenerator, VisitsMultiplePlateaus)
{
    Rng rng(6);
    GoogleStyleTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    params.diurnalAmplitude = 0.0;
    params.meanDwellMinutes = 60.0;
    GoogleStyleTraceGenerator gen(params);
    const auto t = gen.generate(2 * kMinutesPerDay, rng);
    EXPECT_GT(t.peak() - [&] {
        double lo = 1.0;
        for (std::size_t i = 0; i < t.size(); ++i)
            lo = std::min(lo, t[i]);
        return lo;
    }(), 0.15); // spans distinct levels
}

TEST(GoogleStyleGenerator, WeakerDiurnalThanDefault)
{
    Rng rng1(7), rng2(7);
    const auto diurnal =
        DiurnalTraceGenerator().generate(14 * kMinutesPerDay, rng1);
    const auto google =
        GoogleStyleTraceGenerator().generate(14 * kMinutesPerDay, rng2);

    // Correlate each trace with a 24h sinusoid; the diurnal one should
    // show much stronger daily periodicity.
    auto daily_correlation = [](const UtilizationTrace &t) {
        double num = 0.0;
        for (std::size_t i = 0; i < t.size(); ++i) {
            const double phase = 2.0 * M_PI *
                                 static_cast<double>(i % kMinutesPerDay) /
                                 static_cast<double>(kMinutesPerDay);
            num += (t[i] - 0.5) * std::cos(phase - M_PI);
        }
        return std::abs(num) / static_cast<double>(t.size());
    };
    EXPECT_GT(daily_correlation(diurnal), daily_correlation(google));
}

TEST(ConstantGenerator, FlatAtLevel)
{
    Rng rng(8);
    ConstantTraceGenerator gen(0.42);
    const auto t = gen.generate(100, rng);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_DOUBLE_EQ(t[i], 0.42);
}

TEST(ScaleToMean, HitsTarget)
{
    Rng rng(10);
    const auto t = DiurnalTraceGenerator().generate(7 * kMinutesPerDay, rng);
    const auto scaled = scaleToMeanUtilization(t, 0.6);
    EXPECT_NEAR(scaled.mean(), 0.6, 0.002);
}

TEST(ScaleToMean, WorksWhenClampingBites)
{
    Rng rng(12);
    const auto t = DiurnalTraceGenerator().generate(7 * kMinutesPerDay, rng);
    const auto scaled = scaleToMeanUtilization(t, 0.9);
    EXPECT_NEAR(scaled.mean(), 0.9, 0.01);
    EXPECT_LE(scaled.peak(), 1.0);
}

TEST(ScaleToMean, PreservesShapeOrdering)
{
    Rng rng(13);
    DiurnalTraceGenerator::Params params;
    params.noiseSigma = 0.0;
    params.burstsPerDay = 0.0;
    const auto t =
        DiurnalTraceGenerator(params).generate(kMinutesPerDay, rng);
    const auto scaled = scaleToMeanUtilization(t, 0.5);
    // Scaling is monotone: if a < b before, then a <= b after.
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i - 1] < t[i])
            EXPECT_LE(scaled[i - 1], scaled[i] + 1e-12);
    }
}

} // namespace
} // namespace ecolo::trace

namespace ecolo::trace {
namespace {

TEST(RequestGenerator, SamplesInUnitRange)
{
    Rng rng(41);
    RequestTraceGenerator gen;
    const auto t = gen.generate(3 * kMinutesPerDay, rng);
    ASSERT_EQ(t.size(), static_cast<std::size_t>(3 * kMinutesPerDay));
    for (std::size_t i = 0; i < t.size(); ++i) {
        EXPECT_GE(t[i], 0.0);
        EXPECT_LE(t[i], 1.0);
    }
}

TEST(RequestGenerator, DiurnalShape)
{
    Rng rng(43);
    RequestTraceGenerator::Params params;
    params.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    // Average around the 14:00 peak vs. the 02:00 trough.
    double peak = 0.0, trough = 0.0;
    for (int m = 0; m < 60; ++m) {
        peak += t[14 * 60 + m];
        trough += t[2 * 60 + m];
    }
    EXPECT_GT(peak, 1.8 * trough);
}

TEST(RequestGenerator, PoissonShotNoisePresent)
{
    // Unlike the constant generator, consecutive minutes at the same
    // diurnal phase differ because arrivals are Poisson.
    Rng rng(47);
    RequestTraceGenerator::Params params;
    params.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator gen(params);
    const auto t = gen.generate(kMinutesPerDay, rng);
    ecolo::OnlineStats noon;
    for (int m = 0; m < 30; ++m)
        noon.add(t[12 * 60 + m]);
    EXPECT_GT(noon.stddev(), 0.0005);
    EXPECT_LT(noon.stddev(), 0.05); // shot noise, not chaos
}

TEST(RequestGenerator, FlashCrowdsRaiseLoad)
{
    Rng rng1(49), rng2(49);
    RequestTraceGenerator::Params quiet;
    quiet.flashCrowdsPerDay = 0.0;
    RequestTraceGenerator::Params crowded = quiet;
    crowded.flashCrowdsPerDay = 20.0;
    crowded.flashCrowdBoost = 0.5;
    const auto a =
        RequestTraceGenerator(quiet).generate(7 * kMinutesPerDay, rng1);
    const auto b =
        RequestTraceGenerator(crowded).generate(7 * kMinutesPerDay, rng2);
    EXPECT_GT(b.mean(), a.mean() * 1.05);
}

TEST(RequestGenerator, WorksAsEngineExternalTrace)
{
    Rng rng(51);
    RequestTraceGenerator gen;
    auto t = gen.generate(kMinutesPerDay, rng);
    // Usable wherever UtilizationTrace is accepted.
    const auto scaled = scaleToMeanUtilization(t, 0.6);
    EXPECT_NEAR(scaled.mean(), 0.6, 0.01);
}

} // namespace
} // namespace ecolo::trace

namespace ecolo::trace {
namespace {

/**
 * The generators as they were before the daily shape was tabulated:
 * dailyShape(hourOfDay(t), peak) evaluated per minute. Kept verbatim
 * as the oracle for the table-driven versions, RNG draw order included.
 */
namespace reference {

double
dailyShape(double hour, double peak_hour)
{
    const double phase = (hour - peak_hour) / 24.0 * 2.0 * M_PI;
    return 0.5 * (1.0 + std::cos(phase));
}

void
addBursts(std::vector<double> &samples, Rng &rng, double bursts_per_day,
          double magnitude_mean, double duration_mean)
{
    if (bursts_per_day <= 0.0)
        return;
    const double rate_per_minute =
        bursts_per_day / static_cast<double>(kMinutesPerDay);
    double t = rng.exponential(rate_per_minute);
    while (t < static_cast<double>(samples.size())) {
        const auto start = static_cast<std::size_t>(t);
        const double magnitude =
            rng.exponential(1.0 / std::max(magnitude_mean, 1e-9));
        const double duration =
            std::max(1.0, rng.exponential(1.0 / std::max(duration_mean,
                                                         1e-9)));
        const auto end = std::min(samples.size(),
                                  start + static_cast<std::size_t>(duration));
        for (std::size_t i = start; i < end; ++i) {
            const double pos = static_cast<double>(i - start) /
                               std::max(1.0, duration - 1.0);
            const double envelope = 1.0 - std::abs(2.0 * pos - 1.0);
            samples[i] += magnitude * (0.5 + 0.5 * envelope);
        }
        t += rng.exponential(rate_per_minute);
    }
}

std::vector<double>
diurnal(const DiurnalTraceGenerator::Params &p, std::size_t num_minutes,
        Rng &rng)
{
    std::vector<double> samples(num_minutes);
    double noise = 0.0;
    const double noise_innovation =
        p.noiseSigma * std::sqrt(std::max(0.0, 1.0 - p.noisePhi * p.noisePhi));
    for (std::size_t i = 0; i < num_minutes; ++i) {
        const auto t = static_cast<MinuteIndex>(i);
        const double hour = hourOfDay(t);
        double level = p.baseUtilization;
        level += p.diurnalAmplitude * dailyShape(hour, p.peakHour);
        level += p.secondaryAmplitude * dailyShape(hour, p.secondaryPeakHour);
        if (isWeekend(t))
            level *= p.weekendFactor;
        noise = p.noisePhi * noise + rng.normal(0.0, noise_innovation);
        samples[i] = level + noise;
    }
    addBursts(samples, rng, p.burstsPerDay, p.burstMagnitude,
              p.burstDurationMinutes);
    for (double &s : samples)
        s = std::clamp(s, 0.0, 1.0);
    return samples;
}

std::vector<double>
googleStyle(const GoogleStyleTraceGenerator::Params &p,
            std::size_t num_minutes, Rng &rng)
{
    std::vector<double> samples(num_minutes);
    std::size_t level_idx = rng.uniformInt(p.plateauLevels.size());
    double dwell_left = rng.exponential(1.0 / p.meanDwellMinutes);
    double plateau = p.plateauLevels[level_idx];
    double current = plateau;
    double noise = 0.0;
    const double noise_innovation =
        p.noiseSigma * std::sqrt(std::max(0.0, 1.0 - p.noisePhi * p.noisePhi));
    for (std::size_t i = 0; i < num_minutes; ++i) {
        if (dwell_left <= 0.0) {
            std::size_t next = rng.uniformInt(p.plateauLevels.size());
            if (p.plateauLevels.size() > 1 && next == level_idx)
                next = (next + 1) % p.plateauLevels.size();
            level_idx = next;
            plateau = p.plateauLevels[level_idx];
            dwell_left = rng.exponential(1.0 / p.meanDwellMinutes);
        }
        dwell_left -= 1.0;
        current += (plateau - current) * 0.15;
        const auto t = static_cast<MinuteIndex>(i);
        const double diurnal =
            p.diurnalAmplitude * (dailyShape(hourOfDay(t), p.peakHour) - 0.5);
        noise = p.noisePhi * noise + rng.normal(0.0, noise_innovation);
        samples[i] = current + diurnal + noise;
    }
    addBursts(samples, rng, p.burstsPerDay, p.burstMagnitude,
              p.burstDurationMinutes);
    for (double &s : samples)
        s = std::clamp(s, 0.0, 1.0);
    return samples;
}

std::vector<double>
request(const RequestTraceGenerator::Params &p, std::size_t num_minutes,
        Rng &rng)
{
    std::vector<double> samples(num_minutes);
    std::vector<std::pair<std::size_t, std::size_t>> crowds;
    if (p.flashCrowdsPerDay > 0.0) {
        const double rate = p.flashCrowdsPerDay /
                            static_cast<double>(kMinutesPerDay);
        double t = rng.exponential(rate);
        while (t < static_cast<double>(num_minutes)) {
            const auto start = static_cast<std::size_t>(t);
            crowds.emplace_back(
                start, std::min(num_minutes,
                                start + static_cast<std::size_t>(
                                            p.flashCrowdMinutes)));
            t += rng.exponential(rate);
        }
    }
    std::size_t crowd_idx = 0;
    for (std::size_t i = 0; i < num_minutes; ++i) {
        const auto t = static_cast<MinuteIndex>(i);
        const double shape = dailyShape(hourOfDay(t), p.peakHour);
        double rate = p.peakRequestsPerSecond *
                      (p.baseFraction + (1.0 - p.baseFraction) * shape);
        if (isWeekend(t))
            rate *= p.weekendFactor;
        while (crowd_idx < crowds.size() && i >= crowds[crowd_idx].second)
            ++crowd_idx;
        if (crowd_idx < crowds.size() && i >= crowds[crowd_idx].first)
            rate *= 1.0 + p.flashCrowdBoost;
        const double mean_arrivals = rate * 60.0;
        const double arrivals =
            static_cast<double>(rng.poisson(mean_arrivals));
        const double utilization =
            arrivals / (p.clusterCapacityRps * 60.0);
        samples[i] = std::clamp(utilization, 0.0, 1.0);
    }
    return samples;
}

} // namespace reference

/** One generator configuration run through both implementations. */
struct OracleCase
{
    std::string name;
    std::function<UtilizationTrace(std::size_t, Rng &)> tabulated;
    std::function<std::vector<double>(std::size_t, Rng &)> reference;
};

std::string
rngState(const Rng &rng)
{
    std::ostringstream os;
    util::StateWriter writer(os);
    rng.saveState(writer);
    return os.str();
}

class GeneratorOracle : public ::testing::TestWithParam<OracleCase>
{
};

TEST_P(GeneratorOracle, TabulatedShapeIsBitwiseThePerMinuteFormula)
{
    // Three weeks and a bit: every weekday and weekend twice, and a
    // partial final day.
    const std::size_t minutes = 3 * kMinutesPerWeek + 777;
    Rng rng_tab(2024), rng_ref(2024);
    const UtilizationTrace tabulated = GetParam().tabulated(minutes, rng_tab);
    const std::vector<double> expected = GetParam().reference(minutes, rng_ref);
    ASSERT_EQ(tabulated.size(), expected.size());
    EXPECT_EQ(std::memcmp(tabulated.samples().data(), expected.data(),
                          expected.size() * sizeof(double)),
              0);
    EXPECT_EQ(rngState(rng_tab), rngState(rng_ref));
}

DiurnalTraceGenerator::Params
fractionalDiurnal()
{
    DiurnalTraceGenerator::Params p;
    p.peakHour = 13.37;
    p.secondaryPeakHour = 21.0 + 1.0 / 3.0;
    return p;
}

GoogleStyleTraceGenerator::Params
fractionalGoogle()
{
    GoogleStyleTraceGenerator::Params p;
    p.peakHour = 15.8125;
    p.diurnalAmplitude = 0.3;
    return p;
}

RequestTraceGenerator::Params
fractionalRequest()
{
    RequestTraceGenerator::Params p;
    p.peakHour = 14.6;
    p.flashCrowdsPerDay = 2.0;
    return p;
}

INSTANTIATE_TEST_SUITE_P(
    Generators, GeneratorOracle,
    ::testing::Values(
        OracleCase{"diurnal",
                   [](std::size_t n, Rng &rng) {
                       return DiurnalTraceGenerator(fractionalDiurnal())
                           .generate(n, rng);
                   },
                   [](std::size_t n, Rng &rng) {
                       return reference::diurnal(fractionalDiurnal(), n, rng);
                   }},
        OracleCase{"google_style",
                   [](std::size_t n, Rng &rng) {
                       return GoogleStyleTraceGenerator(fractionalGoogle())
                           .generate(n, rng);
                   },
                   [](std::size_t n, Rng &rng) {
                       return reference::googleStyle(fractionalGoogle(), n,
                                                     rng);
                   }},
        OracleCase{"request",
                   [](std::size_t n, Rng &rng) {
                       return RequestTraceGenerator(fractionalRequest())
                           .generate(n, rng);
                   },
                   [](std::size_t n, Rng &rng) {
                       return reference::request(fractionalRequest(), n, rng);
                   }}),
    [](const ::testing::TestParamInfo<OracleCase> &param_info) {
        return param_info.param.name;
    });

} // namespace
} // namespace ecolo::trace
