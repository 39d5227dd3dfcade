/**
 * @file
 * reqbench: the request-level benchmark program.
 *
 *   reqbench --workload cold_day|year_run
 *            [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
 *
 * Prints the environment stamp, every metric by name and unit, and the
 * correctness notes, then one JSON result object as the last line of
 * standard output. --trace 0 reports the end-to-end metrics; --trace 1
 * is a separate traced run that reports the per-layer metrics and writes
 * its spans as Chrome-trace JSON to --trace-out.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.hh"
#include "telemetry/events.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/trace.hh"
#include "util/sim_time.hh"

namespace {

using namespace reqbench;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "reqbench: " << why
              << "\nusage: reqbench --workload "
                 "cold_day|year_run [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed expects a non-negative integer");
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
                options.seconds > 3600.0)
                usage("--seconds expects a number in (0, 3600]");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace expects 0 or 1");
            options.trace = value == "1";
        } else if (arg == "--trace-out") {
            options.traceOut = value;
        } else {
            usage("unknown option " + arg);
        }
    }
    if (options.workload != "cold_day" && options.workload != "year_run")
        usage("unknown or missing --workload");
    return options;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseArgs(argc, argv);
    const Environment env = environment();

    std::cout << "reqbench: workload=" << options.workload
              << " seed=" << options.seed << " seconds=" << options.seconds
              << " trace=" << (options.trace ? 1 : 0) << "\n"
              << "env: nproc=" << env.nproc << " build=" << env.buildType
              << " compiler=\"" << env.compiler
              << "\" optimized=" << (env.optimized ? 1 : 0)
              << " dispatch=" << env.dispatch << "\n";
    if (!env.optimized)
        std::cout << "WARNING: non-optimised build; timings are not "
                     "comparable\n";
    std::cout.flush();

    Outcome out = runEngineWorkload(options, options.workload == "cold_day"
                                                 ? ecolo::kMinutesPerDay
                                                 : ecolo::kMinutesPerYear);

    if (options.trace) {
        ecolo::telemetry::trace().end();
        out.notes.push_back(
            "trace spans: " +
            std::to_string(ecolo::telemetry::trace().eventCount()));
        if (!options.traceOut.empty()) {
            if (auto written =
                    ecolo::telemetry::trace().writeChromeJsonFile(
                        options.traceOut);
                !written) {
                std::cerr << "reqbench: " << written.error().describe()
                          << "\n";
                return 1;
            }
            out.notes.push_back("chrome trace: " + options.traceOut);
        }
        ecolo::telemetry::setEnabled(false);
    }

    bool finite = true;
    for (const Metric &m : out.metrics) {
        if (!std::isfinite(m.value))
            finite = false;
    }
    const bool correct =
        out.failed == 0 && out.wrong == 0 && finite && out.attempted > 0;
    const double failed_ratio =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;

    for (const Metric &m : out.metrics)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
    std::cout << "  failed_ratio = " << failed_ratio << " ("
              << out.failed << " of " << out.attempted << ", "
              << out.wrong << " wrong reports)\n";
    for (const std::string &note : out.notes)
        std::cout << "note: " << note << "\n";

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        json += (i ? ", \"" : "\"") + ecolo::telemetry::jsonEscape(m.name) +
                "\": {\"value\": " +
                jsonNumber(std::isfinite(m.value) ? m.value : 0.0) +
                ", \"unit\": \"" + ecolo::telemetry::jsonEscape(m.unit) +
                "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
