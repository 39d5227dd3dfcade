/**
 * @file
 * The lane kernel behind power::computeMeanPowerScaleFactor.
 *
 * The scale bisection evaluates the tenants' combined mean power,
 *
 *     sum over tenants of  sum_i (idle + range * clamp(u_i * f, 0, 1)) * n
 *                          ------------------------------------------------
 *                                        trace length
 *
 * at one candidate factor f per step. A call of the kernel evaluates it
 * at kScaleLanes factors in one pass over the traces. The vector axis
 * is the factor, never the sample: lane j accumulates in trace order
 * with exactly ServerSpec::powerAt's operations, so every lane is
 * bitwise the scalar evaluation at f_j, on every ISA variant.
 *
 * That only holds without floating-point contraction. An FMA would
 * round idle + range * x once instead of twice, and the factor would
 * then depend on which variant the host runs. The kernel's file is
 * compiled with -ffp-contract=off (src/power/CMakeLists.txt), and
 * tools/check_no_fma.sh checks the Release objects for FMA
 * instructions in any variant.
 */

#ifndef ECOLO_POWER_SCALE_KERNEL_HH
#define ECOLO_POWER_SCALE_KERNEL_HH

#include <cstddef>
#include <span>
#include <vector>

#include "util/units.hh"

namespace ecolo::power {

class Tenant;

namespace detail {

/** Candidate factors evaluated per pass: three bisection levels' mids. */
inline constexpr std::size_t kScaleLanes = 8;

/** One tenant's operands of the mean-power sum. */
struct ScaleTenantView
{
    const double *samples = nullptr;
    std::size_t count = 0;
    double idleKw = 0.0;
    double rangeKw = 0.0; //!< peak minus idle power of one server
    double servers = 0.0; //!< server count, as the multiplier n
};

/**
 * mean_kw[j] = combined mean power of the tenants at factors[j], for
 * every j < kScaleLanes.
 */
using MeanPowerLanesFn = void (*)(const ScaleTenantView *tenants,
                                  std::size_t num_tenants,
                                  const double *factors, double *mean_kw);

/** One compiled ISA variant of the kernel. */
struct MeanPowerKernel
{
    const char *target;  //!< "avx512f", "avx2" or "default"
    bool hostSupported;  //!< whether this CPU can execute it
    MeanPowerLanesFn fn;
};

/** Every compiled variant, widest first, whether or not the host runs it. */
std::span<const MeanPowerKernel> meanPowerKernels();

/** The widest variant the host supports; computeMeanPowerScaleFactor's. */
const MeanPowerKernel &selectedMeanPowerKernel();

/**
 * computeMeanPowerScaleFactor on a chosen kernel variant, so tests and
 * microbenchmarks can drive each one the host supports.
 */
double computeMeanPowerScaleFactorWith(const MeanPowerKernel &kernel,
                                       const std::vector<Tenant *> &tenants,
                                       Kilowatts target_mean_power);

} // namespace detail
} // namespace ecolo::power

#endif // ECOLO_POWER_SCALE_KERNEL_HH
