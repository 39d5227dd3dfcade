#include "power/scale_kernel.hh"

#include <array>

namespace ecolo::power::detail {

namespace {

typedef double Vec2 __attribute__((vector_size(16)));
typedef double Vec4 __attribute__((vector_size(32)));
typedef double Vec8 __attribute__((vector_size(64)));

/**
 * The kernel body at one chunk width: the kScaleLanes lanes live in
 * kScaleLanes / width vectors of the ISA's natural width. Per lane and
 * per sample it performs the scalar model's operations in its order:
 * u * f, std::clamp's two compares (x < 0 picks 0, 1 < x picks 1, so
 * NaN and -0.0 pass through as they do there), range * x, idle + that,
 * times n, added to the tenant's running sum; each tenant's sum is
 * divided by its length and added to the lane's total.
 */
template <typename Vec>
__attribute__((always_inline)) inline void
meanPowerLanesBody(const ScaleTenantView *tenants, std::size_t num_tenants,
                   const double *factors, double *mean_kw)
{
    constexpr std::size_t kWidth = sizeof(Vec) / sizeof(double);
    constexpr std::size_t kChunks = kScaleLanes / kWidth;
    static_assert(kChunks * kWidth == kScaleLanes);

    const Vec zero = {};
    const Vec one = zero + 1.0;
    Vec f[kChunks];
    Vec total[kChunks];
    for (std::size_t c = 0; c < kChunks; ++c) {
        __builtin_memcpy(&f[c], factors + c * kWidth, sizeof(Vec));
        total[c] = zero;
    }
    for (std::size_t k = 0; k < num_tenants; ++k) {
        const ScaleTenantView &t = tenants[k];
        const double idle = t.idleKw;
        const double range = t.rangeKw;
        const double n = t.servers;
        Vec acc[kChunks];
        for (std::size_t c = 0; c < kChunks; ++c)
            acc[c] = zero;
        for (std::size_t i = 0; i < t.count; ++i) {
            const double u = t.samples[i];
            // Unrolled so the accumulators stay in registers.
#pragma GCC unroll 8
            for (std::size_t c = 0; c < kChunks; ++c) {
                Vec x = u * f[c];
                x = x < zero ? zero : x;
                x = one < x ? one : x;
                acc[c] += (idle + range * x) * n;
            }
        }
        const double length = static_cast<double>(t.count);
        for (std::size_t c = 0; c < kChunks; ++c)
            total[c] += acc[c] / length;
    }
    for (std::size_t c = 0; c < kChunks; ++c)
        __builtin_memcpy(mean_kw + c * kWidth, &total[c], sizeof(Vec));
}

// One function per ISA rather than target_clones: target_clones compiles
// a single body for every ISA, while the chunk width here follows the
// ISA (a single 8-double vector lowered to SSE2 runs slower than the
// scalar loop). The table below also lets tests call every variant, and
// as no IFUNC resolver is involved, sanitizer builds keep them all.
#if defined(__x86_64__)

__attribute__((target("avx512f"))) void
meanPowerLanesAvx512f(const ScaleTenantView *tenants, std::size_t num_tenants,
                      const double *factors, double *mean_kw)
{
    meanPowerLanesBody<Vec8>(tenants, num_tenants, factors, mean_kw);
}

__attribute__((target("avx2"))) void
meanPowerLanesAvx2(const ScaleTenantView *tenants, std::size_t num_tenants,
                   const double *factors, double *mean_kw)
{
    meanPowerLanesBody<Vec4>(tenants, num_tenants, factors, mean_kw);
}

#endif

void
meanPowerLanesDefault(const ScaleTenantView *tenants, std::size_t num_tenants,
                      const double *factors, double *mean_kw)
{
    meanPowerLanesBody<Vec2>(tenants, num_tenants, factors, mean_kw);
}

} // namespace

std::span<const MeanPowerKernel>
meanPowerKernels()
{
#if defined(__x86_64__)
    static const std::array<MeanPowerKernel, 3> kernels = [] {
        __builtin_cpu_init();
        return std::array<MeanPowerKernel, 3>{{
            {"avx512f", __builtin_cpu_supports("avx512f") != 0,
             &meanPowerLanesAvx512f},
            {"avx2", __builtin_cpu_supports("avx2") != 0,
             &meanPowerLanesAvx2},
            {"default", true, &meanPowerLanesDefault},
        }};
    }();
#else
    static const std::array<MeanPowerKernel, 1> kernels{{
        {"default", true, &meanPowerLanesDefault},
    }};
#endif
    return kernels;
}

const MeanPowerKernel &
selectedMeanPowerKernel()
{
    static const MeanPowerKernel &selected = []() -> const MeanPowerKernel & {
        for (const MeanPowerKernel &k : meanPowerKernels())
            if (k.hostSupported)
                return k;
        return meanPowerKernels().back();
    }();
    return selected;
}

} // namespace ecolo::power::detail
