#include "power/tenant.hh"

#include <array>

#include "power/scale_kernel.hh"
#include "util/logging.hh"

namespace ecolo::power {

Tenant::Tenant(std::string name, Kilowatts subscribed_capacity,
               std::size_t num_servers, ServerSpec server_spec)
    : name_(std::move(name)), subscribed_(subscribed_capacity)
{
    ECOLO_ASSERT(num_servers > 0, "tenant '", name_, "' has no servers");
    servers_.reserve(num_servers);
    for (std::size_t i = 0; i < num_servers; ++i)
        servers_.emplace_back(server_spec);
}

void
Tenant::setTrace(std::shared_ptr<const trace::UtilizationTrace> trace)
{
    ECOLO_ASSERT(trace != nullptr && !trace->empty(),
                 "empty trace for tenant '", name_, "'");
    trace_ = std::move(trace);
}

void
Tenant::setTrace(trace::UtilizationTrace trace)
{
    setTrace(std::make_shared<const trace::UtilizationTrace>(
        std::move(trace)));
}

void
Tenant::applyTraceAt(MinuteIndex t)
{
    ECOLO_ASSERT(hasTrace(), "tenant '", name_, "' has no trace attached");
    setUtilization(trace_->at(t));
}

void
Tenant::setUtilization(double utilization)
{
    for (Server &s : servers_)
        s.setUtilization(utilization);
}

Kilowatts
Tenant::demandPower() const
{
    Kilowatts total(0.0);
    for (const Server &s : servers_)
        total += s.demandPower();
    return total;
}

Kilowatts
Tenant::actualPower() const
{
    Kilowatts total(0.0);
    for (const Server &s : servers_)
        total += s.actualPower();
    return total;
}

void
Tenant::setPerServerCap(Kilowatts cap)
{
    for (Server &s : servers_)
        s.setPowerCap(cap);
}

void
Tenant::clearCaps()
{
    for (Server &s : servers_)
        s.clearPowerCap();
}

void
Tenant::setPoweredOn(bool on)
{
    for (Server &s : servers_)
        s.setPoweredOn(on);
}

double
Tenant::servedFraction() const
{
    if (servers_.empty())
        return 1.0;
    double sum = 0.0;
    for (const Server &s : servers_)
        sum += s.servedFraction();
    return sum / static_cast<double>(servers_.size());
}

double
Tenant::utilization() const
{
    if (servers_.empty())
        return 0.0;
    double sum = 0.0;
    for (const Server &s : servers_)
        sum += s.utilization();
    return sum / static_cast<double>(servers_.size());
}

namespace detail {

double
computeMeanPowerScaleFactorWith(const MeanPowerKernel &kernel,
                                const std::vector<Tenant *> &tenants,
                                Kilowatts target_mean_power)
{
    ECOLO_ASSERT(!tenants.empty(), "no tenants to scale");
    for (Tenant *t : tenants)
        ECOLO_ASSERT(t != nullptr && t->hasTrace(),
                     "computeMeanPowerScaleFactor needs tenants with traces");

    // All tenants share one trace length (they are generated together).
    const std::size_t horizon = tenants.front()->traceRef().size();
    std::vector<ScaleTenantView> views;
    views.reserve(tenants.size());
    for (const Tenant *t : tenants) {
        ECOLO_ASSERT(t->traceRef().size() == horizon,
                     "tenant trace lengths differ");
        const ServerSpec &spec = t->server(0).spec();
        ECOLO_ASSERT(spec.idlePower <= spec.peakPower,
                     "idle power above peak power");
        views.push_back({t->traceRef().samples().data(), horizon,
                         spec.idlePower.value(),
                         (spec.peakPower - spec.idlePower).value(),
                         static_cast<double>(t->numServers())});
    }
    using Lanes = std::array<double, kScaleLanes>;
    auto mean_power_at = [&](const Lanes &factors) {
        Lanes mean_kw{};
        kernel.fn(views.data(), views.size(), factors.data(), mean_kw.data());
        return mean_kw;
    };

    // Mean power is a monotone function of the common scale factor; solve
    // for it by bisection. The achieved mean saturates at all-peak power,
    // so clamp the target to what is actually reachable.
    //
    // The search is the classic one -- double hi from 1 until the target
    // is bracketed or hi reaches 64, then 60 halvings of (lo, hi) -- and
    // returns its exact bits, but it evaluates the mean power at several
    // factors per pass over the traces. The bracket candidates 1, 2, ...,
    // 64 share one pass.
    const double target = target_mean_power.value();
    const Lanes powers{1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 64.0};
    const Lanes at_powers = mean_power_at(powers);
    std::size_t k = 0;
    while (at_powers[k] < target && powers[k] < 64.0)
        ++k;
    if (at_powers[k] < target) {
        warn("target mean power ", target,
             " kW unreachable; saturating traces at full utilization");
    }

    // Each further pass speculates three halvings: the mid of (lo, hi),
    // the mids of both halves it may leave, and the four mids below
    // those, each computed as 0.5 * (lo + hi) from the interval the
    // halving would see. Node i's children are 2i + 1 (the target was
    // reached, hi = mid) and 2i + 2 (lo = mid). Replaying the three
    // decisions then walks one root-to-leaf path.
    constexpr int kLevels = 3;
    constexpr int kHalvings = 60;
    constexpr std::size_t kNodes = (std::size_t{1} << kLevels) - 1;
    static_assert(kHalvings % kLevels == 0 && kNodes <= kScaleLanes);
    double lo = 0.0, hi = powers[k];
    for (int iter = 0; iter < kHalvings; iter += kLevels) {
        Lanes node_lo{}, node_hi{}, mids{};
        node_lo[0] = lo;
        node_hi[0] = hi;
        for (std::size_t i = 0; i < kNodes; ++i) {
            mids[i] = 0.5 * (node_lo[i] + node_hi[i]);
            if (2 * i + 2 < kNodes) {
                node_lo[2 * i + 1] = node_lo[i];
                node_hi[2 * i + 1] = mids[i];
                node_lo[2 * i + 2] = mids[i];
                node_hi[2 * i + 2] = node_hi[i];
            }
        }
        const Lanes at_mids = mean_power_at(mids);
        std::size_t node = 0;
        for (int level = 0; level < kLevels; ++level) {
            const bool below = at_mids[node] < target;
            double &moved = below ? lo : hi;
            // A halving that leaves (lo, hi) unchanged is a fixed point
            // of this deterministic map: every remaining halving would
            // repeat it, so the answer is final.
            if (moved == mids[node])
                return 0.5 * (lo + hi);
            moved = mids[node];
            node = 2 * node + (below ? 2 : 1);
        }
    }
    return 0.5 * (lo + hi);
}

} // namespace detail

double
computeMeanPowerScaleFactor(const std::vector<Tenant *> &tenants,
                            Kilowatts target_mean_power)
{
    return detail::computeMeanPowerScaleFactorWith(
        detail::selectedMeanPowerKernel(), tenants, target_mean_power);
}

} // namespace ecolo::power
