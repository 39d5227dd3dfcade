/**
 * @file
 * A colocation tenant: a named owner of a group of servers with a subscribed
 * power capacity and a workload trace driving its servers' utilization.
 */

#ifndef ECOLO_POWER_TENANT_HH
#define ECOLO_POWER_TENANT_HH

#include <memory>
#include <string>
#include <vector>

#include "power/server.hh"
#include "trace/utilization_trace.hh"
#include "util/sim_time.hh"
#include "util/units.hh"

namespace ecolo::power {

/** A tenant and its servers. */
class Tenant
{
  public:
    Tenant(std::string name, Kilowatts subscribed_capacity,
           std::size_t num_servers, ServerSpec server_spec);

    const std::string &name() const { return name_; }
    Kilowatts subscribedCapacity() const { return subscribed_; }

    std::size_t numServers() const { return servers_.size(); }
    Server &server(std::size_t i) { return servers_.at(i); }
    const Server &server(std::size_t i) const { return servers_.at(i); }
    std::vector<Server> &servers() { return servers_; }
    const std::vector<Server> &servers() const { return servers_; }

    /**
     * Attach the workload trace that drives this tenant's utilization.
     * Tenants of one simulation (and of every simulation sharing a
     * SetupCache) alias one immutable scaled trace set; the by-value
     * overload wraps its argument for tenants that own their trace.
     */
    void setTrace(std::shared_ptr<const trace::UtilizationTrace> trace);
    void setTrace(trace::UtilizationTrace trace);
    /** The attached trace; requires hasTrace(). */
    const trace::UtilizationTrace &traceRef() const { return *trace_; }
    bool hasTrace() const { return trace_ != nullptr; }

    /** Set every server's utilization from the trace at minute t. */
    void applyTraceAt(MinuteIndex t);

    /** Uniform utilization across all servers (manual control). */
    void setUtilization(double utilization);

    /** Aggregate power the offered load wants (uncapped). */
    Kilowatts demandPower() const;

    /** Aggregate power actually drawn (capped / powered-off aware). */
    Kilowatts actualPower() const;

    /** Apply / clear a per-server power cap on every server. */
    void setPerServerCap(Kilowatts cap);
    void clearCaps();

    /** Power every server on/off (outage handling). */
    void setPoweredOn(bool on);

    /** Mean served fraction across servers (latency-model input). */
    double servedFraction() const;

    /** Mean utilization currently applied across servers. */
    double utilization() const;

  private:
    std::string name_;
    Kilowatts subscribed_;
    std::vector<Server> servers_;
    std::shared_ptr<const trace::UtilizationTrace> trace_;
};

/**
 * The common factor whose clamped application to every tenant's trace
 * (UtilizationTrace::scale clamps to [0, 1], the same clamp the solver
 * models) makes the tenants' combined *mean power* hit
 * target_mean_power. This is how the paper sets "75% average
 * utilization" of the 8 kW capacity.
 */
double computeMeanPowerScaleFactor(const std::vector<Tenant *> &tenants,
                                   Kilowatts target_mean_power);

} // namespace ecolo::power

#endif // ECOLO_POWER_TENANT_HH
