#ifndef UQSIM_BENCH_POWER_RUN_H_
#define UQSIM_BENCH_POWER_RUN_H_

/**
 * @file
 * One power-managed run of the 2-tier NGINX-memcached application
 * (paper §V-B), shared by the Fig. 16 / Table III bench and the DVFS
 * granularity ablation.
 */

#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/models/applications.h"
#include "uqsim/power/energy_model.h"
#include "uqsim/power/power_manager.h"

namespace uqsim {
namespace bench {

/** A finished power-managed run, kept alive for its readers. */
struct PowerManagedRun {
    std::unique_ptr<Simulation> simulation;
    std::unique_ptr<power::PowerManager> manager;
    std::unique_ptr<power::EnergyTracker> frontEnergy;
    std::unique_ptr<power::EnergyTracker> backEnergy;

    /** Mean energy saved by the two tiers against nominal frequency. */
    double
    energySavings() const
    {
        return (frontEnergy->savingsFraction() +
                backEnergy->savingsFraction()) /
               2.0;
    }
};

/**
 * Runs @p params' application with Algorithm 1 (@p config) over the
 * nginx and memcached tiers, fed every completion and tier latency,
 * and one EnergyTracker per tier (2 cores each).
 */
inline PowerManagedRun
runPowerManaged(const models::PowerTwoTierParams& params,
                const power::PowerManagerConfig& config)
{
    PowerManagedRun run;
    run.simulation =
        Simulation::fromBundle(models::powerTwoTierBundle(params));
    Simulation& simulation = *run.simulation;
    hw::DvfsDomain* front =
        simulation.deployment().instance("nginx", 0).dvfs();
    hw::DvfsDomain* back =
        simulation.deployment().instance("memcached", 0).dvfs();
    run.manager = std::make_unique<power::PowerManager>(
        simulation.sim(), config,
        std::vector<power::TierControl>{{"nginx", {front}},
                                        {"memcached", {back}}});
    power::PowerManager* manager = run.manager.get();
    simulation.setCompletionListener(
        [manager](const Job&, double seconds) {
            manager->noteEndToEnd(seconds);
        });
    simulation.setTierListener(
        [manager](const std::string& service, double seconds) {
            manager->noteTierLatency(service, seconds);
        });
    run.frontEnergy =
        std::make_unique<power::EnergyTracker>(simulation.sim(), *front, 2);
    run.backEnergy =
        std::make_unique<power::EnergyTracker>(simulation.sim(), *back, 2);
    manager->start();
    simulation.run();
    return run;
}

}  // namespace bench
}  // namespace uqsim

#endif  // UQSIM_BENCH_POWER_RUN_H_
