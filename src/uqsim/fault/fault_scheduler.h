#ifndef UQSIM_FAULT_FAULT_SCHEDULER_H_
#define UQSIM_FAULT_FAULT_SCHEDULER_H_

/**
 * @file
 * Executes a FaultPlan against a deployed simulation.
 *
 * The scheduler turns fault specs into simulator events at start():
 * scripted crashes become (crash, recover) event pairs, stochastic
 * crashes become a chain of exponential up/down intervals drawn from
 * a per-instance seed-split stream ("fault/<instance>"), slow-node
 * windows toggle the instance's processing-time factor, and network
 * windows toggle cluster-wide degradation in hw::Network.
 *
 * Topology kinds (link_down, link_degraded, switch_down, partition)
 * drive per-link and partition state on the cluster's FlowModel;
 * planning one against a ConstantModel run is a configuration error
 * reported at start().  Stochastic link timelines draw from
 * "fault/link/<name>" streams; partition groups name machines, which
 * are resolved (and validated) against the cluster at start().
 *
 * Determinism: each stochastic timeline draws only from its own
 * stream, so adding a fault never perturbs service-time or client
 * arrival sampling, and an empty plan schedules nothing at all.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "uqsim/core/app/deployment.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/network.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace fault {

/** Drives fault injection for one run. */
class FaultScheduler {
  public:
    FaultScheduler(Simulator& sim, Deployment& deployment,
                   hw::Network& network, const FaultPlan& plan);

    FaultScheduler(const FaultScheduler&) = delete;
    FaultScheduler& operator=(const FaultScheduler&) = delete;

    /**
     * Schedules all fault events.  @p horizonSeconds bounds
     * stochastic crash timelines (no events are generated past it).
     */
    void start(double horizonSeconds);

    std::uint64_t crashesInjected() const { return crashes_; }

    /**
     * Visits the FAULTS snapshot section: injected-crash counter,
     * horizon, and every stochastic timeline stream's RNG position
     * (streams are created in plan order at start(), so the order is
     * deterministic).
     */
    void visitState(snapshot::StateVisitor& visitor) const;

  private:
    /** Instances matching a spec's instance/service target. */
    std::vector<MicroserviceInstance*>
    resolveTargets(const FaultSpec& spec) const;

    /**
     * Onset shift for one fault window, decided by the simulator's
     * attached Chooser (choice.h).  Zero with no chooser, with the
     * FaultJitter kind disabled, or when the chooser answers 0 — so
     * default runs and all-default schedules are unshifted.  The
     * shift moves the *whole* window (onset and close together),
     * preserving its duration — a shifted window can therefore never
     * close before it opens.  @p windowEndSeconds is the window's
     * last scripted event: the shift is clamped so that event never
     * lands past the start() horizon (a window already at or past
     * the horizon is not shifted at all).
     */
    SimTime windowShift(const char* label, double windowEndSeconds);

    /** The cluster's FlowModel; throws std::runtime_error naming
     *  @p kind when the run uses a model without link state. */
    hw::FlowModel& requireFlowModel(const char* kind) const;
    /** Link id for @p name; unknown names throw with a did-you-mean
     *  suggestion over the fabric's link names. */
    int resolveLinkId(hw::FlowModel& flow,
                      const std::string& name) const;

    void scheduleScriptedCrash(MicroserviceInstance& target,
                               const FaultSpec& spec, SimTime shift);
    void scheduleStochasticCrash(MicroserviceInstance& target,
                                 const FaultSpec& spec, SimTime shift);
    void scheduleNextStochasticFailure(MicroserviceInstance& target,
                                       const FaultSpec& spec,
                                       random::Rng& rng,
                                       SimTime shift);
    void scheduleSlowWindow(MicroserviceInstance& target,
                            const FaultSpec& spec, SimTime shift);
    void scheduleNetworkWindow(const FaultSpec& spec, SimTime shift);
    void scheduleLinkWindow(const FaultSpec& spec, SimTime shift);
    void scheduleStochasticLink(hw::FlowModel& flow, int linkId,
                                const FaultSpec& spec, SimTime shift);
    void scheduleNextLinkFailure(hw::FlowModel& flow, int linkId,
                                 const FaultSpec& spec,
                                 random::Rng& rng, SimTime shift);
    void scheduleLinkDegradedWindow(const FaultSpec& spec,
                                    SimTime shift);
    void scheduleSwitchWindow(const FaultSpec& spec, SimTime shift);
    void schedulePartitionWindow(const FaultSpec& spec, SimTime shift);

    void crash(MicroserviceInstance& target);

    Simulator& sim_;
    Deployment& deployment_;
    hw::Network& network_;
    FaultPlan plan_;
    SimTime horizon_ = 0;
    /** One stream per stochastic timeline; stable addresses for the
     *  event chain. */
    std::vector<std::unique_ptr<random::RngStream>> streams_;
    std::uint64_t crashes_ = 0;
};

}  // namespace fault
}  // namespace uqsim

#endif  // UQSIM_FAULT_FAULT_SCHEDULER_H_
