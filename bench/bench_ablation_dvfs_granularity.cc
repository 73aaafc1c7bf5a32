/**
 * @file
 * Extension study: DVFS granularity (the paper's future-work note).
 *
 * §V-B observes that tail latency converges near 2 ms despite the
 * 5 ms QoS target because the discrete DVFS steps quantize the
 * achievable processing speeds, and suggests finer-grained
 * mechanisms (RAPL) would close the gap.  This bench re-runs the
 * power-managed 2-tier application with 8 steps (classic DVFS), 15
 * and 57 steps (RAPL-like), comparing the converged tail, violation
 * rate, and energy savings.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "power_run.h"

using namespace uqsim;

namespace {

struct GranularityResult {
    double convergedTailMs = 0.0;
    double violationRate = 0.0;
    double energySavings = 0.0;
    double meanFreqGhz = 0.0;
};

GranularityResult
runWithSteps(int dvfs_steps)
{
    models::PowerTwoTierParams params;
    params.run.seed = 7;
    params.run.warmupSeconds = 1.0;
    params.run.durationSeconds = 90.0;
    params.dvfsSteps = dvfs_steps;
    power::PowerManagerConfig config;
    config.intervalSeconds = 0.5;
    config.qosTargetSeconds = 5e-3;
    // Keep the *frequency delta* of a violation reaction comparable
    // across granularities: finer tables get proportionally more
    // steps per decision, or the controller cannot climb out of a
    // ramp (a real step-size/control-law interaction).
    config.speedUpSteps = std::max(1, dvfs_steps / 8);
    config.slowDownSteps = std::max(1, dvfs_steps / 16);
    const bench::PowerManagedRun run =
        bench::runPowerManaged(params, config);
    const power::PowerManager& manager = *run.manager;

    GranularityResult result;
    // "Converged" tail: mean of the per-window p99 over the second
    // half of the run.
    result.convergedTailMs =
        manager.tailSeries().meanOver(45.0, 90.0);
    result.violationRate = manager.violationRate();
    result.energySavings = run.energySavings();
    result.meanFreqGhz =
        (manager.frequencySeries("nginx").meanOver(45.0, 90.0) +
         manager.frequencySeries("memcached").meanOver(45.0, 90.0)) /
        2.0;
    return result;
}

}  // namespace

int
main()
{
    bench::banner("Ablation (DVFS granularity)",
                  "Algorithm 1 with coarse DVFS vs RAPL-like "
                  "fine-grained steps, 5 ms p99 target");
    std::printf("%8s %16s %14s %12s %14s\n", "steps",
                "converged_p99", "violations", "mean_GHz",
                "energy_saved");
    for (int steps : {8, 15, 57}) {
        const GranularityResult result = runWithSteps(steps);
        std::printf("%8d %13.2f ms %13.1f%% %12.2f %13.0f%%\n", steps,
                    result.convergedTailMs,
                    result.violationRate * 100.0, result.meanFreqGhz,
                    result.energySavings * 100.0);
    }
    bench::paperNote(
        "the paper observes the tail converging well below the 5 ms "
        "target because discrete DVFS steps quantize the achievable "
        "speeds, and expects finer-grained mechanisms (RAPL) to help. "
        "Measured: at matched per-decision frequency deltas, finer "
        "steps cut the violation rate substantially (the controller "
        "lands on a sustainable speed instead of oscillating across "
        "a coarse boundary) but Algorithm 1's conservative slack rule "
        "then parks at a higher mean frequency, trading some of the "
        "energy savings for that reliability — granularity moves the "
        "violations/energy frontier rather than improving both.");
    return 0;
}
