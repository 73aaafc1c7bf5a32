#ifndef UQSIM_BENCH_BENCH_UTIL_H_
#define UQSIM_BENCH_BENCH_UTIL_H_

/**
 * @file
 * Shared helpers for the figure-reproduction benches: banner and
 * reference-anchor printing so every bench reports simulated series
 * next to what the paper states.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "uqsim/core/sim/sweep.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace bench {

/**
 * Worker threads for figure sweeps: $UQSIM_BENCH_JOBS when set,
 * otherwise all hardware threads (runner convention: 0).
 */
inline int
benchJobs()
{
    if (const char* env = std::getenv("UQSIM_BENCH_JOBS"))
        return std::atoi(env);
    return 0;
}

/**
 * Runs one load sweep on the parallel SweepRunner (benchJobs()
 * workers) and collapses it to the SweepCurve the print helpers
 * consume.  The factory receives the per-replication seed; with the
 * default single replication each point is bitwise identical to one
 * run of the factory at @p base_seed, whatever the thread count.
 */
inline SweepCurve
parallelSweep(const std::string& label, const std::vector<double>& loads,
              const runner::ReplicatedFactory& factory,
              int replications = 1, std::uint64_t base_seed = 1)
{
    runner::RunnerOptions options;
    options.jobs = benchJobs();
    options.replications = replications;
    options.baseSeed = base_seed;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(label, loads, factory);
    return sweep_runner.run().front().toSweepCurve();
}

inline void
banner(const std::string& figure, const std::string& description)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", figure.c_str(), description.c_str());
    std::printf("==============================================================\n");
}

inline void
paperNote(const std::string& note)
{
    std::printf("paper: %s\n", note.c_str());
}

inline void
printCurves(const std::vector<SweepCurve>& curves)
{
    std::fputs(formatSweepTable(curves).c_str(), stdout);
    for (const SweepCurve& curve : curves) {
        std::printf(
            "%s: saturation ~%.0f qps, p99 before saturation %.3f ms\n",
            curve.label.c_str(), curve.saturationQps(),
            curve.tailBeforeSaturationMs());
    }
}

}  // namespace bench
}  // namespace uqsim

#endif  // UQSIM_BENCH_BENCH_UTIL_H_
