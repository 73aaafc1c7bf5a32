/**
 * @file
 * Domain example: the paper's social network application (Fig. 11).
 *
 * A client retrieves a user's post through a Thrift front-end that
 * queries the User and Post services in parallel (fan-out +
 * synchronization), optionally fetches embedded media, and composes
 * the response.  Each logic tier is backed by memcached; posts fall
 * through to MongoDB on a cache miss.
 *
 * The example sweeps load, prints the load-latency curve, and then
 * breaks one operating point down per tier — the kind of per-tier
 * attribution a microservices simulator exists to provide.
 */

#include <cstdio>

#include "uqsim/core/sim/sweep.h"
#include "uqsim/models/applications.h"
#include "uqsim/runner/sweep_runner.h"

using namespace uqsim;

int
main()
{
    models::SocialNetworkParams base;
    base.run.warmupSeconds = 0.5;
    base.run.durationSeconds = 2.5;
    base.mediaProbability = 0.25;
    base.postMissProbability = 0.2;

    // One replication per load at the base seed; RunnerOptions::jobs
    // spreads the points over threads without changing the curve.
    runner::RunnerOptions options;
    options.baseSeed = base.run.seed;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep(
        "social", linspace(1000.0, 9000.0, 5),
        [&base](double qps, std::uint64_t seed) {
            models::SocialNetworkParams params = base;
            params.run.qps = qps;
            params.run.seed = seed;
            return Simulation::fromBundle(
                models::socialNetworkBundle(params));
        });
    const SweepCurve curve = sweep_runner.run().front().toSweepCurve();
    std::fputs(formatSweepTable({curve}).c_str(), stdout);
    std::printf("saturation ~%.0f qps\n\n", curve.saturationQps());

    // Detailed look at a healthy operating point.
    models::SocialNetworkParams params = base;
    params.run.qps = 4000.0;
    auto simulation =
        Simulation::fromBundle(models::socialNetworkBundle(params));
    const RunReport report = simulation->run();
    std::printf("at %.0f qps: end-to-end mean %.3f ms, p99 %.3f ms\n",
                report.offeredQps, report.endToEnd.meanMs,
                report.endToEnd.p99Ms);
    std::printf("%-16s %10s %10s %10s\n", "tier", "visits",
                "mean_ms", "p99_ms");
    for (const auto& [tier, stats] : report.tiers) {
        std::printf("%-16s %10llu %10.3f %10.3f\n", tier.c_str(),
                    static_cast<unsigned long long>(stats.count),
                    stats.meanMs, stats.p99Ms);
    }
    std::printf("\ninstance utilization:\n");
    for (auto* instance : simulation->deployment().allInstances()) {
        std::printf("  %-16s cpu %.1f%%\n", instance->name().c_str(),
                    instance->cpuUtilization() * 100.0);
    }
    return 0;
}
