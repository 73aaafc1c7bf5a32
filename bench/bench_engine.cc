/**
 * @file
 * Engine throughput benchmark: the perf trajectory for the
 * discrete-event hot path.
 *
 * Three workloads, each repeated --reps times (median reported):
 *
 *  - churn          raw Simulator schedule/fire/cancel churn: a ring
 *                   of self-rescheduling events plus timeout events
 *                   that are almost always cancelled (the
 *                   cancellation-heavy pattern client timeouts
 *                   produce).
 *  - replay_fanout  the Fig. 14 tail-at-scale fan-out replay (100
 *                   leaf servers, 1% slow), end to end through
 *                   dispatcher, network, IRQ, and instances.
 *  - replay_two_tier the Fig. 5 NGINX-memcached system at 20 kQPS.
 *
 * Each replay also prints its trace digest so engine changes can be
 * checked for bit-exact determinism against a previous build.
 * Results are written as JSON (default BENCH_engine.json) so CI can
 * compare events/sec against the committed baseline.
 */

#include <cstdint>
#include <functional>

#include "section_runner.h"
#include "uqsim/models/applications.h"

namespace {

using uqsim::bench::SectionResult;

/** Raw engine churn: self-rescheduling ring + mostly-cancelled
 *  timeouts, the two dominant event patterns in a simulation. */
SectionResult
runChurn(int rounds)
{
    uqsim::Simulator sim(99);
    constexpr int kRing = 256;
    constexpr uqsim::SimTime kStep = 1000;
    std::uint64_t fires = 0;
    std::uint64_t cancels = 0;
    uqsim::EventHandle timeout;
    const std::uint64_t max_events =
        static_cast<std::uint64_t>(rounds) * 1000000ULL;
    std::function<void()> tick;
    tick = [&sim, &fires, &timeout, &cancels, &tick]() {
        ++fires;
        // Arm a far-future timeout and immediately cancel the
        // previous one: the client-timeout pattern.
        if (timeout.cancel())
            ++cancels;
        timeout =
            sim.scheduleAfter(kStep * 1000, []() {}, "churn/timeout");
        sim.scheduleAfter(kStep, tick, "churn/tick");
    };
    for (int i = 0; i < kRing; ++i) {
        sim.scheduleAt(static_cast<uqsim::SimTime>(i), tick,
                       "churn/seed");
    }
    return uqsim::bench::timeSimulator(
        sim, [&]() { sim.run(uqsim::kSimTimeMax, max_events); });
}

uqsim::ConfigBundle
fanoutBundle()
{
    uqsim::models::TailAtScaleParams params;
    params.run.qps = 120.0;
    params.run.seed = 1714;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 64;
    params.clusterSize = 100;
    params.slowFraction = 0.01;
    return uqsim::models::tailAtScaleBundle(params);
}

uqsim::ConfigBundle
twoTierBundle()
{
    uqsim::models::TwoTierParams params;
    params.run.qps = 20000.0;
    params.run.seed = 42;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    return uqsim::models::twoTierBundle(params);
}

}  // namespace

int
main(int argc, char** argv)
{
    const uqsim::bench::BenchOptions options =
        uqsim::bench::parseBenchArgs(argc, argv, "BENCH_engine.json");
    const int churn_rounds = options.quick ? 1 : 4;
    return uqsim::bench::runSections(
        options,
        {
            {"churn", [churn_rounds]() { return runChurn(churn_rounds); }},
            {"replay_fanout",
             []() { return uqsim::bench::timeReplay(fanoutBundle()); }},
            {"replay_two_tier",
             []() { return uqsim::bench::timeReplay(twoTierBundle()); }},
        });
}
