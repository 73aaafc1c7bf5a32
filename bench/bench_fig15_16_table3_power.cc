/**
 * @file
 * Reproduces Fig. 15 (diurnal load), Fig. 16 (tail latency and
 * per-tier frequency under the QoS-aware power manager), and
 * Table III (QoS violation rates vs decision interval) — paper §V-B.
 *
 * The 2-tier NGINX-memcached application runs under a diurnal load
 * while Algorithm 1 adjusts each tier's DVFS setting every decision
 * interval, targeting a 5 ms end-to-end p99.  The "real" rows use
 * the real-proxy noise mode (timeouts/OS jitter the simulator
 * otherwise omits), which the paper reports as slightly noisier and
 * with slightly higher violation rates.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "power_run.h"
#include "uqsim/workload/load_pattern.h"

using namespace uqsim;

namespace {

struct PowerRunResult {
    double violationRate = 0.0;
    double meanFrontGhz = 0.0;
    double meanBackGhz = 0.0;
    double energySavings = 0.0;
    stats::TimeSeries tail{"tail"};
    stats::TimeSeries frontFreq{"front"};
    stats::TimeSeries backFreq{"back"};
};

PowerRunResult
runPowerManaged(double interval_s, bool real_proxy, double duration_s)
{
    models::PowerTwoTierParams params;
    params.run.seed = 7;
    params.run.warmupSeconds = 1.0;
    params.run.durationSeconds = duration_s;
    params.run.realProxyNoise = real_proxy;
    params.baseQps = 9000.0;
    params.amplitudeQps = 7000.0;
    params.periodSeconds = 60.0;
    power::PowerManagerConfig config;
    config.intervalSeconds = interval_s;
    config.qosTargetSeconds = 5e-3;
    const bench::PowerManagedRun run =
        bench::runPowerManaged(params, config);
    const power::PowerManager& manager = *run.manager;

    PowerRunResult result;
    result.violationRate = manager.violationRate();
    result.meanFrontGhz =
        manager.frequencySeries("nginx").meanOver(0.0, duration_s);
    result.meanBackGhz =
        manager.frequencySeries("memcached")
            .meanOver(0.0, duration_s);
    result.energySavings = run.energySavings();
    result.tail = manager.tailSeries();
    result.frontFreq = manager.frequencySeries("nginx");
    result.backFreq = manager.frequencySeries("memcached");
    return result;
}

void
printSampledSeries(const stats::TimeSeries& series, double step,
                   double duration, const char* unit)
{
    std::printf("  t(s):");
    for (double t = step; t <= duration; t += step)
        std::printf(" %7.0f", t);
    std::printf("\n  %-4s:", unit);
    for (double t = step; t <= duration; t += step)
        std::printf(" %7.2f", series.valueAt(t));
    std::printf("\n");
}

}  // namespace

int
main()
{
    const double duration = 360.0;

    // ---------------- Fig. 15: diurnal load ----------------
    bench::banner("Fig. 15", "diurnal input load (offered QPS vs time)");
    workload::DiurnalLoad diurnal(9000.0, 7000.0, 60.0);
    // Two 60 s periods are enough to see the shape.
    std::printf("  t(s):");
    for (double t = 0.0; t <= 120.0; t += 10.0)
        std::printf(" %7.0f", t);
    std::printf("\n  kqps:");
    for (double t = 0.0; t <= 120.0; t += 10.0)
        std::printf(" %7.2f", diurnal.rateAt(t) / 1000.0);
    std::printf("\n\n");

    // -------------- Fig. 16 + Table III -------------------
    bench::banner("Fig. 16 / Table III",
                  "QoS-aware power management (Algorithm 1), "
                  "5 ms p99 target, diurnal load");
    const std::vector<double> intervals = {0.1, 0.5, 1.0};
    std::vector<PowerRunResult> simulated, real;
    for (double interval : intervals) {
        simulated.push_back(
            runPowerManaged(interval, false, duration));
        real.push_back(runPowerManaged(interval, true, duration));
    }

    std::printf("\nFig. 16 series (decision interval 0.5 s, simulated "
                "system), sampled every 20 s:\n");
    std::printf(" end-to-end p99 (ms):\n");
    printSampledSeries(simulated[1].tail, 20.0, duration, "ms");
    std::printf(" nginx frequency (GHz):\n");
    printSampledSeries(simulated[1].frontFreq, 20.0, duration, "GHz");
    std::printf(" memcached frequency (GHz):\n");
    printSampledSeries(simulated[1].backFreq, 20.0, duration, "GHz");

    std::printf("\nTable III: QoS violation rates\n");
    std::printf("%-18s", "Decision interval");
    for (double interval : intervals)
        std::printf(" %7.1fs", interval);
    std::printf("\n%-18s", "Simulated system");
    for (std::size_t i = 0; i < intervals.size(); ++i)
        std::printf(" %7.1f%%", simulated[i].violationRate * 100.0);
    std::printf("\n%-18s", "Real(-proxy)");
    for (std::size_t i = 0; i < intervals.size(); ++i)
        std::printf(" %7.1f%%", real[i].violationRate * 100.0);
    std::printf("\n");

    std::printf("\nEnergy (simulated, cubic DVFS power model):\n");
    for (std::size_t i = 0; i < intervals.size(); ++i) {
        std::printf("  interval %.1fs: mean freq nginx %.2f GHz, "
                    "memcached %.2f GHz, energy saved %.0f%%\n",
                    intervals[i], simulated[i].meanFrontGhz,
                    simulated[i].meanBackGhz,
                    simulated[i].energySavings * 100.0);
    }

    bench::paperNote(
        "Table III reports 0.6/2.2/5.0% violations (simulated) and "
        "1.5/2.7/6.0% (real) for 0.1/0.5/1.0 s intervals: shorter "
        "intervals react faster and violate less; the real system is "
        "slightly noisier.  Tail latency converges near 2 ms despite "
        "the 5 ms target because discrete DVFS steps quantize the "
        "achievable latency.");
    return 0;
}
