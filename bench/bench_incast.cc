/**
 * @file
 * Flow-model benchmark: the perf trajectory for bandwidth-sharing
 * network simulation.
 *
 * Two workloads, each repeated --reps times (median reported):
 *
 *  - flow_churn     raw FlowModel stress: repeating incast waves on
 *                   an 8-sender star fabric, every start and finish
 *                   triggering an incremental max-min re-share.
 *                   Also asserts each wave's per-flow throughput is
 *                   within 5% of the analytical share cap/8.
 *  - replay_incast  the fan-out case study on a generated 4-ary,
 *                   4x-oversubscribed fat tree (64 hosts, flow
 *                   model), end to end through dispatcher, network,
 *                   IRQ, and instances.
 *
 * Each section prints its trace digest so FlowModel changes can be
 * checked for bit-exact determinism.  Results are written as JSON
 * (default BENCH_incast.json, schema uqsim-bench-engine-v1) so CI
 * can compare events/sec against the committed baseline with
 * scripts/check_bench.py.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "section_runner.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/models/applications.h"

namespace {

using uqsim::bench::SectionResult;

/**
 * Raw flow churn: @p waves incast waves of 8 simultaneous senders
 * into one receiver NIC.  Every flow start/finish re-shares the
 * allocation, so this isolates the FlowModel hot path from the rest
 * of the stack.  Verifies the max-min acceptance bound as it runs.
 */
SectionResult
runFlowChurn(int waves)
{
    constexpr int kSenders = 8;
    constexpr double kDownCap = 1.25e8;  // 1 Gb/s receiver NIC
    constexpr double kUpCap = 1.25e9;    // 10 Gb/s sender NICs
    constexpr std::uint32_t kBytes = 250000;

    uqsim::Simulator sim(2024);
    auto model = uqsim::hw::FlowModel::make();
    uqsim::hw::FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kDownCap, 1e-6});
    for (int i = 0; i < kSenders; ++i) {
        const int up = flow_model->addLink(
            {"up" + std::to_string(i), kUpCap, 1e-6});
        flow_model->setRoute(1 + i, 0, {up, down});
    }
    uqsim::hw::Cluster cluster(sim, std::move(model));
    uqsim::hw::MachineConfig proto;
    proto.cores = 2;
    proto.irqCores = 0;
    proto.name = "recv";
    cluster.addMachine(proto);
    std::vector<uqsim::hw::Machine*> senders;
    for (int i = 0; i < kSenders; ++i) {
        proto.name = "send" + std::to_string(i);
        senders.push_back(&cluster.addMachine(proto));
    }
    uqsim::hw::Machine& receiver = cluster.machine("recv");

    const double share = kDownCap / kSenders;
    int bad_flows = 0;
    std::function<void(int)> startWave;
    startWave = [&](int wave) {
        if (wave >= waves)
            return;
        auto pending = std::make_shared<int>(kSenders);
        const uqsim::SimTime began = sim.now();
        for (int i = 0; i < kSenders; ++i) {
            cluster.network().transfer(
                senders[i], &receiver, kBytes,
                [&, pending, began, wave](uqsim::hw::Outcome) {
                    const double elapsed =
                        uqsim::simTimeToSeconds(sim.now() - began) -
                        2e-6;
                    const double throughput = kBytes / elapsed;
                    if (std::fabs(throughput - share) > share * 0.05)
                        ++bad_flows;
                    if (--*pending == 0)
                        startWave(wave + 1);
                });
        }
    };
    const SectionResult result = uqsim::bench::timeSimulator(sim, [&]() {
        sim.scheduleAt(0, [&]() { startWave(0); }, "incast/wave");
        sim.run();
    });
    if (bad_flows != 0) {
        std::fprintf(stderr,
                     "FATAL: %d flows outside 5%% of the analytical "
                     "max-min share\n",
                     bad_flows);
        std::exit(1);
    }
    return result;
}

uqsim::ConfigBundle
incastBundle()
{
    uqsim::models::FanoutFatTreeParams params;
    params.run.qps = 600.0;
    params.run.seed = 907;
    params.run.warmupSeconds = 0.25;
    params.run.durationSeconds = 2.0;
    params.run.clientConnections = 128;
    params.fanout = 16;
    params.responseBytes = 64 * 1024;
    return uqsim::models::fanoutFatTreeBundle(params);
}

}  // namespace

int
main(int argc, char** argv)
{
    const uqsim::bench::BenchOptions options =
        uqsim::bench::parseBenchArgs(argc, argv, "BENCH_incast.json");
    const int waves = options.quick ? 5000 : 50000;
    return uqsim::bench::runSections(
        options,
        {
            {"flow_churn", [waves]() { return runFlowChurn(waves); }},
            {"replay_incast",
             []() { return uqsim::bench::timeReplay(incastBundle()); }},
        });
}
