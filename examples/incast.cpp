/**
 * @file
 * Example: incast on a generated fat tree, under both network models.
 *
 * Runs the request fan-out case study twice: once with the classic
 * constant-latency network model (every message pays a fixed wire
 * latency, bandwidth is infinite) and once on a generated k-ary
 * fat-tree cluster with the flow model (machines.json schema v2),
 * where each leaf's large response contends for the proxy host's
 * edge down-link.  With a big response payload the constant model
 * cannot see the incast bottleneck; the flow model's tail latency
 * shows it directly.
 *
 * Usage: incast [--model constant|flow|both] [--fanout N]
 *               [--arity K] [--oversub R] [--qps Q]
 *               [--response-kb N]
 *
 * Defaults: both models, fanout 16, 4-ary fat tree with 4x
 * oversubscription (64 hosts), 600 QPS, 64 kB responses.
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/models/applications.h"

using namespace uqsim;

namespace {

void
runOne(const ConfigBundle& bundle, const char* title)
{
    auto simulation = Simulation::fromBundle(bundle);
    const RunReport report = simulation->run();
    std::printf("---- %s\n", title);
    std::cout << report.toString();
    std::printf("  trace digest  %016llx\n\n",
                static_cast<unsigned long long>(
                    simulation->sim().traceDigest()));
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string model = "both";
    int fanout = 16;
    int arity = 4;
    double oversub = 4.0;
    double qps = 600.0;
    int response_kb = 64;
    for (int i = 1; i < argc; ++i) {
        const auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(argv[i], "--model") == 0) {
            model = next("--model");
        } else if (std::strcmp(argv[i], "--fanout") == 0) {
            fanout = std::atoi(next("--fanout"));
        } else if (std::strcmp(argv[i], "--arity") == 0) {
            arity = std::atoi(next("--arity"));
        } else if (std::strcmp(argv[i], "--oversub") == 0) {
            oversub = std::atof(next("--oversub"));
        } else if (std::strcmp(argv[i], "--qps") == 0) {
            qps = std::atof(next("--qps"));
        } else if (std::strcmp(argv[i], "--response-kb") == 0) {
            response_kb = std::atoi(next("--response-kb"));
        } else {
            std::fprintf(
                stderr,
                "usage: %s [--model constant|flow|both] [--fanout N] "
                "[--arity K] [--oversub R] [--qps Q] "
                "[--response-kb N]\n",
                argv[0]);
            return 2;
        }
    }
    if (model != "constant" && model != "flow" && model != "both") {
        std::fprintf(stderr, "unknown --model %s\n", model.c_str());
        return 2;
    }

    models::RunParams run;
    run.qps = qps;
    run.seed = 7;
    run.warmupSeconds = 0.5;
    run.durationSeconds = 2.0;
    run.clientConnections = 128;

    if (model == "constant" || model == "both") {
        models::FanoutParams params;
        params.run = run;
        params.fanout = fanout;
        params.responseBytes = response_kb * 1024;
        runOne(models::fanoutBundle(params),
               "constant model (infinite bandwidth)");
    }
    if (model == "flow" || model == "both") {
        models::FanoutFatTreeParams params;
        params.run = run;
        params.fanout = fanout;
        params.responseBytes = response_kb * 1024;
        params.arity = arity;
        params.oversubscription = oversub;
        const int half = arity / 2;
        const int hosts_per_edge =
            std::max(1, static_cast<int>(half * oversub + 0.5));
        std::printf("generated fat tree: k=%d, oversub %.1f -> %d "
                    "hosts, flow network model\n",
                    arity, oversub, arity * half * hosts_per_edge);
        runOne(models::fanoutFatTreeBundle(params),
               "flow model (fat-tree fabric, incast visible)");
    }
    return 0;
}
