/**
 * @file
 * Acceptance tests for the fault-injection and resilience-policy
 * subsystem: crash semantics, retry/hedging tail cutting, bounded
 * queues with load shedding, determinism under faults, and HTTP/1.1
 * connection blocking across an injected crash.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/service/instance.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/fault/resilience.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/stage_presets.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

using json::JsonArray;
using json::JsonValue;

/** A one-stage "simple" service model. */
JsonValue
simpleService(const std::string& name, JsonValue dist_spec)
{
    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["service_name"] = name;
    doc.asObject()["execution_model"] = "simple";
    JsonArray stages;
    stages.push_back(models::processingStage(0, "proc",
                                             std::move(dist_spec)));
    doc.asObject()["stages"] = JsonValue(std::move(stages));
    JsonArray paths;
    paths.push_back(models::pathJson(0, "serve", {0}));
    doc.asObject()["paths"] = JsonValue(std::move(paths));
    return doc;
}

/** machines.json with one front machine and @p leaves leaf machines,
 *  IRQ modeling off (pure queueing). */
JsonValue
machinesDoc(int leaves)
{
    std::string text =
        R"({"wire_latency_us": 5.0, "loopback_latency_us": 1.0,)"
        R"( "machines": [{"name": "front", "cores": 4, "irq_cores": 0})";
    for (int i = 0; i < leaves; ++i) {
        text += R"(, {"name": "leaf)" + std::to_string(i) +
                R"(", "cores": 2, "irq_cores": 0})";
    }
    text += "]}";
    return json::parse(text);
}

JsonValue
constantClient(const std::string& front, double qps, int connections,
               const std::string& extra = "")
{
    return json::parse(
        R"({"front_service": ")" + front + R"(", "connections": )" +
        std::to_string(connections) +
        R"(, "arrival": "poisson", "load": {"type": "constant",)"
        R"( "qps": )" + std::to_string(qps) +
        R"(}, "request_bytes": {"type": "deterministic",)"
        R"( "value": 128.0})" + extra + "}");
}

SimulationOptions
runOptions(std::uint64_t seed, double warmup, double duration)
{
    SimulationOptions options;
    options.seed = seed;
    options.warmupSeconds = warmup;
    options.durationSeconds = duration;
    return options;
}

// ------------------------------------------------- crash semantics (a)

/** Single service, single instance, scripted mid-run crash. */
ConfigBundle
crashBundle(std::uint64_t seed)
{
    ConfigBundle bundle;
    bundle.options = runOptions(seed, 0.1, 1.0);
    bundle.machines = machinesDoc(0);
    bundle.services.push_back(
        simpleService("svc", models::expUs(1000.0)));
    bundle.graph = json::parse(
        R"({"services": [{"service": "svc", "instances":)"
        R"( [{"machine": "front", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes": [{"node_id": 0,)"
        R"( "service": "svc", "path": "serve", "children": []}]}]})");
    bundle.client = constantClient("svc", 3000.0, 64);
    bundle.faults = json::parse(
        R"({"faults": [{"type": "crash", "instance": "svc.0",)"
        R"( "at_s": 0.4, "recover_s": 0.6}]})");
    return bundle;
}

TEST(FaultInjection, CrashFailsExactlyInflightJobsAndRecovers)
{
    auto simulation = Simulation::fromBundle(crashBundle(7));

    std::uint64_t completions_after_recovery = 0;
    simulation->setCompletionListener(
        [&](const Job& job, double) {
            if (simTimeToSeconds(job.created) >= 0.65)
                ++completions_after_recovery;
        });
    const RunReport report = simulation->run();

    Dispatcher& dispatcher = simulation->dispatcher();
    MicroserviceInstance& instance =
        simulation->deployment().instance("svc", 0);

    // The overloaded tier holds a queue at the crash instant, so the
    // crash must have killed in-flight work, and arrivals during the
    // 200 ms outage must have been refused.
    EXPECT_FALSE(instance.isDown());
    EXPECT_GT(instance.killedJobs(), 0u);
    EXPECT_GT(instance.refusedJobs(), 0u);

    // Conservation: every failed request is accounted for by exactly
    // one kill or refusal — nothing else fails in this scenario.
    EXPECT_EQ(dispatcher.requestsFailed(),
              instance.killedJobs() + instance.refusedJobs());
    EXPECT_EQ(dispatcher.requestsStarted(),
              dispatcher.requestsCompleted() +
                  dispatcher.requestsFailed() +
                  dispatcher.requestsShed() +
                  dispatcher.activeRequests());

    // Recovery restores throughput: requests issued well after the
    // recovery point complete again.
    EXPECT_GT(completions_after_recovery, 100u);
    EXPECT_EQ(report.crashes, 1u);
    EXPECT_GT(report.failed, 0u);
    EXPECT_LT(report.availability, 1.0);
    EXPECT_GT(report.availability, 0.5);
}

// ------------------------------------- retries and hedging cut p99 (b)

/**
 * Front tier fanning to a replicated leaf tier where one instance is
 * degraded 20x for the whole run.  @p policy is the front->leaf
 * edge policy JSON ("" = none).
 */
ConfigBundle
slowLeafBundle(std::uint64_t seed, const std::string& policy)
{
    ConfigBundle bundle;
    bundle.options = runOptions(seed, 0.25, 1.5);
    bundle.machines = machinesDoc(3);
    bundle.services.push_back(
        simpleService("front", models::detUs(5.0)));
    bundle.services.push_back(
        simpleService("leaf", models::expUs(100.0)));
    std::string graph =
        R"({"services": [{"service": "front", "connection_pools":)"
        R"( {"leaf": 64},)";
    if (!policy.empty())
        graph += R"( "policies": {"leaf": )" + policy + "},";
    graph +=
        R"( "instances": [{"machine": "front", "threads": 4}]},)"
        R"( {"service": "leaf", "lb_policy": "round_robin",)"
        R"( "instances": [{"machine": "leaf0", "threads": 2},)"
        R"( {"machine": "leaf1", "threads": 2},)"
        R"( {"machine": "leaf2", "threads": 2}]}]})";
    bundle.graph = json::parse(graph);
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "front", "path": "serve",)"
        R"( "children": [1]},)"
        R"( {"node_id": 1, "service": "leaf", "path": "serve",)"
        R"( "children": [2]},)"
        R"( {"node_id": 2, "service": "front", "path": "serve",)"
        R"( "children": []}]}]})");
    bundle.client = constantClient("front", 600.0, 64);
    bundle.faults = json::parse(
        R"({"faults": [{"type": "slow", "instance": "leaf.0",)"
        R"( "start_s": 0.05, "end_s": 10.0, "factor": 20.0}]})");
    return bundle;
}

double
measuredP99(const std::string& policy)
{
    auto simulation = Simulation::fromBundle(slowLeafBundle(11, policy));
    simulation->run();
    return simulation->latencies().p99();
}

TEST(ResiliencePolicies, RetriesAndHedgingCutTailUnderSlowNode)
{
    const double no_policy = measuredP99("");
    const double with_retries = measuredP99(
        R"({"timeout_s": 0.002, "retries": 2,)"
        R"( "backoff_base_s": 0.0002, "jitter": 0.2})");
    const double with_hedging = measuredP99(
        R"({"timeout_s": 0.02, "retries": 1,)"
        R"( "hedge_delay_s": 0.001, "hedge_max": 1})");

    // One 20x-slow replica out of three puts roughly a third of the
    // requests on a ~2 ms-mean exponential: the unmitigated p99 is
    // several milliseconds.  Timed-out retries and 1 ms hedges both
    // re-issue to a healthy replica.
    EXPECT_GT(no_policy, 0.004);
    EXPECT_LT(with_retries, no_policy * 0.7);
    EXPECT_LT(with_hedging, no_policy * 0.7);
}

TEST(ResiliencePolicies, PolicyRunsReportMitigationCounters)
{
    auto simulation = Simulation::fromBundle(slowLeafBundle(
        11, R"({"timeout_s": 0.002, "retries": 2})"));
    const RunReport report = simulation->run();
    EXPECT_GT(report.retries, 0u);
    const auto it = report.tierFaults.find("front");
    ASSERT_NE(it, report.tierFaults.end());
    EXPECT_GT(it->second.hopTimeouts, 0u);
    EXPECT_GT(it->second.retries, 0u);
}

// ------------------------------- bounded queues and load shedding (c)

/** Deterministic 1 ms service on one thread (1 kQPS capacity),
 *  offered 4 kQPS.  Unbounded, the queue — and with it the tail —
 *  would grow for the whole run. */
ConfigBundle
overloadBundle(const std::string& service_json)
{
    ConfigBundle bundle;
    bundle.options = runOptions(3, 0.2, 1.0);
    bundle.machines = machinesDoc(0);
    bundle.services.push_back(
        simpleService("svc", models::detUs(1000.0)));
    bundle.graph = json::parse(
        R"({"services": [{"service": "svc",)" + service_json + "]}");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes": [{"node_id": 0,)"
        R"( "service": "svc", "path": "serve", "children": []}]}]})");
    bundle.client = constantClient("svc", 4000.0, 256);
    return bundle;
}

TEST(GracefulDegradation, BoundedQueueKeepsTailFiniteAndCountsRejects)
{
    auto simulation = Simulation::fromBundle(overloadBundle(
        R"("instances": [{"machine": "front", "threads": 1,)"
        R"( "queue_capacity": 32}]})"));
    const RunReport report = simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();
    MicroserviceInstance& instance =
        simulation->deployment().instance("svc", 0);

    // The tail of *completed* requests is bounded by the queue bound
    // (~33 service times), far below the >500 ms an unbounded queue
    // would reach by the end of the run.
    EXPECT_GT(simulation->latencies().count(), 100u);
    EXPECT_LT(simulation->latencies().p99(), 0.060);

    // Every rejection is accounted: queue-full drops inside the tier
    // cover all failed requests, one for one.
    EXPECT_GT(instance.rejectedJobs(), 1000u);
    const auto tier_faults = dispatcher.tierFaults();
    const auto it = tier_faults.find("svc");
    ASSERT_NE(it, tier_faults.end());
    EXPECT_EQ(it->second.rejected, instance.rejectedJobs());
    EXPECT_EQ(dispatcher.requestsFailed(), instance.rejectedJobs());
    EXPECT_EQ(dispatcher.requestsStarted(),
              dispatcher.requestsCompleted() +
                  dispatcher.requestsFailed() +
                  dispatcher.requestsShed() +
                  dispatcher.activeRequests());
    EXPECT_GT(report.failed, 0u);
}

TEST(GracefulDegradation, AdmissionControlShedsAtEntryTier)
{
    // The admission limit is below what the (bounded) queue could
    // hold, so the door turns requests away before the queue fills.
    auto simulation = Simulation::fromBundle(overloadBundle(
        R"("admission": {"max_inflight": 24},)"
        R"( "instances": [{"machine": "front", "threads": 1,)"
        R"( "queue_capacity": 64}]})"));
    const RunReport report = simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();
    MicroserviceInstance& instance =
        simulation->deployment().instance("svc", 0);

    EXPECT_GT(simulation->latencies().count(), 100u);
    EXPECT_LT(simulation->latencies().p99(), 0.060);

    // Shedding, not queue rejection, absorbs the overload here, and
    // the shed counter accounts for every turned-away request.
    EXPECT_GT(dispatcher.requestsShed(), 1000u);
    EXPECT_EQ(instance.rejectedJobs(), 0u);
    const auto tier_faults = dispatcher.tierFaults();
    const auto it = tier_faults.find("svc");
    ASSERT_NE(it, tier_faults.end());
    EXPECT_EQ(it->second.shed, dispatcher.requestsShed());
    EXPECT_EQ(dispatcher.requestsStarted(),
              dispatcher.requestsCompleted() +
                  dispatcher.requestsFailed() +
                  dispatcher.requestsShed() +
                  dispatcher.activeRequests());
    EXPECT_EQ(report.shed, dispatcher.requestsShed());
}

// --------------------------------------- determinism under faults (d)

/** Everything at once: slow node, stochastic crashes, a lossy
 *  network window, retries+hedging+breaker, admission control. */
ConfigBundle
chaosBundle(std::uint64_t seed)
{
    ConfigBundle bundle = slowLeafBundle(
        seed,
        R"({"timeout_s": 0.002, "retries": 2,)"
        R"( "backoff_base_s": 0.0002, "jitter": 0.3,)"
        R"( "hedge_delay_s": 0.0015, "hedge_max": 1,)"
        R"( "breaker": {"window": 20, "failure_ratio": 0.6,)"
        R"( "min_samples": 10, "open_s": 0.05}})");
    bundle.faults = json::parse(
        R"({"faults": [)"
        R"( {"type": "slow", "instance": "leaf.0", "start_s": 0.05,)"
        R"(  "end_s": 10.0, "factor": 20.0},)"
        R"( {"type": "crash", "service": "leaf", "mtbf_s": 0.3,)"
        R"(  "mttr_s": 0.05},)"
        R"( {"type": "network", "start_s": 0.5, "end_s": 0.9,)"
        R"(  "extra_latency_us": 200.0, "loss_prob": 0.02}]})");
    return bundle;
}

TEST(FaultDeterminism, SameSeedIsBitwiseIdenticalAcrossJobs)
{
    runner::RunnerOptions serial;
    serial.jobs = 1;
    serial.replications = 3;
    serial.baseSeed = 99;
    runner::RunnerOptions parallel = serial;
    parallel.jobs = 4;

    const auto factory = [](double, std::uint64_t seed) {
        return Simulation::fromBundle(chaosBundle(seed));
    };
    const runner::ReplicatedPoint a =
        runner::runReplicated(factory, 0.0, serial);
    const runner::ReplicatedPoint b =
        runner::runReplicated(factory, 0.0, parallel);

    ASSERT_EQ(a.replications.size(), b.replications.size());
    for (std::size_t i = 0; i < a.replications.size(); ++i) {
        EXPECT_EQ(a.replications[i].traceDigest,
                  b.replications[i].traceDigest)
            << "replication " << i
            << " diverged between --jobs 1 and --jobs 4";
        EXPECT_EQ(a.replications[i].report.completed,
                  b.replications[i].report.completed);
        EXPECT_EQ(a.replications[i].report.failed,
                  b.replications[i].report.failed);
    }
    // The chaos plan actually exercised the fault machinery.
    EXPECT_GT(a.replications.front().report.crashes +
                  a.replications.front().report.netDropped +
                  a.replications.front().report.retries,
              0u);
}

TEST(FaultDeterminism, EmptyFaultPlanMatchesAbsentPlan)
{
    // An explicitly empty faults.json and no faults.json at all must
    // be indistinguishable: the fault machinery adds no events and
    // draws no random numbers unless something is actually injected.
    ConfigBundle with_empty = slowLeafBundle(5, "");
    with_empty.faults = json::parse(R"({"faults": []})");
    ConfigBundle absent = slowLeafBundle(5, "");
    absent.faults = JsonValue();

    auto a = Simulation::fromBundle(with_empty);
    auto b = Simulation::fromBundle(absent);
    const RunReport ra = a->run();
    const RunReport rb = b->run();
    EXPECT_EQ(a->sim().traceDigest(), b->sim().traceDigest());
    EXPECT_EQ(ra.completed, rb.completed);
}

// ------------------------- HTTP/1.1 blocking across a crash (e)

TEST(FaultInjection, ConnectionBlockingSurvivesBackendCrash)
{
    // Front blocks the client connection HTTP/1.1-style until the
    // backend responds.  Crashing the backend kills in-flight jobs;
    // every failed request must still unblock its connection or the
    // front wedges permanently.
    ConfigBundle bundle;
    bundle.options = runOptions(13, 0.1, 1.2);
    bundle.machines = machinesDoc(1);
    bundle.services.push_back(
        simpleService("front", models::detUs(50.0)));
    bundle.services.push_back(
        simpleService("back", models::expUs(200.0)));
    bundle.graph = json::parse(
        R"({"services": [{"service": "front", "connection_pools":)"
        R"( {"back": 8},)"
        R"( "instances": [{"machine": "front", "threads": 2}]},)"
        R"( {"service": "back",)"
        R"( "instances": [{"machine": "leaf0", "threads": 2}]}]})");
    bundle.paths = json::parse(
        R"({"paths": [{"probability": 1.0, "nodes":)"
        R"( [{"node_id": 0, "service": "front", "path": "serve",)"
        R"( "children": [1], "on_enter": [{"op": "block_connection"}]},)"
        R"( {"node_id": 1, "service": "back", "path": "serve",)"
        R"( "children": [2]},)"
        R"( {"node_id": 2, "service": "front", "path": "serve",)"
        R"( "children": [], "on_leave": [{"op": "unblock_connection",)"
        R"( "service": "front"}]}]}]})");
    bundle.client =
        constantClient("front", 1000.0, 32, R"(, "stop_s": 0.8)");
    bundle.faults = json::parse(
        R"({"faults": [{"type": "crash", "instance": "back.0",)"
        R"( "at_s": 0.4, "recover_s": 0.5}]})");

    std::uint64_t completions_after_recovery = 0;
    auto simulation = Simulation::fromBundle(bundle);
    simulation->setCompletionListener(
        [&](const Job& job, double) {
            if (simTimeToSeconds(job.created) >= 0.55)
                ++completions_after_recovery;
        });
    simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();

    EXPECT_GT(dispatcher.requestsFailed(), 0u);
    EXPECT_GT(completions_after_recovery, 100u);
    // The client stopped at 0.8 s and the run drained to 1.2 s: no
    // request may still hold a block or a pooled connection.
    EXPECT_EQ(dispatcher.activeRequests(), 0u);
    EXPECT_EQ(dispatcher.pendingBlocks(), 0u);
    // Jobs killed inside running batches went back to the pool too.
    EXPECT_EQ(dispatcher.jobs().liveJobs(), 0u);
}

TEST(FaultInjection, LossyWindowWithRetriesAndHedgesDrainsEveryJob)
{
    // Lost forward hops consume retries, hedges mint copies from the
    // hop prototype, and lost client/response legs fail requests.
    // Once the client stops and the run drains, no job may survive:
    // not in a queue, a batch, a lost message, or a prototype.
    ConfigBundle bundle = slowLeafBundle(
        17,
        R"({"timeout_s": 0.002, "retries": 2,)"
        R"( "backoff_base_s": 0.0002, "jitter": 0.2,)"
        R"( "hedge_delay_s": 0.001, "hedge_max": 1})");
    bundle.client =
        constantClient("front", 600.0, 64, R"(, "stop_s": 0.8)");
    bundle.faults = json::parse(
        R"({"faults": [)"
        R"( {"type": "slow", "instance": "leaf.0", "start_s": 0.05,)"
        R"(  "end_s": 0.8, "factor": 20.0},)"
        R"( {"type": "network", "start_s": 0.3, "end_s": 0.7,)"
        R"(  "extra_latency_us": 100.0, "loss_prob": 0.05}]})");
    auto simulation = Simulation::fromBundle(bundle);
    const RunReport report = simulation->run();
    Dispatcher& dispatcher = simulation->dispatcher();

    EXPECT_GT(simulation->cluster().network().droppedMessages(), 0u);
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(dispatcher.hedgesSent(), 0u);
    EXPECT_GT(dispatcher.requestsFailed(), 0u);
    EXPECT_EQ(dispatcher.activeRequests(), 0u);
    EXPECT_EQ(dispatcher.jobs().liveJobs(), 0u);
}

// ------------------------------------------------ config validation

TEST(FaultConfig, RejectsUnknownAndMalformedSpecs)
{
    EXPECT_THROW(
        fault::FaultPlan::fromJson(json::parse(
            R"({"faults": [{"type": "chrash", "instance": "a.0",)"
            R"( "at_s": 1.0, "recover_s": 2.0}]})")),
        json::JsonError);
    // Unknown key inside a spec.
    EXPECT_THROW(
        fault::FaultPlan::fromJson(json::parse(
            R"({"faults": [{"type": "crash", "instance": "a.0",)"
            R"( "at_s": 1.0, "recovers_s": 2.0}]})")),
        json::JsonError);
    // Crash needs exactly one of instance/service.
    EXPECT_THROW(
        fault::FaultPlan::fromJson(json::parse(
            R"({"faults": [{"type": "crash", "at_s": 1.0,)"
            R"( "recover_s": 2.0}]})")),
        json::JsonError);
    // Loss probability out of range.
    EXPECT_THROW(
        fault::FaultPlan::fromJson(json::parse(
            R"({"faults": [{"type": "network", "start_s": 0.1,)"
            R"( "end_s": 0.2, "loss_prob": 1.5}]})")),
        json::JsonError);
}

TEST(FaultConfig, PolicyValidation)
{
    // Retries without a timeout are meaningless.
    EXPECT_THROW(fault::EdgePolicy::fromJson(
                     json::parse(R"({"retries": 2})")),
                 json::JsonError);
    // Unknown policy key gets a did-you-mean.
    try {
        fault::EdgePolicy::fromJson(
            json::parse(R"({"timeout_ms": 5})"));
        FAIL() << "expected JsonError";
    } catch (const json::JsonError& error) {
        EXPECT_NE(std::string(error.what()).find("timeout_s"),
                  std::string::npos);
    }
}

}  // namespace
}  // namespace uqsim
