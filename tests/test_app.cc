/**
 * @file
 * Tests for the application layer: path DAGs, deployment, and the
 * dispatcher's routing semantics (fan-out copies, fan-in sync,
 * sticky affinity, pooled connections, blocking operations).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "uqsim/core/app/dispatcher.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/random/distributions.h"

namespace uqsim {
namespace {

// ------------------------------------------------------------- PathTree

TEST(PathTree, FromJsonSingleVariant)
{
    const auto doc = json::parse(R"({
        "nodes": [
            {"node_id": 0, "service": "nginx", "path": "request",
             "children": [1],
             "on_enter": [{"op": "block_connection"}]},
            {"node_id": 1, "service": "memcached",
             "path": "memcached_read", "children": [2]},
            {"node_id": 2, "service": "nginx", "path": "response",
             "children": [], "request_bytes": 640,
             "on_leave": [{"op": "unblock_connection",
                           "service": "nginx"}]}]})");
    const PathTree tree = PathTree::fromJson(doc);
    EXPECT_EQ(tree.variantCount(), 1u);
    const PathVariant& variant = tree.variant(0);
    EXPECT_EQ(variant.rootId, 0);
    EXPECT_EQ(variant.terminalCount, 1);
    EXPECT_EQ(variant.nodes[1].fanIn, 1);
    EXPECT_EQ(variant.nodes[2].requestBytes, 640u);
    ASSERT_EQ(variant.nodes[0].onEnter.size(), 1u);
    EXPECT_EQ(variant.nodes[0].onEnter[0].kind,
              PathNodeOp::Kind::BlockConnection);
    ASSERT_EQ(variant.nodes[2].onLeave.size(), 1u);
    EXPECT_EQ(variant.nodes[2].onLeave[0].service, "nginx");
    const auto services = tree.referencedServices();
    EXPECT_EQ(services,
              (std::vector<std::string>{"nginx", "memcached"}));
}

TEST(PathTree, FanInComputedFromParents)
{
    PathVariant variant;
    PathNode root, a, b, join;
    root.id = 0;
    root.service = "proxy";
    root.children = {1, 2};
    a.id = 1;
    a.service = "web";
    a.children = {3};
    b.id = 2;
    b.service = "web";
    b.children = {3};
    join.id = 3;
    join.service = "proxy";
    variant.nodes = {root, a, b, join};
    variant.finalize();
    EXPECT_EQ(variant.nodes[3].fanIn, 2);
    EXPECT_EQ(variant.rootId, 0);
    EXPECT_EQ(variant.terminalCount, 1);
}

TEST(PathTree, RejectsMalformedDags)
{
    auto make_variant = [](std::vector<PathNode> nodes) {
        PathVariant variant;
        variant.nodes = std::move(nodes);
        return variant;
    };
    {
        // Cycle 0 -> 1 -> 0: no root.
        PathNode a, b;
        a.id = 0;
        a.children = {1};
        b.id = 1;
        b.children = {0};
        EXPECT_THROW(make_variant({a, b}).finalize(),
                     std::invalid_argument);
    }
    {
        // Two roots.
        PathNode a, b;
        a.id = 0;
        b.id = 1;
        EXPECT_THROW(make_variant({a, b}).finalize(),
                     std::invalid_argument);
    }
    {
        // Unknown child.
        PathNode a;
        a.id = 0;
        a.children = {5};
        EXPECT_THROW(make_variant({a}).finalize(),
                     std::invalid_argument);
    }
    {
        // Non-contiguous ids.
        PathNode a, b;
        a.id = 0;
        a.children = {2};
        b.id = 2;
        EXPECT_THROW(make_variant({a, b}).finalize(),
                     std::invalid_argument);
    }
    EXPECT_THROW(make_variant({}).finalize(), std::invalid_argument);
}

TEST(PathTree, VariantSampling)
{
    const auto doc = json::parse(R"({
        "paths": [
            {"probability": 0.75, "nodes": [
                {"node_id": 0, "service": "a", "children": []}]},
            {"probability": 0.25, "nodes": [
                {"node_id": 0, "service": "b", "children": []}]}]})");
    const PathTree tree = PathTree::fromJson(doc);
    EXPECT_EQ(tree.variantCount(), 2u);
    random::Rng rng(3);
    int second = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        second += tree.sampleVariant(rng) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(second) / n, 0.25, 0.01);
}

TEST(PathTree, ResolveExecPaths)
{
    const auto doc = json::parse(R"({
        "nodes": [
            {"node_id": 0, "service": "svc", "path": "beta",
             "children": [1]},
            {"node_id": 1, "service": "svc", "children": []}]})");
    PathTree tree = PathTree::fromJson(doc);
    tree.resolveExecPaths([](const std::string& service,
                             const std::string& path) {
        EXPECT_EQ(service, "svc");
        EXPECT_EQ(path, "beta");
        return 7;
    });
    EXPECT_EQ(tree.node(0, 0).execPathId, 7);
    EXPECT_EQ(tree.node(0, 1).execPathId, -1);  // unpinned
}

TEST(PathTree, UnknownOpThrows)
{
    EXPECT_THROW(PathNodeOp::fromJson(json::parse(
                     R"({"op": "explode"})")),
                 json::JsonError);
}

// -------------------------------------------------- dispatcher fixtures

/** A trivial single-stage service model. */
ServiceModelPtr
tinyModel(const std::string& name, double proc_us, int threads = 1)
{
    StageConfig stage;
    stage.id = 0;
    stage.name = "proc";
    stage.time = ServiceTimeModel(
        std::make_shared<random::DeterministicDistribution>(proc_us *
                                                            1e-6));
    PathConfig path;
    path.id = 0;
    path.name = "serve";
    path.stageIds = {0};
    auto model = std::make_shared<ServiceModel>(
        name, std::vector<StageConfig>{stage},
        std::vector<PathConfig>{path});
    model->setDefaultThreads(threads);
    return model;
}

/** epoll(0 cost) -> proc: connection blocking gates the epoll. */
ServiceModelPtr
epollFrontModel(const std::string& name, double proc_us,
                int threads = 1)
{
    StageConfig epoll;
    epoll.id = 0;
    epoll.name = "epoll";
    epoll.queueType = QueueType::Epoll;
    epoll.batching = true;
    epoll.batchLimit = 8;
    StageConfig proc;
    proc.id = 1;
    proc.name = "proc";
    proc.time = ServiceTimeModel(
        std::make_shared<random::DeterministicDistribution>(proc_us *
                                                            1e-6));
    PathConfig path;
    path.id = 0;
    path.name = "serve";
    path.stageIds = {0, 1};
    auto model = std::make_shared<ServiceModel>(
        name, std::vector<StageConfig>{epoll, proc},
        std::vector<PathConfig>{path});
    model->setDefaultThreads(threads);
    return model;
}

struct AppFixture {
    AppFixture() : sim(7), cluster(sim), deployment(sim, cluster) {}

    void
    finalize()
    {
        dispatcher = std::make_unique<Dispatcher>(
            sim, cluster.network(), tree, deployment);
        dispatcher->setOnRequestComplete(
            [this](const Job& job, SimTime latency) {
                completions.emplace_back(job.rootId, latency);
            });
    }

    /**
     * Issues a request on the client connection identified by the
     * test-local @p conn_key.  Connection ids are globally unique
     * (they share the pool allocator, as the real Client does), so
     * the key is mapped through the deployment's allocator.
     */
    JobId
    issue(MicroserviceInstance& front, int conn_key)
    {
        auto [it, inserted] = clientConns.try_emplace(conn_key, 0);
        if (inserted)
            it->second = deployment.connectionIds().next();
        JobPtr job = dispatcher->jobs().createRoot(sim.now(), 100);
        const JobId root = job->rootId;
        dispatcher->startRequest(std::move(job), front, it->second);
        return root;
    }

    std::map<int, ConnectionId> clientConns;

    Simulator sim;
    hw::Cluster cluster;
    Deployment deployment;
    PathTree tree;
    std::unique_ptr<Dispatcher> dispatcher;
    std::vector<std::pair<JobId, SimTime>> completions;
};

PathVariant
chainVariant(std::vector<std::string> services)
{
    PathVariant variant;
    for (std::size_t i = 0; i < services.size(); ++i) {
        PathNode node;
        node.id = static_cast<int>(i);
        node.service = services[i];
        if (i + 1 < services.size())
            node.children = {static_cast<int>(i) + 1};
        variant.nodes.push_back(node);
    }
    return variant;
}

// --------------------------------------------------------- NameInterner

TEST(NameInterner, AssignsDenseIdsInInternOrder)
{
    NameInterner names;
    EXPECT_EQ(names.size(), 0u);
    EXPECT_EQ(names.intern("nginx"), 0u);
    EXPECT_EQ(names.intern("memcached"), 1u);
    EXPECT_EQ(names.intern("nginx"), 0u);  // idempotent
    EXPECT_EQ(names.size(), 2u);
    EXPECT_EQ(names.name(0), "nginx");
    EXPECT_EQ(names.name(1), "memcached");
    EXPECT_EQ(names.find("memcached"), 1u);
    EXPECT_EQ(names.find("mongodb"), NameInterner::kNone);
    EXPECT_THROW(names.name(2), std::out_of_range);
    EXPECT_THROW(names.name(NameInterner::kNone), std::out_of_range);
}

TEST(NameInterner, DeploymentInternsModelsInRegistrationOrder)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("front", 10.0));
    app.deployment.registerModel(tinyModel("back", 10.0));
    EXPECT_EQ(app.deployment.names().find("front"), 0u);
    EXPECT_EQ(app.deployment.names().find("back"), 1u);
    EXPECT_EQ(app.deployment.model("back")->nameId(), 1u);
}

// ------------------------------------------------------------ Deployment

TEST(Deployment, RegisterAndDeploy)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("svc", 10.0));
    EXPECT_EQ(app.deployment.instanceCount("svc"), 0);
    const int index = app.deployment.deployInstance("svc", "", {});
    EXPECT_EQ(index, 0);
    EXPECT_EQ(app.deployment.instanceCount("svc"), 1);
    EXPECT_EQ(app.deployment.instance("svc", 0).name(), "svc.0");
    EXPECT_THROW(app.deployment.instance("svc", 1), std::out_of_range);
    EXPECT_THROW(app.deployment.instance("nope", 0),
                 std::out_of_range);
    EXPECT_THROW(app.deployment.registerModel(nullptr),
                 std::invalid_argument);
}

TEST(Deployment, RoundRobinPick)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("svc", 10.0));
    for (int i = 0; i < 3; ++i)
        app.deployment.deployInstance("svc", "", {});
    random::Rng rng(1);
    std::vector<std::string> picks;
    for (int i = 0; i < 6; ++i)
        picks.push_back(app.deployment.pickInstance("svc", rng).name());
    EXPECT_EQ(picks, (std::vector<std::string>{"svc.0", "svc.1",
                                               "svc.2", "svc.0",
                                               "svc.1", "svc.2"}));
}

TEST(Deployment, PoolSizesConfigurable)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("a", 1.0));
    app.deployment.registerModel(tinyModel("b", 1.0));
    app.deployment.deployInstance("a", "", {});
    app.deployment.deployInstance("b", "", {});
    app.deployment.setPoolSize("a", "b", 3);
    ConnectionPool& pool = app.deployment.pool(
        app.deployment.instance("a", 0),
        app.deployment.instance("b", 0));
    EXPECT_EQ(pool.size(), 3);
    // Same pair returns the same pool.
    EXPECT_EQ(&pool, &app.deployment.pool(
                         app.deployment.instance("a", 0),
                         app.deployment.instance("b", 0)));
    // Reverse direction is a different pool with the default size.
    ConnectionPool& reverse = app.deployment.pool(
        app.deployment.instance("b", 0),
        app.deployment.instance("a", 0));
    EXPECT_EQ(reverse.size(), Deployment::kDefaultPoolSize);
}

TEST(Deployment, LoadGraphJson)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("front", 1.0));
    app.deployment.registerModel(tinyModel("back", 1.0));
    app.cluster.addMachine({.name = "m0", .cores = 8});
    app.deployment.loadGraphJson(json::parse(R"({
        "services": [
            {"service": "front", "lb_policy": "round_robin",
             "connection_pools": {"back": 5},
             "instances": [{"machine": "m0", "threads": 2}]},
            {"service": "back",
             "instances": [{"machine": "m0", "threads": 1},
                            {"machine": "m0", "threads": 1}]}]})"));
    EXPECT_EQ(app.deployment.instanceCount("front"), 1);
    EXPECT_EQ(app.deployment.instanceCount("back"), 2);
    EXPECT_EQ(app.deployment
                  .pool(app.deployment.instance("front", 0),
                        app.deployment.instance("back", 0))
                  .size(),
              5);
}

TEST(InstanceConfigJson, ParsesFields)
{
    const InstanceConfig config = instanceConfigFromJson(json::parse(
        R"({"threads": 4, "cores": 2, "disk_channels": 3,
            "own_dvfs": true, "scheduling": "stage_order"})"));
    EXPECT_EQ(config.threads, 4);
    EXPECT_EQ(config.cores, 2);
    EXPECT_EQ(config.diskChannels, 3);
    EXPECT_TRUE(config.ownDvfsDomain);
    EXPECT_EQ(config.policy, SchedulingPolicy::StageOrder);
    EXPECT_THROW(
        instanceConfigFromJson(json::parse(R"({"scheduling": "x"})")),
        json::JsonError);
}

// ------------------------------------------------------------ Dispatcher

TEST(Dispatcher, SingleNodeRequestCompletes)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("svc", 10.0));
    app.deployment.deployInstance("svc", "", {});
    app.tree.addVariant(chainVariant({"svc"}));
    app.finalize();
    const JobId root = app.issue(app.deployment.instance("svc", 0), 1);
    app.sim.run();
    ASSERT_EQ(app.completions.size(), 1u);
    EXPECT_EQ(app.completions[0].first, root);
    // 10us processing + 2x wire latency (20us each way).
    EXPECT_EQ(app.completions[0].second,
              secondsToSimTime(10e-6 + 2 * 20e-6));
    EXPECT_EQ(app.dispatcher->requestsCompleted(), 1u);
    EXPECT_EQ(app.dispatcher->activeRequests(), 0u);
}

TEST(Dispatcher, ChainRoutesThroughTiers)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("front", 10.0));
    app.deployment.registerModel(tinyModel("back", 20.0));
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("back", "", {});
    app.tree.addVariant(chainVariant({"front", "back", "front"}));
    app.finalize();
    std::map<std::string, int> tier_visits;
    app.dispatcher->setTierLatencyHook(
        [&](std::uint32_t tier_id, double) {
            ++tier_visits[app.deployment.names().name(tier_id)];
        });
    app.issue(app.deployment.instance("front", 0), 1);
    app.sim.run();
    ASSERT_EQ(app.completions.size(), 1u);
    EXPECT_EQ(tier_visits["front"], 2);
    EXPECT_EQ(tier_visits["back"], 1);
    EXPECT_EQ(app.dispatcher->leakedHops(), 0u);
    // front(10) + back(20) + front(10) + client wire 2x20 +
    // inter-tier wire 2x20 (machineless instances: wire only).
    EXPECT_EQ(app.completions[0].second,
              secondsToSimTime(40e-6 + 4 * 20e-6));
}

TEST(Dispatcher, StickyAffinityReturnsToSameInstance)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("front", 10.0, 1));
    app.deployment.registerModel(tinyModel("back", 10.0));
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("back", "", {});
    app.tree.addVariant(chainVariant({"front", "back", "front"}));
    app.finalize();
    // Issue to front.1 explicitly: the response leg must come back
    // to front.1, not round-robin to front.0.
    std::map<std::string, int> completed_at;
    for (MicroserviceInstance* inst : app.deployment.allInstances()) {
        // Count node completions per instance via tier hook order.
        (void)inst;
    }
    app.issue(app.deployment.instance("front", 1), 1);
    app.sim.run();
    EXPECT_EQ(app.deployment.instance("front", 1).completedJobs(), 2u);
    EXPECT_EQ(app.deployment.instance("front", 0).completedJobs(), 0u);
}

TEST(Dispatcher, FanoutCopiesAndFanInSync)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("proxy", 1.0, 4));
    app.deployment.registerModel(tinyModel("leaf", 10.0));
    app.deployment.deployInstance("proxy", "", {});
    for (int i = 0; i < 3; ++i)
        app.deployment.deployInstance("leaf", "", {});

    PathVariant variant;
    PathNode root;
    root.id = 0;
    root.service = "proxy";
    root.children = {1, 2, 3};
    variant.nodes.push_back(root);
    for (int i = 0; i < 3; ++i) {
        PathNode leaf;
        leaf.id = 1 + i;
        leaf.service = "leaf";
        leaf.instanceIndex = i;
        leaf.children = {4};
        variant.nodes.push_back(leaf);
    }
    PathNode join;
    join.id = 4;
    join.service = "proxy";
    variant.nodes.push_back(join);
    app.tree.addVariant(std::move(variant));
    app.finalize();

    app.issue(app.deployment.instance("proxy", 0), 1);
    app.sim.run();
    ASSERT_EQ(app.completions.size(), 1u);
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(app.deployment.instance("leaf", i).completedJobs(),
                  1u)
            << "leaf " << i;
    }
    // Proxy ran the root and the join exactly once (fan-in merged
    // the three copies).
    EXPECT_EQ(app.deployment.instance("proxy", 0).completedJobs(), 2u);
    EXPECT_EQ(app.dispatcher->leakedHops(), 0u);
}

TEST(Dispatcher, PoolBackpressureDelaysDownstreamHops)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("front", 1.0, 8));
    app.deployment.registerModel(tinyModel("back", 1000.0, 8));
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("back", "", {});
    app.deployment.setPoolSize("front", "back", 2);
    app.tree.addVariant(chainVariant({"front", "back", "front"}));
    app.finalize();
    for (int i = 0; i < 6; ++i)
        app.issue(app.deployment.instance("front", 0), 100 + i);
    app.sim.run();
    EXPECT_EQ(app.completions.size(), 6u);
    // With pool size 2 and 1ms backend service, the 6 requests pass
    // the pool in 3 waves: last completion >= 3ms.
    SimTime last = 0;
    for (const auto& [root, latency] : app.completions)
        last = std::max(last, latency);
    EXPECT_GE(last, secondsToSimTime(3e-3));
    EXPECT_EQ(app.dispatcher->leakedHops(), 0u);
}

TEST(Dispatcher, BlockingSerializesConnection)
{
    // Two requests on the SAME client connection with HTTP/1.1
    // blocking: the second is only served after the first's
    // response unblocks the connection.
    AppFixture app;
    app.deployment.registerModel(epollFrontModel("front", 100.0, 4));
    app.deployment.registerModel(tinyModel("back", 100.0, 4));
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("back", "", {});
    PathVariant variant = chainVariant({"front", "back", "front"});
    PathNodeOp block;
    block.kind = PathNodeOp::Kind::BlockConnection;
    variant.nodes[0].onEnter.push_back(block);
    PathNodeOp unblock;
    unblock.kind = PathNodeOp::Kind::UnblockConnection;
    unblock.service = "front";
    variant.nodes[2].onLeave.push_back(unblock);
    app.tree.addVariant(std::move(variant));
    app.finalize();
    app.issue(app.deployment.instance("front", 0), 1);
    app.issue(app.deployment.instance("front", 0), 1);
    app.sim.run();
    ASSERT_EQ(app.completions.size(), 2u);
    // Serialized: second latency ~2x first.
    EXPECT_GT(app.completions[1].second,
              app.completions[0].second +
                  secondsToSimTime(250e-6));
    EXPECT_EQ(app.dispatcher->leakedBlocks(), 0u);

    // Control: on DIFFERENT connections requests overlap.
    AppFixture control;
    control.deployment.registerModel(
        epollFrontModel("front", 100.0, 4));
    control.deployment.registerModel(tinyModel("back", 100.0, 4));
    control.deployment.deployInstance("front", "", {});
    control.deployment.deployInstance("back", "", {});
    PathVariant v2 = chainVariant({"front", "back", "front"});
    v2.nodes[0].onEnter.push_back(block);
    v2.nodes[2].onLeave.push_back(unblock);
    control.tree.addVariant(std::move(v2));
    control.finalize();
    control.issue(control.deployment.instance("front", 0), 1);
    control.issue(control.deployment.instance("front", 0), 2);
    control.sim.run();
    ASSERT_EQ(control.completions.size(), 2u);
    EXPECT_LT(control.completions[1].second,
              app.completions[1].second);
}

/**
 * Two concurrent requests on distinct client connections, each
 * blocking its client connection at "front" (node 0) and its pooled
 * connection at "back" (node 1); node 2 leaving "front" runs an
 * unblock op filtered on @p unblock_service.  Steps the run one event
 * at a time and returns the peak of pendingBlocks() plus
 * leakedBlocks() at each completion: the blocks the filter missed,
 * released when their own request ends.
 */
std::pair<std::size_t, std::vector<std::uint64_t>>
blockFilterRun(const std::string& unblock_service)
{
    AppFixture app;
    app.deployment.registerModel(epollFrontModel("front", 100.0, 4));
    app.deployment.registerModel(tinyModel("back", 100.0, 4));
    app.deployment.deployInstance("front", "", {});
    app.deployment.deployInstance("back", "", {});
    PathVariant variant = chainVariant({"front", "back", "front"});
    PathNodeOp block;
    block.kind = PathNodeOp::Kind::BlockConnection;
    variant.nodes[0].onEnter.push_back(block);
    variant.nodes[1].onEnter.push_back(block);
    PathNodeOp unblock;
    unblock.kind = PathNodeOp::Kind::UnblockConnection;
    unblock.service = unblock_service;
    variant.nodes[2].onLeave.push_back(unblock);
    app.tree.addVariant(std::move(variant));
    app.finalize();
    std::vector<std::uint64_t> leaked_at_completion;
    app.dispatcher->setOnRequestComplete([&](const Job&, SimTime) {
        leaked_at_completion.push_back(app.dispatcher->leakedBlocks());
    });
    app.issue(app.deployment.instance("front", 0), 1);
    app.issue(app.deployment.instance("front", 0), 2);
    std::size_t peak = 0;
    std::uint64_t steps = 0;
    while (app.sim.run(kSimTimeMax, ++steps) == StopReason::EventLimit)
        peak = std::max(peak, app.dispatcher->pendingBlocks());
    EXPECT_EQ(app.dispatcher->pendingBlocks(), 0u);
    EXPECT_EQ(app.dispatcher->activeRequests(), 0u);
    return {peak, leaked_at_completion};
}

TEST(Dispatcher, UnblockFiltersByServiceAndCountsPerRoot)
{
    using Leaks = std::vector<std::uint64_t>;
    // Both requests hold both of their blocks at once.
    // The "front" filter releases only the front block; each
    // request's back block is released by its own completion.
    const auto front = blockFilterRun("front");
    EXPECT_EQ(front.first, 4u);
    EXPECT_EQ(front.second, (Leaks{1, 2}));
    // An empty filter matches every block of the request.
    const auto all = blockFilterRun("");
    EXPECT_EQ(all.first, 4u);
    EXPECT_EQ(all.second, (Leaks{0, 0}));
    // A service no deployment knows matches nothing.
    const auto none = blockFilterRun("nope");
    EXPECT_EQ(none.first, 4u);
    EXPECT_EQ(none.second, (Leaks{2, 4}));
}

TEST(Dispatcher, MultipleVariantsSampled)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("fast", 1.0, 8));
    app.deployment.registerModel(tinyModel("slow", 1.0, 8));
    app.deployment.deployInstance("fast", "", {});
    app.deployment.deployInstance("slow", "", {});
    // Both variants share the same root service so either can be
    // issued to the same front-end; the second visits "slow" too.
    PathVariant v_fast = chainVariant({"fast"});
    v_fast.probability = 0.7;
    PathVariant v_slow = chainVariant({"fast", "slow"});
    v_slow.probability = 0.3;
    app.tree.addVariant(std::move(v_fast));
    app.tree.addVariant(std::move(v_slow));
    app.finalize();
    for (int i = 0; i < 3000; ++i)
        app.issue(app.deployment.instance("fast", 0), i % 64);
    app.sim.run();
    EXPECT_EQ(app.completions.size(), 3000u);
    const double slow_fraction =
        static_cast<double>(
            app.deployment.instance("slow", 0).completedJobs()) /
        3000.0;
    EXPECT_NEAR(slow_fraction, 0.3, 0.03);
}

TEST(Dispatcher, WrongFrontServiceThrows)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("a", 1.0));
    app.deployment.registerModel(tinyModel("b", 1.0));
    app.deployment.deployInstance("a", "", {});
    app.deployment.deployInstance("b", "", {});
    app.tree.addVariant(chainVariant({"a"}));
    app.finalize();
    JobPtr job = app.dispatcher->jobs().createRoot(0, 100);
    EXPECT_THROW(app.dispatcher->startRequest(
                     std::move(job),
                     app.deployment.instance("b", 0), 1),
                 std::logic_error);
}

TEST(Dispatcher, TierLatencyHookReportsSeconds)
{
    AppFixture app;
    app.deployment.registerModel(tinyModel("svc", 50.0));
    app.deployment.deployInstance("svc", "", {});
    app.tree.addVariant(chainVariant({"svc"}));
    app.finalize();
    double observed = -1.0;
    app.dispatcher->setTierLatencyHook(
        [&](std::uint32_t tier_id, double seconds) {
            EXPECT_EQ(app.deployment.names().name(tier_id), "svc");
            observed = seconds;
        });
    app.issue(app.deployment.instance("svc", 0), 1);
    app.sim.run();
    EXPECT_NEAR(observed, 50e-6, 1e-9);
}

}  // namespace
}  // namespace uqsim
