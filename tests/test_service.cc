/**
 * @file
 * Unit tests for the microservice model building blocks: jobs,
 * service-time models, stage configs, queue disciplines, connection
 * blocking, connection pools, execution paths, and service models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "uqsim/core/service/connection_pool.h"
#include "uqsim/core/service/service_model.h"
#include "uqsim/core/service/stage_queue.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/random/distributions.h"

namespace uqsim {
namespace {

// ------------------------------------------------------------------ Job

TEST(JobFactory, UniqueIdsAndRootPropagation)
{
    JobFactory factory;
    JobPtr root = factory.createRoot(100, 256);
    EXPECT_EQ(root->id, root->rootId);
    EXPECT_EQ(root->bytes, 256u);
    EXPECT_EQ(root->created, 100);
    JobPtr copy = factory.createCopy(*root);
    EXPECT_NE(copy->id, root->id);
    EXPECT_EQ(copy->rootId, root->rootId);
    EXPECT_EQ(copy->bytes, root->bytes);
    EXPECT_EQ(copy->connectionId, kNoConnection);
    EXPECT_EQ(factory.created(), 2u);
}

TEST(JobFactory, JobsMayOutliveTheFactory)
{
    JobPtr survivor;
    {
        JobFactory factory;
        survivor = factory.createRoot(0, 64);
        JobPtr copy = factory.createCopy(*survivor);
        EXPECT_EQ(factory.liveJobs(), 2u);
    }
    // The pool outlives its factory while a job is out and frees
    // itself with the last one (sanitizer builds check both).
    EXPECT_EQ(survivor->bytes, 64u);
    survivor.reset();
}

// ------------------------------------------------------ ServiceTimeModel

TEST(ServiceTimeModel, FixedPlusRuntimeComponents)
{
    ServiceTimeModel model(
        std::make_shared<random::DeterministicDistribution>(2e-6),
        1e-6, 1e-9);
    random::Rng rng(1);
    // base 2us + 3 jobs * 1us + 1000 bytes * 1ns = 6us.
    EXPECT_EQ(model.sample(rng, 3, 1000, nullptr),
              6 * kMicrosecond);
    EXPECT_NEAR(model.meanSeconds(3, 1000), 6e-6, 1e-12);
}

TEST(ServiceTimeModel, EpollCostGrowsLinearlyWithBatch)
{
    // Paper: epoll's execution time increases linearly with the
    // number of active events returned.
    ServiceTimeModel model(
        std::make_shared<random::DeterministicDistribution>(2e-6),
        0.8e-6);
    random::Rng rng(1);
    const SimTime one = model.sample(rng, 1, 0, nullptr);
    const SimTime eight = model.sample(rng, 8, 0, nullptr);
    EXPECT_EQ(eight - one, secondsToSimTime(7 * 0.8e-6));
}

TEST(ServiceTimeModel, DvfsScalingWithExponent)
{
    hw::DvfsDomain domain(hw::DvfsTable({1.3, 2.6}));
    domain.stepDown();  // slowdown 2x
    ServiceTimeModel cpu(
        std::make_shared<random::DeterministicDistribution>(1e-6), 0.0,
        0.0, 1.0);
    ServiceTimeModel io(
        std::make_shared<random::DeterministicDistribution>(1e-6), 0.0,
        0.0, 0.0);
    random::Rng rng(1);
    EXPECT_EQ(cpu.sample(rng, 1, 0, &domain), 2 * kMicrosecond);
    EXPECT_EQ(io.sample(rng, 1, 0, &domain), kMicrosecond);
}

TEST(ServiceTimeModel, PerFrequencyHistogramOverridesScaling)
{
    hw::DvfsDomain domain(hw::DvfsTable({1.3, 2.6}));
    ServiceTimeModel model(
        std::make_shared<random::DeterministicDistribution>(1e-6));
    model.setFrequencyDistribution(
        1.3, std::make_shared<random::DeterministicDistribution>(
                 5e-6));
    random::Rng rng(1);
    EXPECT_EQ(model.sample(rng, 1, 0, &domain), kMicrosecond);
    domain.stepDown();
    // Per-frequency distribution is used unscaled.
    EXPECT_EQ(model.sample(rng, 1, 0, &domain), 5 * kMicrosecond);
}

TEST(ServiceTimeModel, FromJson)
{
    const auto doc = json::parse(R"({
        "base": {"type": "deterministic", "value": 3e-6},
        "per_job_us": 0.5, "per_byte_ns": 2.0,
        "freq_exponent": 0.5,
        "per_frequency": {
            "1.2": {"type": "deterministic", "value": 9e-6}}})");
    const ServiceTimeModel model = ServiceTimeModel::fromJson(doc);
    EXPECT_DOUBLE_EQ(model.perJob(), 0.5e-6);
    EXPECT_DOUBLE_EQ(model.perByte(), 2e-9);
    EXPECT_DOUBLE_EQ(model.freqExponent(), 0.5);
    hw::DvfsDomain domain(hw::DvfsTable({1.2, 2.6}));
    domain.stepDown();
    random::Rng rng(1);
    // 9us (per-frequency base) + runtime parts scaled by
    // sqrt(2.6/1.2).
    const SimTime sample = model.sample(rng, 2, 0, &domain);
    const double runtime = 1e-6 * std::sqrt(2.6 / 1.2);
    EXPECT_NEAR(simTimeToSeconds(sample), 9e-6 + runtime, 1e-9);
}

// ---------------------------------------------------------- StageConfig

TEST(StageConfig, ParsesPaperTemplate)
{
    // The memcached epoll stage from Listing 1 (with N = 8).
    const auto doc = json::parse(R"({
        "stage_name": "epoll", "stage_id": 0, "queue_type": "epoll",
        "batching": true, "queue_parameter": [null, 8]})");
    const StageConfig config = StageConfig::fromJson(doc);
    EXPECT_EQ(config.name, "epoll");
    EXPECT_EQ(config.id, 0);
    EXPECT_EQ(config.queueType, QueueType::Epoll);
    EXPECT_TRUE(config.batching);
    EXPECT_EQ(config.batchLimit, 8);
    EXPECT_EQ(config.resource, StageResource::Cpu);
}

TEST(StageConfig, ScalarQueueParameter)
{
    const auto doc = json::parse(R"({
        "stage_name": "socket_read", "stage_id": 1,
        "queue_type": "socket", "batching": true,
        "queue_parameter": 4})");
    EXPECT_EQ(StageConfig::fromJson(doc).batchLimit, 4);
}

TEST(StageConfig, DiskResource)
{
    const auto doc = json::parse(R"({
        "stage_name": "disk", "stage_id": 0, "resource": "disk"})");
    EXPECT_EQ(StageConfig::fromJson(doc).resource, StageResource::Disk);
}

TEST(StageConfig, UnknownQueueTypeThrows)
{
    const auto doc = json::parse(
        R"({"stage_name": "x", "stage_id": 0, "queue_type": "ring"})");
    EXPECT_THROW(StageConfig::fromJson(doc), std::invalid_argument);
}

TEST(StageConfig, EnumNames)
{
    EXPECT_STREQ(queueTypeName(QueueType::Epoll), "epoll");
    EXPECT_EQ(queueTypeFromString("single"), QueueType::Single);
    EXPECT_STREQ(stageResourceName(StageResource::Disk), "disk");
    EXPECT_THROW(stageResourceFromString("gpu"), std::invalid_argument);
}

// ----------------------------------------------------------- SingleQueue

JobPtr
makeJob(JobFactory& factory, ConnectionId conn, JobId root = 0)
{
    JobPtr job = factory.createRoot(0, 100);
    job->connectionId = conn;
    if (root != 0)
        job->rootId = root;
    return job;
}

/** Pops one batch into a fresh vector. */
std::vector<JobPtr>
pop(StageQueue& queue)
{
    std::vector<JobPtr> batch;
    queue.popBatch(batch);
    return batch;
}

TEST(SingleQueue, NonBatchingPopsOne)
{
    SingleQueue queue(false, 0);
    JobFactory factory;
    queue.push(makeJob(factory, 1));
    queue.push(makeJob(factory, 1));
    EXPECT_TRUE(queue.hasEligible());
    EXPECT_EQ(pop(queue).size(), 1u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(SingleQueue, BatchingRespectsLimit)
{
    SingleQueue queue(true, 3);
    JobFactory factory;
    for (int i = 0; i < 5; ++i)
        queue.push(makeJob(factory, 1));
    EXPECT_EQ(pop(queue).size(), 3u);
    EXPECT_EQ(pop(queue).size(), 2u);
    EXPECT_TRUE(pop(queue).empty());
}

TEST(SingleQueue, UnlimitedBatchTakesAll)
{
    SingleQueue queue(true, 0);
    JobFactory factory;
    for (int i = 0; i < 5; ++i)
        queue.push(makeJob(factory, 1));
    EXPECT_EQ(pop(queue).size(), 5u);
}

TEST(SingleQueue, FifoOrder)
{
    SingleQueue queue(false, 0);
    JobFactory factory;
    JobPtr first = makeJob(factory, 1);
    const JobId first_id = first->id;
    queue.push(std::move(first));
    queue.push(makeJob(factory, 1));
    EXPECT_EQ(pop(queue)[0]->id, first_id);
}

TEST(SingleQueue, PopAndDrainAppendToCallerVector)
{
    SingleQueue queue(true, 2);
    JobFactory factory;
    for (int i = 0; i < 3; ++i)
        queue.push(makeJob(factory, 1));
    std::vector<JobPtr> out;
    out.push_back(makeJob(factory, 7));
    queue.popBatch(out);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0]->connectionId, 7);
    queue.drainAll(out);
    EXPECT_EQ(out.size(), 4u);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_EQ(factory.liveJobs(), 4u);
    out.clear();
    EXPECT_EQ(factory.liveJobs(), 0u);
}

// ------------------------------------------------------------ EpollQueue

TEST(EpollQueue, TakesFirstNOfEachActiveSubqueue)
{
    ConnectionTable connections;
    EpollQueue queue(2, &connections);
    JobFactory factory;
    for (int i = 0; i < 3; ++i)
        queue.push(makeJob(factory, 1));
    for (int i = 0; i < 1; ++i)
        queue.push(makeJob(factory, 2));
    EXPECT_EQ(queue.activeSubqueues(), 2u);
    const auto batch = pop(queue);
    // First 2 of connection 1 plus the single job of connection 2.
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(queue.size(), 1u);
}

TEST(EpollQueue, BlockedSubqueueIsInactive)
{
    ConnectionTable connections;
    EpollQueue queue(8, &connections);
    JobFactory factory;
    JobPtr blocker = makeJob(factory, 1);
    const JobId other_root = 9999;
    queue.push(makeJob(factory, 1, other_root));
    connections.block(1, blocker->rootId);
    EXPECT_FALSE(queue.hasEligible());
    EXPECT_TRUE(pop(queue).empty());
    connections.unblock(1, blocker->rootId);
    EXPECT_TRUE(queue.hasEligible());
    EXPECT_EQ(pop(queue).size(), 1u);
}

TEST(EpollQueue, BlockOwnerJobsRemainEligible)
{
    // HTTP/1.1: the request holding the block still flows; queued
    // requests behind it wait.
    ConnectionTable connections;
    EpollQueue queue(8, &connections);
    JobFactory factory;
    JobPtr owner = makeJob(factory, 1);
    const JobId owner_root = owner->rootId;
    queue.push(std::move(owner));
    queue.push(makeJob(factory, 1));  // a later, unrelated request
    connections.block(1, owner_root);
    EXPECT_TRUE(queue.hasEligible());
    const auto batch = pop(queue);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0]->rootId, owner_root);
    EXPECT_FALSE(queue.hasEligible());
}

TEST(EpollQueue, UnlimitedBatchDrainsSubqueues)
{
    EpollQueue queue(0, nullptr);
    JobFactory factory;
    for (int c = 1; c <= 3; ++c) {
        for (int i = 0; i < 4; ++i)
            queue.push(makeJob(factory, c));
    }
    EXPECT_EQ(pop(queue).size(), 12u);
}

// ----------------------------------------------------------- SocketQueue

TEST(SocketQueue, ServesOneConnectionAtATime)
{
    ConnectionTable connections;
    SocketQueue queue(4, &connections);
    JobFactory factory;
    for (int i = 0; i < 3; ++i)
        queue.push(makeJob(factory, 1));
    for (int i = 0; i < 2; ++i)
        queue.push(makeJob(factory, 2));
    const auto first = pop(queue);
    ASSERT_EQ(first.size(), 3u);
    EXPECT_EQ(first[0]->connectionId, 1);
    const auto second = pop(queue);
    ASSERT_EQ(second.size(), 2u);
    EXPECT_EQ(second[0]->connectionId, 2);
}

TEST(SocketQueue, RoundRobinAcrossConnections)
{
    SocketQueue queue(1, nullptr);
    JobFactory factory;
    for (int i = 0; i < 2; ++i) {
        queue.push(makeJob(factory, 1));
        queue.push(makeJob(factory, 2));
    }
    EXPECT_EQ(pop(queue)[0]->connectionId, 1);
    EXPECT_EQ(pop(queue)[0]->connectionId, 2);
    EXPECT_EQ(pop(queue)[0]->connectionId, 1);
    EXPECT_EQ(pop(queue)[0]->connectionId, 2);
}

TEST(SocketQueue, SkipsBlockedConnections)
{
    ConnectionTable connections;
    SocketQueue queue(4, &connections);
    JobFactory factory;
    queue.push(makeJob(factory, 1, 500));
    queue.push(makeJob(factory, 2, 600));
    connections.block(1, 42);  // some other request owns the block
    const auto batch = pop(queue);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0]->connectionId, 2);
}

TEST(StageQueueFactory, BuildsMatchingDiscipline)
{
    ConnectionTable connections;
    StageConfig config;
    config.queueType = QueueType::Epoll;
    config.batching = true;
    config.batchLimit = 8;
    auto epoll = StageQueue::create(config, &connections);
    EXPECT_NE(dynamic_cast<EpollQueue*>(epoll.get()), nullptr);
    config.queueType = QueueType::Socket;
    auto socket = StageQueue::create(config, &connections);
    EXPECT_NE(dynamic_cast<SocketQueue*>(socket.get()), nullptr);
    config.queueType = QueueType::Single;
    auto single = StageQueue::create(config, &connections);
    EXPECT_NE(dynamic_cast<SingleQueue*>(single.get()), nullptr);
}

// ------------------------------------------------------ connection state

TEST(ConnectionTable, BlockUnblockLifecycle)
{
    ConnectionTable table;
    EXPECT_FALSE(table.isBlocked(5));
    table.block(5, 77);
    EXPECT_TRUE(table.isBlocked(5));
    EXPECT_EQ(table.blockOwner(5), 77u);
    int unblocked_events = 0;
    table.onUnblock([&](ConnectionId) { ++unblocked_events; });
    table.unblock(5, 77);
    EXPECT_FALSE(table.isBlocked(5));
    EXPECT_EQ(table.blockOwner(5), 0u);
    EXPECT_EQ(unblocked_events, 1);
    table.unblock(5, 77);  // idempotent
    EXPECT_EQ(unblocked_events, 1);
}

TEST(ConnectionTable, PipelinedOwnersServedInOrder)
{
    // HTTP/1.1 pipelining: the second request's block queues behind
    // the first; removing the first owner promotes the second.
    ConnectionTable table;
    table.block(5, 100);
    table.block(5, 200);
    EXPECT_EQ(table.blockOwner(5), 100u);
    int unblocked_events = 0;
    table.onUnblock([&](ConnectionId) { ++unblocked_events; });
    // Removing a non-front owner changes nothing visible.
    table.block(5, 300);
    table.unblock(5, 300);
    EXPECT_EQ(unblocked_events, 0);
    EXPECT_EQ(table.blockOwner(5), 100u);
    table.unblock(5, 100);
    EXPECT_EQ(table.blockOwner(5), 200u);
    EXPECT_EQ(unblocked_events, 1);
    table.unblock(5, 200);
    EXPECT_FALSE(table.isBlocked(5));
    EXPECT_EQ(unblocked_events, 2);
}

// ------------------------------------------------------- ConnectionPool

TEST(ConnectionPool, GrantsUpToSizeThenQueues)
{
    ConnectionIdAllocator ids;
    ConnectionPool pool("p", 2, ids);
    std::vector<ConnectionId> granted;
    auto grab = [&] {
        pool.acquire(
            [&](ConnectionId id) { granted.push_back(id); });
    };
    grab();
    grab();
    EXPECT_EQ(granted.size(), 2u);
    EXPECT_EQ(pool.available(), 0);
    grab();  // queued
    EXPECT_EQ(granted.size(), 2u);
    EXPECT_EQ(pool.waiters(), 1u);
    pool.release(granted[0]);
    EXPECT_EQ(granted.size(), 3u);  // waiter served on release
    EXPECT_EQ(granted[2], granted[0]);
    EXPECT_EQ(pool.waiters(), 0u);
    EXPECT_EQ(pool.maxWaiters(), 1u);
}

TEST(ConnectionPool, ReleaseValidation)
{
    ConnectionIdAllocator ids;
    ConnectionPool pool("p", 1, ids);
    EXPECT_THROW(pool.release(9999), std::logic_error);
    ConnectionId granted = kNoConnection;
    pool.acquire([&](ConnectionId id) { granted = id; });
    pool.release(granted);
    EXPECT_THROW(pool.release(granted), std::logic_error);
}

TEST(ConnectionPool, ExhaustionServesWaitersInFifoOrder)
{
    ConnectionIdAllocator ids;
    ConnectionPool pool("p", 2, ids);
    std::vector<ConnectionId> granted;
    pool.acquire([&](ConnectionId id) { granted.push_back(id); });
    pool.acquire([&](ConnectionId id) { granted.push_back(id); });
    ASSERT_EQ(granted.size(), 2u);

    // Exhausted: further acquires queue and are served strictly FIFO
    // as connections come back.
    std::vector<int> served;
    for (int waiter = 0; waiter < 3; ++waiter) {
        pool.acquire(
            [&served, waiter](ConnectionId) { served.push_back(waiter); });
    }
    EXPECT_EQ(pool.waiters(), 3u);
    EXPECT_EQ(pool.available(), 0);
    pool.release(granted[0]);
    pool.release(granted[1]);
    ASSERT_EQ(served.size(), 2u);
    EXPECT_EQ(served[0], 0);
    EXPECT_EQ(served[1], 1);
    EXPECT_EQ(pool.waiters(), 1u);
    EXPECT_EQ(pool.maxWaiters(), 3u);
}

TEST(ConnectionPool, DoubleReleaseCaughtAfterWaiterHandoff)
{
    // release() hands the connection straight to a queued waiter
    // without touching the free list.  The double-release guard must
    // still hold once the id has cycled through that handoff path.
    ConnectionIdAllocator ids;
    ConnectionPool pool("p", 1, ids);
    ConnectionId held = kNoConnection;
    pool.acquire([&](ConnectionId id) { held = id; });
    ConnectionId handed = kNoConnection;
    pool.acquire([&](ConnectionId id) { handed = id; });
    EXPECT_EQ(handed, kNoConnection);

    pool.release(held);
    EXPECT_EQ(handed, held);  // waiter now owns it, still busy
    EXPECT_EQ(pool.waiters(), 0u);
    EXPECT_EQ(pool.available(), 0);

    pool.release(handed);  // rightful release returns it to the pool
    EXPECT_EQ(pool.available(), 1);
    EXPECT_THROW(pool.release(handed), std::logic_error);
    EXPECT_THROW(pool.release(9999), std::logic_error);
    EXPECT_EQ(pool.available(), 1);
}

TEST(ConnectionPool, IdsAreGloballyUnique)
{
    ConnectionIdAllocator ids;
    ConnectionPool a("a", 2, ids);
    ConnectionPool b("b", 2, ids);
    std::vector<ConnectionId> seen;
    for (ConnectionPool* pool : {&a, &b}) {
        pool->acquire([&](ConnectionId id) { seen.push_back(id); });
        pool->acquire([&](ConnectionId id) { seen.push_back(id); });
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

// -------------------------------------------------------- PathSelector

TEST(PathSelector, DeterministicSinglePath)
{
    PathConfig only;
    only.id = 3;
    only.stageIds = {0};
    PathSelector selector({only});
    EXPECT_TRUE(selector.deterministic());
    random::Rng rng(1);
    EXPECT_EQ(selector.select(rng), 3);
}

TEST(PathSelector, RespectsProbabilities)
{
    PathConfig hit, miss;
    hit.id = 0;
    hit.stageIds = {0};
    hit.probability = 0.9;
    miss.id = 1;
    miss.stageIds = {0};
    miss.probability = 0.1;
    PathSelector selector({hit, miss});
    random::Rng rng(7);
    int misses = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        misses += selector.select(rng) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(misses) / n, 0.1, 0.01);
}

TEST(PathSelector, ZeroTotalProbabilityThrows)
{
    PathConfig p;
    p.stageIds = {0};
    p.probability = 0.0;
    EXPECT_THROW(PathSelector({p}), std::invalid_argument);
    EXPECT_THROW(PathSelector({}), std::invalid_argument);
}

TEST(PathConfig, FromJson)
{
    const auto doc = json::parse(R"({
        "path_id": 1, "path_name": "memcached_write",
        "stages": [0, 1, 3, 4], "probability": 0.25})");
    const PathConfig config = PathConfig::fromJson(doc);
    EXPECT_EQ(config.id, 1);
    EXPECT_EQ(config.name, "memcached_write");
    EXPECT_EQ(config.stageIds, (std::vector<int>{0, 1, 3, 4}));
    EXPECT_DOUBLE_EQ(config.probability, 0.25);
}

// -------------------------------------------------------- ServiceModel

TEST(ServiceModel, FromJsonListing1)
{
    // The paper's Listing 1 template (extended with service times).
    const auto doc = json::parse(R"({
        "service_name": "memcached",
        "threads": 4,
        "stages": [
            {"stage_name": "epoll", "stage_id": 0,
             "queue_type": "epoll", "batching": true,
             "queue_parameter": [null, 8]},
            {"stage_name": "socket_read", "stage_id": 1,
             "queue_type": "socket", "batching": true,
             "queue_parameter": [8]},
            {"stage_name": "memcached_processing", "stage_id": 2,
             "queue_type": "single", "batching": false,
             "queue_parameter": null},
            {"stage_name": "socket_send", "stage_id": 3,
             "queue_type": "single", "batching": false,
             "queue_parameter": null}],
        "paths": [
            {"path_id": 0, "path_name": "memcached_read",
             "stages": [0, 1, 2, 3]},
            {"path_id": 1, "path_name": "memcached_write",
             "stages": [0, 1, 2, 3]}]})");
    auto model = ServiceModel::fromJson(doc);
    EXPECT_EQ(model->name(), "memcached");
    EXPECT_EQ(model->stages().size(), 4u);
    EXPECT_EQ(model->paths().size(), 2u);
    EXPECT_EQ(model->defaultThreads(), 4);
    EXPECT_EQ(model->pathIdByName("memcached_write"), 1);
    EXPECT_THROW(model->pathIdByName("nope"), std::out_of_range);
    EXPECT_EQ(model->stage(1).queueType, QueueType::Socket);
    EXPECT_THROW(model->stage(9), std::out_of_range);
    EXPECT_THROW(model->path(9), std::out_of_range);
    EXPECT_FALSE(model->usesDisk());
}

TEST(ServiceModel, NonContiguousStageIdsThrow)
{
    StageConfig s0, s2;
    s0.id = 0;
    s2.id = 2;
    PathConfig p;
    p.stageIds = {0};
    EXPECT_THROW(ServiceModel("bad", {s0, s2}, {p}),
                 std::invalid_argument);
}

TEST(ServiceModel, PathReferencingUnknownStageThrows)
{
    StageConfig s0;
    s0.id = 0;
    PathConfig p;
    p.stageIds = {0, 7};
    EXPECT_THROW(ServiceModel("bad", {s0}, {p}),
                 std::invalid_argument);
}

TEST(ServiceModel, ExecutionModelParsing)
{
    EXPECT_EQ(executionModelFromString("simple"),
              ExecutionModel::Simple);
    EXPECT_EQ(executionModelFromString("multi_threaded"),
              ExecutionModel::MultiThreaded);
    EXPECT_THROW(executionModelFromString("gpu"),
                 std::invalid_argument);
    EXPECT_STREQ(executionModelName(ExecutionModel::Simple), "simple");
}

TEST(ServiceModel, SetterValidation)
{
    StageConfig s0;
    s0.id = 0;
    PathConfig p;
    p.stageIds = {0};
    ServiceModel model("m", {s0}, {p});
    EXPECT_THROW(model.setDefaultThreads(0), std::invalid_argument);
    EXPECT_THROW(model.setDefaultDiskChannels(-1),
                 std::invalid_argument);
    EXPECT_THROW(model.setContextSwitchSeconds(-1.0),
                 std::invalid_argument);
}

}  // namespace
}  // namespace uqsim
