/**
 * @file
 * Unit tests for the parallel experiment harness
 * (uqsim/runner/sweep_runner): API contracts, aggregation math,
 * equivalence with the serial sweep, and error propagation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "uqsim/core/sim/sweep.h"
#include "uqsim/models/applications.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

models::ThriftEchoParams
thriftParams(double qps, std::uint64_t seed)
{
    models::ThriftEchoParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.2;
    params.run.durationSeconds = 0.8;
    return params;
}

runner::ReplicatedFactory
thriftFactory()
{
    return [](double qps, std::uint64_t seed) {
        return Simulation::fromBundle(
            models::thriftEchoBundle(thriftParams(qps, seed)));
    };
}

TEST(SweepRunner, OptionValidation)
{
    runner::RunnerOptions bad_jobs;
    bad_jobs.jobs = -1;
    EXPECT_THROW(runner::SweepRunner{bad_jobs}, std::invalid_argument);

    runner::RunnerOptions bad_reps;
    bad_reps.replications = 0;
    EXPECT_THROW(runner::SweepRunner{bad_reps}, std::invalid_argument);

    runner::RunnerOptions bad_conf;
    bad_conf.confidence = 1.5;
    EXPECT_THROW(runner::SweepRunner{bad_conf}, std::invalid_argument);
}

TEST(SweepRunner, RejectsEmptyOrNullSweeps)
{
    runner::SweepRunner sweep_runner;
    EXPECT_THROW(sweep_runner.addSweep("x", {}, thriftFactory()),
                 std::invalid_argument);
    EXPECT_THROW(sweep_runner.addSweep("x", {1000.0}, nullptr),
                 std::invalid_argument);
}

TEST(SweepRunner, RunTwiceThrows)
{
    runner::SweepRunner sweep_runner;
    sweep_runner.addSweep("thrift", {5000.0}, thriftFactory());
    sweep_runner.run();
    EXPECT_THROW(sweep_runner.run(), std::logic_error);
    EXPECT_THROW(
        sweep_runner.addSweep("thrift", {5000.0}, thriftFactory()),
        std::logic_error);
}

TEST(SweepRunner, SingleReplicationMatchesSerialSweep)
{
    // One replication with the base seed must be bitwise identical
    // to a plain serial loop over the same factory.
    const std::vector<double> loads = {8000.0, 20000.0};
    SweepCurve serial;
    for (double qps : loads) {
        SweepPoint point;
        point.offeredQps = qps;
        point.report = Simulation::fromBundle(
                           models::thriftEchoBundle(thriftParams(qps, 1)))
                           ->run();
        serial.points.push_back(std::move(point));
    }

    runner::RunnerOptions options;
    options.jobs = 2;
    options.baseSeed = 1;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("thrift", loads, thriftFactory());
    const SweepCurve parallel =
        sweep_runner.run().front().toSweepCurve();

    ASSERT_EQ(serial.points.size(), parallel.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        const RunReport& a = serial.points[i].report;
        const RunReport& b = parallel.points[i].report;
        EXPECT_EQ(a.completed, b.completed);
        EXPECT_EQ(a.events, b.events);
        EXPECT_EQ(a.achievedQps, b.achievedQps);
        EXPECT_EQ(a.endToEnd.meanMs, b.endToEnd.meanMs);
        EXPECT_EQ(a.endToEnd.p99Ms, b.endToEnd.p99Ms);
    }
}

TEST(SweepRunner, AggregatesAcrossReplications)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 4;
    options.baseSeed = 3;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("thrift", {10000.0}, thriftFactory());
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();

    ASSERT_EQ(curves.size(), 1u);
    const runner::ReplicatedPoint& point = curves[0].points.at(0);
    ASSERT_EQ(point.replications.size(), 4u);

    // Replication seeds follow the documented split.
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(point.replications[static_cast<std::size_t>(r)].seed,
                  runner::replicationSeed(3, r));
    }

    // Across-replication summaries hold one observation per rep.
    EXPECT_EQ(point.meanMs.count(), 4u);
    EXPECT_EQ(point.p99Ms.count(), 4u);
    EXPECT_TRUE(point.meanCi.valid());
    EXPECT_GT(point.meanCi.halfWidth, 0.0);
    EXPECT_NEAR(point.meanCi.mean, point.meanMs.mean(), 1e-12);

    // The pooled recorder holds every completion of every rep.
    std::uint64_t completions = 0;
    for (const runner::ReplicationResult& rep : point.replications)
        completions += rep.report.completed;
    EXPECT_EQ(point.pooled.count(), completions);

    // Merged report: counts sum, latency comes from the pool.
    const RunReport merged = point.mergedReport();
    EXPECT_EQ(merged.completed, completions);
    EXPECT_EQ(merged.endToEnd.count, completions);
    EXPECT_EQ(merged.endToEnd.p99Ms, point.pooled.p99() * 1e3);

    // Different seeds genuinely produce different runs.
    EXPECT_NE(point.replications[0].traceDigest,
              point.replications[1].traceDigest);
}

TEST(SweepRunner, FactoryExceptionsPropagateInStrictMode)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.failurePolicy = runner::FailurePolicy::Propagate;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("bad", {1000.0, 2000.0},
                          [](double qps, std::uint64_t) ->
                          std::unique_ptr<Simulation> {
                              if (qps > 1500.0)
                                  throw std::runtime_error("boom");
                              return Simulation::fromBundle(
                                  models::thriftEchoBundle(
                                      thriftParams(qps, 1)));
                          });
    EXPECT_THROW(sweep_runner.run(), std::runtime_error);
}

TEST(SweepRunner, FactoryExceptionsAreIsolatedByDefault)
{
    // The default policy salvages: the healthy point keeps its
    // results, the throwing point is classified, nothing leaks out
    // of run(), and the pool drains (run() returning proves all
    // workers joined).
    runner::RunnerOptions options;
    options.jobs = 2;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("bad", {1000.0, 2000.0},
                          [](double qps, std::uint64_t) ->
                          std::unique_ptr<Simulation> {
                              if (qps > 1500.0)
                                  throw std::runtime_error("boom");
                              return Simulation::fromBundle(
                                  models::thriftEchoBundle(
                                      thriftParams(qps, 1)));
                          });
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    ASSERT_EQ(curves[0].points.size(), 2u);
    EXPECT_TRUE(curves[0].points[0].replications[0].ok());
    EXPECT_GT(curves[0].points[0].pooled.count(), 0u);
    const runner::ReplicationResult& failed =
        curves[0].points[1].replications[0];
    EXPECT_EQ(failed.failure, runner::FailureKind::InternalError);
    EXPECT_EQ(sweep_runner.failedJobs(), 1);
}

TEST(SweepRunner, UnfinalizedSimulationIsAnError)
{
    runner::RunnerOptions options;
    options.failurePolicy = runner::FailurePolicy::Propagate;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("null", {1000.0},
                          [](double, std::uint64_t) {
                              return std::unique_ptr<Simulation>();
                          });
    EXPECT_THROW(sweep_runner.run(), std::logic_error);
}

TEST(SweepRunner, EffectiveJobsResolvesHardware)
{
    runner::RunnerOptions fixed;
    fixed.jobs = 3;
    EXPECT_EQ(runner::SweepRunner(fixed).effectiveJobs(), 3);

    runner::RunnerOptions hardware;
    hardware.jobs = 0;
    EXPECT_GE(runner::SweepRunner(hardware).effectiveJobs(), 1);
}

TEST(SweepRunner, RunReplicatedConvenience)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 2;
    options.baseSeed = 11;
    const runner::ReplicatedPoint point =
        runner::runReplicated(thriftFactory(), 9000.0, options);
    EXPECT_EQ(point.replications.size(), 2u);
    EXPECT_DOUBLE_EQ(point.offeredQps, 9000.0);
    EXPECT_GT(point.pooled.count(), 0u);
}

TEST(SweepRunner, FormatReplicatedTableShowsIntervals)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    options.replications = 2;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("thrift", {8000.0}, thriftFactory());
    const std::string table =
        runner::formatReplicatedTable(sweep_runner.run());
    EXPECT_NE(table.find("thrift.mean"), std::string::npos);
    EXPECT_NE(table.find("thrift.p99"), std::string::npos);
    EXPECT_NE(table.find("±"), std::string::npos);
}

TEST(SweepRunner, MultipleSweepsKeepTheirOrder)
{
    runner::RunnerOptions options;
    options.jobs = 2;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("a", {5000.0}, thriftFactory());
    sweep_runner.addSweep("b", {6000.0}, thriftFactory());
    const std::vector<runner::ReplicatedCurve> curves =
        sweep_runner.run();
    ASSERT_EQ(curves.size(), 2u);
    EXPECT_EQ(curves[0].label, "a");
    EXPECT_EQ(curves[1].label, "b");
    EXPECT_DOUBLE_EQ(curves[0].points[0].offeredQps, 5000.0);
    EXPECT_DOUBLE_EQ(curves[1].points[0].offeredQps, 6000.0);
}

}  // namespace
}  // namespace uqsim
