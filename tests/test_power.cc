/**
 * @file
 * Tests for the power-management subsystem: bucket learning state,
 * Algorithm 1's decision behavior, and the energy model.
 */

#include <gtest/gtest.h>

#include "uqsim/power/energy_model.h"
#include "uqsim/power/power_manager.h"
#include "uqsim/power/qos_bucket.h"

namespace uqsim {
namespace power {
namespace {

// ----------------------------------------------------------- QosBucket

TEST(TierTuple, RelaxationOrder)
{
    EXPECT_TRUE(noMoreRelaxedThan({1.0, 2.0}, {1.0, 2.0}));
    EXPECT_TRUE(noMoreRelaxedThan({0.5, 2.0}, {1.0, 2.0}));
    EXPECT_FALSE(noMoreRelaxedThan({1.5, 2.0}, {1.0, 2.5}));
    EXPECT_THROW(noMoreRelaxedThan({1.0}, {1.0, 2.0}),
                 std::invalid_argument);
}

TEST(QosBucket, InsertAndSample)
{
    QosBucket bucket(0.0, 1e-3);
    EXPECT_TRUE(bucket.empty());
    EXPECT_TRUE(bucket.insert({1e-4, 2e-4}));
    EXPECT_EQ(bucket.tupleCount(), 1u);
    random::Rng rng(1);
    EXPECT_EQ(bucket.sampleTuple(rng), (TierTuple{1e-4, 2e-4}));
}

TEST(QosBucket, RejectsTuplesMoreRelaxedThanFailures)
{
    QosBucket bucket(0.0, 1e-3);
    bucket.recordFailure({2e-4, 3e-4});
    // More relaxed than the failure in every component: rejected.
    EXPECT_FALSE(bucket.insert({3e-4, 4e-4}));
    // Tighter in one component: accepted.
    EXPECT_TRUE(bucket.insert({1e-4, 5e-4}));
    EXPECT_EQ(bucket.failureCount(), 1u);
}

TEST(QosBucket, FailureInvalidatesStoredTuples)
{
    QosBucket bucket(0.0, 1e-3);
    EXPECT_TRUE(bucket.insert({3e-4, 4e-4}));
    EXPECT_TRUE(bucket.insert({1e-4, 1e-4}));
    bucket.recordFailure({2e-4, 2e-4});
    // {3e-4, 4e-4} is at least as relaxed as the failure: dropped.
    EXPECT_EQ(bucket.tupleCount(), 1u);
}

TEST(QosBucket, PreferenceDynamics)
{
    QosBucket bucket(0.0, 1.0);
    const double initial = bucket.preference();
    bucket.reward();
    EXPECT_GT(bucket.preference(), initial);
    bucket.penalize();
    bucket.penalize();
    EXPECT_LT(bucket.preference(), initial);
    for (int i = 0; i < 200; ++i)
        bucket.reward();
    const double capped = bucket.preference();
    bucket.reward();
    EXPECT_DOUBLE_EQ(bucket.preference(), capped);  // capped
    for (int i = 0; i < 200; ++i)
        bucket.penalize();
    EXPECT_GT(bucket.preference(), 0.0);  // floored
}

TEST(QosBucket, SampleOnEmptyThrows)
{
    QosBucket bucket(0.0, 1.0);
    random::Rng rng(1);
    EXPECT_THROW(bucket.sampleTuple(rng), std::logic_error);
}

TEST(QosBucketTable, Classify)
{
    QosBucketTable table(10e-3, 10);
    EXPECT_EQ(table.size(), 10u);
    EXPECT_EQ(table.classify(0.5e-3), 0u);
    EXPECT_EQ(table.classify(9.5e-3), 9u);
    // Values at/over the target land in the last bucket.
    EXPECT_EQ(table.classify(50e-3), 9u);
}

TEST(QosBucketTable, ChooseSkipsEmptyBuckets)
{
    QosBucketTable table(10e-3, 4);
    random::Rng rng(5);
    EXPECT_EQ(table.choose(rng), table.size());  // all empty
    table.bucket(2).insert({1e-3});
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(table.choose(rng), 2u);
}

TEST(QosBucketTable, ChooseWeightedByPreference)
{
    QosBucketTable table(10e-3, 2);
    table.bucket(0).insert({1e-3});
    table.bucket(1).insert({2e-3});
    for (int i = 0; i < 6; ++i)
        table.bucket(1).reward();
    for (int i = 0; i < 3; ++i)
        table.bucket(0).penalize();
    random::Rng rng(9);
    int hi = 0;
    for (int i = 0; i < 2000; ++i)
        hi += table.choose(rng) == 1 ? 1 : 0;
    EXPECT_GT(hi, 1600);
}

TEST(QosBucketTable, InvalidParamsThrow)
{
    EXPECT_THROW(QosBucketTable(0.0, 4), std::invalid_argument);
    EXPECT_THROW(QosBucketTable(1e-3, 0), std::invalid_argument);
    EXPECT_THROW(QosBucket(1.0, 0.5), std::invalid_argument);
}

// --------------------------------------------------------- PowerManager

struct ManagerFixture {
    explicit ManagerFixture(double interval = 0.1)
        : sim(3),
          frontDomain(hw::DvfsTable::paperDefault(), "front"),
          backDomain(hw::DvfsTable::paperDefault(), "back")
    {
        PowerManagerConfig config;
        config.intervalSeconds = interval;
        config.qosTargetSeconds = 5e-3;
        config.minWindowSamples = 10;
        manager = std::make_unique<PowerManager>(
            sim, config,
            std::vector<TierControl>{{"front", {&frontDomain}},
                                     {"back", {&backDomain}}});
    }

    /** Feeds a window's worth of latencies (seconds). */
    void
    feedWindow(double end_to_end, double front, double back)
    {
        for (int i = 0; i < 50; ++i) {
            manager->noteEndToEnd(end_to_end);
            manager->noteTierLatency("front", front);
            manager->noteTierLatency("back", back);
        }
    }

    Simulator sim;
    hw::DvfsDomain frontDomain;
    hw::DvfsDomain backDomain;
    std::unique_ptr<PowerManager> manager;
};

TEST(PowerManager, SlowsDownOneTierWhenQosMet)
{
    ManagerFixture fx;
    fx.manager->start();
    // Comfortably under the 5 ms target with huge slack everywhere.
    fx.feedWindow(1e-3, 0.4e-3, 0.2e-3);
    fx.sim.run(secondsToSimTime(0.1));
    EXPECT_EQ(fx.manager->windows(), 1u);
    EXPECT_EQ(fx.manager->violations(), 0u);
    // Exactly one tier slowed one step.
    const int steps_down =
        (fx.frontDomain.atNominal() ? 0 : 1) +
        (fx.backDomain.atNominal() ? 0 : 1);
    EXPECT_EQ(steps_down, 1);
}

TEST(PowerManager, SpeedsUpOnViolation)
{
    ManagerFixture fx;
    // Start both tiers slow.
    fx.frontDomain.setFrequency(1.2);
    fx.backDomain.setFrequency(1.2);
    fx.manager->start();
    fx.feedWindow(20e-3, 15e-3, 5e-3);  // violating
    fx.sim.run(secondsToSimTime(0.1));
    EXPECT_EQ(fx.manager->violations(), 1u);
    // Both tiers exceed their (even-split 2.5ms) targets: sped up.
    EXPECT_GT(fx.frontDomain.frequency(), 1.2);
    EXPECT_GT(fx.backDomain.frequency(), 1.2);
}

TEST(PowerManager, EmptyWindowsAreSkipped)
{
    ManagerFixture fx;
    fx.manager->start();
    fx.sim.run(secondsToSimTime(0.55));
    EXPECT_EQ(fx.manager->windows(), 0u);
    EXPECT_TRUE(fx.frontDomain.atNominal());
}

TEST(PowerManager, EachDecisionSeesOnlyItsOwnWindow)
{
    ManagerFixture fx;
    fx.frontDomain.setFrequency(1.2);
    fx.backDomain.setFrequency(1.2);
    fx.manager->start();
    fx.feedWindow(20e-3, 15e-3, 5e-3);  // violating, first interval
    fx.sim.run(secondsToSimTime(0.15));
    ASSERT_EQ(fx.manager->violations(), 1u);
    const double front = fx.frontDomain.frequency();
    const double back = fx.backDomain.frequency();
    // Nothing noted in the second interval: its decision must not
    // re-read the first window's samples.
    fx.sim.run(secondsToSimTime(0.25));
    EXPECT_EQ(fx.manager->windows(), 1u);
    EXPECT_EQ(fx.manager->violations(), 1u);
    EXPECT_EQ(fx.frontDomain.frequency(), front);
    EXPECT_EQ(fx.backDomain.frequency(), back);
}

TEST(PowerManager, LearnsBucketsOverTime)
{
    ManagerFixture fx;
    fx.manager->start();
    std::function<void()> feed = [&] {
        fx.feedWindow(2e-3, 1.2e-3, 0.6e-3);
        fx.sim.scheduleAfter(secondsToSimTime(0.1), feed);
    };
    fx.sim.scheduleAt(0, feed);
    fx.sim.run(secondsToSimTime(2.0));
    EXPECT_GT(fx.manager->windows(), 15u);
    // The 2 ms bucket accumulated tuples.
    const auto& table = fx.manager->buckets();
    EXPECT_FALSE(table.bucket(table.classify(2e-3)).empty());
    // Frequencies have been lowered (energy saved) without
    // violations.
    EXPECT_EQ(fx.manager->violations(), 0u);
    EXPECT_TRUE(fx.frontDomain.atLowest() || fx.backDomain.atLowest() ||
                !fx.frontDomain.atNominal() ||
                !fx.backDomain.atNominal());
}

TEST(PowerManager, SeriesAndRatesExposed)
{
    ManagerFixture fx;
    fx.manager->start();
    fx.feedWindow(6e-3, 3e-3, 3e-3);  // violation
    fx.sim.run(secondsToSimTime(0.1));
    EXPECT_DOUBLE_EQ(fx.manager->violationRate(), 1.0);
    EXPECT_EQ(fx.manager->tailSeries().size(), 1u);
    EXPECT_NEAR(fx.manager->tailSeries().points()[0].value, 6.0,
                1e-9);
    EXPECT_GE(fx.manager->frequencySeries("front").size(), 1u);
    EXPECT_THROW(fx.manager->frequencySeries("nope"),
                 std::out_of_range);
}

TEST(PowerManager, ConstructorValidation)
{
    Simulator sim;
    PowerManagerConfig config;
    EXPECT_THROW(PowerManager(sim, config, {}),
                 std::invalid_argument);
    hw::DvfsDomain domain(hw::DvfsTable::paperDefault());
    config.intervalSeconds = 0.0;
    EXPECT_THROW(PowerManager(
                     sim, config,
                     std::vector<TierControl>{{"t", {&domain}}}),
                 std::invalid_argument);
    config.intervalSeconds = 0.1;
    EXPECT_THROW(
        PowerManager(sim, config,
                     std::vector<TierControl>{{"t", {}}}),
        std::invalid_argument);
}

// --------------------------------------------------------- EnergyModel

TEST(EnergyTracker, NominalPower)
{
    Simulator sim;
    hw::DvfsDomain domain(hw::DvfsTable::paperDefault());
    EnergyTracker tracker(sim, domain, 4);
    // 4 cores x (2 + 8) W at nominal.
    EXPECT_DOUBLE_EQ(tracker.currentWatts(), 40.0);
    EXPECT_DOUBLE_EQ(tracker.nominalWatts(), 40.0);
}

TEST(EnergyTracker, CubicScalingOnStepDown)
{
    Simulator sim;
    hw::DvfsDomain domain(hw::DvfsTable({1.3, 2.6}));
    EnergyTracker tracker(sim, domain, 1);
    domain.stepDown();
    // 2 + 8 * 0.5^3 = 3 W.
    EXPECT_DOUBLE_EQ(tracker.currentWatts(), 3.0);
}

TEST(EnergyTracker, IntegratesAcrossChanges)
{
    Simulator sim;
    hw::DvfsDomain domain(hw::DvfsTable({1.3, 2.6}));
    EnergyTracker tracker(sim, domain, 1);
    sim.scheduleAt(kSecond, [&] { domain.stepDown(); });
    sim.scheduleAt(2 * kSecond, [] {});
    sim.run();
    // 1s at 10W + 1s at 3W = 13 J; nominal would be 20 J.
    EXPECT_NEAR(tracker.consumedJoules(), 13.0, 1e-6);
    EXPECT_NEAR(tracker.nominalJoules(), 20.0, 1e-6);
    EXPECT_NEAR(tracker.savingsFraction(), 0.35, 1e-6);
}

TEST(EnergyTracker, InvalidCoresThrow)
{
    Simulator sim;
    hw::DvfsDomain domain(hw::DvfsTable::paperDefault());
    EXPECT_THROW(EnergyTracker(sim, domain, 0),
                 std::invalid_argument);
}

}  // namespace
}  // namespace power
}  // namespace uqsim
