/**
 * @file
 * Network-model tests: max-min fair-share math against closed
 * forms, FlowModel timing against analytical incast shares, fat-tree
 * generator invariants, machines.json schema v2 validation, the
 * capacity-doubling metamorphic property, and FlowModel digest
 * determinism across runner thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"
#include "uqsim/hw/topology.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/models/applications.h"
#include "uqsim/random/rng.h"
#include "uqsim/runner/sweep_runner.h"

namespace uqsim {
namespace {

using hw::Cluster;
using hw::FatTreeConfig;
using hw::FlowModel;
using hw::MachineConfig;
using hw::Outcome;
using hw::Topology;
using hw::TopologyBuilder;

// ----------------------------------------------- max-min fair shares

TEST(MaxMinFairShares, SingleLinkSplitsEvenly)
{
    const auto rates = hw::maxMinFairShares({10.0}, {{0}, {0}});
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
}

TEST(MaxMinFairShares, ClassicTwoLinkClosedForm)
{
    // Textbook case: link 0 (cap 10) carries {A, B}; link 1 (cap 20)
    // carries {B, C}.  Max-min: A = B = 5, C = 20 - 5 = 15.
    const auto rates =
        hw::maxMinFairShares({10.0, 20.0}, {{0}, {0, 1}, {1}});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 5.0);
    EXPECT_DOUBLE_EQ(rates[1], 5.0);
    EXPECT_DOUBLE_EQ(rates[2], 15.0);
}

TEST(MaxMinFairShares, ChainProgressiveFilling)
{
    // f0 crosses every link; the cap-1 link pins it to 1, after
    // which f1 gets the rest of link 1 and f2 the rest of link 2.
    const auto rates =
        hw::maxMinFairShares({1.0, 2.0, 4.0}, {{0, 1, 2}, {1}, {2}});
    ASSERT_EQ(rates.size(), 3u);
    EXPECT_DOUBLE_EQ(rates[0], 1.0);
    EXPECT_DOUBLE_EQ(rates[1], 1.0);
    EXPECT_DOUBLE_EQ(rates[2], 3.0);
}

TEST(MaxMinFairShares, EmptyPathConsumesNothing)
{
    const auto rates = hw::maxMinFairShares({8.0}, {{}, {0}});
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 0.0);
    EXPECT_DOUBLE_EQ(rates[1], 8.0);
}

/** The progressive-filling loop as it stood before MaxMinFill: every
 *  link scanned each round, ties to the lowest index by scan order.
 *  Kept verbatim as the bit-for-bit reference for the kernel. */
std::vector<double>
referenceMaxMinFairShares(const std::vector<double>& capacities,
                          const std::vector<std::vector<int>>& paths)
{
    std::vector<double> rates(paths.size(), 0.0);
    std::vector<double> capLeft = capacities;
    std::vector<int> flowsOn(capacities.size(), 0);
    std::vector<bool> fixed(paths.size(), false);
    std::size_t unfixed = 0;
    for (std::size_t f = 0; f < paths.size(); ++f) {
        if (paths[f].empty()) {
            fixed[f] = true;
            continue;
        }
        ++unfixed;
        for (int l : paths[f])
            ++flowsOn[static_cast<std::size_t>(l)];
    }
    while (unfixed > 0) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bestLink = capacities.size();
        for (std::size_t l = 0; l < capacities.size(); ++l) {
            if (flowsOn[l] <= 0)
                continue;
            const double share = capLeft[l] / flowsOn[l];
            if (share < best) {
                best = share;
                bestLink = l;
            }
        }
        if (bestLink == capacities.size())
            break;
        for (std::size_t f = 0; f < paths.size(); ++f) {
            if (fixed[f])
                continue;
            bool crosses = false;
            for (int l : paths[f]) {
                if (static_cast<std::size_t>(l) == bestLink) {
                    crosses = true;
                    break;
                }
            }
            if (!crosses)
                continue;
            fixed[f] = true;
            --unfixed;
            rates[f] = best;
            for (int l : paths[f]) {
                const auto li = static_cast<std::size_t>(l);
                capLeft[li] -= best;
                if (capLeft[li] < 0.0)
                    capLeft[li] = 0.0;
                --flowsOn[li];
            }
        }
    }
    return rates;
}

std::vector<std::uint64_t>
rateBits(const std::vector<double>& rates)
{
    std::vector<std::uint64_t> bits;
    for (const double rate : rates)
        bits.push_back(std::bit_cast<std::uint64_t>(rate));
    return bits;
}

TEST(MaxMinFairShares, KernelMatchesReferenceBitForBit)
{
    // Seeded random instances in three families: capacities from a
    // few small integers (exact share ties across links), real-valued
    // capacities, and either with some links down (capacity 0).
    // Every rate must equal the reference's to the last bit.
    random::Rng rng(20261017);
    const auto below = [&rng](int n) {
        return static_cast<int>(
            rng.nextBounded(static_cast<std::uint64_t>(n)));
    };
    int tiedInstances = 0;
    int multiRound = 0;
    int withDownLinks = 0;
    for (int instance = 0; instance < 4000; ++instance) {
        const int family = instance % 3;
        const int links = 1 + below(12);
        std::vector<double> capacities;
        bool anyDown = false;
        for (int l = 0; l < links; ++l) {
            double cap = family == 1 ? 1e6 * (0.5 + rng.nextDouble())
                                     : 1e6 * (1 + below(4));
            if (family == 2 && below(4) == 0) {
                cap = 0.0;
                anyDown = true;
            }
            capacities.push_back(cap);
        }
        std::vector<std::vector<int>> paths(
            static_cast<std::size_t>(below(17)));
        for (auto& path : paths) {
            // Distinct links in random order, as routes are.
            for (int l = 0; l < links; ++l) {
                if (below(3) == 0)
                    path.push_back(l);
            }
            for (std::size_t i = path.size(); i > 1; --i) {
                std::swap(path[i - 1],
                          path[static_cast<std::size_t>(
                              below(static_cast<int>(i)))]);
            }
        }
        const std::vector<double> expected =
            referenceMaxMinFairShares(capacities, paths);
        ASSERT_EQ(rateBits(hw::maxMinFairShares(capacities, paths)),
                  rateBits(expected))
            << "instance " << instance;

        std::vector<double> positive;
        for (const double rate : expected) {
            if (rate > 0.0)
                positive.push_back(rate);
        }
        std::sort(positive.begin(), positive.end());
        if (std::unique(positive.begin(), positive.end()) -
                positive.begin() > 1)
            ++multiRound;
        std::vector<double> sorted = capacities;
        std::sort(sorted.begin(), sorted.end());
        if (family == 0 &&
            std::adjacent_find(sorted.begin(), sorted.end()) !=
                sorted.end())
            ++tiedInstances;
        if (anyDown && !paths.empty())
            ++withDownLinks;
    }
    EXPECT_GT(tiedInstances, 500);
    EXPECT_GT(multiRound, 1000);
    EXPECT_GT(withDownLinks, 300);
}

TEST(MaxMinFairShares, EqualSharesBreakTowardLowestLink)
{
    // Link 0 (capacity 1, three flows) and link 1 (capacity 2, six
    // flows) tie at share 1/3, and flow 0 crosses link 1 first.
    // Which link is filled first shows in the last bit: the second
    // link's leftover split rounds to 1/3 + 1 ulp.  Lowest index
    // wins, so flows 1 and 2 get exactly 1/3.
    const std::vector<double> capacities = {1.0, 2.0};
    const std::vector<std::vector<int>> paths = {
        {1, 0}, {0}, {0}, {1}, {1}, {1}, {1}, {1}};
    const std::vector<double> rates =
        hw::maxMinFairShares(capacities, paths);
    EXPECT_EQ(rateBits(rates),
              rateBits(referenceMaxMinFairShares(capacities, paths)));
    const double third = 1.0 / 3.0;
    EXPECT_EQ(rates[1], third);
    EXPECT_EQ(rates[3], (2.0 - third) / 5);
    EXPECT_NE(rates[3], third);
}

// --------------------------------------------------- FlowModel timing

/** No IRQ cores: transfer timing is purely the flow model's. */
MachineConfig
bareMachine(const std::string& name)
{
    MachineConfig config;
    config.name = name;
    config.cores = 2;
    config.irqCores = 0;
    return config;
}

TEST(FlowModel, SingleFlowPaysTransmissionPlusLatency)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int link = flow_model->addLink({"ab", 1e6, 10e-6});
    flow_model->setRoute(0, 1, {link});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));

    SimTime done_at = -1;
    cluster.network().transfer(&a, &b, 500000,
                               [&](Outcome) { done_at = sim.now(); });
    sim.run();
    // 500 kB over 1 MB/s = 0.5 s transmission + 10 us propagation.
    EXPECT_EQ(done_at, secondsToSimTime(0.5) + secondsToSimTime(10e-6));
    EXPECT_EQ(flow_model->flowsStarted(), 1u);
    EXPECT_EQ(flow_model->flowsFinished(), 1u);
    EXPECT_EQ(flow_model->activeFlowCount(), 0u);
}

TEST(FlowModel, ZeroBytesSkipBandwidthSharing)
{
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int link = flow_model->addLink({"ab", 1e6, 10e-6});
    flow_model->setRoute(0, 1, {link});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));

    SimTime done_at = -1;
    cluster.network().transfer(&a, &b, 0,
                               [&](Outcome) { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at, secondsToSimTime(10e-6));
    EXPECT_EQ(flow_model->flowsStarted(), 0u);
}

TEST(FlowModel, MissingRouteThrows)
{
    Simulator sim(1);
    Cluster cluster(sim, FlowModel::make());
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));
    EXPECT_THROW(cluster.network().transfer(&a, &b, 100, [](Outcome) {}),
                 std::logic_error);
}

TEST(FlowModel, RejectsZeroCapacityAndDuplicateLinks)
{
    FlowModel model;
    EXPECT_THROW(model.addLink({"bad", 0.0, 0.0}),
                 std::invalid_argument);
    model.addLink({"ok", 1.0, 0.0});
    EXPECT_THROW(model.addLink({"ok", 1.0, 0.0}),
                 std::invalid_argument);
    EXPECT_EQ(model.linkId("ok"), 0);
    EXPECT_EQ(model.linkId("absent"), -1);
}

/** N equal senders into one oversubscribed down-link: per-flow
 *  throughput must match the analytical max-min share cap/N. */
TEST(FlowModel, IncastThroughputMatchesAnalyticalShare)
{
    constexpr int kSenders = 8;
    constexpr double kDownCap = 1.25e8;    // 1 Gb/s receiver NIC
    constexpr double kUpCap = 1.25e9;      // 10 Gb/s sender NICs
    constexpr double kLatency = 1e-6;      // per link
    constexpr std::uint32_t kBytes = 1000000;

    Simulator sim(7);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kDownCap, kLatency});
    for (int i = 0; i < kSenders; ++i) {
        const int up = flow_model->addLink(
            {"up" + std::to_string(i), kUpCap, kLatency});
        flow_model->setRoute(1 + i, 0, {up, down});
    }
    Cluster cluster(sim, std::move(model));
    hw::Machine& receiver = cluster.addMachine(bareMachine("recv"));
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < kSenders; ++i) {
        senders.push_back(&cluster.addMachine(
            bareMachine("send" + std::to_string(i))));
    }

    std::vector<SimTime> done_at(kSenders, -1);
    for (int i = 0; i < kSenders; ++i) {
        sim.scheduleAt(0,
                       [&, i]() {
                           cluster.network().transfer(
                               senders[i], &receiver, kBytes,
                               [&, i](Outcome) {
                                   done_at[i] = sim.now();
                               });
                       },
                       "incast/start");
    }
    sim.run();

    const double share = kDownCap / kSenders;
    for (int i = 0; i < kSenders; ++i) {
        ASSERT_GE(done_at[i], 0) << "flow " << i << " never finished";
        const double elapsed =
            simTimeToSeconds(done_at[i]) - 2 * kLatency;
        const double throughput = kBytes / elapsed;
        EXPECT_NEAR(throughput, share, share * 0.05)
            << "flow " << i << " off the analytical max-min share";
    }
    EXPECT_EQ(flow_model->flowsFinished(),
              static_cast<std::uint64_t>(kSenders));
}

/** A slow sender uplink is the bottleneck for that flow only; the
 *  others re-share the receiver link when it frees up. */
TEST(FlowModel, SlowUplinkBoundsOnlyItsOwnFlow)
{
    constexpr double kDownCap = 1.2e8;
    constexpr double kSlowCap = 5e6;
    constexpr std::uint32_t kBytes = 1000000;

    Simulator sim(7);
    auto model = FlowModel::make();
    const int down = model->addLink({"down", kDownCap, 0.0});
    const int slow = model->addLink({"up0", kSlowCap, 0.0});
    model->setRoute(1, 0, {slow, down});
    for (int i = 1; i < 8; ++i) {
        const int up = model->addLink(
            {"up" + std::to_string(i), 1.25e9, 0.0});
        model->setRoute(1 + i, 0, {up, down});
    }
    Cluster cluster(sim, std::move(model));
    hw::Machine& receiver = cluster.addMachine(bareMachine("recv"));
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < 8; ++i) {
        senders.push_back(&cluster.addMachine(
            bareMachine("send" + std::to_string(i))));
    }
    std::vector<SimTime> done_at(8, -1);
    for (int i = 0; i < 8; ++i) {
        sim.scheduleAt(0,
                       [&, i]() {
                           cluster.network().transfer(
                               senders[i], &receiver, kBytes,
                               [&, i](Outcome) {
                                   done_at[i] = sim.now();
                               });
                       },
                       "incast/start");
    }
    sim.run();
    // Flow 0 is pinned to its 5 MB/s uplink throughout: 0.2 s.
    EXPECT_NEAR(simTimeToSeconds(done_at[0]), kBytes / kSlowCap,
                1e-6);
    // The other seven share what the slow flow leaves of the
    // receiver link: (120 - 5) MB/s / 7 each.
    const double fast_share = (kDownCap - kSlowCap) / 7;
    for (int i = 1; i < 8; ++i) {
        EXPECT_NEAR(simTimeToSeconds(done_at[i]), kBytes / fast_share,
                    kBytes / fast_share * 0.05);
    }
}

TEST(FlowModel, RecycledFlowSlotStartsClean)
{
    // The second flow starts after the first finished, on another
    // route, and takes its recycled slot.  It must finish at the
    // closed form: nothing of the first flow's rate or completion may
    // survive in the slot.
    Simulator sim(1);
    auto model = FlowModel::make();
    FlowModel* flow_model = model.get();
    const int ab = flow_model->addLink({"ab", 1e6, 10e-6});
    const int cd = flow_model->addLink({"cd", 4e5, 30e-6});
    flow_model->setRoute(0, 1, {ab});
    flow_model->setRoute(2, 3, {cd});
    Cluster cluster(sim, std::move(model));
    hw::Machine& a = cluster.addMachine(bareMachine("a"));
    hw::Machine& b = cluster.addMachine(bareMachine("b"));
    hw::Machine& c = cluster.addMachine(bareMachine("c"));
    hw::Machine& d = cluster.addMachine(bareMachine("d"));

    SimTime first_done = -1;
    SimTime second_done = -1;
    const SimTime second_start = secondsToSimTime(0.75);
    cluster.network().transfer(&a, &b, 500000,
                               [&](Outcome) { first_done = sim.now(); });
    sim.scheduleAt(
        second_start,
        [&]() {
            cluster.network().transfer(
                &c, &d, 200000,
                [&](Outcome) { second_done = sim.now(); });
        },
        "test/start");
    sim.run();
    EXPECT_EQ(first_done,
              secondsToSimTime(0.5) + secondsToSimTime(10e-6));
    EXPECT_EQ(second_done, second_start +
                               secondsToSimTime(200000 / 4e5) +
                               secondsToSimTime(30e-6));
    EXPECT_EQ(flow_model->flowsFinished(), 2u);
    EXPECT_EQ(flow_model->activeFlowCount(), 0u);
}

TEST(FlowModel, DroppingMiddleFlowLeavesSurvivorsExact)
{
    // Three flows share a receiver link; the middle one (by flow id)
    // also crosses a link that dies at 0.25 s and is dropped.  The
    // survivors run at a third of the receiver link, then at half,
    // and finish at the closed form.
    constexpr double kCap = 1.2e6;
    constexpr double kBytes = 300000;
    constexpr double kLatency = 10e-6;
    Simulator sim(1);
    auto model = FlowModel::make();  // default policy: Drop
    FlowModel* flow_model = model.get();
    const int down = flow_model->addLink({"down", kCap, kLatency});
    const int up0 = flow_model->addLink({"up0", 1e9, 0.0});
    const int mid = flow_model->addLink({"mid", 1e9, 0.0});
    const int up2 = flow_model->addLink({"up2", 1e9, 0.0});
    flow_model->setRoute(1, 0, {up0, down});
    flow_model->setRoute(2, 0, {mid, down});
    flow_model->setRoute(3, 0, {up2, down});
    Cluster cluster(sim, std::move(model));
    hw::Machine& recv = cluster.addMachine(bareMachine("recv"));
    std::vector<hw::Machine*> senders;
    for (int i = 0; i < 3; ++i) {
        senders.push_back(&cluster.addMachine(
            bareMachine("s" + std::to_string(i))));
    }

    std::vector<SimTime> done_at(3, -1);
    int drops = 0;
    Outcome reason = Outcome::Delivered;
    sim.scheduleAt(
        0,
        [&]() {
            for (int i = 0; i < 3; ++i) {
                cluster.network().transfer(
                    senders[static_cast<std::size_t>(i)], &recv,
                    static_cast<std::uint32_t>(kBytes),
                    [&, i](Outcome outcome) {
                        if (outcome == Outcome::Delivered) {
                            done_at[static_cast<std::size_t>(i)] =
                                sim.now();
                            return;
                        }
                        reason = outcome;
                        ++drops;
                    });
            }
        },
        "test/start");
    const SimTime down_at = secondsToSimTime(0.25);
    sim.scheduleAt(down_at, [&]() { flow_model->setLinkDown(mid); },
                   "test/down");
    sim.run();

    EXPECT_EQ(drops, 1);
    EXPECT_EQ(reason, Outcome::LinkDown);
    EXPECT_EQ(done_at[1], -1);
    const double left = kBytes - kCap / 3 * 0.25;
    const SimTime expected = down_at +
                             secondsToSimTime(left / (kCap / 2)) +
                             secondsToSimTime(kLatency);
    EXPECT_EQ(done_at[0], expected);
    EXPECT_EQ(done_at[2], expected);
    EXPECT_EQ(flow_model->flowsFinished(), 2u);
    EXPECT_EQ(flow_model->activeFlowCount(), 0u);
}

// ------------------------------------------- topology generator

TEST(Topology, FourAryFatTreeCounts)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 4.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    EXPECT_EQ(topo.hostsPerEdge, 8);
    EXPECT_EQ(topo.hostCount, 64);
    EXPECT_EQ(topo.edgeCount, 8);
    EXPECT_EQ(topo.aggCount, 8);
    EXPECT_EQ(topo.coreCount, 4);
    // Directional links: 2 per host NIC + k^3 fabric links.
    EXPECT_EQ(topo.links.size(),
              static_cast<std::size_t>(2 * 64 + 4 * 4 * 4));
    EXPECT_EQ(topo.hostNames.front(), "h0");
    EXPECT_EQ(topo.hostNames.back(), "h63");
}

TEST(Topology, KAryLinkCountFormula)
{
    for (int k : {2, 4, 6, 8}) {
        FatTreeConfig config;
        config.arity = k;
        config.oversubscription = 1.0;
        const Topology topo = TopologyBuilder::fatTree(config);
        const int half = k / 2;
        EXPECT_EQ(topo.hostCount, k * half * half);
        EXPECT_EQ(topo.links.size(),
                  static_cast<std::size_t>(2 * topo.hostCount +
                                           k * k * k))
            << "k=" << k;
    }
}

TEST(Topology, PathSymmetryAndHopCounts)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 2.0;
    const Topology topo = TopologyBuilder::fatTree(config);
    const int hosts_per_edge = topo.hostsPerEdge;
    const int hosts_per_pod = (config.arity / 2) * hosts_per_edge;
    for (int s = 0; s < topo.hostCount; ++s) {
        for (int d = 0; d < topo.hostCount; ++d) {
            if (s == d)
                continue;
            const auto& forward = topo.route(s, d);
            const auto& reverse = topo.route(d, s);
            // Symmetry: both directions climb the same number of
            // tiers, so hop counts (and total latency) match.
            EXPECT_EQ(forward.size(), reverse.size());
            std::size_t expected = 6;
            if (s / hosts_per_edge == d / hosts_per_edge)
                expected = 2;
            else if (s / hosts_per_pod == d / hosts_per_pod)
                expected = 4;
            ASSERT_EQ(forward.size(), expected)
                << "route " << s << " -> " << d;
            // Routes start on the source's up-link and end on the
            // destination's down-link.
            EXPECT_EQ(topo.links[forward.front()].name,
                      topo.hostNames[s] + ":up");
            EXPECT_EQ(topo.links[forward.back()].name,
                      topo.hostNames[d] + ":down");
        }
    }
}

TEST(Topology, RejectsBadParameters)
{
    FatTreeConfig odd;
    odd.arity = 3;
    EXPECT_THROW(TopologyBuilder::fatTree(odd),
                 std::invalid_argument);
    FatTreeConfig ratio;
    ratio.oversubscription = 0.0;
    EXPECT_THROW(TopologyBuilder::fatTree(ratio),
                 std::invalid_argument);
}

TEST(Topology, PopulateClusterAssignsNetIdsInHostOrder)
{
    FatTreeConfig config;
    config.arity = 2;
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(1);
    Cluster cluster(sim, topo.makeModel());
    topo.populateCluster(cluster, bareMachine("proto"));
    ASSERT_EQ(cluster.machineCount(),
              static_cast<std::size_t>(topo.hostCount));
    for (int h = 0; h < topo.hostCount; ++h) {
        EXPECT_EQ(cluster.machines()[h]->name(), topo.hostNames[h]);
        EXPECT_EQ(cluster.machines()[h]->netId(), h);
    }
    EXPECT_THROW(topo.populateCluster(cluster, bareMachine("again")),
                 std::logic_error);
}

// -------------------------------- capacity-doubling metamorphic test

struct FlowCase {
    int from;
    int to;
    std::uint32_t bytes;
    double startSeconds;
};

std::vector<SimTime>
runTopologyFlows(double gbps_scale, std::vector<FlowCase> cases)
{
    FatTreeConfig config;
    config.arity = 4;
    config.oversubscription = 2.0;
    config.hostGbps = 1.0 * gbps_scale;
    config.fabricGbps = 1.0 * gbps_scale;
    const Topology topo = TopologyBuilder::fatTree(config);
    Simulator sim(11);
    Cluster cluster(sim, topo.makeModel());
    topo.populateCluster(cluster, bareMachine("proto"));
    std::vector<SimTime> done(cases.size(), -1);
    for (std::size_t i = 0; i < cases.size(); ++i) {
        sim.scheduleAt(secondsToSimTime(cases[i].startSeconds),
                       [&, i]() {
                           const FlowCase& c = cases[i];
                           cluster.network().transfer(
                               cluster.machines()[c.from],
                               cluster.machines()[c.to], c.bytes,
                               [&, i](Outcome) { done[i] = sim.now(); });
                       },
                       "meta/start");
    }
    sim.run();
    return done;
}

TEST(FlowModel, DoublingCapacitiesNeverSlowsAnyFlow)
{
    // A deterministic mixed workload: incast onto host 0 plus
    // cross-pod and same-edge background flows, staggered starts.
    std::vector<FlowCase> cases;
    for (int i = 0; i < 24; ++i) {
        FlowCase c;
        c.from = 1 + (i * 7) % 15;
        c.to = (i % 3 == 0) ? 0 : (i * 13 + 5) % 16;
        if (c.to == c.from)
            c.to = (c.to + 1) % 16;
        c.bytes = static_cast<std::uint32_t>(((i * 37) % 91 + 10)) *
                  4096u;
        c.startSeconds = (i % 7) * 1e-3;
        cases.push_back(c);
    }
    const std::vector<SimTime> base = runTopologyFlows(1.0, cases);
    const std::vector<SimTime> doubled = runTopologyFlows(2.0, cases);
    ASSERT_EQ(base.size(), doubled.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        ASSERT_GE(base[i], 0);
        ASSERT_GE(doubled[i], 0);
        // Monotonicity of max-min fair sharing in capacity: no flow
        // may complete later on the faster fabric (tick-rounding
        // slack only).
        EXPECT_LE(doubled[i], base[i] + kMicrosecond)
            << "flow " << i << " slowed down by doubled capacity";
    }
}

// ------------------------------------- machines.json v2 validation

std::unique_ptr<Cluster>
clusterFromText(Simulator& sim, const std::string& text)
{
    return Cluster::fromJson(sim, json::parse(text));
}

TEST(MachinesJsonV2, V1FileLoadsWithConstantModelAndInfoLog)
{
    Simulator sim(1);
    sim.logger().setLevel(LogLevel::Info);
    std::vector<std::string> lines;
    sim.logger().setHook(
        [&lines](const std::string& line) { lines.push_back(line); });
    auto cluster = clusterFromText(sim, R"({
        "wire_latency_us": 15,
        "loopback_latency_us": 3,
        "machines": [{"name": "m0", "cores": 4}]
    })");
    EXPECT_EQ(std::string(cluster->network().model().modelName()),
              "constant");
    bool announced = false;
    for (const std::string& line : lines) {
        if (line.find("constant network model assumed") !=
            std::string::npos)
            announced = true;
    }
    EXPECT_TRUE(announced)
        << "v1 fallback must be announced at Info level";
}

TEST(MachinesJsonV2, UnknownTopologyKeyGetsDidYouMean)
{
    Simulator sim(1);
    try {
        clusterFromText(sim, R"({
            "schema_version": 2,
            "network": {"model": "flow"},
            "topology": {"type": "fat_tree", "aritty": 4}
        })");
        FAIL() << "expected JsonError";
    } catch (const json::JsonError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("aritty"), std::string::npos);
        EXPECT_NE(what.find("arity"), std::string::npos)
            << "expected a did-you-mean suggestion, got: " << what;
    }
}

TEST(MachinesJsonV2, TopologyRequiresFlowModel)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "constant"},
        "topology": {"type": "fat_tree"}
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, TopologyConflictsWithExplicitSections)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "topology": {"type": "fat_tree"},
        "machines": [{"name": "m0"}]
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, UnknownModelAndVersionAreRejected)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "quantum"}
    })"),
                 json::JsonError);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 3,
        "machines": []
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, GeneratedTopologyBuildsMachines)
{
    Simulator sim(1);
    auto cluster = clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow", "external_latency_us": 20},
        "topology": {
            "type": "fat_tree", "arity": 4, "oversubscription": 4.0,
            "host_gbps": 10, "fabric_gbps": 10, "link_latency_us": 1,
            "hosts": {"prefix": "h", "cores": 8, "irq_cores": 2}
        }
    })");
    EXPECT_EQ(cluster->machineCount(), 64u);
    EXPECT_TRUE(cluster->hasMachine("h0"));
    EXPECT_TRUE(cluster->hasMachine("h63"));
    EXPECT_EQ(cluster->machine("h0").totalCores(), 8);
    EXPECT_EQ(std::string(cluster->network().model().modelName()),
              "flow");
}

TEST(MachinesJsonV2, ExplicitLinksAndRoutesWork)
{
    Simulator sim(1);
    auto cluster = clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "links": [{"name": "trunk", "gbps": 0.008, "latency_us": 10}],
        "routes": [{"from": "a", "to": "b", "links": ["trunk"],
                    "symmetric": true}],
        "machines": [{"name": "a", "cores": 2},
                     {"name": "b", "cores": 2}]
    })");
    // 0.008 Gb/s = 1e6 bytes/s; 500 kB takes 0.5 s + 10 us.
    SimTime done_at = -1;
    cluster->network().transfer(&cluster->machine("a"),
                                &cluster->machine("b"), 500000,
                                [&](Outcome) { done_at = sim.now(); });
    sim.run();
    EXPECT_EQ(done_at,
              secondsToSimTime(0.5) + secondsToSimTime(10e-6));
    // The symmetric route serves the reverse direction too.
    SimTime back_at = -1;
    cluster->network().transfer(&cluster->machine("b"),
                                &cluster->machine("a"), 0,
                                [&](Outcome) { back_at = sim.now(); });
    sim.run();
    EXPECT_EQ(back_at, done_at + secondsToSimTime(10e-6));
}

TEST(MachinesJsonV2, FlowModelNeedsTopologyOrExplicitSections)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "schema_version": 2,
        "network": {"model": "flow"},
        "machines": [{"name": "a"}]
    })"),
                 json::JsonError);
}

TEST(MachinesJsonV2, UnknownMachineKeyRejectedInV1)
{
    Simulator sim(1);
    EXPECT_THROW(clusterFromText(sim, R"({
        "machines": [{"name": "m0", "coures": 4}]
    })"),
                 json::JsonError);
}

// ------------------------- end-to-end fat-tree fan-out + determinism

models::FanoutFatTreeParams
smallFatTreeParams(double qps, std::uint64_t seed)
{
    models::FanoutFatTreeParams params;
    params.run.qps = qps;
    params.run.seed = seed;
    params.run.warmupSeconds = 0.1;
    params.run.durationSeconds = 0.4;
    params.run.clientConnections = 64;
    params.fanout = 8;
    params.responseBytes = 16 * 1024;
    return params;
}

TEST(FanoutFatTree, RunsEndToEndOnGeneratedCluster)
{
    auto simulation = Simulation::fromBundle(
        models::fanoutFatTreeBundle(smallFatTreeParams(400.0, 3)));
    const RunReport report = simulation->run();
    EXPECT_GT(report.completed, 50u);
    EXPECT_GT(report.endToEnd.p99Ms, 0.0);
}

std::vector<runner::ReplicatedCurve>
runFlowGrid(int jobs)
{
    runner::RunnerOptions options;
    options.jobs = jobs;
    options.replications = 2;
    options.baseSeed = 17;
    runner::SweepRunner sweep_runner(options);
    sweep_runner.addSweep("fanout_fat_tree", {300.0, 600.0},
                          [](double qps, std::uint64_t seed) {
                              return Simulation::fromBundle(
                                  models::fanoutFatTreeBundle(
                                      smallFatTreeParams(qps, seed)));
                          });
    return sweep_runner.run();
}

TEST(FanoutFatTree, FlowModelDigestsIndependentOfThreadCount)
{
    const std::vector<runner::ReplicatedCurve> serial = runFlowGrid(1);
    for (int jobs : {2, 8}) {
        const std::vector<runner::ReplicatedCurve> other =
            runFlowGrid(jobs);
        ASSERT_EQ(serial.size(), other.size());
        for (std::size_t c = 0; c < serial.size(); ++c) {
            ASSERT_EQ(serial[c].points.size(),
                      other[c].points.size());
            for (std::size_t p = 0; p < serial[c].points.size();
                 ++p) {
                const auto& lhs = serial[c].points[p];
                const auto& rhs = other[c].points[p];
                ASSERT_EQ(lhs.replications.size(),
                          rhs.replications.size());
                for (std::size_t r = 0; r < lhs.replications.size();
                     ++r) {
                    EXPECT_EQ(lhs.replications[r].seed,
                              rhs.replications[r].seed);
                    EXPECT_EQ(lhs.replications[r].traceDigest,
                              rhs.replications[r].traceDigest)
                        << "jobs=" << jobs << " point=" << p
                        << " rep=" << r;
                    EXPECT_EQ(lhs.replications[r].report.completed,
                              rhs.replications[r].report.completed);
                }
            }
        }
    }
}

}  // namespace
}  // namespace uqsim
