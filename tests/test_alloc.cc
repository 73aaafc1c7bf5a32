/**
 * @file
 * Heap-allocation test of the message path: once warm, a network
 * transfer between IRQ-less machines must not touch the heap, on
 * either wire model.  The binary replaces the global operator new to
 * count calls, so it stays separate from the other suites.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "uqsim/hw/cluster.h"
#include "uqsim/hw/flow_model.h"

namespace {

std::uint64_t g_allocations = 0;

}  // namespace

void*
operator new(std::size_t size)
{
    ++g_allocations;
    if (void* block = std::malloc(size == 0 ? 1 : size))
        return block;
    throw std::bad_alloc();
}

void
operator delete(void* block) noexcept
{
    std::free(block);
}

void
operator delete(void* block, std::size_t) noexcept
{
    std::free(block);
}

namespace uqsim {
namespace {

constexpr int kTransfers = 1000;

hw::MachineConfig
bareMachine(const std::string& name)
{
    hw::MachineConfig config;
    config.name = name;
    config.cores = 2;
    config.irqCores = 0;
    return config;
}

/** Sends kTransfers messages one after another, each from the
 *  previous one's delivery, with a 48-byte callback capture. */
struct Chain {
    hw::Network* network = nullptr;
    hw::Machine* from = nullptr;
    hw::Machine* to = nullptr;
    int left = 0;
    int delivered = 0;

    void
    send()
    {
        const std::array<std::uint64_t, 5> payload{};
        auto done = [this, payload](hw::Outcome outcome) {
            delivered += outcome == hw::Outcome::Delivered &&
                         payload[0] == 0;
            if (--left > 0)
                send();
        };
        static_assert(sizeof(done) == 48);
        network->transfer(from, to, 1500, std::move(done));
    }
};

/** Operator-new calls made by one warm chain of kTransfers. */
std::uint64_t
allocationsPerChain(std::unique_ptr<hw::NetworkModel> model)
{
    Simulator sim(1);
    hw::Cluster cluster(sim, std::move(model));
    Chain chain;
    chain.network = &cluster.network();
    chain.from = &cluster.addMachine(bareMachine("a"));
    chain.to = &cluster.addMachine(bareMachine("b"));
    auto runChain = [&]() {
        chain.left = kTransfers;
        chain.delivered = 0;
        sim.scheduleAfter(0, [&chain]() { chain.send(); }, "test/start");
        sim.run();
        EXPECT_EQ(chain.delivered, kTransfers);
    };
    runChain();  // warm-up: pools and scratch reach their size
    const std::uint64_t before = g_allocations;
    runChain();
    return g_allocations - before;
}

TEST(MessagePathAllocations, ConstantModelTransfersDoNotAllocate)
{
    EXPECT_EQ(allocationsPerChain(hw::ConstantModel::make()), 0u);
}

TEST(MessagePathAllocations, FlowModelTransfersDoNotAllocate)
{
    auto model = hw::FlowModel::make();
    const int link = model->addLink({"ab", 1e9, 1e-6});
    model->setRoute(0, 1, {link});
    EXPECT_EQ(allocationsPerChain(std::move(model)), 0u);
}

}  // namespace
}  // namespace uqsim
