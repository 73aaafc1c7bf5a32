#include "uqsim/hw/irq_service.h"

#include <stdexcept>
#include <utility>

namespace uqsim {
namespace hw {

IrqService::IrqService(Simulator& sim, std::string name, int cores,
                       random::DistributionPtr per_packet, double per_byte,
                       const DvfsDomain* dvfs)
    : sim_(sim), name_(std::move(name)), doneLabel_(name_ + "/done"),
      cores_(cores, name_ + "/cores"),
      perPacket_(std::move(per_packet)), perByte_(per_byte), dvfs_(dvfs),
      rng_(sim.masterSeed(), name_)
{
    if (!perPacket_)
        throw std::invalid_argument("irq per-packet distribution required");
    if (per_byte < 0.0)
        throw std::invalid_argument("irq per-byte cost must be >= 0");
}

void
IrqService::process(std::uint32_t bytes, Callback done)
{
    queue_.push_back(Packet{bytes, std::move(done)});
    tryStart();
}

void
IrqService::tryStart()
{
    while (!queue_.empty() && cores_.tryAcquire(sim_.now())) {
        Packet packet = std::move(queue_.front());
        queue_.pop_front();
        startService(std::move(packet));
    }
}

void
IrqService::startService(Packet packet)
{
    double seconds =
        perPacket_->sample(rng_) + perByte_ * packet.bytes;
    if (dvfs_ != nullptr)
        seconds *= dvfs_->slowdown();
    const SimTime duration = secondsToSimTime(seconds);
    sim_.scheduleAfter(
        duration,
        [this, done = std::move(packet.done)]() mutable {
            cores_.release(sim_.now());
            ++processed_;
            if (done)
                done();
            tryStart();
        },
        doneLabel_.c_str());
}

double
IrqService::utilization() const
{
    return cores_.utilization(sim_.now());
}

}  // namespace hw
}  // namespace uqsim
