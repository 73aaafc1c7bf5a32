#include "uqsim/hw/network.h"

#include <utility>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace hw {

Network::Network(Simulator& sim, std::unique_ptr<NetworkModel> model)
    : sim_(sim),
      model_(model ? std::move(model) : ConstantModel::make()),
      faultRng_(sim.masterSeed(), "network/faults")
{
    model_->bind(sim_);
}

void
Network::setDegradation(double extraLatencySeconds,
                        double lossProbability)
{
    degraded_ = true;
    extraLatency_ = extraLatencySeconds;
    lossProb_ = lossProbability;
}

void
Network::clearDegradation()
{
    degraded_ = false;
    extraLatency_ = 0.0;
    lossProb_ = 0.0;
}

void
Network::transfer(Machine* from, Machine* to, std::uint32_t bytes,
                  Callback done, DropCallback dropped)
{
    ++transfers_;
    // Decide loss and latency at send time: a window that closes
    // mid-flight does not rescue messages already on the wire.
    const double extra = degraded_ ? extraLatency_ : 0.0;
    const bool lost = degraded_ && lossProb_ > 0.0 &&
                      faultRng_.nextBool(lossProb_);
    if (from != nullptr && from == to) {
        // Loopback: single pass through the local IRQ service.  The
        // kernel loopback path cannot lose messages, but a degraded
        // host still adds latency.
        model_->loopback(
            from, bytes, extra,
            [this, to, bytes, cb = std::move(done)]() mutable {
                deliver(to, bytes, std::move(cb));
            },
            "net/loopback");
        return;
    }
    if (lost) {
        ++dropped_;
        // The sender still pays TX IRQ work and the message occupies
        // the wire before vanishing.  The wire leg itself may also
        // fail (dead link, unreachable); the model guarantees exactly
        // one of its callbacks fires, and either one reports the drop
        // with the reason that actually happened.
        std::uint32_t slot;
        if (freeLost_.empty()) {
            slot = static_cast<std::uint32_t>(lost_.size());
            lost_.emplace_back();
        } else {
            slot = freeLost_.back();
            freeLost_.pop_back();
        }
        lost_[slot] = LostMessage{std::move(done), std::move(dropped)};
        auto after_tx = [this, from, to, bytes, extra, slot]() {
            model_->transit(
                from, to, bytes, extra,
                [this, slot]() { dropLost(slot, DropReason::FaultLoss); },
                [this, slot](DropReason reason) {
                    dropLost(slot, reason);
                },
                "net/drop");
        };
        if (from != nullptr && from->irq() != nullptr) {
            from->irq()->process(bytes, std::move(after_tx));
        } else {
            after_tx();
        }
        return;
    }
    auto after_tx = [this, from, to, bytes, extra,
                     cb = std::move(done),
                     drop = std::move(dropped)]() mutable {
        model_->transit(
            from, to, bytes, extra,
            [this, to, bytes, cb2 = std::move(cb)]() mutable {
                deliver(to, bytes, std::move(cb2));
            },
            std::move(drop), "net/wire");
    };
    if (from != nullptr && from->irq() != nullptr) {
        from->irq()->process(bytes, std::move(after_tx));
    } else {
        after_tx();
    }
}

void
Network::dropLost(std::uint32_t slot, DropReason reason)
{
    LostMessage message = std::move(lost_[slot]);
    freeLost_.push_back(slot);
    if (message.dropped)
        message.dropped(reason);
}

void
Network::deliver(Machine* to, std::uint32_t bytes, Callback done)
{
    if (to != nullptr && to->irq() != nullptr) {
        to->irq()->process(bytes, std::move(done));
    } else if (done) {
        done();
    }
}

void
Network::visitState(snapshot::StateVisitor& visitor) const
{
    visitor.beginSection(snapshot::SectionId::Network);
    visitor.str("model", model_->modelName());
    visitor.u64("transfers", transfers_);
    visitor.u64("dropped", dropped_);
    visitor.boolean("degraded", degraded_);
    visitor.f64("extra_latency", extraLatency_);
    visitor.f64("loss_prob", lossProb_);
    visitor.rng("fault_rng", faultRng_.state());
    model_->visitState(visitor);
    visitor.endSection();
}

}  // namespace hw
}  // namespace uqsim
