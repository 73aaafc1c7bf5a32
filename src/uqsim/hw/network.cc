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
                  OutcomeCallback done)
{
    ++transfers_;
    // Decide loss and latency at send time: a window that closes
    // mid-flight does not rescue messages already on the wire.
    const double extra = degraded_ ? extraLatency_ : 0.0;
    const bool lost = degraded_ && lossProb_ > 0.0 &&
                      faultRng_.nextBool(lossProb_);
    std::uint32_t slot;
    if (freeMessages_.empty()) {
        slot = static_cast<std::uint32_t>(messages_.size());
        messages_.emplace_back();
    } else {
        slot = freeMessages_.back();
        freeMessages_.pop_back();
    }
    messages_[slot] = Message{std::move(done), from, to, bytes, extra,
                              false};
    if (from != nullptr && from == to) {
        // Loopback: single pass through the local IRQ service.  The
        // kernel loopback path cannot lose messages, but a degraded
        // host still adds latency.
        model_->loopback(
            from, bytes, extra, [this, slot]() { receive(slot); },
            "net/loopback");
        return;
    }
    if (lost) {
        // The sender still pays TX IRQ work and the message occupies
        // the wire before vanishing.
        ++dropped_;
        messages_[slot].faultLost = true;
    }
    if (from != nullptr && from->irq() != nullptr)
        from->irq()->process(bytes, [this, slot]() { sendWire(slot); });
    else
        sendWire(slot);
}

void
Network::sendWire(std::uint32_t slot)
{
    const Message& message = messages_[slot];
    model_->transit(
        message.from, message.to, message.bytes, message.extraLatency,
        [this, slot](Outcome outcome) { onWire(slot, outcome); },
        message.faultLost ? "net/drop" : "net/wire");
}

void
Network::onWire(std::uint32_t slot, Outcome outcome)
{
    // A fault-lost message reports the wire's own verdict if the
    // model dropped it first, else the coin flip.
    if (outcome == Outcome::Delivered && messages_[slot].faultLost)
        outcome = Outcome::FaultLoss;
    if (outcome == Outcome::Delivered)
        receive(slot);
    else
        finish(slot, outcome);
}

void
Network::receive(std::uint32_t slot)
{
    const Message& message = messages_[slot];
    if (message.to != nullptr && message.to->irq() != nullptr) {
        message.to->irq()->process(message.bytes, [this, slot]() {
            finish(slot, Outcome::Delivered);
        });
    } else {
        finish(slot, Outcome::Delivered);
    }
}

void
Network::finish(std::uint32_t slot, Outcome outcome)
{
    // Free the slot first: the callback may send again and reuse it.
    OutcomeCallback done = std::move(messages_[slot].done);
    freeMessages_.push_back(slot);
    if (done)
        done(outcome);
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
