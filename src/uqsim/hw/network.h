#ifndef UQSIM_HW_NETWORK_H_
#define UQSIM_HW_NETWORK_H_

/**
 * @file
 * Cross-machine message transport façade.
 *
 * A transfer from machine A to machine B passes through A's IRQ
 * service (TX interrupt handling), an in-flight wire leg simulated
 * by a pluggable NetworkModel, and B's IRQ service (RX).  Transfers
 * within the same machine take the loopback path: a smaller latency
 * and a single pass through the local IRQ service (kernel loopback
 * work).
 *
 * The façade owns everything that is model-independent — IRQ
 * hand-off, fault/degradation windows, and counters — and delegates
 * latency/ordering to the model (network_model.h): ConstantModel
 * reproduces the paper's single constant hop bit-identically;
 * FlowModel (flow_model.h) adds routed links with max-min fair
 * bandwidth sharing.
 *
 * Each message in flight lives in one façade slot (callback,
 * endpoints, bytes, fault-loss flag); the IRQ and wire legs capture
 * only the slot index, and the slot is freed when its single
 * OutcomeCallback fires.
 *
 * A FaultScheduler may open a degradation window: every transfer
 * then pays extra wire latency, and cross-machine messages are lost
 * with a configured probability.  A lost message still pays TX IRQ
 * work and occupies the wire; its callback then fires with
 * Outcome::FaultLoss (or with the wire's own verdict, if the model
 * dropped it first).  Loss coin flips come from a seed-split stream
 * that is only drawn inside a window, so fault-free runs are bitwise
 * identical to builds without fault support.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/machine.h"
#include "uqsim/hw/network_model.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace hw {

/** Message transport between machines. */
class Network {
  public:
    /** Takes ownership of @p model; nullptr selects a default
     *  ConstantModel. */
    Network(Simulator& sim, std::unique_ptr<NetworkModel> model);

    /**
     * Moves a message of @p bytes from @p from to @p to and calls
     * @p done exactly once, from an engine event, with its Outcome:
     * Delivered after the receiver's RX IRQ work, or the reason it
     * was lost (a degradation-window coin flip here in the façade,
     * or a model verdict: dead link, no surviving route, partition).
     * Either endpoint may be nullptr, meaning "outside the cluster"
     * (e.g. the client); that leg then only pays wire latency.  An
     * empty @p done sends fire-and-forget.
     */
    void transfer(Machine* from, Machine* to, std::uint32_t bytes,
                  OutcomeCallback done);

    /** Opens a degradation window: adds @p extraLatencySeconds to
     *  every transfer and loses cross-machine messages with
     *  probability @p lossProbability. */
    void setDegradation(double extraLatencySeconds,
                        double lossProbability);
    void clearDegradation();
    bool degraded() const { return degraded_; }

    NetworkModel& model() { return *model_; }
    const NetworkModel& model() const { return *model_; }

    std::uint64_t transferCount() const { return transfers_; }
    std::uint64_t droppedMessages() const { return dropped_; }

    /**
     * Visits the NETWORK snapshot section: façade counters,
     * degradation-window state, loss-stream RNG position, and the
     * model's own state (NetworkModel::visitState).
     */
    void visitState(snapshot::StateVisitor& visitor) const;

  private:
    /** One message in flight. */
    struct Message {
        OutcomeCallback done;
        Machine* from = nullptr;
        Machine* to = nullptr;
        std::uint32_t bytes = 0;
        /** Fault-window latency, decided at send time. */
        double extraLatency = 0.0;
        /** Lost to the degradation coin flip: the wire leg runs, but
         *  delivery reports Outcome::FaultLoss. */
        bool faultLost = false;
    };

    /** Starts the wire leg of @p slot (after TX IRQ work). */
    void sendWire(std::uint32_t slot);
    /** The wire leg of @p slot ended with @p outcome. */
    void onWire(std::uint32_t slot, Outcome outcome);
    /** Passes @p slot through the receiver's RX IRQ work. */
    void receive(std::uint32_t slot);
    /** Frees @p slot and reports @p outcome to its callback. */
    void finish(std::uint32_t slot, Outcome outcome);

    Simulator& sim_;
    std::unique_ptr<NetworkModel> model_;
    std::uint64_t transfers_ = 0;
    bool degraded_ = false;
    double extraLatency_ = 0.0;
    double lossProb_ = 0.0;
    std::uint64_t dropped_ = 0;
    random::RngStream faultRng_;
    /** Messages in flight, indexed by slot; freed slots are reused
     *  through freeMessages_. */
    std::vector<Message> messages_;
    std::vector<std::uint32_t> freeMessages_;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_NETWORK_H_
