#ifndef UQSIM_HW_IRQ_SERVICE_H_
#define UQSIM_HW_IRQ_SERVICE_H_

/**
 * @file
 * Per-machine network (software interrupt) processing service.
 *
 * The paper models network processing "as a separate process in the
 * simulator: each server is coupled with a network processing
 * process as a standalone service, and all microservices deployed on
 * the same server share the process handling interrupts" (§III-B).
 * Every message entering or leaving a machine passes through this
 * station.  It is a FIFO queue served by the machine's dedicated
 * soft-irq cores; its saturation is what bounds high fan-out
 * scale-out (Fig. 8, 16-way case).
 */

#include <cstdint>
#include <deque>
#include <string>

#include "uqsim/core/engine/inline_function.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/core_set.h"
#include "uqsim/hw/dvfs.h"
#include "uqsim/random/distribution.h"
#include "uqsim/random/rng.h"

namespace uqsim {
namespace hw {

/**
 * Completion callback passed through the network/IRQ pipeline.
 * Move-only with 64 inline bytes: the dispatcher's delivery
 * closures fit without touching the heap, and callbacks can carry
 * move-only state (another Callback, a pooled handle).
 */
using Callback = InlineFunction<void(), 64>;

/** FIFO multi-server station processing network packets. */
class IrqService {
  public:
    /**
     * @param sim         owning simulator
     * @param name        diagnostic label (e.g. "server0/irq")
     * @param cores       number of soft-irq cores (> 0)
     * @param per_packet  base processing time per packet (seconds)
     * @param per_byte    additional seconds per payload byte
     * @param dvfs        frequency domain scaling service times, or
     *                    nullptr for frequency-insensitive handling
     */
    IrqService(Simulator& sim, std::string name, int cores,
               random::DistributionPtr per_packet, double per_byte,
               const DvfsDomain* dvfs);

    /**
     * Enqueues a packet of @p bytes; @p done fires when interrupt
     * processing completes.
     */
    void process(std::uint32_t bytes, Callback done);

    /** Packets fully processed so far. */
    std::uint64_t processedPackets() const { return processed_; }

    /** Mean core utilization so far. */
    double utilization() const;

  private:
    struct Packet {
        std::uint32_t bytes;
        Callback done;
    };

    void tryStart();
    void startService(Packet packet);

    Simulator& sim_;
    std::string name_;
    std::string doneLabel_;
    CoreSet cores_;
    random::DistributionPtr perPacket_;
    double perByte_;
    const DvfsDomain* dvfs_;
    random::RngStream rng_;
    std::deque<Packet> queue_;
    std::uint64_t processed_ = 0;
};

}  // namespace hw
}  // namespace uqsim

#endif  // UQSIM_HW_IRQ_SERVICE_H_
