#include "uqsim/hw/disk.h"

#include <stdexcept>
#include <utility>

#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace hw {

Disk::Disk(Simulator& sim, const std::string& owner,
           const Config& config)
    : sim_(sim), config_(config),
      label_(owner + "/" + config.name)
{
    if (config_.readBytesPerSecond <= 0.0) {
        throw std::invalid_argument("disk \"" + label_ +
                                    "\": read bandwidth must be > 0");
    }
    if (config_.writeBytesPerSecond < 0.0) {
        throw std::invalid_argument(
            "disk \"" + label_ + "\": write bandwidth must be >= 0");
    }
    if (config_.writeBytesPerSecond == 0.0)
        config_.writeBytesPerSecond = config_.readBytesPerSecond;
    if (config_.queueDepth < 0) {
        throw std::invalid_argument(
            "disk \"" + label_ + "\": queue depth must be >= 0");
    }
    lastUpdate_ = sim_.now();
}

double
Disk::capacity(OpKind kind) const
{
    return kind == OpKind::Read ? config_.readBytesPerSecond
                                : config_.writeBytesPerSecond;
}

void
Disk::submit(OpKind kind, std::uint64_t bytes,
             double extraLatencySeconds, Callback done,
             const char* label)
{
    Op op;
    op.kind = kind;
    op.sizeBytes = bytes;
    op.remainingBytes = static_cast<double>(bytes);
    op.tailLatency = extraLatencySeconds;
    op.done = std::move(done);
    op.label = label;
    const std::uint64_t id = nextOpId_++;
    ++submitted_;
    if (config_.queueDepth > 0 &&
        inService_.size() >=
            static_cast<std::size_t>(config_.queueDepth)) {
        ++queuedOps_;
        waiting_.emplace_back(id, std::move(op));
        if (waiting_.size() > peakQueued_)
            peakQueued_ = waiting_.size();
        return;
    }
    start(id, std::move(op));
}

void
Disk::start(std::uint64_t id, Op op)
{
    advance();
    inService_.emplace(id, std::move(op));
    allocate();
}

void
Disk::advance()
{
    const SimTime now = sim_.now();
    if (now > lastUpdate_) {
        if (!inService_.empty()) {
            busyTicks_ += static_cast<double>(now - lastUpdate_);
            const double dt = simTimeToSeconds(now - lastUpdate_);
            for (auto& [id, op] : inService_) {
                op.remainingBytes -= op.rate * dt;
                if (op.remainingBytes < 0.0)
                    op.remainingBytes = 0.0;
            }
        }
        lastUpdate_ = now;
    }
}

void
Disk::allocate()
{
    ++reshares_;
    // Every operation occupies exactly one direction, so the max-min
    // fair allocation is an equal split per direction.
    int reads = 0;
    int writes = 0;
    for (const auto& [id, op] : inService_) {
        if (op.kind == OpKind::Read)
            ++reads;
        else
            ++writes;
    }
    // Move completions in operation-id order (a pending one is
    // re-keyed in place, a new one scheduled).  An operation whose
    // rate did not change keeps its pending event: the remaining
    // bytes shrank exactly in step with the old schedule, so the old
    // finish time still holds (and skipping the move avoids rounding
    // drift).
    for (auto it = inService_.begin(); it != inService_.end(); ++it) {
        Op& op = it->second;
        const int sharing = op.kind == OpKind::Read ? reads : writes;
        const double rate = capacity(op.kind) / sharing;
        if (rate == op.rate && op.completion.pending())
            continue;
        op.rate = rate;
        const SimTime remaining =
            secondsToSimTime(op.remainingBytes / op.rate);
        if (sim_.retimeAfter(op.completion, remaining))
            continue;
        const std::uint64_t id = it->first;
        op.completion = sim_.scheduleAfter(
            remaining, [this, id]() { finishOp(id); }, "disk/op");
    }
}

void
Disk::finishOp(std::uint64_t id)
{
    auto it = inService_.find(id);
    if (it == inService_.end())
        return;
    advance();
    Op op = std::move(it->second);
    inService_.erase(it);
    if (op.kind == OpKind::Read) {
        ++readsCompleted_;
        bytesRead_ += op.sizeBytes;
    } else {
        ++writesCompleted_;
        bytesWritten_ += op.sizeBytes;
    }
    // FIFO admission: each completion frees exactly one slot.
    if (!waiting_.empty()) {
        auto [nextId, nextOp] = std::move(waiting_.front());
        waiting_.pop_front();
        inService_.emplace(nextId, std::move(nextOp));
    }
    // Release the finished operation's share first, then pay the
    // access-latency tail: siblings speed up the moment the last
    // byte moves.
    allocate();
    sim_.scheduleAfter(secondsToSimTime(op.tailLatency),
                       std::move(op.done), op.label);
}

double
Disk::busySeconds(SimTime now) const
{
    double busy = busyTicks_;
    if (!inService_.empty() && now > lastUpdate_)
        busy += static_cast<double>(now - lastUpdate_);
    return busy / static_cast<double>(kSecond);
}

double
Disk::utilization(SimTime now) const
{
    if (now <= 0)
        return 0.0;
    double busy = busyTicks_;
    if (!inService_.empty() && now > lastUpdate_)
        busy += static_cast<double>(now - lastUpdate_);
    return busy / static_cast<double>(now);
}

void
Disk::visitState(snapshot::StateVisitor& visitor) const
{
    visitor.str("label", label_);
    visitor.u64("submitted", submitted_);
    visitor.u64("reads_completed", readsCompleted_);
    visitor.u64("writes_completed", writesCompleted_);
    visitor.u64("bytes_read", bytesRead_);
    visitor.u64("bytes_written", bytesWritten_);
    visitor.u64("queued_ops", queuedOps_);
    visitor.u64("peak_queued", peakQueued_);
    visitor.u64("reshares", reshares_);
    visitor.u64("next_op_id", nextOpId_);
    visitor.i64("last_update", lastUpdate_);
    visitor.f64("busy_ticks", busyTicks_);
    visitor.u64("in_service", inService_.size());
    visitor.u64("waiting", waiting_.size());
    snapshot::Digest ops;
    const auto fold = [&ops](std::uint64_t id, const Op& op) {
        ops.u64(id);
        ops.u32(op.kind == OpKind::Read ? 0 : 1);
        ops.u64(op.sizeBytes);
        ops.f64(op.remainingBytes);
        ops.f64(op.rate);
        ops.f64(op.tailLatency);
        ops.str(op.label);
    };
    for (const auto& [id, op] : inService_)
        fold(id, op);
    for (const auto& [id, op] : waiting_)
        fold(id, op);
    visitor.u64("op_digest", ops.value());
}

}  // namespace hw
}  // namespace uqsim
