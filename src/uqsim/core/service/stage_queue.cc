#include "uqsim/core/service/stage_queue.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace uqsim {

std::unique_ptr<StageQueue>
StageQueue::create(const StageConfig& config,
                   const ConnectionTable* connections)
{
    // "batching": false caps every pop at one job per (sub)queue.
    const int limit = config.batching ? config.batchLimit : 1;
    switch (config.queueType) {
      case QueueType::Single:
        return std::make_unique<SingleQueue>(config.batching,
                                             config.batchLimit);
      case QueueType::Socket:
        return std::make_unique<SocketQueue>(limit, connections);
      case QueueType::Epoll:
        return std::make_unique<EpollQueue>(limit, connections);
    }
    throw std::logic_error("unreachable queue type");
}

// ---------------------------------------------------------------- Single

SingleQueue::SingleQueue(bool batching, int batch_limit)
    : batching_(batching), batchLimit_(batch_limit)
{
}

void
SingleQueue::push(JobPtr job)
{
    queue_.push_back(std::move(job));
}

void
SingleQueue::popBatch(std::vector<JobPtr>& out)
{
    std::size_t take = std::min<std::size_t>(queue_.size(), 1);
    if (batching_) {
        take = batchLimit_ > 0
                   ? std::min(queue_.size(),
                              static_cast<std::size_t>(batchLimit_))
                   : queue_.size();
    }
    for (std::size_t i = 0; i < take; ++i) {
        out.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
}

void
SingleQueue::drainAll(std::vector<JobPtr>& out)
{
    for (JobPtr& job : queue_)
        out.push_back(std::move(job));
    queue_.clear();
}

// ------------------------------------------------------------ Connection

void
ConnectionQueue::push(JobPtr job)
{
    subqueues_[job->connectionId].push_back(std::move(job));
    ++total_;
}

/**
 * An unblocked connection serves up to the batch limit; a
 * receive-blocked connection serves only the leading jobs that
 * belong to the blocking request itself (HTTP/1.1: the in-flight
 * request proceeds, subsequent requests wait).
 */
std::size_t
ConnectionQueue::eligible(const Subqueues::value_type& subqueue) const
{
    const auto& [id, queue] = subqueue;
    const std::size_t cap =
        batchLimit_ > 0
            ? std::min(queue.size(), static_cast<std::size_t>(batchLimit_))
            : queue.size();
    if (connections_ == nullptr)
        return cap;
    const JobId owner = connections_->blockOwner(id);
    if (owner == 0)
        return cap;
    std::size_t count = 0;
    for (const JobPtr& job : queue) {
        if (count >= cap || job->rootId != owner)
            break;
        ++count;
    }
    return count;
}

bool
ConnectionQueue::hasEligible() const
{
    return std::any_of(
        subqueues_.begin(), subqueues_.end(),
        [this](const auto& subqueue) { return eligible(subqueue) > 0; });
}

ConnectionQueue::Subqueues::iterator
ConnectionQueue::take(Subqueues::iterator it, std::size_t count,
                      std::vector<JobPtr>& out)
{
    std::deque<JobPtr>& queue = it->second;
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(std::move(queue.front()));
        queue.pop_front();
    }
    total_ -= count;
    return queue.empty() ? subqueues_.erase(it) : std::next(it);
}

void
ConnectionQueue::drainAll(std::vector<JobPtr>& out)
{
    for (auto& [id, queue] : subqueues_) {
        for (JobPtr& job : queue)
            out.push_back(std::move(job));
    }
    subqueues_.clear();
    total_ = 0;
}

// ---------------------------------------------------------------- Socket

void
SocketQueue::popBatch(std::vector<JobPtr>& out)
{
    // Round-robin: scan connections after the cursor first.
    auto serve = [&](Subqueues::iterator begin,
                     Subqueues::iterator end) -> bool {
        for (auto it = begin; it != end; ++it) {
            const std::size_t count = eligible(*it);
            if (count == 0)
                continue;
            cursor_ = it->first;
            take(it, count, out);
            return true;
        }
        return false;
    };
    const auto pivot = subqueues_.upper_bound(cursor_);
    if (!serve(pivot, subqueues_.end()))
        serve(subqueues_.begin(), pivot);
}

void
SocketQueue::drainAll(std::vector<JobPtr>& out)
{
    ConnectionQueue::drainAll(out);
    cursor_ = kNoConnection;
}

// ----------------------------------------------------------------- Epoll

std::size_t
EpollQueue::activeSubqueues() const
{
    return static_cast<std::size_t>(std::count_if(
        subqueues_.begin(), subqueues_.end(),
        [this](const auto& subqueue) { return eligible(subqueue) > 0; }));
}

void
EpollQueue::popBatch(std::vector<JobPtr>& out)
{
    // First N jobs of each active subqueue (paper §III-B).
    for (auto it = subqueues_.begin(); it != subqueues_.end();)
        it = take(it, eligible(*it), out);
}

}  // namespace uqsim
