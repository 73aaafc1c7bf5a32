#ifndef UQSIM_CORE_SERVICE_STAGE_QUEUE_H_
#define UQSIM_CORE_SERVICE_STAGE_QUEUE_H_

/**
 * @file
 * Stage job queues.
 *
 * Every stage is coupled with a job queue (paper §III-B):
 *
 *  - SingleQueue: one FIFO holding all jobs (e.g.
 *    memcached_processing, socket_send).
 *  - SocketQueue: jobs classified into per-connection subqueues; a
 *    pop returns the first N jobs of a single ready connection at a
 *    time (socket_read).
 *  - EpollQueue: per-connection subqueues; a pop returns the first N
 *    jobs of *each* active subqueue (epoll).  A subqueue whose
 *    connection is receive-blocked is not active.
 */

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "uqsim/core/service/connection.h"
#include "uqsim/core/service/job.h"
#include "uqsim/core/service/stage.h"

namespace uqsim {

/** Abstract stage queue. */
class StageQueue {
  public:
    virtual ~StageQueue() = default;

    /** Enqueues a job. */
    virtual void push(JobPtr job) = 0;

    /** True when a pop would return at least one job. */
    virtual bool hasEligible() const = 0;

    /** Pops one batch per the stage's discipline, appending it to
     *  @p out (a running-batch slot keeps its capacity). */
    virtual void popBatch(std::vector<JobPtr>& out) = 0;

    /** Jobs currently queued (eligible or not). */
    virtual std::size_t size() const = 0;

    /** Removes every queued job, appending it to @p out (instance
     *  crash). */
    virtual void drainAll(std::vector<JobPtr>& out) = 0;

    /**
     * Factory from a stage configuration.  @p connections supplies
     * receive-blocking state for socket/epoll queues and may be
     * nullptr for single queues.
     */
    static std::unique_ptr<StageQueue>
    create(const StageConfig& config, const ConnectionTable* connections);
};

/** One FIFO for all jobs. */
class SingleQueue : public StageQueue {
  public:
    /** @param batch_limit max jobs per pop; <= 0 means 1 (or all
     *  when @p batching). */
    SingleQueue(bool batching, int batch_limit);

    void push(JobPtr job) override;
    bool hasEligible() const override { return !queue_.empty(); }
    void popBatch(std::vector<JobPtr>& out) override;
    std::size_t size() const override { return queue_.size(); }
    void drainAll(std::vector<JobPtr>& out) override;

  private:
    std::deque<JobPtr> queue_;
    bool batching_;
    int batchLimit_;
};

/**
 * Per-connection subqueues, shared by the socket and epoll
 * disciplines.  A drained subqueue is erased, so scans only visit
 * connections with pending jobs (usually few).
 */
class ConnectionQueue : public StageQueue {
  public:
    void push(JobPtr job) override;
    bool hasEligible() const override;
    std::size_t size() const override { return total_; }
    void drainAll(std::vector<JobPtr>& out) override;

  protected:
    using Subqueues = std::map<ConnectionId, std::deque<JobPtr>>;

    ConnectionQueue(int batch_limit, const ConnectionTable* connections)
        : batchLimit_(batch_limit), connections_(connections)
    {
    }

    /** Jobs poppable now from the front of @p subqueue. */
    std::size_t eligible(const Subqueues::value_type& subqueue) const;

    /** Moves @p count jobs from the front of @p it to @p out,
     *  erasing the subqueue when drained; returns the next one. */
    Subqueues::iterator take(Subqueues::iterator it, std::size_t count,
                             std::vector<JobPtr>& out);

    Subqueues subqueues_;

  private:
    std::size_t total_ = 0;
    int batchLimit_;
    const ConnectionTable* connections_;
};

/** Per-connection subqueues; pop serves one ready connection. */
class SocketQueue : public ConnectionQueue {
  public:
    SocketQueue(int batch_limit, const ConnectionTable* connections)
        : ConnectionQueue(batch_limit, connections)
    {
    }

    void popBatch(std::vector<JobPtr>& out) override;
    void drainAll(std::vector<JobPtr>& out) override;

  private:
    /** Round-robin cursor: last connection served. */
    ConnectionId cursor_ = kNoConnection;
};

/** Per-connection subqueues; pop serves all active connections. */
class EpollQueue : public ConnectionQueue {
  public:
    EpollQueue(int batch_limit, const ConnectionTable* connections)
        : ConnectionQueue(batch_limit, connections)
    {
    }

    void popBatch(std::vector<JobPtr>& out) override;

    /** Number of currently active (pollable) subqueues. */
    std::size_t activeSubqueues() const;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_STAGE_QUEUE_H_
