#ifndef UQSIM_CORE_SERVICE_JOB_H_
#define UQSIM_CORE_SERVICE_JOB_H_

/**
 * @file
 * Jobs: requests flowing through the microservice network.
 *
 * A client request creates one root job.  Fan-out path nodes copy
 * the job (one copy per child node); all copies share the root id,
 * which fan-in synchronization and connection unblocking match on
 * (paper §III-C).
 *
 * Every job has exactly one owner at a time — a stage queue, a
 * running batch, a message in flight, or a managed hop's retry
 * prototype — so JobPtr is a move-only handle whose deleter returns
 * the job's block to its pool.
 */

#include <cstdint>
#include <memory>
#include <type_traits>

#include "uqsim/core/engine/sim_time.h"
#include "uqsim/core/service/block_pool.h"

namespace uqsim {

/** Unique job / request identifier. */
using JobId = std::uint64_t;

/** Globally unique connection identifier. */
using ConnectionId = std::int64_t;

/** Sentinel for "no connection". */
inline constexpr ConnectionId kNoConnection = -1;

/** A request (or a fan-out copy of one) traversing the system. */
struct Job {
    /** Unique id of this copy. */
    JobId id = 0;
    /** Id of the originating client request; shared by all copies. */
    JobId rootId = 0;

    /** Index of the sampled inter-service path variant. */
    int pathVariant = 0;
    /** Current path node (index into the variant's node list). */
    int pathNodeId = -1;
    /** Execution path id within the current microservice. */
    int execPathId = 0;
    /** Position within the execution path's stage list. */
    int stageIndex = -1;

    /** Request payload size in bytes (affects socket/irq cost). */
    std::uint32_t bytes = 128;

    /** Connection the job arrived on at the current instance. */
    ConnectionId connectionId = kNoConnection;

    /** Client issue time (end-to-end latency reference). */
    SimTime created = 0;
    /** Time the job entered the current path node's tier. */
    SimTime enteredTier = 0;

    /** Identifies the issuing client (multi-client simulations). */
    int clientTag = -1;
};

/** Destroys a Job and returns its block to the pool it came from. */
struct JobDeleter {
    FixedBlockPool* pool = nullptr;

    void
    operator()(Job* job) const
    {
        job->~Job();
        pool->deallocate(job);
    }
};

/** Move-only job handle (see the file comment). */
using JobPtr = std::unique_ptr<Job, JobDeleter>;

static_assert(!std::is_copy_constructible_v<JobPtr>,
              "a job has exactly one owner");

/**
 * Allocates jobs with unique ids from a free-list block pool, so
 * steady-state job churn never touches the heap.  The pool outlives
 * the factory while jobs are still out (block_pool.h).
 */
class JobFactory {
  public:
    JobFactory() : pool_(new FixedBlockPool(sizeof(Job))) {}
    ~JobFactory() { pool_->orphan(); }

    JobFactory(const JobFactory&) = delete;
    JobFactory& operator=(const JobFactory&) = delete;

    /** Creates a new root job issued at @p now. */
    JobPtr createRoot(SimTime now, std::uint32_t bytes);

    /** Creates a fan-out copy of @p parent. */
    JobPtr createCopy(const Job& parent);

    /** Total jobs ever created. */
    JobId created() const { return nextId_ - 1; }

    /** Jobs currently alive (allocated and not yet destroyed).
     *  Exact: every job occupies exactly one pool block. */
    std::size_t liveJobs() const { return pool_->liveBlocks(); }

  private:
    JobPtr make(const Job& init);

    JobId nextId_ = 1;
    /** Owned until orphan() in the destructor. */
    FixedBlockPool* pool_;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_JOB_H_
