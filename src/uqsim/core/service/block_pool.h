#ifndef UQSIM_CORE_SERVICE_BLOCK_POOL_H_
#define UQSIM_CORE_SERVICE_BLOCK_POOL_H_

/**
 * @file
 * Fixed-size block pool that outlives its owner while blocks are out.
 *
 * Jobs are allocated and destroyed once per request hop; at steady
 * state the population is bounded by the number of in-flight
 * requests, which makes a free-list pool the right shape: blocks are
 * carved from slab allocations, recycled on a LIFO free list, and
 * only returned to the OS when the pool dies.
 *
 * Lifetime without reference counts: the owner heap-allocates the
 * pool and calls orphan() instead of deleting it.  A pool with no
 * blocks out deletes itself at once; otherwise it deletes itself
 * when the last block comes back.  A handle therefore carries a raw
 * pointer to its pool and may die after the pool's owner (a test
 * harness that declares its JobFactory after the instance holding
 * the jobs, or events still queued when a simulation is torn down).
 *
 * Single-threaded by design, like everything inside one Simulator;
 * parallel sweeps give every replication its own pool.
 */

#include <cstddef>
#include <memory>
#include <vector>

namespace uqsim {

/** Pool of equally-sized blocks; create with new, end with orphan(). */
class FixedBlockPool {
  public:
    explicit FixedBlockPool(std::size_t block_size)
        : stride_((block_size + alignof(std::max_align_t) - 1) &
                  ~(alignof(std::max_align_t) - 1))
    {
    }

    FixedBlockPool(const FixedBlockPool&) = delete;
    FixedBlockPool& operator=(const FixedBlockPool&) = delete;

    void*
    allocate()
    {
        if (free_.empty())
            grow();
        void* block = free_.back();
        free_.pop_back();
        return block;
    }

    void
    deallocate(void* block)
    {
        free_.push_back(block);
        if (orphaned_ && liveBlocks() == 0)
            delete this;
    }

    /** Gives up the owner's reference: the pool deletes itself now,
     *  or when its last block comes back. */
    void
    orphan()
    {
        orphaned_ = true;
        if (liveBlocks() == 0)
            delete this;
    }

    /** Blocks currently handed out — the live object population.
     *  The invariant auditor checks this drops to zero when a
     *  drained simulation cannot be holding any objects. */
    std::size_t liveBlocks() const { return capacity_ - free_.size(); }

  private:
    static constexpr std::size_t kBlocksPerSlab = 256;

    ~FixedBlockPool() = default;

    void
    grow()
    {
        slabs_.push_back(std::make_unique<unsigned char[]>(
            stride_ * kBlocksPerSlab));
        unsigned char* base = slabs_.back().get();
        free_.reserve(free_.size() + kBlocksPerSlab);
        for (std::size_t i = kBlocksPerSlab; i-- > 0;)
            free_.push_back(base + i * stride_);
        capacity_ += kBlocksPerSlab;
    }

    std::size_t stride_;
    std::size_t capacity_ = 0;
    bool orphaned_ = false;
    std::vector<std::unique_ptr<unsigned char[]>> slabs_;
    std::vector<void*> free_;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_BLOCK_POOL_H_
