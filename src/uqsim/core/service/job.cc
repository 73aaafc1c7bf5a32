#include "uqsim/core/service/job.h"

#include <new>

namespace uqsim {

JobPtr
JobFactory::make(const Job& init)
{
    return JobPtr(::new (pool_->allocate()) Job(init), JobDeleter{pool_});
}

JobPtr
JobFactory::createRoot(SimTime now, std::uint32_t bytes)
{
    JobPtr job = make(Job{});
    job->id = nextId_++;
    job->rootId = job->id;
    job->bytes = bytes;
    job->created = now;
    job->enteredTier = now;
    return job;
}

JobPtr
JobFactory::createCopy(const Job& parent)
{
    JobPtr job = make(parent);
    job->id = nextId_++;
    job->connectionId = kNoConnection;
    job->stageIndex = -1;
    return job;
}

}  // namespace uqsim
