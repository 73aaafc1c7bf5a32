#ifndef UQSIM_CORE_SERVICE_CONNECTION_H_
#define UQSIM_CORE_SERVICE_CONNECTION_H_

/**
 * @file
 * Connections and receive-side blocking.
 *
 * Each microservice instance owns a ConnectionTable tracking the
 * state of every connection that delivers jobs to it.  HTTP/1.1
 * style blocking (paper §III-C) marks a connection's receive side
 * blocked while a request is outstanding; epoll and socket queues
 * treat subqueues of blocked connections as inactive.
 *
 * The dispatcher records which connections each root request has
 * blocked, so a later path node (e.g. the webserver's response leg)
 * can find and unblock them by root job id — mirroring the paper's
 * "searches the list of job ids for the one matching the request
 * that initiated the blocking behavior".
 */

#include <deque>
#include <functional>
#include <map>

#include "uqsim/core/service/job.h"

namespace uqsim {

/**
 * Per-connection state at one instance.
 *
 * Blocking keeps a FIFO of owner root ids (HTTP/1.1 pipelining):
 * the front owner's request is in flight and stays processable;
 * requests queued behind it wait.  Unblocking removes an owner; the
 * next pipelined request then becomes the in-flight one.
 */
struct Connection {
    ConnectionId id = kNoConnection;
    /** Root ids holding the receive-side block, oldest first. */
    std::deque<JobId> owners;

    bool recvBlocked() const { return !owners.empty(); }
};

/** All connections terminating at one instance. */
class ConnectionTable {
  public:
    ConnectionTable() = default;

    /** Looks up (creating on first use) connection @p id. */
    Connection& ensure(ConnectionId id);

    /** True when @p id exists and its receive side is blocked. */
    bool isBlocked(ConnectionId id) const;

    /**
     * Root id of the request holding the block on @p id, or 0 when
     * the connection is not blocked.  HTTP/1.1 semantics: the
     * blocking request itself stays processable; only subsequent
     * requests on the connection wait.
     */
    JobId blockOwner(ConnectionId id) const;

    /** Blocks the receive side of @p id on behalf of @p root. */
    void block(ConnectionId id, JobId root);

    /**
     * Removes @p root from the owner queue of @p id.  When this
     * changes the connection's front owner (or empties the queue),
     * the unblock callback fires so newly eligible jobs get
     * scheduled.
     */
    void unblock(ConnectionId id, JobId root);

    /** Callback fired after every unblock. */
    void onUnblock(std::function<void(ConnectionId)> callback)
    {
        onUnblock_ = std::move(callback);
    }

    /** Drops all connection state (instance crash: every TCP
     *  connection to the dead process resets).  Keeps the unblock
     *  callback so the table is reusable after recovery. */
    void reset() { connections_.clear(); }

  private:
    std::map<ConnectionId, Connection> connections_;
    std::function<void(ConnectionId)> onUnblock_;
};

}  // namespace uqsim

#endif  // UQSIM_CORE_SERVICE_CONNECTION_H_
