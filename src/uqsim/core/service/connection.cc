#include "uqsim/core/service/connection.h"

#include <algorithm>
#include <stdexcept>

namespace uqsim {

Connection&
ConnectionTable::ensure(ConnectionId id)
{
    auto [it, inserted] = connections_.try_emplace(id);
    if (inserted)
        it->second.id = id;
    return it->second;
}

bool
ConnectionTable::isBlocked(ConnectionId id) const
{
    const auto it = connections_.find(id);
    return it != connections_.end() && it->second.recvBlocked();
}

JobId
ConnectionTable::blockOwner(ConnectionId id) const
{
    const auto it = connections_.find(id);
    if (it == connections_.end() || !it->second.recvBlocked())
        return 0;
    return it->second.owners.front();
}

void
ConnectionTable::block(ConnectionId id, JobId root)
{
    ensure(id).owners.push_back(root);
}

void
ConnectionTable::unblock(ConnectionId id, JobId root)
{
    Connection& connection = ensure(id);
    const JobId previous_owner =
        connection.owners.empty() ? 0 : connection.owners.front();
    const auto it = std::find(connection.owners.begin(),
                              connection.owners.end(), root);
    if (it == connection.owners.end())
        return;
    connection.owners.erase(it);
    const JobId new_owner =
        connection.owners.empty() ? 0 : connection.owners.front();
    if (new_owner != previous_owner && onUnblock_)
        onUnblock_(id);
}

}  // namespace uqsim
