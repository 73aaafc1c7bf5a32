#include "uqsim/hw/flow_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "uqsim/core/engine/choice.h"
#include "uqsim/hw/machine.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace hw {

void
MaxMinFill::run(const std::vector<double>& capacities,
                const std::vector<const std::vector<int>*>& paths,
                std::vector<double>& rates)
{
    if (flowsOn_.size() < capacities.size()) {
        flowsOn_.resize(capacities.size(), 0);
        capLeft_.resize(capacities.size());
    }
    rates.assign(paths.size(), 0.0);
    used_.clear();
    unfixed_.clear();
    for (std::size_t f = 0; f < paths.size(); ++f) {
        if (paths[f]->empty())
            continue;  // consumes no link; rate stays 0
        unfixed_.push_back(static_cast<std::uint32_t>(f));
        for (int l : *paths[f]) {
            const auto li = static_cast<std::size_t>(l);
            if (flowsOn_[li]++ == 0) {
                used_.push_back(li);
                capLeft_[li] = capacities[li];
            }
        }
    }
    // The tightest link's equal split is a rate no crossing flow can
    // exceed, so those flows are fixed at it; remove them and repeat.
    // Every flow fixed in a round subtracts the same share, so the
    // per-link arithmetic does not depend on the order flows are
    // visited in, only on the (deterministic) bottleneck sequence.
    while (!unfixed_.empty()) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bestLink = capacities.size();
        for (const std::size_t l : used_) {
            if (flowsOn_[l] <= 0)
                continue;
            const double share = capLeft_[l] / flowsOn_[l];
            if (share < best || (share == best && l < bestLink)) {
                best = share;
                bestLink = l;
            }
        }
        // Only infinite (or no) shares left: no link constrains the
        // remaining flows, and they keep rate 0.
        if (!(best < std::numeric_limits<double>::infinity()))
            break;
        const int bottleneck = static_cast<int>(bestLink);
        std::size_t kept = 0;
        for (const std::uint32_t f : unfixed_) {
            const std::vector<int>& path = *paths[f];
            if (std::find(path.begin(), path.end(), bottleneck) ==
                path.end()) {
                unfixed_[kept++] = f;
                continue;
            }
            rates[f] = best;
            for (int l : path) {
                const auto li = static_cast<std::size_t>(l);
                capLeft_[li] -= best;
                if (capLeft_[li] < 0.0)
                    capLeft_[li] = 0.0;
                --flowsOn_[li];
            }
        }
        unfixed_.resize(kept);
    }
    for (const std::size_t l : used_)
        flowsOn_[l] = 0;
}

std::vector<double>
maxMinFairShares(const std::vector<double>& capacities,
                 const std::vector<std::vector<int>>& paths)
{
    std::vector<const std::vector<int>*> pathPtrs;
    pathPtrs.reserve(paths.size());
    for (const auto& path : paths)
        pathPtrs.push_back(&path);
    std::vector<double> rates;
    MaxMinFill().run(capacities, pathPtrs, rates);
    return rates;
}

FlowModel::FlowModel() : FlowModel(Config{})
{
}

FlowModel::FlowModel(const Config& config) : config_(config)
{
}

std::unique_ptr<FlowModel>
FlowModel::make()
{
    return make(Config{});
}

std::unique_ptr<FlowModel>
FlowModel::make(const Config& config)
{
    return std::make_unique<FlowModel>(config);
}

int
FlowModel::addLink(const LinkSpec& spec)
{
    if (spec.bytesPerSecond <= 0.0) {
        throw std::invalid_argument("flow model link \"" + spec.name +
                                    "\": capacity must be > 0");
    }
    if (linkIds_.count(spec.name) != 0) {
        throw std::invalid_argument("duplicate flow model link: " +
                                    spec.name);
    }
    const int id = static_cast<int>(links_.size());
    links_.push_back(spec);
    linkStates_.emplace_back();
    capacity_.push_back(spec.bytesPerSecond);
    linkIds_.emplace(spec.name, id);
    return id;
}

int
FlowModel::linkId(const std::string& name) const
{
    auto it = linkIds_.find(name);
    return it == linkIds_.end() ? -1 : it->second;
}

void
FlowModel::setRoute(int fromId, int toId, std::vector<int> path)
{
    for (int l : path) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model route uses unknown "
                                    "link id " +
                                    std::to_string(l));
    }
    auto& candidates = routes_[{fromId, toId}];
    candidates.clear();
    candidates.push_back(std::move(path));
}

void
FlowModel::addBackupRoute(int fromId, int toId, std::vector<int> path)
{
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end()) {
        throw std::logic_error(
            "flow model: backup route requires a primary route " +
            std::to_string(fromId) + " -> " + std::to_string(toId));
    }
    for (int l : path) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model route uses unknown "
                                    "link id " +
                                    std::to_string(l));
    }
    it->second.push_back(std::move(path));
}

bool
FlowModel::hasRoute(int fromId, int toId) const
{
    return routes_.count({fromId, toId}) != 0;
}

const std::vector<int>&
FlowModel::route(int fromId, int toId) const
{
    return routeCandidates(fromId, toId).front();
}

const std::vector<std::vector<int>>&
FlowModel::routeCandidates(int fromId, int toId) const
{
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end()) {
        throw std::out_of_range(
            "flow model: no route " + std::to_string(fromId) + " -> " +
            std::to_string(toId));
    }
    return it->second;
}

void
FlowModel::registerSwitch(const std::string& name,
                          std::vector<int> linkIds)
{
    if (switches_.count(name) != 0) {
        throw std::invalid_argument("duplicate flow model switch: " +
                                    name);
    }
    for (int l : linkIds) {
        if (l < 0 || static_cast<std::size_t>(l) >= links_.size())
            throw std::out_of_range("flow model switch \"" + name +
                                    "\" uses unknown link id " +
                                    std::to_string(l));
    }
    switches_.emplace(name, std::move(linkIds));
    switchNames_.push_back(name);
}

bool
FlowModel::hasSwitch(const std::string& name) const
{
    return switches_.count(name) != 0;
}

const std::vector<int>&
FlowModel::switchLinks(const std::string& name) const
{
    return switches_.at(name);
}

void
FlowModel::setLinkDown(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    if (++state.downCount > 1)
        return;  // nested outage (e.g. switch_down over link_down)
    ++downLinkCount_;
    failoverPicks_.clear();  // new outage epoch: re-decide failovers
    state.downSince = sim_ != nullptr ? sim_->now() : 0;
    refreshCapacity(id);
    if (config_.onLinkDown == InFlightPolicy::Drop) {
        // Split the crossing flows out first (keeping id order on
        // both sides): dropMessage schedules events and the drop
        // callbacks must not observe a half-mutated flow table.
        std::vector<std::uint32_t> doomed;
        std::size_t kept = 0;
        for (const std::uint32_t slot : order_) {
            const std::vector<int>& path = *slots_[slot].path;
            if (std::find(path.begin(), path.end(), id) != path.end())
                doomed.push_back(slot);
            else
                order_[kept++] = slot;
        }
        order_.resize(kept);
        for (const std::uint32_t slot : doomed) {
            Flow flow = takeFlow(slot);
            flow.completion.cancel();
            ++state.drops;
            ++linkDrops_;
            dropMessage(std::move(flow.done), Outcome::LinkDown,
                        "net/link-drop");
        }
    }
    // Stall policy needs no flow surgery: the dead link's capacity is
    // zero, so progressive filling pins every crossing flow at rate 0
    // and reshare() leaves them without a completion event.
    reshare();
}

void
FlowModel::setLinkUp(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    if (state.downCount <= 0) {
        throw std::logic_error("flow model: setLinkUp on a link that "
                               "is not down: " +
                               links_[static_cast<std::size_t>(id)]
                                   .name);
    }
    if (--state.downCount > 0)
        return;
    --downLinkCount_;
    failoverPicks_.clear();  // repaired: routes revert to primaries
    refreshCapacity(id);
    if (sim_ != nullptr) {
        state.downSecondsTotal +=
            simTimeToSeconds(sim_->now() - state.downSince);
    }
    reshare();
}

void
FlowModel::setLinkDegradation(int id, double capacityFactor,
                              double latencyFactor)
{
    if (!(capacityFactor > 0.0) || capacityFactor > 1.0) {
        throw std::invalid_argument(
            "flow model: capacity factor must be in (0, 1]");
    }
    if (latencyFactor < 1.0) {
        throw std::invalid_argument(
            "flow model: latency factor must be >= 1");
    }
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    state.capacityFactor = capacityFactor;
    state.latencyFactor = latencyFactor;
    refreshCapacity(id);
    reshare();
}

void
FlowModel::clearLinkDegradation(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    state.capacityFactor = 1.0;
    state.latencyFactor = 1.0;
    refreshCapacity(id);
    reshare();
}

void
FlowModel::refreshCapacity(int id)
{
    const auto l = static_cast<std::size_t>(id);
    const LinkState& state = linkStates_[l];
    // capacityFactor is exactly 1.0 outside degradation windows, so
    // fault-free capacities are the spec's bytes/s bit for bit.
    capacity_[l] = state.downCount > 0
                       ? 0.0
                       : links_[l].bytesPerSecond *
                             state.capacityFactor;
}

bool
FlowModel::linkUp(int id) const
{
    return linkStates_.at(static_cast<std::size_t>(id)).downCount == 0;
}

void
FlowModel::setPartition(const std::vector<std::vector<int>>& groups)
{
    partitionOf_.assign(machineNames_.size(), -1);
    for (std::size_t g = 0; g < groups.size(); ++g) {
        for (int id : groups[g]) {
            const auto idx = static_cast<std::size_t>(id);
            if (id < 0 || idx >= partitionOf_.size()) {
                throw std::out_of_range(
                    "flow model: partition group references unknown "
                    "machine net id " +
                    std::to_string(id));
            }
            partitionOf_[idx] = static_cast<int>(g);
        }
    }
    partitionActive_ = true;
}

void
FlowModel::clearPartition()
{
    partitionActive_ = false;
    partitionOf_.clear();
}

bool
FlowModel::crossesPartition(int fromId, int toId) const
{
    const auto fi = static_cast<std::size_t>(fromId);
    const auto ti = static_cast<std::size_t>(toId);
    if (fi >= partitionOf_.size() || ti >= partitionOf_.size())
        return false;
    const int fromGroup = partitionOf_[fi];
    const int toGroup = partitionOf_[ti];
    return fromGroup >= 0 && toGroup >= 0 && fromGroup != toGroup;
}

bool
FlowModel::reachable(int fromId, int toId) const
{
    if (partitionActive_ && crossesPartition(fromId, toId))
        return false;
    auto it = routes_.find({fromId, toId});
    if (it == routes_.end())
        return false;
    if (downLinkCount_ == 0)
        return true;
    for (const auto& candidate : it->second) {
        if (pathUp(candidate))
            return true;
    }
    return false;
}

void
FlowModel::bind(Simulator& sim)
{
    sim_ = &sim;
    lastUpdate_ = sim.now();
}

void
FlowModel::onMachineAdded(const Machine& machine)
{
    const auto id = static_cast<std::size_t>(machine.netId());
    if (machineNames_.size() <= id)
        machineNames_.resize(id + 1);
    machineNames_[id] = machine.name();
}

const std::vector<std::vector<int>>&
FlowModel::routeOrThrow(const Machine& from, const Machine& to) const
{
    auto it = routes_.find({from.netId(), to.netId()});
    if (it == routes_.end()) {
        throw std::logic_error("flow network model: no route from \"" +
                               from.name() + "\" to \"" + to.name() +
                               "\"");
    }
    return it->second;
}

bool
FlowModel::pathUp(const std::vector<int>& path) const
{
    for (int l : path) {
        if (linkStates_[static_cast<std::size_t>(l)].downCount > 0)
            return false;
    }
    return true;
}

const std::vector<int>*
FlowModel::pickSurvivingPath(
    const std::vector<std::vector<int>>& candidates)
{
    survivorScratch_.clear();
    for (const auto& candidate : candidates) {
        if (pathUp(candidate))
            survivorScratch_.push_back(&candidate);
    }
    if (survivorScratch_.empty())
        return nullptr;
    const int pick = sim_->choose(ChoiceKind::RouteFailover,
                                  survivorScratch_.size(),
                                  "net/failover");
    return survivorScratch_[static_cast<std::size_t>(pick)];
}

double
FlowModel::pathLatencySeconds(const std::vector<int>& path) const
{
    double latency = 0.0;
    for (int l : path) {
        const auto li = static_cast<std::size_t>(l);
        // latencyFactor is exactly 1.0 outside degradation windows,
        // and x * 1.0 is IEEE-exact, so fault-free digests are
        // untouched by this multiply.
        latency += links_[li].latencySeconds *
                   linkStates_[li].latencyFactor;
    }
    return latency;
}

void
FlowModel::dropMessage(OutcomeCallback done, Outcome reason,
                       const char* label)
{
    if (reason == Outcome::Unreachable)
        ++unreachable_;
    // Deliver the verdict through the event queue so callers never
    // see their callback re-entered from inside transit().
    sim_->scheduleAfter(0, outcomeEvent(std::move(done), reason), label);
}

void
FlowModel::transit(const Machine* from, const Machine* to,
                   std::uint32_t bytes, double extraLatencySeconds,
                   OutcomeCallback done, const char* label)
{
    if (from == nullptr || to == nullptr) {
        // External legs (load generator) pay a constant latency and
        // never contend for fabric bandwidth.
        sim_->scheduleAfter(
            secondsToSimTime(config_.externalLatency +
                             extraLatencySeconds),
            outcomeEvent(std::move(done), Outcome::Delivered), label);
        return;
    }
    if (partitionActive_ &&
        crossesPartition(from->netId(), to->netId())) {
        dropMessage(std::move(done), Outcome::Unreachable,
                    "net/unreachable");
        return;
    }
    const std::vector<std::vector<int>>& candidates =
        routeOrThrow(*from, *to);
    const std::vector<int>* path = &candidates.front();
    if (downLinkCount_ > 0 && !pathUp(*path)) {
        const std::pair<int, int> key{from->netId(), to->netId()};
        const auto cached = failoverPicks_.find(key);
        if (cached != failoverPicks_.end()) {
            path = cached->second;
        } else {
            path = pickSurvivingPath(candidates);
            failoverPicks_.emplace(key, path);
        }
        if (path == nullptr) {
            dropMessage(std::move(done), Outcome::Unreachable,
                        "net/unreachable");
            return;
        }
        ++failovers_;
    }
    const double latency =
        extraLatencySeconds + pathLatencySeconds(*path);
    if (bytes == 0 || path->empty()) {
        sim_->scheduleAfter(
            secondsToSimTime(latency),
            outcomeEvent(std::move(done), Outcome::Delivered), label);
        return;
    }
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    }
    Flow& flow = slots_[slot];
    // A recycled slot must not leak its last flow's state: a stale
    // rate would drain the new flow's bytes at the next advance.
    flow = Flow{};
    flow.id = nextFlowId_++;
    flow.path = path;
    flow.remainingBytes = static_cast<double>(bytes);
    flow.tailLatency = latency;
    flow.done = std::move(done);
    flow.label = label;
    order_.push_back(slot);  // ids only grow: order_ stays sorted
    ++started_;
    reshare();
}

void
FlowModel::loopback(const Machine* machine, std::uint32_t bytes,
                    double extraLatencySeconds, Callback done,
                    const char* label)
{
    (void)machine;
    (void)bytes;
    sim_->scheduleAfter(
        secondsToSimTime(config_.loopbackLatency + extraLatencySeconds),
        std::move(done), label);
}

void
FlowModel::reshare()
{
    const SimTime now = sim_->now();
    if (now > lastUpdate_) {
        const double dt = simTimeToSeconds(now - lastUpdate_);
        for (const std::uint32_t slot : order_) {
            Flow& flow = slots_[slot];
            flow.remainingBytes -= flow.rate * dt;
            if (flow.remainingBytes < 0.0)
                flow.remainingBytes = 0.0;
        }
    }
    lastUpdate_ = now;
    ++reshares_;

    // Progressive filling over the active flows, in flow-id order.
    // A downed link contributes zero capacity (its flows stall at
    // rate 0 under the Stall policy; under Drop they were already
    // removed); a degraded link its capacity scaled down.
    paths_.clear();
    for (const std::uint32_t slot : order_)
        paths_.push_back(slots_[slot].path);
    fill_.run(capacity_, paths_, rates_);

    // Move completions.  A flow whose rate did not change keeps its
    // pending event: the remaining bytes shrank exactly in step with
    // the old schedule, so the old finish time still holds (and
    // skipping the move avoids rounding drift).
    for (std::size_t i = 0; i < order_.size(); ++i) {
        const std::uint32_t slot = order_[i];
        Flow& flow = slots_[slot];
        const double rate = rates_[i];
        if (rate == flow.rate && flow.completion.pending())
            continue;
        flow.rate = rate;
        if (rate <= 0.0 && flow.remainingBytes > 0.0) {
            // Stalled across a dead link: no completion event until a
            // repair reshare gives it a positive rate again.
            flow.completion.cancel();
            continue;
        }
        const SimTime remaining =
            rate > 0.0 ? secondsToSimTime(flow.remainingBytes / rate)
                       : 0;
        if (sim_->retimeAfter(flow.completion, remaining))
            continue;
        const std::uint64_t id = flow.id;
        flow.completion = sim_->scheduleAfter(
            remaining, [this, slot, id]() { finishFlow(slot, id); },
            "net/flow");
    }
}

FlowModel::Flow
FlowModel::takeFlow(std::uint32_t slot)
{
    Flow flow = std::move(slots_[slot]);
    slots_[slot].path = nullptr;
    freeSlots_.push_back(slot);
    return flow;
}

void
FlowModel::finishFlow(std::uint32_t slot, std::uint64_t id)
{
    if (slots_[slot].path == nullptr || slots_[slot].id != id)
        return;
    order_.erase(std::find(order_.begin(), order_.end(), slot));
    Flow flow = takeFlow(slot);
    ++finished_;
    // Release the flow's share first, then pay the propagation tail:
    // the remaining flows speed up the moment the last byte leaves.
    reshare();
    sim_->scheduleAfter(
        secondsToSimTime(flow.tailLatency),
        outcomeEvent(std::move(flow.done), Outcome::Delivered),
        flow.label);
}

double
FlowModel::linkDownSeconds(int id) const
{
    const LinkState& state =
        linkStates_.at(static_cast<std::size_t>(id));
    double total = state.downSecondsTotal;
    if (state.downCount > 0 && sim_ != nullptr)
        total += simTimeToSeconds(sim_->now() - state.downSince);
    return total;
}

std::vector<FlowModel::LinkFaultSummary>
FlowModel::linkFaultSummaries() const
{
    std::vector<LinkFaultSummary> out;
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const double down = linkDownSeconds(static_cast<int>(l));
        const std::uint64_t drops = linkStates_[l].drops;
        if (down <= 0.0 && drops == 0)
            continue;
        LinkFaultSummary summary;
        summary.name = links_[l].name;
        summary.downSeconds = down;
        summary.drops = drops;
        out.push_back(std::move(summary));
    }
    return out;
}

std::vector<double>
FlowModel::activeFlowRates() const
{
    std::vector<double> rates;
    rates.reserve(order_.size());
    for (const std::uint32_t slot : order_)
        rates.push_back(slots_[slot].rate);
    return rates;
}

void
FlowModel::visitState(snapshot::StateVisitor& visitor) const
{
    const snapshot::StateVisitor::Scope scope(visitor, "flow");
    visitor.u64("started", started_);
    visitor.u64("finished", finished_);
    visitor.u64("reshares", reshares_);
    visitor.u64("failovers", failovers_);
    visitor.u64("unreachable", unreachable_);
    visitor.u64("link_drops", linkDrops_);
    visitor.u64("next_flow_id", nextFlowId_);
    visitor.i64("last_update", lastUpdate_);
    visitor.i64("down_links", downLinkCount_);
    visitor.boolean("partition_active", partitionActive_);
    visitor.u64("active_flows", order_.size());
    visitor.u64("failover_picks", failoverPicks_.size());

    // Active flows in id order, per-link fault state, partition map,
    // and sticky failover picks.
    snapshot::Digest digest;
    for (const std::uint32_t slot : order_) {
        const Flow& flow = slots_[slot];
        digest.u64(flow.id);
        digest.f64(flow.remainingBytes);
        digest.f64(flow.rate);
        digest.f64(flow.tailLatency);
        digest.str(flow.label);
        digest.boolean(flow.completion.pending());
    }
    for (const auto& state : linkStates_) {
        digest.i64(state.downCount);
        digest.f64(state.capacityFactor);
        digest.f64(state.latencyFactor);
        digest.i64(state.downSince);
        digest.f64(state.downSecondsTotal);
        digest.u64(state.drops);
    }
    for (const int group : partitionOf_)
        digest.i64(group);
    for (const auto& [pair, path] : failoverPicks_) {
        digest.i64(pair.first);
        digest.i64(pair.second);
        // The pick is a pointer into route storage; digest the
        // picked path's content (or a none marker for unreachable).
        digest.boolean(path != nullptr);
        if (path != nullptr) {
            for (const int link : *path)
                digest.i64(link);
        }
    }
    visitor.u64("state_digest", digest.value());
}

}  // namespace hw
}  // namespace uqsim
