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

std::vector<double>
maxMinFairShares(const std::vector<double>& capacities,
                 const std::vector<std::vector<int>>& paths)
{
    std::vector<double> rates(paths.size(), 0.0);
    std::vector<double> capLeft = capacities;
    std::vector<int> flowsOn(capacities.size(), 0);
    std::vector<bool> fixed(paths.size(), false);
    std::size_t unfixed = 0;
    for (std::size_t f = 0; f < paths.size(); ++f) {
        if (paths[f].empty()) {
            fixed[f] = true;  // consumes no link; rate stays 0
            continue;
        }
        ++unfixed;
        for (int l : paths[f])
            ++flowsOn[static_cast<std::size_t>(l)];
    }
    // Progressive filling: the tightest link's equal split is a rate
    // no crossing flow can exceed, so those flows are fixed at it;
    // remove them and repeat.  Ties break toward the lowest link
    // index, keeping the arithmetic order deterministic.
    while (unfixed > 0) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bestLink = capacities.size();
        for (std::size_t l = 0; l < capacities.size(); ++l) {
            if (flowsOn[l] <= 0)
                continue;
            const double share = capLeft[l] / flowsOn[l];
            if (share < best) {
                best = share;
                bestLink = l;
            }
        }
        if (bestLink == capacities.size())
            break;
        for (std::size_t f = 0; f < paths.size(); ++f) {
            if (fixed[f])
                continue;
            bool crosses = false;
            for (int l : paths[f]) {
                if (static_cast<std::size_t>(l) == bestLink) {
                    crosses = true;
                    break;
                }
            }
            if (!crosses)
                continue;
            fixed[f] = true;
            --unfixed;
            rates[f] = best;
            for (int l : paths[f]) {
                const auto li = static_cast<std::size_t>(l);
                capLeft[li] -= best;
                if (capLeft[li] < 0.0)
                    capLeft[li] = 0.0;
                --flowsOn[li];
            }
        }
    }
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
    if (config_.onLinkDown == InFlightPolicy::Drop) {
        // Collect first: dropMessage schedules events and the drop
        // callbacks must not observe a half-mutated flow table.
        std::vector<std::uint64_t> doomed;
        for (const auto& [fid, flow] : flows_) {
            for (int l : *flow.path) {
                if (l == id) {
                    doomed.push_back(fid);
                    break;
                }
            }
        }
        for (std::uint64_t fid : doomed) {
            auto it = flows_.find(fid);
            Flow flow = std::move(it->second);
            flows_.erase(it);
            flow.completion.cancel();
            ++state.drops;
            ++linkDrops_;
            dropMessage(std::move(flow.dropped), DropReason::LinkDown,
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
    reshare();
}

void
FlowModel::clearLinkDegradation(int id)
{
    LinkState& state = linkStates_.at(static_cast<std::size_t>(id));
    state.capacityFactor = 1.0;
    state.latencyFactor = 1.0;
    reshare();
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
    std::size_t pick = 0;
    Chooser* chooser = sim_->chooser();
    if (survivorScratch_.size() >= 2 && chooser != nullptr) {
        const int cap = chooser->maxChoices(ChoiceKind::RouteFailover);
        const int options = static_cast<int>(
            std::min<std::size_t>(survivorScratch_.size(),
                                  static_cast<std::size_t>(
                                      cap > 0 ? cap : 0)));
        if (options >= 2) {
            pick = static_cast<std::size_t>(
                chooser->choose(ChoiceKind::RouteFailover, options,
                                "net/failover"));
        }
    }
    return survivorScratch_[pick];
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
FlowModel::dropMessage(DropCallback dropped, DropReason reason,
                       const char* label)
{
    if (reason == DropReason::Unreachable)
        ++unreachable_;
    if (!dropped)
        return;  // fire-and-forget send; nothing to notify
    // Deliver the verdict through the event queue so callers never
    // see their callback re-entered from inside transit().
    sim_->scheduleAfter(
        0,
        [cb = std::move(dropped), reason]() mutable { cb(reason); },
        label);
}

void
FlowModel::transit(const Machine* from, const Machine* to,
                   std::uint32_t bytes, double extraLatencySeconds,
                   Callback done, DropCallback dropped,
                   const char* label)
{
    if (from == nullptr || to == nullptr) {
        // External legs (load generator) pay a constant latency and
        // never contend for fabric bandwidth.
        sim_->scheduleAfter(
            secondsToSimTime(config_.externalLatency +
                             extraLatencySeconds),
            std::move(done), label);
        return;
    }
    if (partitionActive_ &&
        crossesPartition(from->netId(), to->netId())) {
        dropMessage(std::move(dropped), DropReason::Unreachable,
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
            dropMessage(std::move(dropped), DropReason::Unreachable,
                        "net/unreachable");
            return;
        }
        ++failovers_;
    }
    const double latency =
        extraLatencySeconds + pathLatencySeconds(*path);
    if (bytes == 0 || path->empty()) {
        sim_->scheduleAfter(secondsToSimTime(latency), std::move(done),
                            label);
        return;
    }
    const std::uint64_t id = nextFlowId_++;
    Flow& flow = flows_[id];
    flow.path = path;
    flow.remainingBytes = static_cast<double>(bytes);
    flow.tailLatency = latency;
    flow.done = std::move(done);
    flow.dropped = std::move(dropped);
    flow.label = label;
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
        for (auto& [id, flow] : flows_) {
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
    // removed); a degraded link its capacity scaled down.  Both
    // factors are exactly 1.0 / count 0 outside fault windows, so the
    // fault-free arithmetic is bit-identical.
    capLeft_.resize(links_.size());
    flowsOn_.assign(links_.size(), 0);
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const LinkState& state = linkStates_[l];
        capLeft_[l] = state.downCount > 0
                          ? 0.0
                          : links_[l].bytesPerSecond *
                                state.capacityFactor;
    }
    active_.clear();
    for (auto& [id, flow] : flows_) {
        active_.push_back(&flow);
        for (int l : *flow.path)
            ++flowsOn_[static_cast<std::size_t>(l)];
    }
    std::vector<double> oldRates;
    oldRates.reserve(active_.size());
    for (Flow* flow : active_) {
        oldRates.push_back(flow->rate);
        flow->rate = -1.0;
    }
    std::size_t unfixed = active_.size();
    while (unfixed > 0) {
        double best = std::numeric_limits<double>::infinity();
        std::size_t bestLink = links_.size();
        for (std::size_t l = 0; l < links_.size(); ++l) {
            if (flowsOn_[l] <= 0)
                continue;
            const double share = capLeft_[l] / flowsOn_[l];
            if (share < best) {
                best = share;
                bestLink = l;
            }
        }
        if (bestLink == links_.size())
            break;
        for (Flow* flow : active_) {
            if (flow->rate >= 0.0)
                continue;
            bool crosses = false;
            for (int l : *flow->path) {
                if (static_cast<std::size_t>(l) == bestLink) {
                    crosses = true;
                    break;
                }
            }
            if (!crosses)
                continue;
            flow->rate = best;
            --unfixed;
            for (int l : *flow->path) {
                const auto li = static_cast<std::size_t>(l);
                capLeft_[li] -= best;
                if (capLeft_[li] < 0.0)
                    capLeft_[li] = 0.0;
                --flowsOn_[li];
            }
        }
    }
    // Flows left unfixed cross only zero-capacity (downed) links:
    // pin them at rate 0 so they stall explicitly.
    if (unfixed > 0) {
        for (Flow* flow : active_) {
            if (flow->rate < 0.0)
                flow->rate = 0.0;
        }
    }

    // Reschedule completions.  A flow whose rate did not change
    // keeps its pending event: the remaining bytes shrank exactly in
    // step with the old schedule, so the old finish time still
    // holds (and skipping the reschedule avoids rounding drift).
    std::size_t index = 0;
    for (auto it = flows_.begin(); it != flows_.end(); ++it) {
        Flow& flow = it->second;
        const double oldRate = oldRates[index++];
        if (flow.rate == oldRate && flow.completion.pending())
            continue;
        flow.completion.cancel();
        if (flow.rate <= 0.0 && flow.remainingBytes > 0.0) {
            // Stalled across a dead link: no completion event until a
            // repair reshare gives it a positive rate again.
            continue;
        }
        const SimTime remaining =
            flow.rate > 0.0
                ? secondsToSimTime(flow.remainingBytes / flow.rate)
                : 0;
        const std::uint64_t fid = it->first;
        flow.completion = sim_->scheduleAfter(
            remaining, [this, fid]() { finishFlow(fid); }, "net/flow");
    }
}

void
FlowModel::finishFlow(std::uint64_t id)
{
    auto it = flows_.find(id);
    if (it == flows_.end())
        return;
    Flow flow = std::move(it->second);
    flows_.erase(it);
    ++finished_;
    // Release the flow's share first, then pay the propagation tail:
    // the remaining flows speed up the moment the last byte leaves.
    reshare();
    sim_->scheduleAfter(secondsToSimTime(flow.tailLatency),
                        std::move(flow.done), flow.label);
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
    rates.reserve(flows_.size());
    for (const auto& [id, flow] : flows_)
        rates.push_back(flow.rate);
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
    visitor.u64("active_flows", flows_.size());
    visitor.u64("failover_picks", failoverPicks_.size());

    // Active flows in id order, per-link fault state, partition map,
    // and sticky failover picks.
    snapshot::Digest digest;
    for (const auto& [id, flow] : flows_) {
        digest.u64(id);
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
