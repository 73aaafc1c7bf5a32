#include "uqsim/core/app/deployment.h"

#include <algorithm>
#include <stdexcept>

#include "uqsim/json/validation.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {

LbPolicy
lbPolicyFromString(const std::string& name)
{
    if (name == "round_robin")
        return LbPolicy::RoundRobin;
    if (name == "random")
        return LbPolicy::Random;
    throw std::invalid_argument("unknown lb_policy: \"" + name + "\"");
}

InstanceConfig
instanceConfigFromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"machine", "threads", "cores",
                            "disk_channels", "disk", "own_dvfs",
                            "scheduling", "queue_capacity"},
                           "graph.json instance");
    InstanceConfig config;
    config.threads = doc.getOr("threads", 0);
    config.cores = doc.getOr("cores", 0);
    // -1 = inherit the model default; an explicit 0 disables the
    // legacy channel model (see InstanceConfig::diskChannels).
    config.diskChannels = doc.getOr("disk_channels", -1);
    config.disk = doc.getOr("disk", "");
    config.ownDvfsDomain = doc.getOr("own_dvfs", false);
    config.queueCapacity = doc.getOr("queue_capacity", 0);
    const std::string policy = doc.getOr("scheduling", "drain");
    if (policy == "drain") {
        config.policy = SchedulingPolicy::Drain;
    } else if (policy == "stage_order") {
        config.policy = SchedulingPolicy::StageOrder;
    } else {
        throw json::JsonError("unknown scheduling policy: \"" + policy +
                              "\"");
    }
    return config;
}

Deployment::Deployment(Simulator& sim, hw::Cluster& cluster)
    : sim_(sim), cluster_(cluster)
{
}

void
Deployment::registerModel(ServiceModelPtr model)
{
    if (!model)
        throw std::invalid_argument("cannot register a null model");
    ServiceEntry& service = services_[model->name()];
    if (service.model && !service.instances.empty()) {
        throw std::logic_error("model for \"" + model->name() +
                               "\" re-registered after deployment");
    }
    const std::uint32_t id = names_.intern(model->name());
    model->setNameId(id);
    if (entriesById_.size() <= id)
        entriesById_.resize(id + 1, nullptr);
    entriesById_[id] = &service;
    service.model = std::move(model);
}

const ServiceModelPtr&
Deployment::model(const std::string& service) const
{
    return entry(service).model;
}

Deployment::ServiceEntry&
Deployment::entry(const std::string& service)
{
    auto it = services_.find(service);
    if (it == services_.end() || !it->second.model)
        throw std::out_of_range("unknown service: \"" + service + "\"");
    return it->second;
}

const Deployment::ServiceEntry&
Deployment::entry(const std::string& service) const
{
    auto it = services_.find(service);
    if (it == services_.end() || !it->second.model)
        throw std::out_of_range("unknown service: \"" + service + "\"");
    return it->second;
}

Deployment::ServiceEntry&
Deployment::entry(std::uint32_t service_id)
{
    if (service_id >= entriesById_.size() ||
        entriesById_[service_id] == nullptr) {
        throw std::out_of_range("unknown service id " +
                                std::to_string(service_id));
    }
    return *entriesById_[service_id];
}

const Deployment::ServiceEntry&
Deployment::entry(std::uint32_t service_id) const
{
    if (service_id >= entriesById_.size() ||
        entriesById_[service_id] == nullptr) {
        throw std::out_of_range("unknown service id " +
                                std::to_string(service_id));
    }
    return *entriesById_[service_id];
}

int
Deployment::deployInstance(const std::string& service,
                           const std::string& machine,
                           const InstanceConfig& config)
{
    ServiceEntry& svc = entry(service);
    const int index = static_cast<int>(svc.instances.size());
    const std::string name = service + "." + std::to_string(index);
    hw::Machine* host =
        machine.empty() ? nullptr : &cluster_.machine(machine);
    svc.instances.push_back(std::make_unique<MicroserviceInstance>(
        sim_, svc.model, name, host, config));
    svc.instances.back()->setUid(
        static_cast<int>(allInstances_.size()));
    svc.instancePtrs.push_back(svc.instances.back().get());
    allInstances_.push_back(svc.instances.back().get());
    return index;
}

void
Deployment::loadGraphJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc, {"services"}, "graph.json");
    for (const json::JsonValue& svc : doc.at("services").asArray()) {
        json::requireKnownKeys(svc,
                               {"service", "lb_policy",
                                "connection_pools", "instances",
                                "policies", "admission"},
                               "graph.json service");
        const std::string service = svc.at("service").asString();
        if (svc.contains("lb_policy")) {
            setLbPolicy(service, lbPolicyFromString(
                                     svc.at("lb_policy").asString()));
        }
        if (const json::JsonValue* pools = svc.find("connection_pools")) {
            for (const auto& [downstream, size] : pools->asObject()) {
                setPoolSize(service, downstream,
                            static_cast<int>(size.asInt()));
            }
        }
        if (const json::JsonValue* policies = svc.find("policies")) {
            for (const auto& [downstream, policy] :
                 policies->asObject()) {
                setEdgePolicy(service, downstream,
                              fault::EdgePolicy::fromJson(policy));
            }
        }
        if (const json::JsonValue* admission = svc.find("admission")) {
            setAdmission(service,
                         fault::AdmissionConfig::fromJson(*admission));
        }
        for (const json::JsonValue& inst :
             svc.at("instances").asArray()) {
            deployInstance(service, inst.getOr("machine", ""),
                           instanceConfigFromJson(inst));
        }
    }
}

void
Deployment::setEdgePolicy(const std::string& from_service,
                          const std::string& to_service,
                          const fault::EdgePolicy& policy)
{
    edgePolicies_[edgeKey(names_.intern(from_service),
                          names_.intern(to_service))] = policy;
}

const fault::EdgePolicy*
Deployment::edgePolicy(const std::string& from_service,
                       const std::string& to_service) const
{
    const std::uint32_t from_id = names_.find(from_service);
    const std::uint32_t to_id = names_.find(to_service);
    if (from_id == NameInterner::kNone || to_id == NameInterner::kNone)
        return nullptr;
    return edgePolicy(from_id, to_id);
}

const fault::EdgePolicy*
Deployment::edgePolicy(std::uint32_t from_id, std::uint32_t to_id) const
{
    const auto it = edgePolicies_.find(edgeKey(from_id, to_id));
    return it == edgePolicies_.end() ? nullptr : &it->second;
}

void
Deployment::setAdmission(const std::string& service,
                         const fault::AdmissionConfig& config)
{
    const std::uint32_t id = names_.intern(service);
    if (admission_.size() <= id)
        admission_.resize(id + 1);
    admission_[id] = std::make_unique<fault::AdmissionConfig>(config);
}

const fault::AdmissionConfig*
Deployment::admission(const std::string& service) const
{
    const std::uint32_t id = names_.find(service);
    return id == NameInterner::kNone ? nullptr : admission(id);
}

const fault::AdmissionConfig*
Deployment::admission(std::uint32_t service_id) const
{
    return service_id < admission_.size() ? admission_[service_id].get()
                                          : nullptr;
}

void
Deployment::setPoolSize(const std::string& from_service,
                        const std::string& to_service, int size)
{
    if (size <= 0)
        throw std::invalid_argument("pool size must be > 0");
    poolSizes_[{from_service, to_service}] = size;
}

void
Deployment::setLbPolicy(const std::string& service, LbPolicy policy)
{
    entry(service).lbPolicy = policy;
}

int
Deployment::instanceCount(const std::string& service) const
{
    return static_cast<int>(entry(service).instances.size());
}

int
Deployment::instanceCount(std::uint32_t service_id) const
{
    return static_cast<int>(entry(service_id).instances.size());
}

MicroserviceInstance&
Deployment::instance(const std::string& service, int index)
{
    ServiceEntry& svc = entry(service);
    if (index < 0 || index >= static_cast<int>(svc.instances.size())) {
        throw std::out_of_range("service \"" + service +
                                "\" has no instance " +
                                std::to_string(index));
    }
    return *svc.instances[static_cast<std::size_t>(index)];
}

MicroserviceInstance&
Deployment::instance(std::uint32_t service_id, int index)
{
    ServiceEntry& svc = entry(service_id);
    if (index < 0 || index >= static_cast<int>(svc.instances.size())) {
        throw std::out_of_range("service id " +
                                std::to_string(service_id) +
                                " has no instance " +
                                std::to_string(index));
    }
    return *svc.instances[static_cast<std::size_t>(index)];
}

const std::vector<MicroserviceInstance*>&
Deployment::instances(const std::string& service) const
{
    return entry(service).instancePtrs;
}

namespace {

MicroserviceInstance&
pickFromInstances(
    std::vector<std::unique_ptr<MicroserviceInstance>>& instances,
    LbPolicy policy, std::size_t& rr_cursor, random::Rng& rng,
    const std::string& service)
{
    if (instances.empty())
        throw std::logic_error("service \"" + service +
                               "\" has no instances");
    std::size_t index = 0;
    switch (policy) {
      case LbPolicy::RoundRobin:
        index = rr_cursor++ % instances.size();
        break;
      case LbPolicy::Random:
        index = static_cast<std::size_t>(
            rng.nextBounded(instances.size()));
        break;
    }
    return *instances[index];
}

}  // namespace

MicroserviceInstance&
Deployment::pickInstance(const std::string& service, random::Rng& rng)
{
    ServiceEntry& svc = entry(service);
    return pickFromInstances(svc.instances, svc.lbPolicy, svc.rrCursor,
                             rng, service);
}

MicroserviceInstance&
Deployment::pickInstance(std::uint32_t service_id, random::Rng& rng)
{
    ServiceEntry& svc = entry(service_id);
    return pickFromInstances(svc.instances, svc.lbPolicy, svc.rrCursor,
                             rng, svc.model->name());
}

ConnectionPool&
Deployment::pool(const MicroserviceInstance& from,
                 const MicroserviceInstance& to)
{
    const std::uint64_t key =
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(from.uid()))
         << 32) |
        static_cast<std::uint32_t>(to.uid());
    auto it = pools_.find(key);
    if (it == pools_.end()) {
        int size = kDefaultPoolSize;
        const auto size_it = poolSizes_.find(
            {from.model().name(), to.model().name()});
        if (size_it != poolSizes_.end())
            size = size_it->second;
        it = pools_
                 .emplace(key, std::make_unique<ConnectionPool>(
                                   from.name() + "->" + to.name(), size,
                                   connectionIds_))
                 .first;
    }
    return *it->second;
}

void
Deployment::visitState(snapshot::StateVisitor& visitor) const
{
    const snapshot::StateVisitor::Scope scope(visitor, "deployment");
    visitor.i64("next_connection_id", connectionIds_.peekNext());
    visitor.u64("services", services_.size());
    snapshot::Digest cursors;
    for (const auto& [name, svc] : services_) {
        cursors.str(name);
        cursors.u64(svc.rrCursor);
    }
    visitor.u64("rr_cursor_digest", cursors.value());
    visitor.u64("pools", pools_.size());
    // Pools in sorted-key order: the map's iteration order is not
    // part of the replayed state.
    std::vector<std::uint64_t> keys;
    keys.reserve(pools_.size());
    for (const auto& [key, pool] : pools_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    snapshot::Digest pools;
    for (const std::uint64_t key : keys) {
        const ConnectionPool& pool = *pools_.at(key);
        pools.u64(key);
        pools.str(pool.name());
        pools.i64(pool.size());
        pools.i64(pool.available());
        for (const ConnectionId id : pool.freeIds())
            pools.i64(id);
        pools.u64(pool.waiters());
        pools.u64(pool.maxWaiters());
    }
    visitor.u64("pool_digest", pools.value());
}

}  // namespace uqsim
