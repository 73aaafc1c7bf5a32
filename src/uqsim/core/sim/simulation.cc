#include "uqsim/core/sim/simulation.h"

#include <chrono>
#include <stdexcept>

#include "uqsim/core/sim/audit.h"
#include "uqsim/hw/flow_model.h"

namespace uqsim {

Simulation::Simulation(const SimulationOptions& options)
    : options_(options), sim_(options.seed),
      cluster_(std::make_unique<hw::Cluster>(sim_)),
      deployment_(std::make_unique<Deployment>(sim_, *cluster_))
{
}

std::unique_ptr<Simulation>
Simulation::fromBundle(const ConfigBundle& bundle)
{
    auto simulation = std::make_unique<Simulation>(bundle.options);
    simulation->loadMachinesJson(bundle.machines);
    for (const json::JsonValue& service : bundle.services)
        simulation->loadServiceJson(service);
    simulation->loadGraphJson(bundle.graph);
    simulation->loadPathJson(bundle.paths);
    simulation->loadClientJson(bundle.client);
    if (!bundle.faults.isNull())
        simulation->loadFaultsJson(bundle.faults);
    simulation->finalize();
    return simulation;
}

Dispatcher&
Simulation::dispatcher()
{
    if (!dispatcher_)
        throw std::logic_error("finalize() has not been called");
    return *dispatcher_;
}

void
Simulation::loadMachinesJson(const json::JsonValue& doc)
{
    if (!deployment_->allInstances().empty()) {
        throw std::logic_error(
            "machines.json must be loaded before deploying instances");
    }
    cluster_ = hw::Cluster::fromJson(sim_, doc);
    deployment_ = std::make_unique<Deployment>(sim_, *cluster_);
}

void
Simulation::loadServiceJson(const json::JsonValue& doc)
{
    deployment_->registerModel(ServiceModel::fromJson(doc));
}

void
Simulation::loadGraphJson(const json::JsonValue& doc)
{
    deployment_->loadGraphJson(doc);
}

void
Simulation::loadPathJson(const json::JsonValue& doc)
{
    pathTree_ = PathTree::fromJson(doc);
    pathTreeLoaded_ = true;
}

void
Simulation::loadClientJson(const json::JsonValue& doc)
{
    // client.json may hold one client object or an array of them
    // (multi-workload simulations).
    if (doc.isArray()) {
        for (const json::JsonValue& client : doc.asArray())
            addClient(workload::ClientConfig::fromJson(client));
        return;
    }
    addClient(workload::ClientConfig::fromJson(doc));
}

void
Simulation::loadFaultsJson(const json::JsonValue& doc)
{
    setFaultPlan(fault::FaultPlan::fromJson(doc));
}

void
Simulation::setFaultPlan(fault::FaultPlan plan)
{
    if (finalized()) {
        throw std::logic_error(
            "cannot set a fault plan after finalize()");
    }
    faultPlan_ = std::move(plan);
}

void
Simulation::addClient(workload::ClientConfig config)
{
    if (finalized())
        throw std::logic_error("cannot add clients after finalize()");
    pendingClients_.push_back(std::move(config));
}

bool
Simulation::inMeasurementWindow() const
{
    return simTimeToSeconds(sim_.now()) >= options_.warmupSeconds;
}

std::uint64_t
Simulation::computeConfigDigest() const
{
    snapshot::Digest digest;
    digest.u64(options_.seed);
    digest.f64(options_.warmupSeconds);
    digest.f64(options_.durationSeconds);
    digest.u64(options_.maxEvents);

    const auto& machines = cluster_->machines();
    digest.u64(machines.size());
    for (const hw::Machine* machine : machines) {
        digest.str(machine->name());
        digest.u64(machine->disks().size());
        for (const auto& disk : machine->disks()) {
            digest.str(disk->name());
            digest.f64(disk->config().readBytesPerSecond);
            digest.f64(disk->config().writeBytesPerSecond);
            digest.u64(static_cast<std::uint64_t>(
                disk->config().queueDepth));
        }
    }

    const auto& instances = deployment_->allInstances();
    digest.u64(instances.size());
    for (MicroserviceInstance* instance : instances) {
        digest.str(instance->name());
        digest.str(instance->machine() != nullptr
                       ? instance->machine()->name()
                       : std::string());
    }

    digest.u64(clients_.size() + pendingClients_.size());
    const auto foldClient = [&digest](
                                const workload::ClientConfig& config) {
        digest.str(config.frontService);
        digest.u64(static_cast<std::uint64_t>(config.connections));
        digest.u32(static_cast<std::uint32_t>(config.mode));
        digest.f64(config.thinkTime);
        digest.f64(config.startTime);
        digest.f64(config.stopTime);
        digest.f64(config.timeout);
        digest.u64(static_cast<std::uint64_t>(config.retries));
        digest.f64(config.retryBackoffSeconds);
        digest.f64(config.retryBackoffMult);
        digest.f64(config.retryJitter);
        digest.str(config.load ? config.load->describe()
                               : std::string());
    };
    for (const auto& client : clients_)
        foldClient(client->config());
    for (const workload::ClientConfig& config : pendingClients_)
        foldClient(config);

    const hw::NetworkModel& model = cluster_->network().model();
    digest.str(model.modelName());
    if (const auto* flow = dynamic_cast<const hw::FlowModel*>(&model))
        digest.u64(flow->linkCount());

    digest.u64(faultPlan_.faults.size());
    for (const fault::FaultSpec& spec : faultPlan_.faults) {
        digest.u32(static_cast<std::uint32_t>(spec.kind));
        digest.str(spec.instance);
        digest.str(spec.service);
        digest.f64(spec.atSeconds);
        digest.f64(spec.recoverSeconds);
        digest.f64(spec.mtbfSeconds);
        digest.f64(spec.mttrSeconds);
        digest.f64(spec.startSeconds);
        digest.f64(spec.endSeconds);
        digest.f64(spec.factor);
        digest.f64(spec.extraLatencySeconds);
        digest.f64(spec.lossProbability);
        digest.str(spec.link);
        digest.str(spec.switchName);
        digest.u64(spec.groups.size());
        for (const auto& group : spec.groups) {
            digest.u64(group.size());
            for (const std::string& host : group)
                digest.str(host);
        }
        digest.f64(spec.capacityFactor);
        digest.f64(spec.latencyFactor);
    }
    return digest.value();
}

void
Simulation::finalize()
{
    if (finalized())
        throw std::logic_error("finalize() called twice");
    if (pathTree_.variantCount() == 0)
        throw std::logic_error("no path variants configured");
    dispatcher_ = std::make_unique<Dispatcher>(
        sim_, cluster_->network(), pathTree_, *deployment_);

    dispatcher_->setOnRequestComplete(
        [this](const Job& job, SimTime latency) {
            // Route to the issuing client first: a response arriving
            // after the client timeout is not a completion from the
            // client's perspective.
            if (job.clientTag >= 0 &&
                job.clientTag < static_cast<int>(clients_.size()) &&
                !clients_[static_cast<std::size_t>(job.clientTag)]
                     ->onCompletion(job.rootId)) {
                return;
            }
            const double seconds = simTimeToSeconds(latency);
            // Measurement window filters on issue time so that a
            // burst of warm-up stragglers does not pollute stats.
            if (simTimeToSeconds(job.created) >=
                options_.warmupSeconds) {
                endToEnd_.add(seconds);
                ++measuredCompletions_;
            }
            if (completionListener_)
                completionListener_(job, seconds);
        });
    dispatcher_->setOnRequestFailed(
        [this](JobId root, int client_tag, SimTime created,
               fault::FailReason) {
            if (client_tag >= 0 &&
                client_tag < static_cast<int>(clients_.size())) {
                clients_[static_cast<std::size_t>(client_tag)]
                    ->onFailure(root);
            }
            if (simTimeToSeconds(created) >= options_.warmupSeconds)
                ++measuredFailed_;
        });
    dispatcher_->setTierLatencyHook(
        [this](std::uint32_t tier_id, double seconds) {
            if (inMeasurementWindow()) {
                if (tiersById_.size() <= tier_id)
                    tiersById_.resize(tier_id + 1);
                tiersById_[tier_id].add(seconds);
            }
            // Name resolution only when a listener actually wants
            // the string (keeps the hot path id-only).
            if (tierListener_) {
                tierListener_(deployment_->names().name(tier_id),
                              seconds);
            }
        });

    for (workload::ClientConfig& config : pendingClients_) {
        clients_.push_back(std::make_unique<workload::Client>(
            sim_, *dispatcher_, *deployment_, std::move(config)));
        clients_.back()->setTag(
            static_cast<int>(clients_.size()) - 1);
        clients_.back()->start();
    }
    pendingClients_.clear();

    if (!faultPlan_.empty()) {
        faultScheduler_ = std::make_unique<fault::FaultScheduler>(
            sim_, *deployment_, cluster_->network(), faultPlan_);
        faultScheduler_->start(options_.durationSeconds);
    }

    // Snapshot issue counts at the warm-up boundary.
    sim_.scheduleAt(
        secondsToSimTime(options_.warmupSeconds),
        [this]() { measuredGenerated_ = dispatcher_->requestsStarted(); },
        "warmup-boundary");

    configDigest_ = computeConfigDigest();
}

RunReport
Simulation::run()
{
    // A plain run is a segmented run with zero advance calls; the
    // engine path (one runLoop with the end-of-horizon clamp) is
    // bit-identical to what run() always did.
    return finishRun();
}

void
Simulation::checkAdvance() const
{
    if (!finalized())
        throw std::logic_error("finalize() before advancing");
    if (ran_) {
        throw std::logic_error(
            "cannot advance after run()/finishRun()");
    }
}

StopReason
Simulation::advanceToEvents(std::uint64_t target_events)
{
    checkAdvance();
    if (target_events <= sim_.executedEvents())
        return StopReason::EventLimit;
    // runLoop treats max_events as an absolute executed-event total,
    // so the segment target composes with the configured budget by
    // simply taking the smaller absolute bound.
    std::uint64_t budget = target_events;
    if (options_.maxEvents > 0 && options_.maxEvents < budget)
        budget = options_.maxEvents;
    return sim_.runSegment(
        secondsToSimTime(options_.durationSeconds), budget);
}

StopReason
Simulation::advanceToTime(SimTime until)
{
    checkAdvance();
    const SimTime horizon =
        secondsToSimTime(options_.durationSeconds);
    return sim_.runSegment(until < horizon ? until : horizon,
                           options_.maxEvents);
}

RunReport
Simulation::finishRun()
{
    if (!finalized())
        throw std::logic_error("finalize() before run()");
    if (ran_)
        throw std::logic_error("run() called twice");
    ran_ = true;
    const auto wall_start = std::chrono::steady_clock::now();
    const StopReason reason =
        sim_.run(secondsToSimTime(options_.durationSeconds),
                 options_.maxEvents);
    const auto wall_end = std::chrono::steady_clock::now();
    const double wall =
        std::chrono::duration<double>(wall_end - wall_start).count();
    if (audit::auditModeEnabled()) {
        audit::auditSimulation(*this, reason == StopReason::Drained)
            .raise(std::string("post-run, stop reason ") +
                   stopReasonName(reason));
    }
    return buildReport(wall);
}

snapshot::SnapshotMeta
Simulation::snapshotMeta() const
{
    snapshot::SnapshotMeta meta;
    meta.configDigest = configDigest_;
    meta.masterSeed = sim_.masterSeed();
    meta.simTime = sim_.now();
    meta.executedEvents = sim_.executedEvents();
    meta.traceDigest = sim_.traceDigest();
    return meta;
}

void
Simulation::saveState(snapshot::SnapshotWriter& writer) const
{
    if (!finalized())
        throw std::logic_error("finalize() before saveState()");
    writer.setMeta(snapshotMeta());
    visitState(writer);
}

void
Simulation::loadState(snapshot::SnapshotReader& reader) const
{
    if (!finalized())
        throw std::logic_error("finalize() before loadState()");
    visitState(reader);
}

void
Simulation::visitState(snapshot::StateVisitor& visitor) const
{
    sim_.visitState(visitor);  // ENGINE

    visitor.beginSection(snapshot::SectionId::Clients);
    visitor.u64("clients", clients_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        const snapshot::StateVisitor::Scope scope(
            visitor, "client" + std::to_string(i));
        clients_[i]->visitState(visitor);
    }
    visitor.endSection();

    dispatcher_->visitState(visitor);          // DISPATCHER
    cluster_->network().visitState(visitor);   // NETWORK

    visitor.beginSection(snapshot::SectionId::Disks);
    std::uint64_t diskCount = 0;
    for (const hw::Machine* machine : cluster_->machines())
        diskCount += machine->disks().size();
    visitor.u64("disks", diskCount);
    std::size_t diskIndex = 0;
    for (const hw::Machine* machine : cluster_->machines()) {
        for (const auto& disk : machine->disks()) {
            const snapshot::StateVisitor::Scope scope(
                visitor, "disk" + std::to_string(diskIndex++));
            disk->visitState(visitor);
        }
    }
    visitor.endSection();

    // The FAULTS section exists exactly when the run has a fault
    // plan; restore rebuilds from the same config, so presence is
    // symmetric by construction.
    if (faultScheduler_)
        faultScheduler_->visitState(visitor);

    visitor.beginSection(snapshot::SectionId::Stats);
    visitor.u64("measured_completions", measuredCompletions_);
    visitor.u64("measured_generated", measuredGenerated_);
    visitor.u64("measured_failed", measuredFailed_);
    visitor.u64("end_to_end", endToEnd_.count());
    snapshot::Digest e2e;
    for (double value : endToEnd_.values())
        e2e.f64(value);
    visitor.u64("end_to_end_digest", e2e.value());
    visitor.u64("tiers", tiersById_.size());
    snapshot::Digest tiers;
    for (const stats::PercentileRecorder& tier : tiersById_) {
        tiers.u64(tier.count());
        for (double value : tier.values())
            tiers.f64(value);
    }
    visitor.u64("tier_digest", tiers.value());
    visitor.endSection();
}

namespace {

LatencyStats
toLatencyStats(const stats::PercentileRecorder& recorder)
{
    LatencyStats stats;
    stats.count = recorder.count();
    stats.meanMs = recorder.mean() * 1e3;
    stats.p50Ms = recorder.p50() * 1e3;
    stats.p95Ms = recorder.p95() * 1e3;
    stats.p99Ms = recorder.p99() * 1e3;
    stats.maxMs = recorder.max() * 1e3;
    return stats;
}

}  // namespace

std::map<std::string, stats::PercentileRecorder>
Simulation::tierLatencies() const
{
    std::map<std::string, stats::PercentileRecorder> rendered;
    for (std::size_t id = 0; id < tiersById_.size(); ++id) {
        if (tiersById_[id].count() > 0) {
            rendered[deployment_->names().name(
                static_cast<std::uint32_t>(id))] = tiersById_[id];
        }
    }
    return rendered;
}

RunReport
Simulation::buildReport(double wall_seconds) const
{
    RunReport report;
    double offered = 0.0;
    for (const auto& client : clients_) {
        if (client->config().load) {
            offered += client->config().load->rateAt(
                options_.warmupSeconds);
        }
    }
    report.offeredQps = offered;
    const double window =
        options_.durationSeconds - options_.warmupSeconds;
    report.achievedQps =
        window > 0.0
            ? static_cast<double>(measuredCompletions_) / window
            : 0.0;
    report.completed = measuredCompletions_;
    report.generated =
        dispatcher_ ? dispatcher_->requestsStarted() - measuredGenerated_
                    : 0;
    report.endToEnd = toLatencyStats(endToEnd_);
    for (const auto& client : clients_) {
        report.timeouts += client->timeouts();
        report.retries += client->retriesIssued();
        if (client->timeouts() > 0) {
            report.tierFaults[client->config().frontService].timeouts +=
                client->timeouts();
        }
    }
    for (std::size_t id = 0; id < tiersById_.size(); ++id) {
        if (tiersById_[id].count() > 0) {
            report.tiers[deployment_->names().name(
                static_cast<std::uint32_t>(id))] =
                toLatencyStats(tiersById_[id]);
        }
    }
    if (dispatcher_) {
        report.failed = dispatcher_->requestsFailed();
        report.shed = dispatcher_->requestsShed();
        report.retries += dispatcher_->retriesSent();
        report.hedges = dispatcher_->hedgesSent();
        report.breakerTrips = dispatcher_->breakerTrips();
        for (const auto& [tier, stats] : dispatcher_->tierFaults()) {
            TierFaultStats& merged = report.tierFaults[tier];
            merged.errors += stats.errors;
            merged.hopTimeouts += stats.hopTimeouts;
            merged.retries += stats.retries;
            merged.hedges += stats.hedges;
            merged.shed += stats.shed;
            merged.rejected += stats.rejected;
            merged.crashKills += stats.crashKills;
            merged.unreachable += stats.unreachable;
        }
        const std::uint64_t served = dispatcher_->requestsCompleted();
        const std::uint64_t denom =
            served + report.failed + report.shed;
        report.availability =
            denom > 0
                ? static_cast<double>(served) /
                      static_cast<double>(denom)
                : 1.0;
    }
    report.netDropped = cluster_->network().droppedMessages();
    if (faultScheduler_)
        report.crashes = faultScheduler_->crashesInjected();
    if (const auto* flow = dynamic_cast<const hw::FlowModel*>(
            &cluster_->network().model())) {
        report.failovers = flow->failovers();
        report.unreachable = flow->unreachableMessages();
        report.linkDrops = flow->linkDropsTotal();
        for (const auto& summary : flow->linkFaultSummaries()) {
            LinkFaultStats& link = report.linkFaults[summary.name];
            link.downSeconds = summary.downSeconds;
            link.drops = summary.drops;
        }
    }
    for (const hw::Machine* machine : cluster_->machines()) {
        for (const auto& disk : machine->disks()) {
            DiskStats& stats = report.disks[disk->label()];
            stats.busySeconds = disk->busySeconds(sim_.now());
            stats.utilization = disk->utilization(sim_.now());
            stats.reads = disk->readsCompleted();
            stats.writes = disk->writesCompleted();
            stats.bytesRead = disk->bytesRead();
            stats.bytesWritten = disk->bytesWritten();
            stats.queuedOps = disk->queuedOps();
            stats.peakQueueDepth = disk->peakQueueDepth();
        }
    }
    report.events = sim_.executedEvents();
    report.wallSeconds = wall_seconds;
    return report;
}

}  // namespace uqsim
