#include "uqsim/fault/fault_scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "uqsim/hw/cluster.h"
#include "uqsim/json/validation.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace fault {

namespace {

/** Exponential variate with mean @p meanSeconds. */
SimTime
sampleExponential(random::Rng& rng, double meanSeconds)
{
    const double u = rng.nextDoubleOpenLeft();
    return secondsToSimTime(-meanSeconds * std::log(u));
}

}  // namespace

FaultScheduler::FaultScheduler(Simulator& sim, Deployment& deployment,
                               hw::Network& network,
                               const FaultPlan& plan)
    : sim_(sim), deployment_(deployment), network_(network), plan_(plan)
{
}

std::vector<MicroserviceInstance*>
FaultScheduler::resolveTargets(const FaultSpec& spec) const
{
    if (!spec.service.empty())
        return deployment_.instances(spec.service);
    const std::size_t dot = spec.instance.rfind('.');
    if (dot == std::string::npos)
        throw std::runtime_error(
            "fault target \"" + spec.instance +
            "\" is not of the form service.index");
    const std::string service = spec.instance.substr(0, dot);
    const int index = std::stoi(spec.instance.substr(dot + 1));
    return {&deployment_.instance(service, index)};
}

SimTime
FaultScheduler::windowShift(const char* label,
                            double windowEndSeconds)
{
    const int pick = sim_.choose(ChoiceKind::FaultJitter, SIZE_MAX, label);
    if (pick == 0)
        return 0;
    SimTime shift = static_cast<SimTime>(pick) *
                    sim_.chooser()->jitterStep(ChoiceKind::FaultJitter);
    // Clamp so the window's last scripted event never slides past
    // the horizon: a jittered window must stay observable inside the
    // run it perturbs.  Windows already at/past the horizon keep
    // their (unreachable) nominal position.
    const SimTime lastEvent = secondsToSimTime(windowEndSeconds);
    if (shift > 0 && lastEvent + shift > horizon_)
        shift = lastEvent >= horizon_ ? 0 : horizon_ - lastEvent;
    return shift;
}

void
FaultScheduler::start(double horizonSeconds)
{
    horizon_ = secondsToSimTime(horizonSeconds);
    for (const FaultSpec& spec : plan_.faults) {
        // One onset-jitter choice per fault spec: every target of the
        // spec shifts together, keeping the branching factor tied to
        // the plan size rather than the deployment size.  Scripted
        // windows clamp the shift by their last event.
        const double end = std::max(spec.startSeconds, spec.endSeconds);
        switch (spec.kind) {
          case FaultSpec::Kind::Crash: {
            const SimTime shift = windowShift(
                "fault-window/crash",
                spec.stochastic()
                    ? 0.0
                    : std::max(spec.atSeconds, spec.recoverSeconds));
            for (MicroserviceInstance* target : resolveTargets(spec))
                scheduleCrash(*target, spec, shift);
            break;
          }
          case FaultSpec::Kind::Slow: {
            const SimTime shift = windowShift("fault-window/slow", end);
            for (MicroserviceInstance* target : resolveTargets(spec)) {
                scheduleWindow(
                    spec.startSeconds, spec.endSeconds, shift,
                    [target, factor = spec.factor]() {
                        target->setSlowFactor(factor);
                    },
                    "fault/slow",
                    [target]() { target->setSlowFactor(1.0); },
                    "fault/slow-end");
            }
            break;
          }
          case FaultSpec::Kind::Network:
            scheduleWindow(
                spec.startSeconds, spec.endSeconds,
                windowShift("fault-window/net", end),
                [this, extra = spec.extraLatencySeconds,
                 loss = spec.lossProbability]() {
                    network_.setDegradation(extra, loss);
                },
                "fault/net", [this]() { network_.clearDegradation(); },
                "fault/net-end");
            break;
          case FaultSpec::Kind::LinkDown:
            scheduleLinkWindow(
                spec, windowShift("fault-window/link",
                                  spec.stochastic() ? 0.0 : end));
            break;
          case FaultSpec::Kind::LinkDegraded: {
            const SimTime shift =
                windowShift("fault-window/link-degraded", end);
            hw::FlowModel& flow = requireFlowModel("link_degraded");
            const int linkId = resolveLinkId(flow, spec.link);
            scheduleWindow(
                spec.startSeconds, spec.endSeconds, shift,
                [&flow, linkId, cap = spec.capacityFactor,
                 lat = spec.latencyFactor]() {
                    flow.setLinkDegradation(linkId, cap, lat);
                },
                "fault/link-degrade",
                [&flow, linkId]() { flow.clearLinkDegradation(linkId); },
                "fault/link-degrade-end");
            break;
          }
          case FaultSpec::Kind::SwitchDown:
            scheduleSwitchWindow(spec,
                                 windowShift("fault-window/switch", end));
            break;
          case FaultSpec::Kind::Partition:
            schedulePartitionWindow(
                spec, windowShift("fault-window/partition", end));
            break;
        }
    }
}

hw::FlowModel&
FaultScheduler::requireFlowModel(const char* kind) const
{
    auto* flow = dynamic_cast<hw::FlowModel*>(&network_.model());
    if (flow == nullptr) {
        throw std::runtime_error(
            std::string(kind) +
            " faults need the flow network model (this run uses \"" +
            network_.model().modelName() + "\"); see docs/FORMATS.md");
    }
    return *flow;
}

int
FaultScheduler::resolveLinkId(hw::FlowModel& flow,
                              const std::string& name) const
{
    const int id = flow.linkId(name);
    if (id >= 0)
        return id;
    std::string message = "fault plan names unknown link \"" + name +
                          "\"";
    std::vector<std::string> candidates;
    candidates.reserve(flow.linkCount());
    for (std::size_t l = 0; l < flow.linkCount(); ++l)
        candidates.push_back(flow.link(static_cast<int>(l)).name);
    const std::string suggestion =
        json::suggestClosest(name, candidates);
    if (!suggestion.empty())
        message += "; did you mean \"" + suggestion + "\"?";
    throw std::runtime_error(message);
}

void
FaultScheduler::scheduleWindow(double openSeconds, double closeSeconds,
                               SimTime shift, EventAction open,
                               const char* openLabel, EventAction close,
                               const char* closeLabel)
{
    sim_.scheduleAt(secondsToSimTime(openSeconds) + shift,
                    std::move(open), openLabel);
    if (closeSeconds > 0.0) {
        sim_.scheduleAt(secondsToSimTime(closeSeconds) + shift,
                        std::move(close), closeLabel);
    }
}

void
FaultScheduler::startTimeline(const std::string& stream,
                              const FaultSpec& spec, SimTime shift,
                              std::function<void()> fail,
                              const char* failLabel,
                              std::function<void()> repair,
                              const char* repairLabel)
{
    timelines_.push_back(std::make_unique<Timeline>(Timeline{
        random::RngStream(sim_.masterSeed(), stream), spec,
        std::move(fail), failLabel, std::move(repair), repairLabel}));
    scheduleNextFailure(*timelines_.back(), shift);
}

void
FaultScheduler::scheduleNextFailure(Timeline& timeline, SimTime shift)
{
    // Draw the whole (up, down) pair now so the stream's consumption
    // is a pure function of the failure count, then chain the next
    // draw off the repair event.  The jitter shift delays only the
    // first failure of the timeline; the chain after it is relative,
    // so the whole timeline slides together.
    const SimTime up =
        sampleExponential(timeline.rng, timeline.spec.mtbfSeconds);
    const SimTime down =
        sampleExponential(timeline.rng, timeline.spec.mttrSeconds);
    const SimTime failAt = sim_.now() + up + shift;
    if (failAt >= horizon_)
        return;
    sim_.scheduleAt(
        failAt, [&timeline]() { timeline.fail(); }, timeline.failLabel);
    sim_.scheduleAt(
        failAt + down,
        [this, &timeline]() {
            timeline.repair();
            scheduleNextFailure(timeline, 0);
        },
        timeline.repairLabel);
}

void
FaultScheduler::scheduleCrash(MicroserviceInstance& target,
                              const FaultSpec& spec, SimTime shift)
{
    auto fail = [this, &target]() { crash(target); };
    auto repair = [&target]() { target.recover(); };
    if (spec.stochastic()) {
        startTimeline("fault/" + target.name(), spec, shift, fail,
                      "fault/crash", repair, "fault/recover");
    } else {
        scheduleWindow(spec.atSeconds, spec.recoverSeconds, shift, fail,
                       "fault/crash", repair, "fault/recover");
    }
}

void
FaultScheduler::scheduleLinkWindow(const FaultSpec& spec,
                                   SimTime shift)
{
    hw::FlowModel& flow = requireFlowModel("link_down");
    const int linkId = resolveLinkId(flow, spec.link);
    auto down = [&flow, linkId]() { flow.setLinkDown(linkId); };
    auto up = [&flow, linkId]() { flow.setLinkUp(linkId); };
    if (spec.stochastic()) {
        // Per-link stream: adding (or removing) one link's timeline
        // never perturbs any other stream's draws.
        startTimeline("fault/link/" + spec.link, spec, shift, down,
                      "fault/link-down", up, "fault/link-up");
    } else {
        scheduleWindow(spec.startSeconds, spec.endSeconds, shift, down,
                       "fault/link-down", up, "fault/link-up");
    }
}

void
FaultScheduler::scheduleSwitchWindow(const FaultSpec& spec,
                                     SimTime shift)
{
    hw::FlowModel& flow = requireFlowModel("switch_down");
    if (!flow.hasSwitch(spec.switchName)) {
        std::string message =
            "fault plan names unknown switch \"" + spec.switchName +
            "\"";
        const std::string suggestion =
            json::suggestClosest(spec.switchName, flow.switchNames());
        if (!suggestion.empty())
            message += "; did you mean \"" + suggestion + "\"?";
        throw std::runtime_error(message);
    }
    // Copy the link set: the switch registry outlives the window,
    // but a value capture keeps the events self-contained.
    const std::vector<int> links = flow.switchLinks(spec.switchName);
    scheduleWindow(
        spec.startSeconds, spec.endSeconds, shift,
        [&flow, links]() {
            for (int link : links)
                flow.setLinkDown(link);
        },
        "fault/switch-down",
        [&flow, links]() {
            for (int link : links)
                flow.setLinkUp(link);
        },
        "fault/switch-up");
}

void
FaultScheduler::schedulePartitionWindow(const FaultSpec& spec,
                                        SimTime shift)
{
    hw::FlowModel& flow = requireFlowModel("partition");
    // Resolve machine names now so a typo fails at start(), not at
    // the window onset deep into the run.
    hw::Cluster& cluster = deployment_.cluster();
    std::vector<std::vector<int>> groups;
    groups.reserve(spec.groups.size());
    for (const std::vector<std::string>& names : spec.groups) {
        std::vector<int> ids;
        ids.reserve(names.size());
        for (const std::string& name : names)
            ids.push_back(cluster.machine(name).netId());
        groups.push_back(std::move(ids));
    }
    scheduleWindow(
        spec.startSeconds, spec.endSeconds, shift,
        [&flow, groups]() { flow.setPartition(groups); },
        "fault/partition", [&flow]() { flow.clearPartition(); },
        "fault/partition-end");
}

void
FaultScheduler::crash(MicroserviceInstance& target)
{
    if (target.isDown())
        return;
    ++crashes_;
    target.crash();
}

void
FaultScheduler::visitState(snapshot::StateVisitor& visitor) const
{
    visitor.beginSection(snapshot::SectionId::Faults);
    visitor.u64("crashes", crashes_);
    visitor.i64("horizon", horizon_);
    visitor.u64("plan_size", plan_.faults.size());
    visitor.u64("streams", timelines_.size());
    snapshot::Digest streams;
    for (const auto& timeline : timelines_) {
        const random::Rng::State state = timeline->rng.state();
        streams.str(timeline->rng.label());
        for (const std::uint64_t word : state.words)
            streams.u64(word);
        streams.boolean(state.hasSpareGaussian);
        streams.f64(state.spareGaussian);
    }
    visitor.u64("stream_digest", streams.value());
    visitor.endSection();
}

}  // namespace fault
}  // namespace uqsim
