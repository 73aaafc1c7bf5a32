/**
 * @file
 * One benchmark run: builds one workload once, runs it in this process
 * on one simulation thread, and prints what it measured as a single
 * JSON line on stdout.  perfbench/run.py starts one process per run (so
 * peak RSS is per run), aggregates, and checks outcomes.
 *
 * Every layer is measured from outside, through public entry points:
 * Simulation::fromBundle / advanceToTime / finishRun / saveState, the
 * engine counters, RunReport.disks, the PowerManager feed called from
 * this file's listeners, and the Logger Trace hook (traced mode only).
 *
 *   uqsim_perfbench --workload <name> --seed <n>
 *                   --mode plain|sliced|traced|setup
 *                   [--horizon <s>] [--trace-out <file>]
 *
 * Run it from the root of the repository (social reads
 * configs/social_network).
 *
 * plain   one finishRun() over the whole horizon;
 * sliced  1000 advanceToTime() slices, each timed, then finishRun();
 * traced  as sliced with the Trace hook on, plus an in-memory
 *         saveState() at half horizon;
 * setup   no run: set-ups, each timed and torn down before the next,
 *         for one host second.
 */

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/json_writer.h"
#include "uqsim/models/applications.h"
#include "uqsim/power/power_manager.h"
#include "uqsim/snapshot/snapshot.h"

using namespace uqsim;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

std::uint64_t
mix64(std::uint64_t x)
{
    // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

std::uint64_t
hashString(std::string_view text)
{
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (char c : text)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    return h;
}

std::string
hex64(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

/** Reads a "<key>: <n> kB" line of /proc/self/status, in bytes. */
std::uint64_t
procStatusBytes(const char* key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    const std::size_t key_len = std::strlen(key);
    while (std::getline(status, line)) {
        if (line.compare(0, key_len, key) == 0 && line[key_len] == ':')
            return std::stoull(line.substr(key_len + 1)) * 1024;
    }
    throw std::runtime_error(std::string("no ") + key +
                             " in /proc/self/status");
}

/** advanceToTime() slices per sliced or traced run. */
constexpr int kSlices = 1000;
/** A setup-mode process times set-ups for this many host seconds: a
 *  short burst of set-ups is timed on a core that has not sped up yet. */
constexpr double kSetupSeconds = 1.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    std::string mode = "sliced";
    double horizon = 0.0;  // 0: the workload's own horizon
    std::string traceOut;
};

Args
parseArgs(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") args.workload = value;
        else if (flag == "--seed") args.seed = std::stoull(value);
        else if (flag == "--mode") args.mode = value;
        else if (flag == "--horizon") args.horizon = std::stod(value);
        else if (flag == "--trace-out") args.traceOut = value;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.mode != "plain" && args.mode != "sliced" &&
        args.mode != "traced" && args.mode != "setup")
        throw std::invalid_argument("unknown mode " + args.mode);
    return args;
}

// -- workloads ---------------------------------------------------------
// Sizes and the reason for each choice are in README.md.

struct Workload {
    const char* name;
    double horizonSeconds;
    bool powerManaged;
};

constexpr std::array<Workload, 4> kWorkloads = {{
    {"social", 4.0, false},
    {"incast", 4.0, false},
    {"stampede_disk", 8.0, false},
    {"power_diurnal", 60.0, true},
}};

const Workload&
findWorkload(const std::string& name)
{
    for (const Workload& w : kWorkloads)
        if (name == w.name)
            return w;
    throw std::invalid_argument("unknown workload " + name);
}

/** The workload's inputs for @p seed.  For social this parses the
 *  checked-in JSON bundle, so it is part of the timed set-up. */
ConfigBundle
makeBundle(const Args& args, const Workload& w, double horizon)
{
    const std::string name = w.name;
    if (name == "social") {
        ConfigBundle bundle =
            ConfigBundle::fromDirectory("configs/social_network");
        bundle.options.seed = args.seed;
        bundle.options.durationSeconds = horizon;
        return bundle;
    }
    if (name == "incast") {
        models::FanoutFatTreeParams p;
        p.run.qps = 600.0;
        p.run.seed = args.seed;
        p.run.warmupSeconds = 0.25;
        p.run.durationSeconds = horizon;
        p.run.clientConnections = 128;
        p.fanout = 16;
        p.responseBytes = 64 * 1024;
        return models::fanoutFatTreeBundle(p);
    }
    if (name == "stampede_disk") {
        models::CacheStampedeParams p;
        p.run.qps = 3000.0;
        p.run.seed = args.seed;
        p.run.warmupSeconds = 0.25;
        p.run.durationSeconds = horizon;
        p.run.clientConnections = 256;
        p.hitRate = 0.0;
        p.storeThreads = 32;
        p.writeFraction = 0.15;
        p.diskWriteMBps = 40.0;
        return models::cacheStampedeBundle(p);
    }
    models::PowerTwoTierParams p;
    p.run.seed = args.seed;
    p.run.warmupSeconds = 1.0;
    p.run.durationSeconds = horizon;
    p.baseQps = 9000.0;
    p.amplitudeQps = 7000.0;
    p.periodSeconds = 60.0;
    return models::powerTwoTierBundle(p);
}

// -- traced-run attribution --------------------------------------------

enum Layer { kClient, kDispatch, kInstance, kIrq, kNet, kDisk, kPower,
             kOther, kLayerCount };
constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "client", "dispatch", "instance", "irq", "net", "disk", "power",
    "other"};

/** Maps an event label to its layer by prefix; instance labels are
 *  "<service>.<index>/<stage>". */
Layer
classify(std::string_view label)
{
    const auto starts = [&](std::string_view p) {
        return label.substr(0, p.size()) == p;
    };
    const std::string_view irq = "/irq/done";
    if (starts("client/")) return kClient;
    if (starts("dispatch/") || starts("dispatcher/") || starts("timer/"))
        return kDispatch;
    if (label.size() >= irq.size() &&
        label.substr(label.size() - irq.size()) == irq)
        return kIrq;
    if (starts("net/")) return kNet;
    if (starts("disk/")) return kDisk;
    if (starts("power/")) return kPower;
    const std::string_view head = label.substr(0, label.find('/'));
    const std::size_t dot = head.rfind('.');
    if (dot != std::string_view::npos && dot + 1 < head.size() &&
        std::all_of(head.begin() + dot + 1, head.end(),
                    [](char c) { return c >= '0' && c <= '9'; }))
        return kInstance;
    return kOther;
}

/**
 * Receives every engine "fire <label>" line.  The host time from one
 * fire to the next is charged to the first event's label; close()
 * ends the open span when control leaves the engine, so work the
 * benchmark does between slices is charged to nobody.
 */
class FireTracer {
  public:
    struct LabelStats {
        Layer layer = kOther;
        std::uint64_t events = 0;
        std::uint64_t hostNs = 0;
    };

    void
    onLine(const std::string& line)
    {
        const Clock::time_point now = Clock::now();
        close(now);
        static constexpr std::string_view kFire = "engine: fire ";
        const std::size_t at = line.find(kFire);
        if (at == std::string::npos)
            return;
        const auto [it, inserted] =
            labels_.try_emplace(line.substr(at + kFire.size()));
        if (inserted)
            it->second.layer = classify(it->first);
        ++it->second.events;
        open_ = &it->second;
        since_ = now;
    }

    void
    close(Clock::time_point now = Clock::now())
    {
        if (open_ == nullptr)
            return;
        open_->hostNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - since_).count());
        open_ = nullptr;
    }

    const std::unordered_map<std::string, LabelStats>&
    labels() const { return labels_; }

  private:
    std::unordered_map<std::string, LabelStats> labels_;
    LabelStats* open_ = nullptr;
    Clock::time_point since_;
};

// -- JSON output -------------------------------------------------------

using json::JsonArray;
using json::JsonValue;

JsonValue
latencyJson(const LatencyStats& s)
{
    JsonValue::Object o;
    o["count"] = s.count;
    o["mean_ms"] = s.meanMs;
    o["p50_ms"] = s.p50Ms;
    o["p99_ms"] = s.p99Ms;
    return o;
}

JsonArray
arrayJson(const std::vector<double>& values)
{
    return JsonArray(values.begin(), values.end());
}

/** Times repeated set-ups (bundle/config parse through finalize()),
 *  kept apart from the timed runs so that those start in a process that
 *  has built exactly one simulation. */
void
timeSetups(const Args& args, const Workload& w, double horizon)
{
    std::vector<double> setupS, parseMs, buildMs;
    const Clock::time_point start = Clock::now();
    do {
        const Clock::time_point t0 = Clock::now();
        const ConfigBundle bundle = makeBundle(args, w, horizon);
        const Clock::time_point t1 = Clock::now();
        const std::unique_ptr<Simulation> simulation =
            Simulation::fromBundle(bundle);
        const Clock::time_point t2 = Clock::now();
        setupS.push_back(secondsBetween(t0, t2));
        parseMs.push_back(secondsBetween(t0, t1) * 1e3);
        buildMs.push_back(secondsBetween(t1, t2) * 1e3);
    } while (secondsBetween(start, Clock::now()) < kSetupSeconds);
    JsonValue::Object out;
    out["workload"] = w.name;
    out["seed"] = args.seed;
    out["mode"] = args.mode;
    out["setup_s"] = arrayJson(setupS);
    out["parse_ms"] = arrayJson(parseMs);
    out["build_ms"] = arrayJson(buildMs);
    std::cout << json::write(JsonValue(std::move(out))) << std::endl;
}

void
runOnce(const Args& args)
{
    const Workload& w = findWorkload(args.workload);
    const double horizon =
        args.horizon > 0.0 ? args.horizon : w.horizonSeconds;
    if (args.mode == "setup") {
        timeSetups(args, w, horizon);
        return;
    }
    const bool sliced = args.mode != "plain";
    const bool traced = args.mode == "traced";

    const std::unique_ptr<Simulation> simulation =
        Simulation::fromBundle(makeBundle(args, w, horizon));
    Simulation& sim = *simulation;

    // Outcome fold: order-insensitive sum over completed requests of
    // a mix of (root id, completion time); the power run also folds
    // the per-tier feed and the manager's decisions.
    std::uint64_t completionFold = 0;
    std::uint64_t completions = 0;
    std::uint64_t noteCalls = 0;
    std::uint64_t noteNs = 0;
    std::optional<power::PowerManager> manager;
    if (w.powerManaged) {
        power::PowerManagerConfig config;
        config.intervalSeconds = 0.5;
        config.qosTargetSeconds = 5e-3;
        manager.emplace(
            sim.sim(), config,
            std::vector<power::TierControl>{
                {"nginx", {sim.deployment().instance("nginx", 0).dvfs()}},
                {"memcached",
                 {sim.deployment().instance("memcached", 0).dvfs()}}});
    }
    const auto timedNote = [&](const auto& note) {
        ++noteCalls;
        if (!traced) {
            note();
            return;
        }
        const Clock::time_point t0 = Clock::now();
        note();
        noteNs += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0).count());
    };
    sim.setCompletionListener([&](const Job& job, double seconds) {
        ++completions;
        completionFold += mix64(mix64(job.rootId) ^
                                static_cast<std::uint64_t>(sim.sim().now()));
        if (manager)
            timedNote([&] { manager->noteEndToEnd(seconds); });
    });
    if (manager) {
        sim.setTierListener([&](const std::string& service, double seconds) {
            completionFold += mix64(hashString(service) ^
                                    std::bit_cast<std::uint64_t>(seconds));
            timedNote([&] { manager->noteTierLatency(service, seconds); });
        });
        manager->start();
    }

    FireTracer tracer;
    if (traced) {
        Logger& logger = sim.sim().logger();
        logger.setSink(nullptr);
        logger.setHook([&](const std::string& line) { tracer.onLine(line); });
        logger.setLevel(LogLevel::Trace);
    }

    // The run.
    std::vector<double> sliceMs;
    double runS = 0.0;
    double snapshotMs = 0.0;
    std::uint64_t snapshotBytes = 0;
    std::uint64_t rssHalf = 0, rssEnd = 0, completionsHalf = 0;
    if (sliced) {
        const int half = kSlices / 2;
        sliceMs.reserve(kSlices);
        for (int k = 1; k <= kSlices; ++k) {
            const SimTime until = secondsToSimTime(
                horizon * static_cast<double>(k) / kSlices);
            const Clock::time_point t0 = Clock::now();
            sim.advanceToTime(until);
            const Clock::time_point t1 = Clock::now();
            tracer.close(t1);
            sliceMs.push_back(secondsBetween(t0, t1) * 1e3);
            runS += secondsBetween(t0, t1);
            if (k == half) {
                rssHalf = procStatusBytes("VmRSS");
                completionsHalf = completions;
                if (traced) {
                    const Clock::time_point s0 = Clock::now();
                    snapshot::SnapshotWriter writer;
                    sim.saveState(writer);
                    snapshotBytes = writer.assemble().size();
                    snapshotMs = secondsBetween(s0, Clock::now()) * 1e3;
                }
            }
        }
        rssEnd = procStatusBytes("VmRSS");
    }
    const Clock::time_point f0 = Clock::now();
    const RunReport report = sim.finishRun();
    const Clock::time_point f1 = Clock::now();
    tracer.close(f1);
    const double finishMs = secondsBetween(f0, f1) * 1e3;
    runS += secondsBetween(f0, f1);
    const std::uint64_t peakRss = procStatusBytes("VmHWM");

    if (manager) {
        completionFold += mix64(manager->windows()) ^
                          mix64(~manager->violations());
        for (const char* tier : {"nginx", "memcached"})
            for (const stats::TimePoint& point :
                 manager->frequencySeries(tier).points())
                completionFold +=
                    mix64(std::bit_cast<std::uint64_t>(point.time) ^
                          mix64(std::bit_cast<std::uint64_t>(point.value)));
    }

    Simulator& engine = sim.sim();
    const std::uint64_t executed = engine.executedEvents();
    const std::uint64_t scheduled = engine.queue().scheduledCount();
    const std::uint64_t pending = engine.queue().size();

    JsonValue::Object outcome;
    outcome["completed"] = report.completed;
    outcome["generated"] = report.generated;
    outcome["failed"] = report.failed;
    outcome["timeouts"] = report.timeouts;
    outcome["listener_completions"] = completions;
    outcome["completion_fold"] = hex64(completionFold);
    outcome["end_to_end"] = latencyJson(report.endToEnd);
    JsonValue::Object tiers, disks;
    for (const auto& [name, stats] : report.tiers)
        tiers[name] = latencyJson(stats);
    std::uint64_t diskOps = 0, queuedOps = 0, peakQueue = 0;
    for (const auto& [name, disk] : report.disks) {
        JsonValue::Object counts;
        counts["reads"] = disk.reads;
        counts["writes"] = disk.writes;
        disks[name] = std::move(counts);
        diskOps += disk.reads + disk.writes;
        queuedOps += disk.queuedOps;
        peakQueue = std::max(peakQueue, disk.peakQueueDepth);
    }
    outcome["tiers"] = std::move(tiers);
    outcome["disks"] = std::move(disks);
    std::uint64_t samples = report.endToEnd.count;
    for (const auto& [name, stats] : report.tiers)
        samples += stats.count;

    JsonValue::Object out;
    out["workload"] = w.name;
    out["seed"] = args.seed;
    out["mode"] = args.mode;
    out["horizon_s"] = horizon;
    out["digest"] = hex64(engine.traceDigest());
    out["outcome"] = std::move(outcome);
    out["run_s"] = runS;
    out["peak_rss_mb"] = static_cast<double>(peakRss) / (1 << 20);
    out["finish_ms"] = finishMs;
    out["engine_events"] = executed;
    out["engine_scheduled"] = scheduled;
    out["engine_cancelled"] = scheduled - executed - pending;
    out["disk_ops"] = diskOps;
    out["disk_queued_ops"] = queuedOps;
    out["disk_peak_queue"] = peakQueue;
    out["stats_samples"] = samples;
    out["power_note_calls"] = noteCalls;
    if (sliced) {
        const std::uint64_t grown = rssEnd > rssHalf ? rssEnd - rssHalf : 0;
        const std::uint64_t done = completions - completionsHalf;
        out["slice_ms"] = arrayJson(sliceMs);
        out["mem_bytes_per_req"] =
            done ? static_cast<double>(grown) / done : 0.0;
    }
    if (traced) {
        std::array<std::uint64_t, kLayerCount> events{}, hostNs{};
        for (const auto& [label, stats] : tracer.labels()) {
            events[stats.layer] += stats.events;
            hostNs[stats.layer] += stats.hostNs;
        }
        JsonValue::Object layers;
        for (int l = 0; l < kLayerCount; ++l) {
            JsonValue::Object layer;
            layer["events"] = events[l];
            layer["host_ns"] = hostNs[l];
            layers[kLayerNames[l]] = std::move(layer);
        }
        out["power_note_ns"] =
            noteCalls ? static_cast<double>(noteNs) / noteCalls : 0.0;
        out["snapshot_save_ms"] = snapshotMs;
        out["snapshot_bytes"] = snapshotBytes;
        out["layers"] = std::move(layers);
        if (!args.traceOut.empty()) {
            // Per-label spans, written once the run is over.
            std::map<std::string, FireTracer::LabelStats> sorted(
                tracer.labels().begin(), tracer.labels().end());
            JsonValue::Object labels;
            for (const auto& [label, stats] : sorted) {
                JsonValue::Object span;
                span["layer"] = kLayerNames[stats.layer];
                span["events"] = stats.events;
                span["host_ns"] = stats.hostNs;
                labels[label] = std::move(span);
            }
            JsonValue::Object spans;
            spans["workload"] = w.name;
            spans["seed"] = args.seed;
            spans["labels"] = std::move(labels);
            std::ofstream file(args.traceOut);
            file << json::write(JsonValue(std::move(spans))) << '\n';
            if (!file)
                throw std::runtime_error("cannot write " + args.traceOut);
        }
    }
    std::cout << json::write(JsonValue(std::move(out))) << std::endl;
    // Tearing the simulation down is not part of any metric and takes a
    // sizeable fraction of a run; leave it to the OS.
    std::_Exit(0);
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        runOnce(parseArgs(argc, argv));
        return 0;
    } catch (const std::exception& e) {
        std::cerr << "uqsim_perfbench: " << e.what() << '\n';
        return 1;
    }
}
