#ifndef UQSIM_BENCH_SECTION_RUNNER_H_
#define UQSIM_BENCH_SECTION_RUNNER_H_

/**
 * @file
 * Shared harness of the perf-trajectory microbenches (bench_engine,
 * bench_incast, bench_storage).  Each binary supplies named sections;
 * every section runs --reps times, must execute the same events with
 * the same trace digest on every rep, and reports the median
 * events/s.  Results are printed one line per section and written as
 * uqsim-bench-engine-v1 JSON, which scripts/check_bench.py compares
 * against the committed BENCH_*.json baseline.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "uqsim/core/sim/simulation.h"
#include "uqsim/json/json_value.h"
#include "uqsim/json/json_writer.h"

namespace uqsim {
namespace bench {

/** One section's measurement: a single rep, or the median of reps. */
struct SectionResult {
    std::string name;
    std::uint64_t events = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
    std::uint64_t digest = 0;
};

inline double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return values[values.size() / 2];
}

/** Wall-clock seconds taken by @p run. */
template <typename Run>
double
timeWall(Run&& run)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();
    run();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

inline SectionResult
measured(std::uint64_t events, double wall, std::uint64_t digest)
{
    SectionResult result;
    result.events = events;
    result.wallSeconds = wall;
    result.eventsPerSec = static_cast<double>(events) / wall;
    result.digest = digest;
    return result;
}

/** Times @p run, which drives @p sim, and reports what @p sim did. */
template <typename Run>
SectionResult
timeSimulator(Simulator& sim, Run&& run)
{
    const double wall = timeWall(run);
    return measured(sim.executedEvents(), wall, sim.traceDigest());
}

/** Builds @p bundle (untimed), then times its whole run. */
inline SectionResult
timeReplay(const ConfigBundle& bundle)
{
    auto simulation = Simulation::fromBundle(bundle);
    RunReport report;
    const double wall = timeWall([&]() { report = simulation->run(); });
    return measured(report.events, wall, simulation->sim().traceDigest());
}

/**
 * Collapses one section's reps into its median events/s.  Exits when
 * the reps disagree on events or digest: a section that is not
 * deterministic measures nothing comparable.
 */
inline SectionResult
best(std::vector<SectionResult> reps)
{
    std::vector<double> rates;
    rates.reserve(reps.size());
    for (const SectionResult& rep : reps)
        rates.push_back(rep.eventsPerSec);
    SectionResult result = reps.front();
    for (const SectionResult& rep : reps) {
        if (rep.digest != result.digest || rep.events != result.events) {
            std::fprintf(stderr,
                         "FATAL: %s not deterministic across reps\n",
                         result.name.c_str());
            std::exit(1);
        }
    }
    result.eventsPerSec = median(rates);
    result.wallSeconds =
        static_cast<double>(result.events) / result.eventsPerSec;
    return result;
}

/** Command line shared by the microbenches. */
struct BenchOptions {
    int reps = 5;
    /** --quick: two reps and each binary's smaller raw workloads. */
    bool quick = false;
    std::string out;
};

/** Parses [--reps N] [--out FILE] [--quick]; exits 2 on anything else. */
inline BenchOptions
parseBenchArgs(int argc, char** argv, std::string default_out)
{
    BenchOptions options;
    options.out = std::move(default_out);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            options.reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            options.out = argv[++i];
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            options.reps = 2;
            options.quick = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--reps N] [--out FILE] [--quick]\n",
                         argv[0]);
            std::exit(2);
        }
    }
    if (options.reps < 1)
        options.reps = 1;
    return options;
}

/** A named section; each call of @p run is one timed rep. */
struct Section {
    std::string name;
    std::function<SectionResult()> run;
};

/**
 * Runs every section options.reps times, prints one line each and
 * writes the JSON report to options.out.  Returns the exit status.
 */
inline int
runSections(const BenchOptions& options,
            const std::vector<Section>& sections)
{
    using json::JsonValue;
    std::vector<SectionResult> results;
    for (const Section& section : sections) {
        std::vector<SectionResult> reps;
        for (int r = 0; r < options.reps; ++r) {
            reps.push_back(section.run());
            reps.back().name = section.name;
        }
        const SectionResult result = best(std::move(reps));
        std::printf(
            "%-18s %10llu events  %8.3f s  %12.0f events/s  "
            "digest %016llx\n",
            result.name.c_str(),
            static_cast<unsigned long long>(result.events),
            result.wallSeconds, result.eventsPerSec,
            static_cast<unsigned long long>(result.digest));
        results.push_back(result);
    }

    JsonValue doc = JsonValue::makeObject();
    doc.asObject()["schema"] = "uqsim-bench-engine-v1";
    doc.asObject()["reps"] = options.reps;
    JsonValue list = JsonValue::makeArray();
    for (const SectionResult& result : results) {
        JsonValue entry = JsonValue::makeObject();
        entry.asObject()["name"] = result.name;
        entry.asObject()["events"] = result.events;
        entry.asObject()["wall_s"] = result.wallSeconds;
        entry.asObject()["events_per_sec"] = result.eventsPerSec;
        char digest[32];
        std::snprintf(digest, sizeof(digest), "%016llx",
                      static_cast<unsigned long long>(result.digest));
        entry.asObject()["trace_digest"] = digest;
        list.asArray().push_back(std::move(entry));
    }
    doc.asObject()["sections"] = std::move(list);
    std::ofstream file(options.out);
    file << json::writePretty(doc) << "\n";
    if (!file) {
        std::fprintf(stderr, "failed to write %s\n", options.out.c_str());
        return 1;
    }
    std::printf("wrote %s\n", options.out.c_str());
    return 0;
}

}  // namespace bench
}  // namespace uqsim

#endif  // UQSIM_BENCH_SECTION_RUNNER_H_
