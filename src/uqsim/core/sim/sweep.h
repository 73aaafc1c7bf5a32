#ifndef UQSIM_CORE_SIM_SWEEP_H_
#define UQSIM_CORE_SIM_SWEEP_H_

/**
 * @file
 * Load-latency curves for the paper's figures: the curve type that
 * runner::SweepRunner produces (one independent simulation per
 * offered-load point), its table formatting, load spacing, and the
 * SLO capacity search.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "uqsim/core/sim/report.h"
#include "uqsim/core/sim/simulation.h"

namespace uqsim {

/** One point of a load-latency curve. */
struct SweepPoint {
    double offeredQps = 0.0;
    RunReport report;
};

/** A named load-latency curve (one line in a paper figure). */
struct SweepCurve {
    std::string label;
    std::vector<SweepPoint> points;

    /**
     * The lowest offered load at which the system saturates, defined
     * as achieved throughput falling more than @p tolerance below
     * offered (default 5 %).  Returns 0 when no point saturates.
     */
    double saturationQps(double tolerance = 0.05) const;

    /** p99 latency (ms) at the highest non-saturated point. */
    double tailBeforeSaturationMs(double tolerance = 0.05) const;
};

/**
 * Formats curves as an aligned text table with columns
 * load | achieved | mean | p99 per curve.  Used by the bench
 * binaries to print figure data.
 */
std::string formatSweepTable(const std::vector<SweepCurve>& curves);

/** Evenly spaced loads from @p lo to @p hi inclusive. */
std::vector<double> linspace(double lo, double hi, int count);

/** Result of an SLO capacity search. */
struct CapacitySearchResult {
    /** Highest load meeting the SLO; 0 when even @p lo fails. */
    double capacityQps = 0.0;
    /** Report of the run at capacityQps. */
    RunReport atCapacity;
    /** Simulation runs performed. */
    int iterations = 0;
};

/**
 * Binary-searches the highest offered load whose run meets the SLO:
 * p99 <= @p slo_p99_ms and achieved throughput within
 * @p achieved_tol of offered.  The factory is invoked once per
 * probe; the search ends when the bracket is within @p rel_tol of
 * the capacity.  This is the capacity-planning question ("what load
 * can this deployment sustain at my latency target?") the simulator
 * answers without a testbed.
 */
CapacitySearchResult findSloCapacity(
    const std::function<std::unique_ptr<Simulation>(double)>& factory,
    double slo_p99_ms, double lo, double hi, double rel_tol = 0.05,
    double achieved_tol = 0.05);

}  // namespace uqsim

#endif  // UQSIM_CORE_SIM_SWEEP_H_
