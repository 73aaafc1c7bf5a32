#ifndef UQSIM_POWER_POWER_MANAGER_H_
#define UQSIM_POWER_POWER_MANAGER_H_

/**
 * @file
 * QoS-aware DVFS power manager (Algorithm 1, paper §V-B).
 *
 * The manager divides the end-to-end QoS requirement into per-tier
 * QoS requirements using the learned bucket table.  Every decision
 * interval it inspects the tail latency observed in that window:
 *
 *  - QoS met: record the per-tier tuple in its bucket (unless it is
 *    more relaxed than a known-failing target), reward the bucket,
 *    periodically re-choose the target bucket and per-tier targets,
 *    and slow down *at most one* tier — the one with the largest
 *    latency slack.
 *  - QoS violated: penalize the target bucket, record the current
 *    target as failing, choose a new target, and speed up every tier
 *    whose latency exceeds its per-tier target.
 */

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "uqsim/core/engine/simulator.h"
#include "uqsim/hw/dvfs.h"
#include "uqsim/power/qos_bucket.h"
#include "uqsim/stats/percentile_recorder.h"
#include "uqsim/stats/time_series.h"

namespace uqsim {
namespace power {

/** Manager parameters. */
struct PowerManagerConfig {
    /** Decision interval (seconds); the paper sweeps 0.1-1 s. */
    double intervalSeconds = 0.5;
    /** End-to-end tail-latency (p99) target in seconds. */
    double qosTargetSeconds = 5e-3;
    /** Number of latency buckets over [0, target). */
    int bucketCount = 10;
    /** Re-choose the target bucket every this many met-QoS cycles
     *  ("CycleCount > Interval" in Algorithm 1). */
    int retargetCycles = 8;
    /** Minimum relative slack before a tier is slowed down. */
    double slackThreshold = 0.15;
    /** Frequency steps applied per tier when reacting to a
     *  violation.  The paper's Algorithm 1 steps once per decision;
     *  larger values trade energy for fewer violations. */
    int speedUpSteps = 1;
    /** Frequency steps applied to the slowed tier when QoS is met
     *  with slack.  Scale together with speedUpSteps when using a
     *  fine-grained (RAPL-like) frequency table so the per-decision
     *  frequency delta stays comparable. */
    int slowDownSteps = 1;
    /** Minimum samples in a window to act on it. */
    std::size_t minWindowSamples = 20;
};

/** One controlled tier: a name plus the DVFS domains it spans. */
struct TierControl {
    std::string service;
    std::vector<hw::DvfsDomain*> domains;
};

/** The runtime power manager. */
class PowerManager {
  public:
    /**
     * @param sim     owning simulator
     * @param config  algorithm parameters
     * @param tiers   controlled tiers in a fixed order (the tuple
     *                order of the bucket table)
     */
    PowerManager(Simulator& sim, const PowerManagerConfig& config,
                 std::vector<TierControl> tiers);

    /** Feeds one end-to-end latency observation (seconds). */
    void noteEndToEnd(double seconds);

    /** Feeds one per-tier latency observation (seconds). */
    void noteTierLatency(const std::string& service, double seconds);

    /** Schedules the periodic decision loop. */
    void start();

    // -- outputs for Fig. 16 / Table III ---------------------------

    /** p99 per decision window (ms). */
    const stats::TimeSeries& tailSeries() const { return tailSeries_; }

    /** Frequency setting over time for tier @p service (GHz). */
    const stats::TimeSeries& frequencySeries(
        const std::string& service) const;

    /** Decision windows evaluated so far. */
    std::uint64_t windows() const { return windows_; }
    /** Windows whose p99 violated the QoS target. */
    std::uint64_t violations() const { return violations_; }
    /** Violated fraction of evaluated windows. */
    double violationRate() const;

    const QosBucketTable& buckets() const { return buckets_; }

  private:
    void decide();
    void applyFrequencyStep(std::size_t tier, bool up);
    void recordFrequencies();
    void chooseNewTarget();

    Simulator& sim_;
    PowerManagerConfig config_;
    std::vector<TierControl> tiers_;
    std::map<std::string, std::size_t> tierIndex_;
    random::RngStream rng_;
    QosBucketTable buckets_;
    // Tumbling windows: each decision reads the samples noted since
    // the previous one, then resets them.
    stats::PercentileRecorder endToEndWindow_;
    std::vector<stats::PercentileRecorder> tierWindows_;
    TierTuple targets_;
    std::size_t targetBucket_;
    int cyclesSinceRetarget_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t violations_ = 0;
    stats::TimeSeries tailSeries_;
    std::vector<stats::TimeSeries> freqSeries_;
};

}  // namespace power
}  // namespace uqsim

#endif  // UQSIM_POWER_POWER_MANAGER_H_
