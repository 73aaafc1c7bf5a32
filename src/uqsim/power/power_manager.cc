#include "uqsim/power/power_manager.h"

#include <stdexcept>

namespace uqsim {
namespace power {

PowerManager::PowerManager(Simulator& sim,
                           const PowerManagerConfig& config,
                           std::vector<TierControl> tiers)
    : sim_(sim), config_(config), tiers_(std::move(tiers)),
      rng_(sim.masterSeed(), "power-manager"),
      buckets_(config.qosTargetSeconds, config.bucketCount),
      targetBucket_(buckets_.size()), tailSeries_("end2end_p99_ms")
{
    if (tiers_.empty())
        throw std::invalid_argument("power manager needs >= 1 tier");
    if (config.intervalSeconds <= 0.0)
        throw std::invalid_argument("decision interval must be > 0");
    tierWindows_.resize(tiers_.size());
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        if (tiers_[i].domains.empty()) {
            throw std::invalid_argument("tier \"" + tiers_[i].service +
                                        "\" controls no DVFS domains");
        }
        tierIndex_[tiers_[i].service] = i;
        freqSeries_.emplace_back(tiers_[i].service + "_ghz");
    }
    // Initial per-tier targets: an even split of the end-to-end QoS.
    targets_.assign(tiers_.size(),
                    config.qosTargetSeconds /
                        static_cast<double>(tiers_.size()));
}

void
PowerManager::noteEndToEnd(double seconds)
{
    endToEndWindow_.add(seconds);
}

void
PowerManager::noteTierLatency(const std::string& service, double seconds)
{
    const auto it = tierIndex_.find(service);
    if (it != tierIndex_.end())
        tierWindows_[it->second].add(seconds);
}

void
PowerManager::start()
{
    recordFrequencies();
    sim_.scheduleAfter(secondsToSimTime(config_.intervalSeconds),
                       [this]() { decide(); }, "power/decide");
}

const stats::TimeSeries&
PowerManager::frequencySeries(const std::string& service) const
{
    const auto it = tierIndex_.find(service);
    if (it == tierIndex_.end())
        throw std::out_of_range("unknown tier: " + service);
    return freqSeries_[it->second];
}

double
PowerManager::violationRate() const
{
    return windows_ > 0
               ? static_cast<double>(violations_) /
                     static_cast<double>(windows_)
               : 0.0;
}

void
PowerManager::applyFrequencyStep(std::size_t tier, bool up)
{
    for (hw::DvfsDomain* domain : tiers_[tier].domains) {
        if (up) {
            domain->stepUp();
        } else {
            domain->stepDown();
        }
    }
}

void
PowerManager::recordFrequencies()
{
    const double now = simTimeToSeconds(sim_.now());
    for (std::size_t i = 0; i < tiers_.size(); ++i) {
        freqSeries_[i].add(now,
                           tiers_[i].domains.front()->frequency());
    }
}

void
PowerManager::chooseNewTarget()
{
    const std::size_t chosen = buckets_.choose(rng_);
    if (chosen >= buckets_.size())
        return;  // nothing learned yet; keep current targets
    targetBucket_ = chosen;
    targets_ = buckets_.bucket(chosen).sampleTuple(rng_);
}

void
PowerManager::decide()
{
    const double end_to_end_p99 = endToEndWindow_.p99();
    TierTuple observed(tiers_.size(), 0.0);
    for (std::size_t i = 0; i < tiers_.size(); ++i)
        observed[i] = tierWindows_[i].p99();

    if (endToEndWindow_.count() >= config_.minWindowSamples) {
        ++windows_;
        tailSeries_.add(simTimeToSeconds(sim_.now()),
                        end_to_end_p99 * 1e3);

        if (end_to_end_p99 < config_.qosTargetSeconds) {
            // --- QoS met (Algorithm 1, lines 5-14) ---
            const std::size_t bucket_index =
                buckets_.classify(end_to_end_p99);
            QosBucket& bucket = buckets_.bucket(bucket_index);
            bucket.insert(observed);
            bucket.reward();
            if (++cyclesSinceRetarget_ >= config_.retargetCycles) {
                cyclesSinceRetarget_ = 0;
                chooseNewTarget();
            }
            // Slow down at most one tier: the one with most slack.
            std::size_t best_tier = tiers_.size();
            double best_slack = config_.slackThreshold;
            for (std::size_t i = 0; i < tiers_.size(); ++i) {
                if (tierWindows_[i].empty() || targets_[i] <= 0.0)
                    continue;
                const double slack =
                    (targets_[i] - observed[i]) / targets_[i];
                if (slack > best_slack &&
                    !tiers_[i].domains.front()->atLowest()) {
                    best_slack = slack;
                    best_tier = i;
                }
            }
            if (best_tier < tiers_.size()) {
                for (int step = 0; step < config_.slowDownSteps;
                     ++step) {
                    applyFrequencyStep(best_tier, /*up=*/false);
                }
            }
        } else {
            // --- QoS violated (Algorithm 1, lines 15-21) ---
            ++violations_;
            if (targetBucket_ < buckets_.size()) {
                QosBucket& bucket = buckets_.bucket(targetBucket_);
                bucket.penalize();
                bucket.recordFailure(targets_);
            }
            chooseNewTarget();
            for (std::size_t i = 0; i < tiers_.size(); ++i) {
                if (tierWindows_[i].empty())
                    continue;
                if (observed[i] > targets_[i]) {
                    for (int step = 0; step < config_.speedUpSteps;
                         ++step) {
                        applyFrequencyStep(i, /*up=*/true);
                    }
                }
            }
        }
        recordFrequencies();
    }
    endToEndWindow_.reset();
    for (stats::PercentileRecorder& window : tierWindows_)
        window.reset();

    sim_.scheduleAfter(secondsToSimTime(config_.intervalSeconds),
                       [this]() { decide(); }, "power/decide");
}

}  // namespace power
}  // namespace uqsim
