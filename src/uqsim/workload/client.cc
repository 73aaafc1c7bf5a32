#include "uqsim/workload/client.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "uqsim/json/validation.h"
#include "uqsim/random/distribution_factory.h"
#include "uqsim/random/distributions.h"
#include "uqsim/snapshot/snapshot.h"

namespace uqsim {
namespace workload {

ClientConfig
ClientConfig::fromJson(const json::JsonValue& doc)
{
    json::requireKnownKeys(doc,
                           {"front_service", "connections",
                            "request_bytes", "arrival", "load",
                            "start_s", "stop_s", "timeout_s", "retries",
                            "retry_backoff_s", "retry_backoff_mult",
                            "retry_jitter", "mode", "think_time_s"},
                           "client.json");
    ClientConfig config;
    config.frontService = doc.at("front_service").asString();
    config.connections = doc.getOr("connections", 320);
    if (const json::JsonValue* bytes = doc.find("request_bytes")) {
        config.requestBytes = random::makeDistribution(*bytes);
    } else {
        config.requestBytes =
            std::make_shared<random::DeterministicDistribution>(128.0);
    }
    config.arrivals =
        ArrivalProcess::fromName(doc.getOr("arrival", "poisson"));
    if (const json::JsonValue* load = doc.find("load"))
        config.load = LoadPattern::fromJson(*load);
    config.startTime = doc.getOr("start_s", 0.0);
    config.stopTime = doc.getOr("stop_s", 0.0);
    config.timeout = doc.getOr("timeout_s", 0.0);
    config.retries = doc.getOr("retries", 0);
    config.retryBackoffSeconds = doc.getOr("retry_backoff_s", 0.0);
    config.retryBackoffMult = doc.getOr("retry_backoff_mult", 2.0);
    config.retryJitter = doc.getOr("retry_jitter", 0.0);
    if (config.retries < 0)
        throw json::JsonError("client retries must be >= 0");
    if (config.retryJitter < 0.0)
        throw json::JsonError("client retry_jitter must be >= 0");
    const std::string mode = doc.getOr("mode", "open");
    if (mode == "open") {
        config.mode = ClientMode::Open;
    } else if (mode == "closed") {
        config.mode = ClientMode::Closed;
    } else {
        throw json::JsonError("unknown client mode: \"" + mode + "\"");
    }
    config.thinkTime = doc.getOr("think_time_s", 0.0);
    return config;
}

Client::Client(Simulator& sim, Dispatcher& dispatcher,
               Deployment& deployment, ClientConfig config)
    : sim_(sim), dispatcher_(dispatcher), config_(std::move(config)),
      rng_(sim.masterSeed(), "client/" + config_.frontService)
{
    if (config_.connections <= 0)
        throw std::invalid_argument("client needs >= 1 connection");
    if (!config_.load && config_.mode == ClientMode::Open)
        throw std::invalid_argument(
            "open-loop client needs a load pattern");
    if (!config_.arrivals)
        config_.arrivals = std::make_shared<PoissonArrivals>();
    if (!config_.requestBytes) {
        config_.requestBytes =
            std::make_shared<random::DeterministicDistribution>(128.0);
    }
    const auto& fronts = deployment.instances(config_.frontService);
    if (fronts.empty()) {
        throw std::invalid_argument("front service \"" +
                                    config_.frontService +
                                    "\" has no instances");
    }
    endpoints_.reserve(static_cast<std::size_t>(config_.connections));
    for (int i = 0; i < config_.connections; ++i) {
        endpoints_.push_back(Endpoint{
            fronts[static_cast<std::size_t>(i) % fronts.size()],
            deployment.connectionIds().next()});
    }
}

void
Client::start()
{
    const SimTime start = secondsToSimTime(config_.startTime);
    if (config_.mode == ClientMode::Closed) {
        // One outstanding request per connection from the start.
        sim_.scheduleAt(
            std::max(start, sim_.now()),
            [this]() {
                for (std::size_t i = 0; i < endpoints_.size(); ++i)
                    issueOn(i, config_.retries);
            },
            "client/start");
        return;
    }
    sim_.scheduleAt(std::max(start, sim_.now()),
                    [this]() { scheduleNext(); }, "client/start");
}

void
Client::visitState(snapshot::StateVisitor& visitor) const
{
    visitor.u64("generated", generated_);
    visitor.u64("timeouts", timeouts_);
    visitor.u64("errors", errors_);
    visitor.u64("retries_issued", retriesIssued_);
    visitor.u64("cursor", cursor_);
    visitor.rng("rng", rng_.state());
    // Outstanding requests in JobId order: id, endpoint, retry
    // budget, and whether the timeout event is still pending.  The
    // handles themselves replay; the fold pins that the same requests
    // are in flight with the same budgets.
    visitor.u64("outstanding", outstanding_.size());
    snapshot::Digest out;
    for (const auto& [root, state] : outstanding_) {
        out.u64(root);
        out.u64(state.endpoint);
        out.i64(state.retriesLeft);
        out.boolean(state.timeout.pending());
    }
    visitor.u64("outstanding_digest", out.value());
    visitor.u64("closed_loop", closedLoopEndpoints_.size());
    snapshot::Digest closed;
    for (const auto& [root, endpoint] : closedLoopEndpoints_) {
        closed.u64(root);
        closed.u64(endpoint);
    }
    visitor.u64("closed_loop_digest", closed.value());
}

void
Client::reseed(std::uint64_t master_seed)
{
    rng_ = random::RngStream(master_seed,
                             "client/" + config_.frontService);
}

void
Client::scaleLoad(double scale)
{
    if (!config_.load) {
        throw std::logic_error(
            "cannot scale the load of a client with no load pattern");
    }
    config_.load = std::make_shared<ScaledLoad>(config_.load, scale);
}

void
Client::scheduleNext()
{
    const double now = simTimeToSeconds(sim_.now());
    if (config_.stopTime > 0.0 && now >= config_.stopTime)
        return;
    const double rate = config_.load->rateAt(now);
    if (rate <= 0.0) {
        // Idle period: poll the pattern again shortly.
        sim_.scheduleAfter(10 * kMillisecond,
                           [this]() { scheduleNext(); }, "client/idle");
        return;
    }
    const double gap = config_.arrivals->nextGap(rate, rng_);
    sim_.scheduleAfter(secondsToSimTime(gap),
                       [this]() { issueRequest(); }, "client/arrival");
}

void
Client::issueRequest()
{
    const double now = simTimeToSeconds(sim_.now());
    if (config_.stopTime > 0.0 && now >= config_.stopTime)
        return;
    const std::size_t endpoint_index = cursor_;
    cursor_ = (cursor_ + 1) % endpoints_.size();
    issueOn(endpoint_index, config_.retries);
    scheduleNext();
}

void
Client::issueOn(std::size_t endpoint_index, int retries_left)
{
    const Endpoint& endpoint = endpoints_[endpoint_index];
    const double sampled = config_.requestBytes->sample(rng_);
    const auto bytes =
        static_cast<std::uint32_t>(std::max(1.0, sampled));
    JobPtr job = dispatcher_.jobs().createRoot(sim_.now(), bytes);
    job->clientTag = tag_;
    ++generated_;
    if (config_.mode == ClientMode::Closed)
        closedLoopEndpoints_[job->rootId] = endpoint_index;
    if (config_.timeout > 0.0) {
        const JobId root = job->rootId;
        Outstanding state;
        state.endpoint = endpoint_index;
        state.retriesLeft = retries_left;
        state.timeout = sim_.scheduleAfter(
            secondsToSimTime(config_.timeout),
            [this, root]() { onTimeout(root); }, "client/timeout");
        outstanding_.emplace(root, std::move(state));
    }
    dispatcher_.startRequest(std::move(job), *endpoint.instance,
                             endpoint.connection);
}

void
Client::onTimeout(JobId root)
{
    const auto it = outstanding_.find(root);
    if (it == outstanding_.end())
        return;
    ++timeouts_;
    const std::size_t endpoint_index = it->second.endpoint;
    const int retries_left = it->second.retriesLeft;
    outstanding_.erase(it);
    if (retries_left > 0) {
        ++retriesIssued_;
        reissueAfterBackoff(endpoint_index, retries_left - 1);
    }
}

void
Client::onFailure(JobId root)
{
    ++errors_;
    std::size_t endpoint_index = 0;
    bool have_endpoint = false;
    int retries_left = 0;
    if (config_.mode == ClientMode::Closed) {
        const auto cit = closedLoopEndpoints_.find(root);
        if (cit != closedLoopEndpoints_.end()) {
            endpoint_index = cit->second;
            have_endpoint = true;
            closedLoopEndpoints_.erase(cit);
        }
    }
    const auto it = outstanding_.find(root);
    if (it != outstanding_.end()) {
        it->second.timeout.cancel();
        endpoint_index = it->second.endpoint;
        retries_left = it->second.retriesLeft;
        have_endpoint = true;
        outstanding_.erase(it);
    }
    if (!have_endpoint)
        return;  // open loop without timeout: count it and move on
    if (retries_left > 0) {
        ++retriesIssued_;
        reissueAfterBackoff(endpoint_index, retries_left - 1);
        return;
    }
    // Out of retries: a closed loop must still issue the next
    // request or the connection would idle forever.
    if (config_.mode == ClientMode::Closed)
        scheduleClosedLoopNext(endpoint_index);
}

void
Client::reissueAfterBackoff(std::size_t endpoint_index, int retries_left)
{
    double backoff = 0.0;
    if (config_.retryBackoffSeconds > 0.0) {
        const int retry_index = config_.retries - retries_left - 1;
        backoff = config_.retryBackoffSeconds *
                  std::pow(config_.retryBackoffMult,
                           static_cast<double>(retry_index));
        if (config_.retryJitter > 0.0)
            backoff *= 1.0 + config_.retryJitter * rng_.nextDouble();
    }
    if (backoff <= 0.0) {
        issueOn(endpoint_index, retries_left);
        return;
    }
    sim_.scheduleAfter(
        secondsToSimTime(backoff),
        [this, endpoint_index, retries_left]() {
            issueOn(endpoint_index, retries_left);
        },
        "client/retry-backoff");
}

bool
Client::onCompletion(JobId root)
{
    if (config_.mode == ClientMode::Closed) {
        const auto it = closedLoopEndpoints_.find(root);
        if (it != closedLoopEndpoints_.end()) {
            const std::size_t endpoint = it->second;
            closedLoopEndpoints_.erase(it);
            scheduleClosedLoopNext(endpoint);
        }
    }
    if (config_.timeout <= 0.0)
        return true;
    const auto it = outstanding_.find(root);
    if (it == outstanding_.end())
        return false;  // already timed out
    it->second.timeout.cancel();
    outstanding_.erase(it);
    return true;
}

void
Client::scheduleClosedLoopNext(std::size_t endpoint_index)
{
    const double now = simTimeToSeconds(sim_.now());
    if (config_.stopTime > 0.0 && now >= config_.stopTime)
        return;
    SimTime gap = 0;
    if (config_.thinkTime > 0.0) {
        gap = secondsToSimTime(
            -config_.thinkTime *
            std::log(rng_.nextDoubleOpenLeft()));
    }
    sim_.scheduleAfter(
        gap,
        [this, endpoint_index]() {
            issueOn(endpoint_index, config_.retries);
        },
        "client/closed-next");
}

}  // namespace workload
}  // namespace uqsim
