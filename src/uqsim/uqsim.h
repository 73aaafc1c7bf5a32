#ifndef UQSIM_UQSIM_H_
#define UQSIM_UQSIM_H_

/**
 * @file
 * Umbrella header: the µqSim public API in one include.
 *
 * @mainpage µqSim
 *
 * µqSim is a validated discrete-event queueing-network simulator for
 * interactive microservices (Zhang, Gan, Delimitrou — ISPASS 2019).
 * It models execution stages *inside* each microservice (epoll
 * batching, socket reads, processing, blocking I/O) and the
 * dependency graph *between* microservices (fan-out, fan-in
 * synchronization, HTTP/1.1 connection blocking, connection pools,
 * load balancing, per-machine interrupt processing).
 *
 * Typical entry points:
 *  - uqsim::Simulation — assemble a system from the five JSON inputs
 *    and run it (see docs/FORMATS.md).
 *  - uqsim::models — calibrated service models and complete
 *    application bundles for every system the paper evaluates.
 *  - uqsim::runner::SweepRunner / uqsim::findSloCapacity —
 *    load-latency curves (serial or on a thread pool) and SLO
 *    capacity planning.
 *  - uqsim::TraceRecorder — sampled per-request waterfalls.
 *  - uqsim::power::PowerManager — the QoS-aware DVFS controller of
 *    the paper's §V-B case study.
 *  - uqsim::bighouse::BigHouseSimulation — the single-queue baseline
 *    used in the Fig. 13 comparison.
 *  - uqsim::fault — deterministic fault injection (crashes, slow
 *    nodes, lossy network windows) and resilience policies (per-hop
 *    retries, hedged requests, circuit breakers, load shedding).
 */

#include "uqsim/bighouse/bighouse.h"
#include "uqsim/core/app/deployment.h"
#include "uqsim/core/app/dispatcher.h"
#include "uqsim/core/app/path_tree.h"
#include "uqsim/core/app/trace.h"
#include "uqsim/core/engine/simulator.h"
#include "uqsim/core/service/instance.h"
#include "uqsim/core/service/service_model.h"
#include "uqsim/core/sim/config.h"
#include "uqsim/core/sim/report.h"
#include "uqsim/core/sim/simulation.h"
#include "uqsim/core/sim/sweep.h"
#include "uqsim/fault/fault_plan.h"
#include "uqsim/fault/fault_scheduler.h"
#include "uqsim/fault/resilience.h"
#include "uqsim/hw/cluster.h"
#include "uqsim/json/json_parser.h"
#include "uqsim/json/json_writer.h"
#include "uqsim/json/validation.h"
#include "uqsim/models/applications.h"
#include "uqsim/power/energy_model.h"
#include "uqsim/power/power_manager.h"
#include "uqsim/random/distribution_factory.h"
#include "uqsim/random/distributions.h"
#include "uqsim/random/histogram_distribution.h"
#include "uqsim/runner/sweep_runner.h"
#include "uqsim/stats/confidence.h"
#include "uqsim/stats/percentile_recorder.h"
#include "uqsim/stats/queueing_theory.h"
#include "uqsim/workload/client.h"

#endif  // UQSIM_UQSIM_H_
