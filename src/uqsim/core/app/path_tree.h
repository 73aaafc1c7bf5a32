#ifndef UQSIM_CORE_APP_PATH_TREE_H_
#define UQSIM_CORE_APP_PATH_TREE_H_

/**
 * @file
 * Inter-microservice paths (path.json).
 *
 * A path is a DAG of path nodes.  Each node names a microservice,
 * optionally pins the execution path within it, and lists its
 * children; after a node completes, µqSim copies the job for each
 * child and sends it to a matching instance (paper §III-C).  A node
 * with multiple parents expresses synchronization: a job enters it
 * only after all parent copies complete (fan-in).  Nodes carry
 * enter/leave operations encoding blocking behavior.
 *
 * Control-flow variability across requests is expressed as multiple
 * path variants with probabilities (e.g. cache hit vs. miss in the
 * 3-tier application).
 */

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "uqsim/core/service/name_interner.h"
#include "uqsim/json/json_value.h"
#include "uqsim/random/rng.h"

namespace uqsim {

/** Blocking operation attached to a path node. */
struct PathNodeOp {
    enum class Kind {
        /** Block the receive side of the connection the job arrived
         *  on at the current instance. */
        BlockConnection,
        /** Unblock the connections recorded for this root request at
         *  the named service (empty = all). */
        UnblockConnection,
    };

    Kind kind = Kind::BlockConnection;
    /** Service filter for UnblockConnection. */
    std::string service;
    /** Interned id of `service` (resolveServiceIds); kNone only
     *  while `service` is empty. */
    std::uint32_t serviceId = NameInterner::kNone;

    /** True when this unblock op releases a block taken at service
     *  @p service_id. */
    bool
    unblocks(std::uint32_t service_id) const
    {
        return service.empty() || service_id == serviceId;
    }

    static PathNodeOp fromJson(const json::JsonValue& doc);
};

/** One node of an inter-microservice path. */
struct PathNode {
    int id = 0;
    /** Microservice this node executes on. */
    std::string service;
    /** Interned id of `service` (resolveServiceIds); the dispatcher
     *  hot path routes by this id, never by the string. */
    std::uint32_t serviceId = 0xFFFFFFFFu;
    /** Execution path name within the service; empty = sample. */
    std::string pathName;
    /** Resolved execution path id (resolveExecPaths); -1 = sample. */
    int execPathId = -1;
    /** Children entered after this node completes (fan-out). */
    std::vector<int> children;
    /** Number of parents (computed); > 1 means synchronization. */
    int fanIn = 0;
    /** Operations applied when a job enters / leaves the node. */
    std::vector<PathNodeOp> onEnter;
    std::vector<PathNodeOp> onLeave;
    /** Message size for the hop into this node; 0 keeps job size. */
    std::uint32_t requestBytes = 0;
    /** Pin to a specific instance index; -1 = load balance. */
    int instanceIndex = -1;

    static PathNode fromJson(const json::JsonValue& doc);
};

/** One complete path DAG with a selection probability. */
struct PathVariant {
    double probability = 1.0;
    std::vector<PathNode> nodes;
    int rootId = -1;
    /** Number of terminal (childless) nodes. */
    int terminalCount = 0;

    /** Computes fanIn/root/terminals and validates the DAG. */
    void finalize();
};

/** All path variants of an application. */
class PathTree {
  public:
    PathTree() = default;

    /** Parses a path.json document:
     *
     *  {"paths": [{"probability": 1.0, "nodes": [...]}, ...]}
     *
     * A document with a top-level "nodes" array is treated as a
     * single variant with probability 1. */
    static PathTree fromJson(const json::JsonValue& doc);

    /** Adds a variant programmatically; finalize() is called. */
    int addVariant(PathVariant variant);

    std::size_t variantCount() const { return variants_.size(); }
    const PathVariant& variant(int index) const;

    /** Samples a variant index by probability. */
    int sampleVariant(random::Rng& rng) const;

    /** The node @p node_id of variant @p variant_index. */
    const PathNode& node(int variant_index, int node_id) const;

    /** All services referenced by any variant (deduplicated). */
    std::vector<std::string> referencedServices() const;

    /**
     * Resolves each node's pathName to an execution path id using
     * @p resolver(service, path_name).  Nodes with an empty pathName
     * keep execPathId = -1 (sampled at accept time).
     */
    void resolveExecPaths(
        const std::function<int(const std::string&, const std::string&)>&
            resolver);

    /**
     * Interns each node's service name into @p names, filling
     * PathNode::serviceId, then looks up each unblock op's service
     * filter (PathNodeOp::serviceId) without interning it.  Throws
     * std::invalid_argument, with the closest known name, when a
     * non-empty filter names no service.
     */
    void resolveServiceIds(NameInterner& names);

  private:
    std::vector<PathVariant> variants_;
    std::vector<double> cumulative_;

    void rebuildCumulative();
};

}  // namespace uqsim

#endif  // UQSIM_CORE_APP_PATH_TREE_H_
