#include "uqsim/core/app/path_tree.h"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "uqsim/json/validation.h"

namespace uqsim {

PathNodeOp
PathNodeOp::fromJson(const json::JsonValue& doc)
{
    PathNodeOp op;
    const std::string kind = doc.at("op").asString();
    if (kind == "block_connection") {
        op.kind = Kind::BlockConnection;
    } else if (kind == "unblock_connection") {
        op.kind = Kind::UnblockConnection;
    } else {
        throw json::JsonError("unknown path node op: \"" + kind + "\"");
    }
    op.service = doc.getOr("service", "");
    return op;
}

PathNode
PathNode::fromJson(const json::JsonValue& doc)
{
    PathNode node;
    node.id = static_cast<int>(doc.at("node_id").asInt());
    node.service = doc.at("service").asString();
    node.pathName = doc.getOr("path", "");
    if (const json::JsonValue* children = doc.find("children")) {
        for (const json::JsonValue& child : children->asArray())
            node.children.push_back(static_cast<int>(child.asInt()));
    }
    if (const json::JsonValue* ops = doc.find("on_enter")) {
        for (const json::JsonValue& op : ops->asArray())
            node.onEnter.push_back(PathNodeOp::fromJson(op));
    }
    if (const json::JsonValue* ops = doc.find("on_leave")) {
        for (const json::JsonValue& op : ops->asArray())
            node.onLeave.push_back(PathNodeOp::fromJson(op));
    }
    node.requestBytes = static_cast<std::uint32_t>(
        doc.getOr("request_bytes", std::int64_t{0}));
    node.instanceIndex = doc.getOr("instance", -1);
    return node;
}

void
PathVariant::finalize()
{
    if (nodes.empty())
        throw std::invalid_argument("path variant has no nodes");
    std::sort(nodes.begin(), nodes.end(),
              [](const PathNode& a, const PathNode& b) {
                  return a.id < b.id;
              });
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].id != static_cast<int>(i)) {
            throw std::invalid_argument(
                "path node ids must be contiguous from 0");
        }
        nodes[i].fanIn = 0;
    }
    for (const PathNode& node : nodes) {
        for (int child : node.children) {
            if (child < 0 || child >= static_cast<int>(nodes.size())) {
                throw std::invalid_argument(
                    "path node " + std::to_string(node.id) +
                    " has unknown child " + std::to_string(child));
            }
            ++nodes[static_cast<std::size_t>(child)].fanIn;
        }
    }
    rootId = -1;
    terminalCount = 0;
    for (const PathNode& node : nodes) {
        if (node.fanIn == 0) {
            if (rootId != -1) {
                throw std::invalid_argument(
                    "path variant has multiple roots (" +
                    std::to_string(rootId) + " and " +
                    std::to_string(node.id) + ")");
            }
            rootId = node.id;
        }
        if (node.children.empty())
            ++terminalCount;
    }
    if (rootId == -1)
        throw std::invalid_argument("path variant has no root (cycle?)");
    // Kahn's algorithm: every node must be reachable in topological
    // order, otherwise there is a cycle.
    std::vector<int> indegree(nodes.size(), 0);
    for (const PathNode& node : nodes) {
        for (int child : node.children)
            ++indegree[static_cast<std::size_t>(child)];
    }
    std::vector<int> frontier;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (indegree[i] == 0)
            frontier.push_back(static_cast<int>(i));
    }
    std::size_t visited = 0;
    while (!frontier.empty()) {
        const int id = frontier.back();
        frontier.pop_back();
        ++visited;
        for (int child : nodes[static_cast<std::size_t>(id)].children) {
            if (--indegree[static_cast<std::size_t>(child)] == 0)
                frontier.push_back(child);
        }
    }
    if (visited != nodes.size())
        throw std::invalid_argument("path variant contains a cycle");
}

PathTree
PathTree::fromJson(const json::JsonValue& doc)
{
    PathTree tree;
    auto parse_variant = [](const json::JsonValue& spec) {
        PathVariant variant;
        variant.probability = spec.getOr("probability", 1.0);
        for (const json::JsonValue& node : spec.at("nodes").asArray())
            variant.nodes.push_back(PathNode::fromJson(node));
        return variant;
    };
    if (const json::JsonValue* variants = doc.find("paths")) {
        // Validate the probability sum once over the whole document,
        // not incrementally per variant: a zero-probability variant
        // listed first (e.g. a cold-start sweep point) is legal as
        // long as the document's total is positive.
        for (const json::JsonValue& spec : variants->asArray()) {
            PathVariant variant = parse_variant(spec);
            if (variant.probability < 0.0) {
                throw std::invalid_argument(
                    "variant probability must be >= 0");
            }
            variant.finalize();
            tree.variants_.push_back(std::move(variant));
        }
        tree.rebuildCumulative();
    } else {
        tree.addVariant(parse_variant(doc));
    }
    return tree;
}

int
PathTree::addVariant(PathVariant variant)
{
    if (variant.probability < 0.0)
        throw std::invalid_argument("variant probability must be >= 0");
    variant.finalize();
    variants_.push_back(std::move(variant));
    rebuildCumulative();
    return static_cast<int>(variants_.size()) - 1;
}

void
PathTree::rebuildCumulative()
{
    double total = 0.0;
    for (const PathVariant& variant : variants_)
        total += variant.probability;
    if (total <= 0.0)
        throw std::invalid_argument("variant probabilities sum to zero");
    cumulative_.clear();
    double cumulative = 0.0;
    for (const PathVariant& variant : variants_) {
        cumulative += variant.probability / total;
        cumulative_.push_back(cumulative);
    }
    cumulative_.back() = 1.0;
}

const PathVariant&
PathTree::variant(int index) const
{
    if (index < 0 || index >= static_cast<int>(variants_.size()))
        throw std::out_of_range("path variant index out of range");
    return variants_[static_cast<std::size_t>(index)];
}

int
PathTree::sampleVariant(random::Rng& rng) const
{
    if (variants_.empty())
        throw std::logic_error("path tree has no variants");
    if (variants_.size() == 1)
        return 0;
    const double u = rng.nextDouble();
    for (std::size_t i = 0; i < cumulative_.size(); ++i) {
        if (u < cumulative_[i])
            return static_cast<int>(i);
    }
    return static_cast<int>(variants_.size()) - 1;
}

const PathNode&
PathTree::node(int variant_index, int node_id) const
{
    const PathVariant& v = variant(variant_index);
    if (node_id < 0 || node_id >= static_cast<int>(v.nodes.size()))
        throw std::out_of_range("path node id out of range");
    return v.nodes[static_cast<std::size_t>(node_id)];
}

void
PathTree::resolveExecPaths(
    const std::function<int(const std::string&, const std::string&)>&
        resolver)
{
    for (PathVariant& variant : variants_) {
        for (PathNode& node : variant.nodes) {
            if (!node.pathName.empty())
                node.execPathId = resolver(node.service, node.pathName);
        }
    }
}

void
PathTree::resolveServiceIds(NameInterner& names)
{
    for (PathVariant& variant : variants_) {
        for (PathNode& node : variant.nodes)
            node.serviceId = names.intern(node.service);
    }
    for (PathVariant& variant : variants_) {
        for (PathNode& node : variant.nodes) {
            for (PathNodeOp& op : node.onLeave) {
                op.serviceId = names.find(op.service);
                if (op.service.empty() ||
                    op.serviceId != NameInterner::kNone)
                    continue;
                std::string message =
                    "unblock_connection names unknown service \"" +
                    op.service + "\"";
                std::vector<std::string> candidates;
                for (std::uint32_t id = 0; id < names.size(); ++id)
                    candidates.push_back(names.name(id));
                const std::string suggestion =
                    json::suggestClosest(op.service, candidates);
                if (!suggestion.empty())
                    message += "; did you mean \"" + suggestion + "\"?";
                throw std::invalid_argument(message);
            }
        }
    }
}

std::vector<std::string>
PathTree::referencedServices() const
{
    std::set<std::string> seen;
    std::vector<std::string> services;
    for (const PathVariant& variant : variants_) {
        for (const PathNode& node : variant.nodes) {
            if (seen.insert(node.service).second)
                services.push_back(node.service);
        }
    }
    return services;
}

}  // namespace uqsim
