#ifndef MLAKE_VERSIONING_MODEL_GRAPH_H_
#define MLAKE_VERSIONING_MODEL_GRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/json.h"
#include "common/result.h"

namespace mlake::versioning {

/// The transformation that produced a child model from its parent —
/// the typed edges of the paper's Model Graph T (§3 "Model Versioning").
enum class EdgeType : int {
  kFinetune = 0,
  kLora = 1,
  kEdit = 2,
  kStitch = 3,
  kPrune = 4,
  kDistill = 5,
  kNoise = 6,
  kUnknown = 7,
};

std::string_view EdgeTypeToString(EdgeType type);
Result<EdgeType> EdgeTypeFromString(std::string_view s);

/// One derivation edge: `child` was produced from `parent` by `type`
/// with `params` (e.g. {"dataset": "legal-sum/us-courts", "rank": 4}).
struct VersionEdge {
  std::string parent;
  std::string child;
  EdgeType type = EdgeType::kUnknown;
  Json params;
  /// Recovery confidence in [0,1]; 1.0 for recorded (ground-truth) edges.
  double confidence = 1.0;
};

/// SHA-256 of an edge's canonical text — one record of
/// ModelGraph::edge_digest.
SetDigest::Hash EdgeHash(const VersionEdge& edge);

/// Directed acyclic graph of model derivations with a monotonically
/// increasing revision counter. Every mutation bumps the revision, which
/// is what model citations pin (§6 "Data and Model Citation": "upon any
/// updates of the graph, a new citation would be generated").
class ModelGraph {
 public:
  /// Registers a node; idempotent.
  void AddModel(const std::string& id);

  /// Removes a node and every edge touching it (ingest rollback path).
  /// Returns false (without bumping the revision) when the node is
  /// absent, so rollback of a half-applied ingest is idempotent.
  bool RemoveModel(const std::string& id);

  /// Adds an edge (auto-registers endpoints). Fails on self-loops,
  /// duplicate (parent, child) pairs, or edges that would create a cycle.
  Status AddEdge(VersionEdge edge);

  bool HasModel(const std::string& id) const { return nodes_.count(id) > 0; }
  bool HasEdge(const std::string& parent, const std::string& child) const;

  size_t NumModels() const { return nodes_.size(); }
  size_t NumEdges() const { return edges_.size(); }
  uint64_t revision() const { return revision_; }
  /// Adopts another graph's revision — a replica seeded with a leader's
  /// lineage continues its revision sequence, so citations agree.
  void set_revision(uint64_t revision) { revision_ = revision; }

  /// SetDigest over the SHA-256 of every edge's canonical text
  /// "edge|parent|child|type|%.17g confidence|params JSON", kept exact
  /// by AddEdge and RemoveModel: O(1) to read, O(edge) per mutation.
  /// The revision and the node set are not part of it.
  const SetDigest& edge_digest() const { return edge_digest_; }

  std::vector<std::string> Models() const;
  const std::vector<VersionEdge>& Edges() const { return edges_; }

  std::vector<std::string> Parents(const std::string& id) const;
  std::vector<std::string> Children(const std::string& id) const;

  /// Transitive closure upward / downward.
  std::vector<std::string> Ancestors(const std::string& id) const;
  std::vector<std::string> Descendants(const std::string& id) const;

  /// Nodes with no parents.
  std::vector<std::string> Roots() const;

  /// Topological order (parents before children).
  std::vector<std::string> TopoSort() const;

  /// Depth of `id` from its deepest root (0 for roots).
  Result<int> Depth(const std::string& id) const;

  Json ToJson() const;
  static Result<ModelGraph> FromJson(const Json& j);

 private:
  bool WouldCreateCycle(const std::string& parent,
                        const std::string& child) const;

  std::set<std::string> nodes_;
  std::vector<VersionEdge> edges_;
  std::map<std::string, std::vector<size_t>> out_edges_;  // parent -> edge idx
  std::map<std::string, std::vector<size_t>> in_edges_;   // child -> edge idx
  uint64_t revision_ = 0;
  SetDigest edge_digest_;
};

/// Edge-recovery quality of a recovered graph vs ground truth.
struct GraphComparison {
  size_t truth_edges = 0;
  size_t recovered_edges = 0;
  size_t correct_directed = 0;    // right pair, right direction
  size_t correct_undirected = 0;  // right pair, either direction

  double DirectedPrecision() const;
  double DirectedRecall() const;
  double UndirectedPrecision() const;
  double UndirectedRecall() const;
  double DirectedF1() const;
};

GraphComparison CompareGraphs(const ModelGraph& truth,
                              const ModelGraph& recovered);

}  // namespace mlake::versioning

#endif  // MLAKE_VERSIONING_MODEL_GRAPH_H_
