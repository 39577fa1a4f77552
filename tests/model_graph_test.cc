#include "versioning/model_graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/string_util.h"
#include "digest_reference.h"

namespace mlake::versioning {
namespace {

VersionEdge Edge(const std::string& parent, const std::string& child,
                 EdgeType type = EdgeType::kFinetune) {
  VersionEdge e;
  e.parent = parent;
  e.child = child;
  e.type = type;
  return e;
}

ModelGraph Chain() {
  // base -> mid -> leaf, base -> side
  ModelGraph g;
  MLAKE_CHECK(g.AddEdge(Edge("base", "mid")).ok());
  MLAKE_CHECK(g.AddEdge(Edge("mid", "leaf", EdgeType::kLora)).ok());
  MLAKE_CHECK(g.AddEdge(Edge("base", "side", EdgeType::kEdit)).ok());
  return g;
}

TEST(EdgeTypeTest, StringRoundTrip) {
  for (EdgeType t :
       {EdgeType::kFinetune, EdgeType::kLora, EdgeType::kEdit,
        EdgeType::kStitch, EdgeType::kPrune, EdgeType::kDistill,
        EdgeType::kNoise, EdgeType::kUnknown}) {
    auto back = EdgeTypeFromString(EdgeTypeToString(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.ValueUnsafe(), t);
  }
  EXPECT_TRUE(EdgeTypeFromString("magic").status().IsInvalidArgument());
}

TEST(ModelGraphTest, AddAndQuery) {
  ModelGraph g = Chain();
  EXPECT_EQ(g.NumModels(), 4u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_TRUE(g.HasModel("mid"));
  EXPECT_FALSE(g.HasModel("stranger"));
  EXPECT_TRUE(g.HasEdge("base", "mid"));
  EXPECT_FALSE(g.HasEdge("mid", "base"));

  EXPECT_EQ(g.Parents("leaf"), std::vector<std::string>{"mid"});
  EXPECT_EQ(g.Children("base"),
            (std::vector<std::string>{"mid", "side"}));
  EXPECT_TRUE(g.Parents("base").empty());
}

TEST(ModelGraphTest, AncestorsAndDescendants) {
  ModelGraph g = Chain();
  EXPECT_EQ(g.Ancestors("leaf"), (std::vector<std::string>{"base", "mid"}));
  EXPECT_EQ(g.Descendants("base"),
            (std::vector<std::string>{"leaf", "mid", "side"}));
  EXPECT_TRUE(g.Descendants("leaf").empty());
}

TEST(ModelGraphTest, RootsAndDepth) {
  ModelGraph g = Chain();
  g.AddModel("orphan");
  auto roots = g.Roots();
  std::sort(roots.begin(), roots.end());
  EXPECT_EQ(roots, (std::vector<std::string>{"base", "orphan"}));
  EXPECT_EQ(g.Depth("base").ValueOrDie(), 0);
  EXPECT_EQ(g.Depth("mid").ValueOrDie(), 1);
  EXPECT_EQ(g.Depth("leaf").ValueOrDie(), 2);
  EXPECT_TRUE(g.Depth("nobody").status().IsNotFound());
}

// RemoveModel is the rollback primitive of crash recovery: it must drop
// the node, every incident edge, and keep adjacency queries coherent.
TEST(ModelGraphTest, RemoveModelDropsNodeAndIncidentEdges) {
  ModelGraph g = Chain();
  uint64_t rev = g.revision();
  EXPECT_TRUE(g.RemoveModel("mid"));
  EXPECT_GT(g.revision(), rev);
  EXPECT_FALSE(g.HasModel("mid"));
  EXPECT_EQ(g.NumModels(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);  // only base->side survives
  EXPECT_FALSE(g.HasEdge("base", "mid"));
  EXPECT_FALSE(g.HasEdge("mid", "leaf"));
  EXPECT_TRUE(g.HasEdge("base", "side"));
  EXPECT_TRUE(g.Parents("leaf").empty());
  EXPECT_EQ(g.Children("base"), std::vector<std::string>{"side"});
  // Removing an unknown id is a no-op and does not bump the revision.
  rev = g.revision();
  EXPECT_FALSE(g.RemoveModel("stranger"));
  EXPECT_EQ(g.revision(), rev);
}

TEST(ModelGraphTest, TopoSortRespectsEdges) {
  ModelGraph g = Chain();
  std::vector<std::string> order = g.TopoSort();
  ASSERT_EQ(order.size(), 4u);
  auto pos = [&](const std::string& id) {
    return std::find(order.begin(), order.end(), id) - order.begin();
  };
  EXPECT_LT(pos("base"), pos("mid"));
  EXPECT_LT(pos("mid"), pos("leaf"));
  EXPECT_LT(pos("base"), pos("side"));
}

TEST(ModelGraphTest, RejectsBadEdges) {
  ModelGraph g = Chain();
  EXPECT_TRUE(g.AddEdge(Edge("x", "x")).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(Edge("", "y")).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(Edge("base", "mid")).IsAlreadyExists());
  // Cycle: leaf -> base closes base -> mid -> leaf.
  EXPECT_TRUE(g.AddEdge(Edge("leaf", "base")).IsFailedPrecondition());
  // Two parents are fine (stitching).
  EXPECT_TRUE(g.AddEdge(Edge("side", "leaf", EdgeType::kStitch)).ok());
  EXPECT_EQ(g.Parents("leaf").size(), 2u);
}

TEST(ModelGraphTest, RevisionBumpsOnEveryMutation) {
  ModelGraph g;
  uint64_t r0 = g.revision();
  g.AddModel("a");
  EXPECT_GT(g.revision(), r0);
  uint64_t r1 = g.revision();
  g.AddModel("a");  // idempotent: no bump
  EXPECT_EQ(g.revision(), r1);
  ASSERT_TRUE(g.AddEdge(Edge("a", "b")).ok());
  EXPECT_GT(g.revision(), r1);
}

TEST(ModelGraphTest, JsonRoundTrip) {
  ModelGraph g = Chain();
  g.AddModel("orphan");
  Json params = Json::MakeObject();
  params.Set("rank", 4);
  VersionEdge e = Edge("side", "grand", EdgeType::kLora);
  e.params = params;
  e.confidence = 0.75;
  ASSERT_TRUE(g.AddEdge(e).ok());

  auto back = ModelGraph::FromJson(g.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const ModelGraph& g2 = back.ValueUnsafe();
  EXPECT_EQ(g2.NumModels(), g.NumModels());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  EXPECT_EQ(g2.revision(), g.revision());
  EXPECT_TRUE(g2.HasEdge("side", "grand"));
  // Edge payload preserved.
  for (const VersionEdge& edge : g2.Edges()) {
    if (edge.child == "grand") {
      EXPECT_EQ(edge.type, EdgeType::kLora);
      EXPECT_EQ(edge.params.GetInt64("rank"), 4);
      EXPECT_DOUBLE_EQ(edge.confidence, 0.75);
    }
  }
}

TEST(ModelGraphTest, FromJsonRejectsCorruptDocs) {
  EXPECT_FALSE(ModelGraph::FromJson(Json("not an object")).ok());
  auto bad_edge = Json::Parse(
      R"({"models": ["a"], "edges": [{"parent": "a", "child": "a",
          "type": "finetune"}]})");
  ASSERT_TRUE(bad_edge.ok());
  EXPECT_FALSE(ModelGraph::FromJson(bad_edge.ValueUnsafe()).ok());
}

/// The edge digest rebuilt from the graph's current edge list.
digest_reference::Bytes32 ReferenceEdgeDigest(const ModelGraph& g) {
  std::vector<digest_reference::Bytes32> records;
  for (const VersionEdge& e : g.Edges()) {
    std::string canonical = StrFormat(
        "edge|%s|%s|%s|%.17g|%s", e.parent.c_str(), e.child.c_str(),
        std::string(EdgeTypeToString(e.type)).c_str(), e.confidence,
        e.params.is_null() ? "" : e.params.Dump().c_str());
    records.push_back(digest_reference::Sha(canonical));
  }
  return digest_reference::Sum(records);
}

TEST(ModelGraphTest, EdgeDigestTracksAddRemoveAndJson) {
  Rng rng(11);
  ModelGraph g;
  EXPECT_EQ(g.edge_digest(), SetDigest());
  int removals = 0;
  for (int op = 0; op < 600; ++op) {
    std::string a = StrFormat("m%02d", static_cast<int>(rng.NextBelow(30)));
    std::string b = StrFormat("m%02d", static_cast<int>(rng.NextBelow(30)));
    if (rng.NextDouble() < 0.85) {
      // Only low -> high ids, so no edge can close a cycle.
      VersionEdge e = Edge(std::min(a, b), std::max(a, b),
                           static_cast<EdgeType>(rng.NextBelow(8)));
      e.confidence = rng.NextDouble();
      if (rng.NextDouble() < 0.5) {
        e.params = Json::MakeObject();
        e.params.Set("rank", static_cast<int64_t>(rng.NextBelow(16)));
      }
      (void)g.AddEdge(e);  // self-loops and duplicates are refused
    } else if (g.RemoveModel(a)) {
      ++removals;
    }
    ASSERT_EQ(g.edge_digest().bytes(), ReferenceEdgeDigest(g)) << "op " << op;
  }
  EXPECT_GT(removals, 0);
  EXPECT_GT(g.NumEdges(), 0u);
  // Deserialization rebuilds the same digest through AddEdge.
  ModelGraph back = ModelGraph::FromJson(g.ToJson()).ValueOrDie();
  EXPECT_EQ(back.edge_digest(), g.edge_digest());
  // Node-only changes and the revision are not part of it.
  SetDigest before = g.edge_digest();
  g.AddModel("lonely");
  EXPECT_EQ(g.edge_digest(), before);
  EXPECT_TRUE(g.RemoveModel("lonely"));
  EXPECT_EQ(g.edge_digest(), before);
}

TEST(CompareGraphsTest, Metrics) {
  ModelGraph truth;
  ASSERT_TRUE(truth.AddEdge(Edge("a", "b")).ok());
  ASSERT_TRUE(truth.AddEdge(Edge("b", "c")).ok());
  ASSERT_TRUE(truth.AddEdge(Edge("a", "d")).ok());

  ModelGraph recovered;
  ASSERT_TRUE(recovered.AddEdge(Edge("a", "b")).ok());   // correct
  ASSERT_TRUE(recovered.AddEdge(Edge("c", "b")).ok());   // reversed
  ASSERT_TRUE(recovered.AddEdge(Edge("a", "z")).ok());   // wrong

  GraphComparison cmp = CompareGraphs(truth, recovered);
  EXPECT_EQ(cmp.truth_edges, 3u);
  EXPECT_EQ(cmp.recovered_edges, 3u);
  EXPECT_EQ(cmp.correct_directed, 1u);
  EXPECT_EQ(cmp.correct_undirected, 2u);
  EXPECT_DOUBLE_EQ(cmp.DirectedPrecision(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cmp.DirectedRecall(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(cmp.UndirectedPrecision(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(cmp.UndirectedRecall(), 2.0 / 3.0);
  EXPECT_NEAR(cmp.DirectedF1(), 1.0 / 3.0, 1e-9);
}

TEST(CompareGraphsTest, EmptyGraphs) {
  ModelGraph empty;
  GraphComparison cmp = CompareGraphs(empty, empty);
  EXPECT_DOUBLE_EQ(cmp.DirectedPrecision(), 0.0);
  EXPECT_DOUBLE_EQ(cmp.DirectedRecall(), 0.0);
  EXPECT_DOUBLE_EQ(cmp.DirectedF1(), 0.0);
}

}  // namespace
}  // namespace mlake::versioning
