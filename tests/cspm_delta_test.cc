// The live-update suite: transactional graph deltas, the incremental
// inverted-database patch, warm re-mining through MiningSession::
// ApplyUpdates (always compared bit-for-bit against a cold re-mine of the
// mutated graph), serving hot-swap, and WAL crash recovery. Runs under
// the ASan job in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cspm/code_model.h"
#include "cspm/gain.h"
#include "cspm/inverted_database.h"
#include "cspm/miner.h"
#include "cspm/serialization.h"
#include "cspm/verify.h"
#include "datasets/synthetic.h"
#include "engine/session.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "store/model_store.h"
#include "testing_util.h"
#include "util/rng.h"

namespace cspm {
namespace {

using core::InvertedDatabase;
using graph::AttributedGraph;
using graph::DeltaApplication;
using graph::GraphDelta;
using graph::VertexId;
using testing::PaperExampleGraph;

// --- helpers --------------------------------------------------------------

/// Structural fingerprint of a graph, for patched-vs-rebuilt comparisons.
std::string GraphFingerprint(const AttributedGraph& g) {
  std::string out;
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    // Sequential appends, not `"v" + std::to_string(...) + ":"`: the
    // temporary-chain form trips g++ 12's libstdc++ operator+ -Wrestrict
    // false positive under -Werror (GCC PR105651).
    out += "v";
    out += std::to_string(v.value());
    out += ":";
    for (graph::AttrId a : g.Attributes(v)) out += g.dict().Name(a) + ",";
    out += "|";
    for (VertexId w : g.Neighbors(v)) out += std::to_string(w.value()) + ",";
    out += "\n";
  }
  for (graph::AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    out += g.dict().Name(a) + ":";
    for (VertexId v : g.VerticesWithAttribute(a)) {
      out += std::to_string(v.value()) + ",";
    }
    out += "\n";
  }
  return out;
}

/// Rebuilds a graph from another graph's data through GraphBuilder — the
/// ground truth the CSR splice must match.
AttributedGraph RebuildFromScratch(const AttributedGraph& g) {
  graph::GraphBuilder b;
  for (graph::AttrId a(0); a.index() < g.num_attribute_values(); ++a) {
    b.InternAttribute(g.dict().Name(a));
  }
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    auto attrs = g.Attributes(v);
    b.AddVertexWithIds({attrs.begin(), attrs.end()});
  }
  for (VertexId v(0); v < g.num_vertices(); ++v) {
    for (VertexId w : g.Neighbors(v)) {
      if (v < w) {
        EXPECT_TRUE(b.AddEdge(v, w).ok());
      }
    }
  }
  return std::move(std::move(b).Build()).value();
}

/// Full observable state of an inverted database: every line keyed by
/// (coreset values, leafset values) with its positions, plus the dynamic
/// totals the gain formulas consume.
std::string IdbFingerprint(const InvertedDatabase& idb) {
  std::string out;
  idb.ForEachLine([&](core::CoreId e, core::LeafsetId l,
                      core::PosListView positions) {
    out += "e";  // sequential appends: see GraphFingerprint's -Wrestrict note
    out += std::to_string(e.value());
    out += "[";
    for (graph::AttrId a : idb.CoresetValues(e)) {
      out += std::to_string(a.value()) + ",";
    }
    out += "]L[";
    for (graph::AttrId a : idb.leafsets().Values(l)) {
      out += std::to_string(a.value()) + ",";
    }
    out += "]:";
    for (VertexId v : positions) out += std::to_string(v.value()) + ",";
    out += " f_e=" + std::to_string(idb.CoreLineTotal(e));
    out += " freq=" + std::to_string(idb.CoresetFrequency(e));
    out += "\n";
  });
  out += "lines=" + std::to_string(idb.num_lines());
  out += " active=" + std::to_string(idb.num_active_leafsets());
  out += " total_freq=" + std::to_string(idb.total_coreset_frequency());
  out += " data_bits=" + std::to_string(idb.DataCostBits());
  return out;
}

/// Asserts that patching the old graph's initial database yields exactly
/// the database a cold FromGraph build of the new graph produces.
void ExpectPatchMatchesColdBuild(const AttributedGraph& g,
                                 const GraphDelta& delta) {
  auto applied_or = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied_or.ok()) << applied_or.status().ToString();
  const DeltaApplication& applied = applied_or.value();

  InvertedDatabase patched = std::move(InvertedDatabase::FromGraph(g)).value();
  core::DeltaPatchStats stats;
  ASSERT_TRUE(patched
                  .ApplyDelta(g, applied.graph, applied.dirty_vertices, &stats)
                  .ok());
  InvertedDatabase cold =
      std::move(InvertedDatabase::FromGraph(applied.graph)).value();
  EXPECT_EQ(IdbFingerprint(patched), IdbFingerprint(cold));
}

engine::MiningOptions UpdatableOptions() {
  engine::MiningOptions opts;
  opts.enable_updates = true;
  return opts;
}

/// Mines `g` under `options`, applies `deltas` one by one through
/// ApplyUpdates, and asserts the resulting model is bit-identical
/// (serialized text, DL, iteration count) to a cold re-mine of the final
/// mutated graph.
void ExpectWarmEqualsColdRemineWith(const AttributedGraph& g,
                                    const std::vector<GraphDelta>& deltas,
                                    engine::MiningOptions options,
                                    bool expect_warm) {
  auto session_or = engine::MiningSession::Create(g, options);
  ASSERT_TRUE(session_or.ok());
  engine::MiningSession session = std::move(session_or).value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  for (const GraphDelta& delta : deltas) {
    Status st = session.ApplyUpdates(delta, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.warm_path, expect_warm);
  }

  auto cold_or = engine::MiningSession::Create(session.graph(), options);
  ASSERT_TRUE(cold_or.ok());
  engine::MiningSession cold = std::move(cold_or).value();
  ASSERT_TRUE(cold.Mine().ok());

  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
  EXPECT_EQ(session.stats().initial_dl_bits, cold.stats().initial_dl_bits);
  EXPECT_EQ(session.stats().iterations, cold.stats().iterations);
}

void ExpectWarmEqualsColdRemine(const AttributedGraph& g,
                                const std::vector<GraphDelta>& deltas) {
  ExpectWarmEqualsColdRemineWith(g, deltas, UpdatableOptions(),
                                 /*expect_warm=*/true);
}

AttributedGraph SmallCommunityGraph(uint64_t seed) {
  Rng rng(seed);
  return std::move(graph::ErdosRenyi(160, 0.06, 14, 3, &rng)).value();
}

GraphDelta RandomEdgeDelta(const AttributedGraph& g, uint32_t ops,
                           uint64_t seed) {
  auto delta = graph::MakeRandomEdgeRewires(g, ops, seed);
  EXPECT_TRUE(delta.ok());
  return std::move(delta).value();
}

// --- graph-level delta tests ----------------------------------------------

TEST(GraphDeltaTest, EdgeOpsMatchRebuiltGraph) {
  AttributedGraph g = SmallCommunityGraph(3);
  GraphDelta delta = RandomEdgeDelta(g, 12, 99);
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied->attributes_changed);
  EXPECT_EQ(GraphFingerprint(applied->graph),
            GraphFingerprint(RebuildFromScratch(applied->graph)));
  EXPECT_EQ(applied->graph.num_edges(), g.num_edges());  // rewires balance
}

TEST(GraphDeltaTest, AttributeAndVertexOpsMatchRebuiltGraph) {
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.SetAttribute(VertexId(0), "d");            // new attribute value
  delta.ClearAttribute(VertexId(1), "c");
  const size_t idx = delta.AddVertex({"a", "d"});
  delta.AddEdge(VertexId(g.num_vertices().value() + static_cast<uint32_t>(idx)),
                VertexId(2));
  delta.RemoveEdge(VertexId(0), VertexId(3));
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->attributes_changed);
  EXPECT_EQ(applied->first_new_vertex, g.num_vertices());
  EXPECT_EQ(applied->graph.num_vertices().value(), g.num_vertices().value() + 1);
  EXPECT_TRUE(applied->graph.HasAttribute(
      VertexId(0), applied->graph.dict().Find("d")));
  EXPECT_EQ(GraphFingerprint(applied->graph),
            GraphFingerprint(RebuildFromScratch(applied->graph)));
}

TEST(GraphDeltaTest, RejectsInvalidOpsWithoutApplying) {
  AttributedGraph g = PaperExampleGraph();
  {
    GraphDelta d;
    d.RemoveEdge(VertexId(0), VertexId(4));  // not an edge
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(0), VertexId(1));  // already present
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(2), VertexId(2));  // self-loop
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.SetAttribute(VertexId(1), "a");  // vertex 1 already carries a
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.ClearAttribute(VertexId(0), "b");  // vertex 0 does not carry b
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
  {
    GraphDelta d;
    d.AddEdge(VertexId(0), VertexId(99));  // unknown vertex
    EXPECT_FALSE(graph::ApplyDelta(g, d).ok());
  }
}

TEST(GraphDeltaTest, AttributeOpMarksNeighboursDirty) {
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.ClearAttribute(VertexId(4), "b");  // v5; neighbours v3 (2) and v4 (3)
  auto applied = graph::ApplyDelta(g, delta);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied->dirty_vertices, (std::vector<VertexId>{VertexId(2), VertexId(3), VertexId(4)}));
}

// --- inverted-database patch tests ----------------------------------------

TEST(InvertedDeltaTest, PatchMatchesColdBuildAcrossGraphsAndDeltas) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectPatchMatchesColdBuild(g, RandomEdgeDelta(g, 10, seed * 7 + 1));
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(1, 250)).value();
  ExpectPatchMatchesColdBuild(dblp, RandomEdgeDelta(dblp, 8, 5));

  // Attribute + vertex ops on the paper example.
  AttributedGraph g = PaperExampleGraph();
  GraphDelta delta;
  delta.SetAttribute(VertexId(2), "b");
  delta.ClearAttribute(VertexId(1), "a");
  delta.AddVertex({"c", "d"});
  delta.AddEdge(VertexId(5), VertexId(0));
  ExpectPatchMatchesColdBuild(g, delta);
}

TEST(InvertedDeltaTest, RemoveLastEdgeOfStar) {
  // v0:{a} - v1:{b} plus a far pair keeping the graph non-trivial. Removing
  // v0-v1 erases the last line of leafset {b} under core a (and vice
  // versa); the leafsets must deactivate exactly as in a cold build.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertex({"c"});
  b.AddVertex({"c"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  ExpectPatchMatchesColdBuild(g, delta);
  ExpectWarmEqualsColdRemine(g, {delta});
}

TEST(InvertedDeltaTest, DeltaOnVertexAbsentFromEveryLeafset) {
  // Vertex 2 carries no attributes: it appears in no line's positions
  // under any coreset and in no leafset. Rewiring it must still patch its
  // neighbours' lines correctly.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertexWithIds({});  // attribute-less vertex 2
  b.AddVertex({"a", "b"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(1), VertexId(2)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(1), VertexId(2));
  delta.AddEdge(VertexId(0), VertexId(2));
  ExpectPatchMatchesColdBuild(g, delta);
  ExpectWarmEqualsColdRemine(g, {delta});
}

// --- end-to-end ApplyUpdates bit-identity ----------------------------------

TEST(ApplyUpdatesTest, EdgeDeltaBitIdenticalToColdRemine) {
  for (uint64_t seed : {1u, 4u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectWarmEqualsColdRemine(g, {RandomEdgeDelta(g, 8, seed + 10)});
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(2, 300)).value();
  ExpectWarmEqualsColdRemine(dblp, {RandomEdgeDelta(dblp, 6, 11)});
}

TEST(ApplyUpdatesTest, AttributeDeltaBitIdenticalToColdRemine) {
  // Any attribute-frequency change invalidates the whole code model; the
  // warm path regenerates every candidate but still reuses the patched
  // database — and must stay bit-identical.
  AttributedGraph g = SmallCommunityGraph(2);
  GraphDelta delta;
  delta.SetAttribute(VertexId(3), "brand-new-value");
  delta.ClearAttribute(VertexId(0),
                       g.dict().Name(g.Attributes(VertexId(0))[0]));
  ExpectWarmEqualsColdRemine(g, {delta});
}

TEST(ApplyUpdatesTest, AddVertexWithEdgesBitIdenticalToColdRemine) {
  AttributedGraph g = SmallCommunityGraph(5);
  GraphDelta delta;
  delta.AddVertex(
      {g.dict().Name(graph::AttrId(0)), g.dict().Name(graph::AttrId(1))});
  delta.AddEdge(g.num_vertices(), VertexId(0));
  delta.AddEdge(g.num_vertices(), VertexId(17));
  ExpectWarmEqualsColdRemine(g, {delta});
}

TEST(ApplyUpdatesTest, SequentialUpdatesStayBitIdentical) {
  AttributedGraph g = SmallCommunityGraph(6);
  std::vector<GraphDelta> deltas;
  // The graph evolves between deltas, so later ops are sampled blind; the
  // helper applies them in order against the evolving session.
  deltas.push_back(RandomEdgeDelta(g, 4, 21));
  {
    GraphDelta d2;
    d2.SetAttribute(VertexId(7), "late-value");
    deltas.push_back(d2);
  }
  {
    GraphDelta d3;
    d3.ClearAttribute(VertexId(7), "late-value");
    deltas.push_back(d3);
  }
  ExpectWarmEqualsColdRemine(g, deltas);
}

TEST(ApplyUpdatesTest, AttributeClearedThenReAddedRestoresModel) {
  AttributedGraph g = SmallCommunityGraph(8);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string original = session.SerializeModel();
  const std::string name = g.dict().Name(g.Attributes(VertexId(12))[0]);
  GraphDelta clear;
  clear.ClearAttribute(VertexId(12), name);
  ASSERT_TRUE(session.ApplyUpdates(clear, nullptr).ok());
  GraphDelta re_add;
  re_add.SetAttribute(VertexId(12), name);
  ASSERT_TRUE(session.ApplyUpdates(re_add, nullptr).ok());
  EXPECT_EQ(session.SerializeModel(), original);
}

TEST(ApplyUpdatesTest, ColdFallbackWithoutWarmState) {
  AttributedGraph g = SmallCommunityGraph(9);
  ExpectWarmEqualsColdRemineWith(g, {RandomEdgeDelta(g, 4, 33)},
                                 engine::MiningOptions{},
                                 /*expect_warm=*/false);
}

TEST(ApplyUpdatesTest, RequiresAMinedModel) {
  AttributedGraph g = PaperExampleGraph();
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  EXPECT_FALSE(session.ApplyUpdates(delta, nullptr).ok());
}

TEST(ApplyUpdatesTest, InvalidDeltaLeavesSessionUntouched) {
  AttributedGraph g = SmallCommunityGraph(10);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  const std::string before = session.SerializeModel();
  GraphDelta bad;
  bad.AddEdge(VertexId(0), VertexId(0));  // self-loop
  EXPECT_FALSE(session.ApplyUpdates(bad, nullptr).ok());
  EXPECT_EQ(session.SerializeModel(), before);
  EXPECT_EQ(&session.graph(), &g);  // graph not swapped
  // The session still updates fine afterwards.
  engine::UpdateStats stats;
  ASSERT_TRUE(session.ApplyUpdates(RandomEdgeDelta(g, 2, 51), &stats).ok());
  EXPECT_TRUE(stats.warm_path);
}

// --- fast (continue-from-final-model) updates -------------------------------

/// Mines warm and applies `deltas` in fast mode. A delta that leaves
/// every attribute count alone runs the fast path; one that changes
/// attributes moves every code length and runs exactly instead
/// (fast_path false). The final model is then checked against a cold mine
/// of the final mutated graph: bit-identical when the last delta changed
/// attributes, otherwise within the DL-ε contract — its description
/// length within 1% of cold. (It may be *better* — the repair re-judges
/// neighbourhoods the partial heuristic never revisits — hence the
/// generous lower bound.)
void ExpectFastUpdatesMatchCold(const AttributedGraph& g,
                                const std::vector<GraphDelta>& deltas) {
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  bool last_changed_attributes = false;
  for (const GraphDelta& delta : deltas) {
    auto applied = graph::ApplyDelta(session.graph(), delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    last_changed_attributes = applied->attributes_changed;
    Status st = session.ApplyUpdates(delta, engine::UpdateMode::kFast, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.fast_path, !last_changed_attributes);
    EXPECT_TRUE(stats.warm_path);
    EXPECT_GT(stats.dl_before_bits, 0.0);
    EXPECT_GT(stats.dl_after_bits, 0.0);
  }

  auto cold_or = engine::MiningSession::Create(session.graph(),
                                               UpdatableOptions());
  ASSERT_TRUE(cold_or.ok());
  engine::MiningSession cold = std::move(cold_or).value();
  ASSERT_TRUE(cold.Mine().ok());
  if (last_changed_attributes) {
    EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
    EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
    return;
  }
  const double ratio =
      session.stats().final_dl_bits / cold.stats().final_dl_bits;
  EXPECT_LE(ratio, 1.01) << "fast model DL drifted above the ε contract";
  EXPECT_GE(ratio, 0.90) << "fast model DL implausibly low — check gains";
}

TEST(FastUpdateTest, EdgeDeltaDlWithinEpsilon) {
  for (uint64_t seed : {1u, 4u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    ExpectFastUpdatesMatchCold(g, {RandomEdgeDelta(g, 8, seed + 10)});
  }
  AttributedGraph dblp = std::move(datasets::MakeDblpLike(2, 300)).value();
  ExpectFastUpdatesMatchCold(dblp, {RandomEdgeDelta(dblp, 6, 11)});
}

TEST(FastUpdateTest, AttributeDeltaMinesExactly) {
  // An attribute change moves every code length, so nothing of the final
  // model carries over: a kFast request re-mines exactly, bit-identical
  // to a cold mine.
  AttributedGraph g = SmallCommunityGraph(2);
  GraphDelta delta;
  delta.SetAttribute(VertexId(3), "brand-new-value");
  delta.ClearAttribute(VertexId(0),
                       g.dict().Name(g.Attributes(VertexId(0))[0]));
  ExpectFastUpdatesMatchCold(g, {delta});
}

TEST(FastUpdateTest, AddVertexWithEdgesMinesExactly) {
  // The added vertex carries attributes, so this is an attribute change.
  AttributedGraph g = SmallCommunityGraph(5);
  GraphDelta delta;
  delta.AddVertex(
      {g.dict().Name(graph::AttrId(0)), g.dict().Name(graph::AttrId(1))});
  delta.AddEdge(g.num_vertices(), VertexId(0));
  delta.AddEdge(g.num_vertices(), VertexId(17));
  ExpectFastUpdatesMatchCold(g, {delta});
}

TEST(FastUpdateTest, SequentialFastUpdatesMatchCold) {
  // The edge delta repairs final_db in place; the attribute deltas after
  // it re-mine exactly, which must rebuild the pre-merge database the
  // fast update left stale and end bit-identical to a cold mine.
  AttributedGraph g = SmallCommunityGraph(6);
  std::vector<GraphDelta> deltas;
  deltas.push_back(RandomEdgeDelta(g, 4, 21));
  {
    GraphDelta d2;
    d2.SetAttribute(VertexId(7), "late-value");
    deltas.push_back(d2);
  }
  {
    GraphDelta d3;
    d3.ClearAttribute(VertexId(7), "late-value");
    deltas.push_back(d3);
  }
  ExpectFastUpdatesMatchCold(g, deltas);
}

TEST(FastUpdateTest, RemoveLastEdgeOfStarDlWithinEpsilon) {
  // The tiny graph whose delta erases a leafset's final line; the merged
  // patch must deactivate it and the fast re-mine must stay valid.
  graph::GraphBuilder b;
  b.AddVertex({"a"});
  b.AddVertex({"b"});
  b.AddVertex({"c"});
  b.AddVertex({"c"});
  EXPECT_TRUE(b.AddEdge(VertexId(0), VertexId(1)).ok());
  EXPECT_TRUE(b.AddEdge(VertexId(2), VertexId(3)).ok());
  AttributedGraph g = std::move(std::move(b).Build()).value();
  GraphDelta delta;
  delta.RemoveEdge(VertexId(0), VertexId(1));
  ExpectFastUpdatesMatchCold(g, {delta});
}

TEST(FastUpdateTest, ExactUpdateAfterFastRebuildsBitIdentity) {
  // A fast update leaves the exact path's pristine database stale; the
  // next kExact update must rebuild it and land bit-identical to a cold
  // mine of the final graph — the two-mode contract's hard edge.
  AttributedGraph g = SmallCommunityGraph(11);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(g, 4, 61),
                                engine::UpdateMode::kFast, &stats)
                  .ok());
  ASSERT_TRUE(stats.fast_path);
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(session.graph(), 4, 62),
                                engine::UpdateMode::kExact, &stats)
                  .ok());
  EXPECT_FALSE(stats.fast_path);
  EXPECT_TRUE(stats.warm_path);

  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);
  EXPECT_EQ(session.stats().iterations, cold.stats().iterations);
}

TEST(FastUpdateTest, FastModeFallsBackToExactWithoutWarmState) {
  // Without enable_updates there is no warm state: kFast degrades to the
  // cold-rebuild behaviour and still reports an honest fast_path=false.
  AttributedGraph g = SmallCommunityGraph(9);
  auto session =
      std::move(engine::MiningSession::Create(g, engine::MiningOptions{}))
          .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::UpdateStats stats;
  ASSERT_TRUE(session
                  .ApplyUpdates(RandomEdgeDelta(g, 4, 33),
                                engine::UpdateMode::kFast, &stats)
                  .ok());
  EXPECT_FALSE(stats.fast_path);
  EXPECT_FALSE(stats.warm_path);

  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      engine::MiningOptions{}))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
}

TEST(FastUpdateTest, ApplyDeltaMergedKeepsDbValidAndLossless) {
  // The merged-database patch must leave a structurally sound, lossless
  // cover of the new graph (the repair pass assumes both).
  for (uint64_t seed : {1u, 2u, 3u}) {
    AttributedGraph g = SmallCommunityGraph(seed);
    core::CspmMiner miner{core::CspmOptions{}};
    core::WarmState warm;
    ASSERT_TRUE(miner.MineWithWarmState(g, &warm).ok());
    ASSERT_GT(warm.final_db.num_coresets(), 0u);

    GraphDelta delta = RandomEdgeDelta(g, 6, seed * 3 + 2);
    auto applied = std::move(graph::ApplyDelta(g, delta)).value();
    core::DeltaPatchStats stats;
    Status st = warm.final_db.ApplyDeltaMerged(g, applied.graph,
                                               applied.dirty_vertices, &stats);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(stats.touched_leafsets.size(),
              stats.touched_position_moves.size());
    Status invariants = core::CheckInvariants(warm.final_db);
    EXPECT_TRUE(invariants.ok()) << invariants.ToString();
    Status lossless = core::VerifyLossless(applied.graph, warm.final_db);
    EXPECT_TRUE(lossless.ok()) << lossless.ToString();
  }
}

TEST(FastUpdateTest, SplitGainMatchesDataCostDelta) {
  // ComputeSplitGain's data term must be the exact negated change of
  // DataCostBits when the line is actually split.
  AttributedGraph g = SmallCommunityGraph(7);
  InvertedDatabase idb = std::move(InvertedDatabase::FromGraph(g)).value();
  const core::CodeModel cm(g, idb);

  // Merge the first feasible pair so there is a multi-value line to split.
  core::LeafsetId merged{};
  bool found = false;
  const std::vector<core::LeafsetId> actives = idb.active_leafsets();
  for (size_t i = 0; i < actives.size() && !found; ++i) {
    for (size_t j = i + 1; j < actives.size() && !found; ++j) {
      if (core::ComputeMergeGain(idb, cm, actives[i], actives[j]).feasible) {
        merged = idb.MergeLeafsets(actives[i], actives[j]).merged_id;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  while (!idb.CoresOf(merged).empty()) {
    const core::CoreId e = idb.CoresOf(merged)[0];
    core::GainResult split = core::ComputeSplitGain(idb, cm, e, merged);
    ASSERT_TRUE(split.feasible);
    const double before = idb.DataCostBits();
    ASSERT_TRUE(idb.SplitLine(e, merged).ok());
    EXPECT_NEAR(split.data_gain_bits, before - idb.DataCostBits(), 1e-6);
  }
  Status invariants = core::CheckInvariants(idb);
  EXPECT_TRUE(invariants.ok()) << invariants.ToString();

  // Infeasible shapes: a singleton line and an absent line.
  const std::vector<core::LeafsetId> singletons = idb.active_leafsets();
  ASSERT_FALSE(singletons.empty());
  const core::LeafsetId s = singletons[0];
  ASSERT_FALSE(idb.CoresOf(s).empty());
  EXPECT_FALSE(core::ComputeSplitGain(idb, cm, idb.CoresOf(s)[0], s).feasible);
  EXPECT_FALSE(idb.SplitLine(idb.CoresOf(s)[0], merged).ok());
}

// --- serving hot-swap -------------------------------------------------------

TEST(HotSwapTest, InFlightEngineKeepsOldTripleNewServeSeesUpdate) {
  AttributedGraph g = SmallCommunityGraph(11);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  auto old_engine = std::move(session.Serve()).value();
  const auto old_scores = old_engine.ScoreAll();

  engine::ModelRegistry registry;
  ASSERT_TRUE(session.Publish(registry, "live").ok());
  auto old_handle = registry.Get("live");

  GraphDelta delta = RandomEdgeDelta(g, 6, 77);
  ASSERT_TRUE(session.ApplyUpdates(delta, nullptr).ok());
  ASSERT_TRUE(session.Publish(registry, "live").ok());

  // The pre-update engine still scores the old graph+model+plan triple,
  // bit-identically, even though the session moved on.
  const auto replay = old_engine.ScoreAll();
  ASSERT_EQ(replay.size(), old_scores.size());
  for (size_t v = 0; v < replay.size(); ++v) {
    EXPECT_EQ(replay[v].raw, old_scores[v].raw) << "vertex " << v;
  }
  // The pre-update registry handle still holds the old triple; the swap
  // installed a distinct handle for new lookups.
  EXPECT_NE(old_handle, registry.Get("live"));

  // A fresh engine sees the updated model; it matches a cold session over
  // the mutated graph.
  auto new_engine = std::move(session.Serve()).value();
  auto cold = std::move(engine::MiningSession::Create(session.graph(),
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  auto cold_engine = std::move(cold.Serve()).value();
  const auto new_scores = new_engine.ScoreAll();
  const auto cold_scores = cold_engine.ScoreAll();
  ASSERT_EQ(new_scores.size(), cold_scores.size());
  for (size_t v = 0; v < new_scores.size(); ++v) {
    EXPECT_EQ(new_scores[v].raw, cold_scores[v].raw) << "vertex " << v;
  }
}

TEST(HotSwapTest, PublishedHandleOutlivesCallerGraph) {
  // Pre-update sessions alias the caller's graph; Publish must snapshot
  // it so registry handles never dangle with the caller's scope (caught
  // under ASan).
  engine::ModelRegistry registry;
  {
    AttributedGraph g = SmallCommunityGraph(13);
    auto session =
        std::move(engine::MiningSession::Create(g, UpdatableOptions()))
            .value();
    ASSERT_TRUE(session.Mine().ok());
    ASSERT_TRUE(session.Publish(registry, "ephemeral").ok());
  }  // caller's graph destroyed here
  auto handle = registry.Get("ephemeral");
  ASSERT_NE(handle, nullptr);
  EXPECT_TRUE(handle->ScoreVertex(VertexId(0)).ok());
}

// --- WAL crash recovery -----------------------------------------------------

TEST(WalReplayTest, CrashTruncatedTailRecoversPrefixBitIdentical) {
  const std::string path = ::testing::TempDir() + "/cspm_wal_crash.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(12);
  GraphDelta d1 = RandomEdgeDelta(g, 4, 41);
  // d2 carries a long marker attribute name so the test can locate its WAL
  // record's bytes in the file and corrupt them (the simulated torn tail).
  const std::string marker = "CANARY_ATTRIBUTE_VALUE_FOR_TAIL_RECORD";
  GraphDelta d2;
  d2.SetAttribute(VertexId(0), marker);

  {
    auto session =
        std::move(engine::MiningSession::Create(g, UpdatableOptions()))
            .value();
    ASSERT_TRUE(session.Mine().ok());
    engine::SaveModelOptions save;
    save.include_graph = true;
    ASSERT_TRUE(session.SaveModel(path, save).ok());
    auto store = std::move(store::ModelStore::Open(path)).value();
    ASSERT_TRUE(store.AppendDelta("default", d1).ok());
    ASSERT_TRUE(store.AppendDelta("default", d2).ok());
  }

  // Crash simulation: flip a byte inside the tail WAL record's page.
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const size_t at = bytes.find(marker);
  ASSERT_NE(at, std::string::npos);
  bytes[at] ^= 0x5a;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Reopen: the valid prefix (d1) replays; the torn tail is dropped.
  auto store = std::move(store::ModelStore::Open(path)).value();
  auto replay = store.ReadWal("default");
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->truncated);
  EXPECT_EQ(replay->dropped, 1u);
  ASSERT_EQ(replay->deltas.size(), 1u);

  auto replayed = engine::ReplayFromStore(store, "default");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->deltas, 1u);
  EXPECT_EQ(replayed->dropped, 1u);
  const engine::MiningSession& session = replayed->session;

  // Replay only reads: the torn store file is byte-for-byte as it was.
  {
    std::ifstream in(path, std::ios::binary);
    const std::string unchanged((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
    EXPECT_TRUE(unchanged == bytes);
  }

  // Bit-identical to a cold re-mine of the mutated graph.
  auto cold_app = std::move(graph::ApplyDelta(g, d1)).value();
  auto cold = std::move(engine::MiningSession::Create(cold_app.graph,
                                                      UpdatableOptions()))
                  .value();
  ASSERT_TRUE(cold.Mine().ok());
  EXPECT_EQ(session.SerializeModel(), cold.SerializeModel());
  EXPECT_EQ(session.stats().final_dl_bits, cold.stats().final_dl_bits);

  // Checkpointing the salvaged state drops the torn record for good; the
  // snapshot now carries d1.
  ASSERT_TRUE(engine::CheckpointReplay(store, "default", *replayed).ok());
  auto after = std::move(store.ReadWal("default")).value();
  EXPECT_FALSE(after.truncated);
  EXPECT_TRUE(after.deltas.empty());
  auto again = std::move(engine::ReplayFromStore(store, "default")).value();
  EXPECT_EQ(again.deltas, 0u);
  EXPECT_EQ(again.session.SerializeModel(), cold.SerializeModel());
}

// The live update sequence (ApplyUpdates, then AppendDelta in the mode
// that ran) and ReplayFromStore must end in the same model, bit for bit,
// across exact, fast and attribute deltas.
TEST(WalReplayTest, ReplayFromStoreMatchesLiveSession) {
  const std::string path = ::testing::TempDir() + "/cspm_wal_live.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(15);
  engine::MiningOptions live_options = UpdatableOptions();
  live_options.record_iteration_stats = false;  // as every live session
  auto session =
      std::move(engine::MiningSession::Create(g, live_options)).value();
  ASSERT_TRUE(session.Mine().ok());
  engine::SaveModelOptions save;
  save.include_graph = true;
  save.model_name = "live";
  ASSERT_TRUE(session.SaveModel(path, save).ok());
  auto store = std::move(store::ModelStore::Open(path)).value();

  GraphDelta attribute;
  attribute.SetAttribute(VertexId(9), "replayed-value");
  // (mode, edge-rewire seed); seed 0 stands for the attribute delta.
  const std::vector<std::pair<engine::UpdateMode, uint64_t>> steps = {
      {engine::UpdateMode::kExact, 81},
      {engine::UpdateMode::kFast, 82},
      {engine::UpdateMode::kFast, 83},
      {engine::UpdateMode::kFast, 0},
      {engine::UpdateMode::kFast, 84},
      {engine::UpdateMode::kExact, 85},
      {engine::UpdateMode::kFast, 86},
  };
  size_t fast_runs = 0;
  for (const auto& [mode, seed] : steps) {
    const GraphDelta delta =
        seed == 0 ? attribute : RandomEdgeDelta(session.graph(), 3, seed);
    engine::UpdateStats stats;
    ASSERT_TRUE(session.ApplyUpdates(delta, mode, &stats).ok());
    fast_runs += stats.fast_path ? 1 : 0;
    ASSERT_TRUE(store
                    .AppendDelta("live", delta,
                                 stats.fast_path ? store::WalDeltaMode::kFast
                                                 : store::WalDeltaMode::kExact)
                    .ok());
  }
  EXPECT_EQ(fast_runs, 4u);  // the attribute delta ran exactly

  auto replayed = engine::ReplayFromStore(store, "live");
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->deltas, steps.size());
  EXPECT_EQ(replayed->dropped, 0u);
  EXPECT_EQ(replayed->session.SerializeModel(), session.SerializeModel());
  const double live_dl = session.stats().final_dl_bits;
  const double replay_dl = replayed->session.stats().final_dl_bits;
  EXPECT_EQ(std::memcmp(&live_dl, &replay_dl, sizeof(double)), 0);
}

TEST(WalReplayTest, ReplayFromStoreNeedsGraphSnapshot) {
  const std::string path = ::testing::TempDir() + "/cspm_wal_nograph.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(16);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  ASSERT_TRUE(session.SaveModel(path).ok());  // no graph snapshot
  auto store = std::move(store::ModelStore::Open(path)).value();
  auto replayed = engine::ReplayFromStore(store, "default");
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WalReplayTest, AppendDeltaRecordsModePerRecord) {
  // The WAL's v2 record carries how the live session re-mined, so replay
  // can roll forward each delta in its original mode.
  const std::string path = ::testing::TempDir() + "/cspm_wal_mode.cspm";
  std::remove(path.c_str());
  AttributedGraph g = SmallCommunityGraph(14);
  auto session = std::move(engine::MiningSession::Create(g, UpdatableOptions()))
                     .value();
  ASSERT_TRUE(session.Mine().ok());
  engine::SaveModelOptions save;
  save.include_graph = true;
  ASSERT_TRUE(session.SaveModel(path, save).ok());

  auto store = std::move(store::ModelStore::Open(path)).value();
  GraphDelta d1 = RandomEdgeDelta(g, 2, 71);
  GraphDelta d2 = RandomEdgeDelta(g, 2, 72);
  ASSERT_TRUE(store.AppendDelta("default", d1).ok());  // default: exact
  ASSERT_TRUE(
      store.AppendDelta("default", d2, store::WalDeltaMode::kFast).ok());

  auto replay = std::move(store.ReadWal("default")).value();
  EXPECT_FALSE(replay.truncated);
  ASSERT_EQ(replay.deltas.size(), 2u);
  ASSERT_EQ(replay.modes.size(), 2u);
  EXPECT_EQ(replay.modes[0], store::WalDeltaMode::kExact);
  EXPECT_EQ(replay.modes[1], store::WalDeltaMode::kFast);
}

}  // namespace
}  // namespace cspm
